//! Experiment S3 — incremental update vs. cold recompute.
//!
//! The update benchmark behind DESIGN.md §16: an engine resolves the
//! paper's hardest name ("Wei Wang") once, then a *single new paper* by
//! that author arrives as an update — one `Publications` row plus one
//! `Publish` row. The incremental path applies the tuples, dirties the
//! touched neighborhood and evicts its profiles, then re-resolves the
//! name over the warm profile cache, recomputing only the evicted and
//! added profiles and rebuilding the name's tables; the baseline
//! recomputes everything from scratch (`Distinct::prepare` on the union
//! catalog plus a batch resolve).
//!
//! The rung reports both wall times, their ratio, the profiles the
//! update's resolve recomputed (`profiles_computed` out of the name's
//! `name_references`), and the kernel-unit accounting of the rebuilt
//! tables, and cross-checks that the incremental partition is
//! bit-identical to the cold one.
//!
//! Run: `cargo run --release -p distinct-bench --bin bench_incremental -- \
//!       [laptop|paper]` (default: `paper`, the checked-in reference
//! point; `laptop` is the CI smoke scale). Writes
//! `benchmarks/BENCH_incremental.json`.

use datagen::{stream_to_catalog, DblpDataset, WorldConfig};
use distinct::{Distinct, DistinctConfig, ResolveRequest, UpdateTuple};
use distinct_bench::{BenchError, StageContext};
use relstore::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Stage context for this binary.
const BIN: &str = "bench_incremental";

/// The name the update touches: the largest Table 1 group.
const NAME: &str = "Wei Wang";

fn config(scale: &str) -> WorldConfig {
    match scale {
        "laptop" => WorldConfig {
            seed: 7,
            ambiguous: WorldConfig::table1_ambiguous(),
            ..Default::default()
        },
        "paper" => WorldConfig::paper_scale(2007),
        other => {
            eprintln!("unknown scale `{other}` (want laptop|paper)");
            std::process::exit(2);
        }
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks")
}

fn ms(d: std::time::Duration) -> u64 {
    d.as_millis() as u64
}

fn ms_frac(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One new paper by `NAME` at an existing venue: the `Publications` row
/// and its `Publish` byline, the smallest update that moves the answer.
fn single_paper_update(dataset: &DblpDataset) -> Result<Vec<UpdateTuple>, BenchError> {
    let pubs = dataset
        .catalog
        .relation_id("Publications")
        .stage(BIN, "locate the Publications relation")?;
    let rel = dataset.catalog.relation(pubs);
    let paper_key = rel.len() as i64 + 1;
    let proc_key = rel.tuple(relstore::TupleId(0)).values()[2].clone();
    Ok(vec![
        UpdateTuple::new(
            "Publications",
            vec![
                Value::Int(paper_key),
                Value::str("Incremental Resolution of Identical Names"),
                proc_key,
            ],
        ),
        UpdateTuple::new("Publish", vec![Value::str(NAME), Value::Int(paper_key)]),
    ])
}

fn main() -> Result<(), BenchError> {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "paper".into());
    let config = config(&scale);

    eprintln!(
        "[{scale}] generating world ({} authors)...",
        config.n_authors
    );
    let t0 = Instant::now();
    let dataset = stream_to_catalog(&config).stage(BIN, "generate the streamed world")?;
    let generate_ms = ms(t0.elapsed());
    let papers = dataset
        .catalog
        .relation(
            dataset
                .catalog
                .relation_id("Publications")
                .stage(BIN, "locate the Publications relation")?,
        )
        .len();
    let references = dataset.catalog.relation(dataset.publish).len();
    eprintln!(
        "[{scale}] {papers} papers / {references} references in {generate_ms} ms; preparing engine..."
    );

    let t1 = Instant::now();
    let mut engine = Distinct::prepare(
        &dataset.catalog,
        "Publish",
        "author",
        DistinctConfig::default(),
    )
    .stage(BIN, "prepare the engine")?;
    let prepare_ms = ms(t1.elapsed());

    // Warm resolve: the steady state an update arrives into, with the
    // name's profiles in the cache.
    let refs_before = engine.references_of(NAME);
    let t2 = Instant::now();
    let warm = engine.resolve(&ResolveRequest::new(&refs_before));
    let warm_resolve_ms = ms_frac(t2.elapsed());
    assert!(warm.is_complete(), "warm resolve degraded");

    // The measured path: apply one paper's tuples, re-resolve incrementally.
    let updates = single_paper_update(&dataset)?;
    let t3 = Instant::now();
    let report = engine
        .apply_updates(&updates)
        .stage(BIN, "apply the one-paper update")?;
    let apply_ms = ms_frac(t3.elapsed());
    let refs_after = engine.references_of(NAME);
    let incremental = engine.resolve(&ResolveRequest::new(&refs_after));
    let update_ms = ms_frac(t3.elapsed());
    assert_eq!(report.applied, updates.len(), "update rows must be new");
    assert_eq!(refs_after.len(), refs_before.len() + 1);
    assert!(incremental.is_complete(), "incremental resolve degraded");

    // The baseline: recompute the union catalog from scratch.
    let t4 = Instant::now();
    let cold_engine = Distinct::prepare(
        engine.catalog(),
        "Publish",
        "author",
        DistinctConfig::default(),
    )
    .stage(BIN, "prepare the cold union engine")?;
    let cold = cold_engine.resolve(&ResolveRequest::new(&refs_after));
    let cold_ms = ms_frac(t4.elapsed());
    assert_eq!(
        incremental.clustering.labels, cold.clustering.labels,
        "incremental partition diverged from the cold recompute"
    );

    let exec = &incremental.exec;
    assert_eq!(
        exec.pairs_pruned + exec.pairs_exact,
        exec.pairs_total,
        "kernel-unit accounting must balance"
    );
    let profiles_computed = exec.profiles.tasks;
    assert!(
        profiles_computed >= report.refs_added
            && profiles_computed <= report.refs_dirtied + report.refs_added,
        "the update's resolve computed {profiles_computed} profiles for {} added \
         and {} dirtied references",
        report.refs_added,
        report.refs_dirtied
    );
    assert!(
        profiles_computed * 10 <= refs_after.len(),
        "a one-paper update should recompute a small fraction of the name's \
         profiles ({profiles_computed} of {})",
        refs_after.len()
    );
    let speedup = cold_ms / update_ms.max(1e-6);

    let json = format!(
        "{{\n  \"scenario\": \"incremental\",\n  \"format\": 1,\n  \"scale\": \"{scale}\",\n  \
         \"resolved_name\": \"{NAME}\",\n  \"weights\": \"uniform\",\n  \"world\": {{\n    \
         \"authors\": {},\n    \"papers\": {papers},\n    \"references\": {references},\n    \
         \"name_references\": {}\n  }},\n  \"threads\": {},\n  \"generate_ms\": {generate_ms},\n  \
         \"prepare_ms\": {prepare_ms},\n  \"warm_resolve_ms\": {warm_resolve_ms:.3},\n  \
         \"update\": {{\n    \"tuples\": {},\n    \"refs_added\": {},\n    \"refs_dirtied\": {},\n    \
         \"names_affected\": {},\n    \"apply_ms\": {apply_ms:.3},\n    \"update_ms\": {update_ms:.3},\n    \"cold_ms\": {cold_ms:.3},\n    \
         \"speedup\": {speedup:.1},\n    \"profiles_computed\": {profiles_computed},\n    \
         \"pairs_total\": {},\n    \"pairs_exact\": {},\n    \"pairs_pruned\": {},\n    \
         \"arena_rows_interned\": {}\n  }}\n}}\n",
        config.n_authors,
        refs_after.len(),
        exec.max_threads(),
        updates.len(),
        report.refs_added,
        report.refs_dirtied,
        report.names_affected,
        exec.pairs_total,
        exec.pairs_exact,
        exec.pairs_pruned,
        exec.arena_rows_interned,
    );

    let dir = out_dir();
    std::fs::create_dir_all(&dir).stage(BIN, "create the benchmarks/ directory")?;
    let path = dir.join("BENCH_incremental.json");
    std::fs::write(&path, &json).stage(BIN, "write the rung JSON")?;
    eprintln!(
        "[{scale}] update {update_ms:.1} ms vs cold {cold_ms:.1} ms \
         ({speedup:.0}x, {profiles_computed} of {} profiles recomputed) -> {}",
        refs_after.len(),
        path.display()
    );
    Ok(())
}
