//! Experiment S2 — the recovery-aware benchmark ladder.
//!
//! Three rungs of increasing scale, each resolving the paper's hardest
//! name ("Wei Wang", 141 references / 14 entities) through the durable
//! run manager and then measuring crash recovery: the run is killed at
//! its final checkpoint write and resumed cold, so the rung reports both
//! the uninterrupted cost and how much of it a resume actually pays.
//!
//! * `laptop` — the standard evaluation world (2K authors), seconds.
//! * `mid`    — 4× the standard world (8K authors), tens of seconds.
//! * `paper`  — [`WorldConfig::paper_scale`]: the DBLP snapshot profile
//!   (127K authors, ~1.29M references), generated via the streaming
//!   emitter so the catalog is built without a resident `World`.
//!
//! Each rung writes `benchmarks/BENCH_<scenario>.json`; the checked-in
//! files are the reference points for the CI bench-smoke job.
//!
//! Run: `cargo run --release -p distinct-bench --bin bench_ladder -- \
//!       [laptop|mid|paper|all]` (default: `laptop mid` — the paper rung
//! is minutes of single-core work and is opted into explicitly).

use datagen::{stream_to_catalog, DblpDataset, WorldConfig};
use distinct::{Distinct, DistinctConfig, ResolveRequest, RunOptions};
use distinct_bench::{AllocSnapshot, BenchError, StageContext};
use relstore::{FaultPlan, FaultyVfs, StdVfs};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Stage context for this binary.
const BIN: &str = "bench_ladder";

/// The name every rung resolves: the largest Table 1 group.
const NAME: &str = "Wei Wang";

struct Rung {
    scenario: &'static str,
    config: WorldConfig,
}

fn rungs(which: &str) -> Vec<Rung> {
    let laptop = Rung {
        scenario: "laptop",
        config: WorldConfig {
            seed: 7,
            ambiguous: WorldConfig::table1_ambiguous(),
            ..Default::default()
        },
    };
    let mid = Rung {
        scenario: "mid",
        config: WorldConfig {
            seed: 7,
            n_authors: 8_000,
            n_venues: 160,
            n_communities: 64,
            first_name_pool: 1_600,
            last_name_pool: 3_600,
            ambiguous: WorldConfig::table1_ambiguous(),
            ..Default::default()
        },
    };
    let paper = Rung {
        scenario: "paper",
        config: WorldConfig::paper_scale(2007),
    };
    match which {
        "laptop" => vec![laptop],
        "mid" => vec![mid],
        "paper" => vec![paper],
        "all" => vec![laptop, mid, paper],
        "default" => vec![laptop, mid],
        other => {
            eprintln!("unknown rung `{other}` (want laptop|mid|paper|all)");
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

/// Stage timers are emitted with fractional precision: `as_millis`
/// truncation rounded every sub-millisecond stage (clustering on the
/// laptop rung, similarity once pruning landed) down to a flat `0`,
/// hiding real stage-over-stage deltas from the smoke gate.
fn ms_frac(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_rung(r: &Rung) -> Result<(), BenchError> {
    eprintln!(
        "[{}] generating world ({} authors)...",
        r.scenario, r.config.n_authors
    );
    let a0 = AllocSnapshot::now();
    let t0 = Instant::now();
    let dataset: DblpDataset =
        stream_to_catalog(&r.config).stage(BIN, "generate the streamed world")?;
    let generate_ms = ms(t0.elapsed());
    let generate_alloc = a0.delta();
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
        "[{}] {papers} papers / {references} references in {generate_ms} ms; preparing engine...",
        r.scenario
    );

    let a1 = AllocSnapshot::now();
    let t1 = Instant::now();
    let engine = Distinct::prepare(
        &dataset.catalog,
        "Publish",
        "author",
        // One worker, not all cores: a rung's threads, stage walls and
        // metered allocations must not depend on the host.
        DistinctConfig {
            threads: 1,
            ..DistinctConfig::default()
        },
    )
    .stage(BIN, "prepare the engine")?;
    let prepare_ms = ms(t1.elapsed());
    let prepare_alloc = a1.delta();

    let refs = engine.references_of(NAME);
    let opts = RunOptions::default();

    // Cold durable run through a counting Vfs: the uninterrupted cost and
    // the length of the write schedule (the sweep space for recovery).
    let run_dir = std::env::temp_dir().join(format!(
        "distinct_bench_{}_{}",
        r.scenario,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    let req = ResolveRequest::new(&refs).resume(&run_dir);
    let mut counting = FaultyVfs::new(FaultPlan::new(0));
    let a2 = AllocSnapshot::now();
    let t2 = Instant::now();
    let cold = engine
        .resolve_durable_with(&req, &mut counting, &opts)
        .stage(BIN, "run the cold durable resolve")?;
    let cold_ms = ms(t2.elapsed());
    let resolve_alloc = a2.delta();
    let peak_rss_bytes = distinct::peak_rss_bytes().unwrap_or(0);
    let total_writes = counting.writes_attempted();
    assert!(cold.outcome.is_complete(), "cold run degraded");

    // Recovery: a fresh run killed at its final write (the clustering
    // checkpoint), then resumed. The resume restores the similarity
    // tables from disk and recomputes only the clustering stage.
    let _ = std::fs::remove_dir_all(&run_dir);
    let fatal = RunOptions {
        max_retries: 0,
        ..opts.clone()
    };
    let mut killer = FaultyVfs::new(FaultPlan::fail_nth_write(total_writes));
    engine
        .resolve_durable_with(&req, &mut killer, &fatal)
        .expect_err("the injected crash must surface");
    let t3 = Instant::now();
    let resumed = engine
        .resolve_durable_with(&req, &mut StdVfs, &opts)
        .stage(BIN, "resume the killed run")?;
    let resume_ms = ms(t3.elapsed());
    let _ = std::fs::remove_dir_all(&run_dir);
    assert_eq!(
        resumed.outcome.clustering.labels, cold.outcome.clustering.labels,
        "resume diverged from the uninterrupted run"
    );

    let exec = &cold.outcome.exec;
    let json = format!(
        "{{\n  \"scenario\": \"{}\",\n  \"format\": 1,\n  \"resolved_name\": \"{NAME}\",\n  \
         \"weights\": \"uniform\",\n  \"world\": {{\n    \"authors\": {},\n    \"papers\": {papers},\n    \
         \"references\": {references},\n    \"name_references\": {}\n  }},\n  \
         \"threads\": {},\n  \"generate_ms\": {generate_ms},\n  \"prepare_ms\": {prepare_ms},\n  \
         \"wall_ms\": {cold_ms},\n  \"logical\": {},\n  \"peak_rss_bytes\": {},\n  \
         \"pairs_total\": {},\n  \"pairs_pruned\": {},\n  \"pairs_exact\": {},\n  \
         \"stages\": {{\n    \"profiles_ms\": {:.3},\n    \"similarity_ms\": {:.3},\n    \"clustering_ms\": {:.3}\n  }},\n  \
         \"alloc\": {{\n    \"metered\": {},\n    \
         \"generate\": {{ \"allocs\": {}, \"bytes_alloc\": {} }},\n    \
         \"prepare\": {{ \"allocs\": {}, \"bytes_alloc\": {} }},\n    \
         \"resolve\": {{ \"allocs\": {}, \"bytes_alloc\": {} }}\n  }},\n  \
         \"recovery\": {{\n    \"total_writes\": {total_writes},\n    \"killed_at_write\": {total_writes},\n    \
         \"chunks_committed\": {},\n    \"similarity_restored\": {},\n    \
         \"resume_ms\": {resume_ms},\n    \"resume_fraction\": {:.4}\n  }}\n}}\n",
        r.scenario,
        r.config.n_authors,
        refs.len(),
        exec.max_threads(),
        exec.total_logical(),
        peak_rss_bytes,
        exec.pairs_total,
        exec.pairs_pruned,
        exec.pairs_exact,
        ms_frac(exec.profiles.wall),
        ms_frac(exec.similarity.wall),
        ms_frac(exec.clustering.wall),
        distinct_bench::metering_enabled(),
        generate_alloc.allocs,
        generate_alloc.bytes_alloc,
        prepare_alloc.allocs,
        prepare_alloc.bytes_alloc,
        resolve_alloc.allocs,
        resolve_alloc.bytes_alloc,
        cold.run.chunks_committed,
        resumed.run.similarity_restored,
        resume_ms as f64 / cold_ms.max(1) as f64,
    );

    let dir = out_dir();
    std::fs::create_dir_all(&dir).stage(BIN, "create the benchmarks/ directory")?;
    let path = dir.join(format!("BENCH_{}.json", r.scenario));
    std::fs::write(&path, &json).stage(BIN, "write the rung JSON")?;
    eprintln!(
        "[{}] cold {cold_ms} ms, resume {resume_ms} ms ({:.1}% of cold) -> {}",
        r.scenario,
        100.0 * resume_ms as f64 / cold_ms.max(1) as f64,
        path.display()
    );
    Ok(())
}

fn main() -> Result<(), BenchError> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "default".into());
    for rung in rungs(&which) {
        run_rung(&rung)?;
    }
    Ok(())
}
