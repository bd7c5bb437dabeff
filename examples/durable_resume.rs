//! Crash-safe resumable resolution: a durable run is killed at a
//! checkpoint write, then resumed from its run directory on a fresh
//! engine — and lands on exactly the answer of an uninterrupted resolve.
//! See DESIGN.md §14 and `tests/resume_chaos.rs` for the exhaustive sweep.
//!
//! Run: `cargo run --release --example durable_resume`

use datagen::{AmbiguousSpec, World, WorldConfig};
use distinct::{Distinct, DistinctConfig, ResolveRequest, RunOptions};
use relstore::{FaultKind, FaultPlan, FaultyVfs, StdVfs};

fn main() {
    // A small world with one planted three-way ambiguous name.
    let mut config = WorldConfig::tiny(21);
    config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![10, 8, 5])];
    let dataset = datagen::to_catalog(&World::generate(config)).expect("valid world");
    let prepare = || {
        Distinct::prepare(
            &dataset.catalog,
            "Publish",
            "author",
            DistinctConfig::default(),
        )
        .expect("prepare")
    };
    let engine = prepare();
    let refs = engine.references_of("Wei Wang");

    // The uninterrupted answer, for comparison.
    let cold = engine.resolve(&ResolveRequest::new(&refs));
    let k = cold.clustering.labels.iter().copied().max().unwrap_or(0) + 1;
    println!("plain resolve: {} references -> {} people", refs.len(), k);

    // A durable run commits three files into its run directory: the
    // manifest, the similarity tables, and the clustering.
    let run_dir = std::env::temp_dir().join(format!("durable_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let req = ResolveRequest::new(&refs).resume(&run_dir);

    // Crash it: the third write (`clustering.ck`) tears mid-write and the
    // retry budget is exhausted, as if the process had been killed.
    let fatal = RunOptions {
        max_retries: 0,
        ..Default::default()
    };
    let mut vfs = FaultyVfs::new(FaultPlan::new(42).with_fault(3, FaultKind::Torn));
    let err = engine
        .resolve_durable_with(&req, &mut vfs, &fatal)
        .expect_err("the torn write must surface");
    println!("injected crash at write #3: {err}");

    // Resume on a fresh engine: the committed similarity tables are
    // restored, the torn file was never renamed over a checkpoint, and
    // only the clustering is recomputed.
    let resumed = prepare()
        .resolve_durable_with(&req, &mut StdVfs, &RunOptions::default())
        .expect("resume");
    println!(
        "resumed: similarity restored = {}, {} frame(s) committed, complete = {}",
        resumed.run.similarity_restored,
        resumed.run.chunks_committed,
        resumed.outcome.is_complete()
    );
    assert!(resumed.run.similarity_restored);
    assert_eq!(
        resumed.outcome.clustering.labels, cold.clustering.labels,
        "resume must be bit-identical to the uninterrupted resolve"
    );

    // Re-running the same request is now a pure replay: everything is
    // restored from `clustering.ck`, nothing is recomputed.
    let replay = engine.resolve_durable(&req).expect("replay");
    assert!(replay.run.clustering_restored);
    assert_eq!(replay.outcome.clustering.labels, cold.clustering.labels);
    println!("replay: clustering restored from disk, zero recomputation");

    let _ = std::fs::remove_dir_all(&run_dir);
    println!("durable resume is invisible in the answer ({k} people either way)");
}
