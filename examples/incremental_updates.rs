//! Incremental resolution: new tuples stream into a prepared engine and
//! only the touched references' profiles are recomputed — dirty
//! tracking, the warm profile cache, and the durable update-stream path.
//! The streaming partitions and merges are bit-identical to cold batch
//! resolves over the same catalog. See DESIGN.md §16 and the convergence
//! oracle in `tests/oracle_metamorphic.rs`.
//!
//! Run: `cargo run --release --example incremental_updates`

use distinct::{Distinct, DistinctConfig, ResolveRequest, UpdateTuple};

fn main() {
    // A small world with one planted ambiguous name, split into a base
    // catalog plus a replayable log of held-out papers.
    let mut config = datagen::WorldConfig::tiny(21);
    config.ambiguous = vec![datagen::AmbiguousSpec::new("Wei Wang", vec![10, 8, 5])];
    let stream = datagen::update_stream(&config, 0.2, 9).expect("valid world");
    println!(
        "base catalog holds back {} papers as a {}-tuple update log",
        stream.held_out_papers,
        stream.log.len()
    );

    let mut engine = Distinct::prepare(
        &stream.base.catalog,
        "Publish",
        "author",
        DistinctConfig::default(),
    )
    .expect("prepare");

    // Warm the name: the first resolve caches every reference's profile.
    let refs = engine.references_of("Wei Wang");
    let warm = engine.resolve(&ResolveRequest::new(&refs));
    println!(
        "warm resolve: {} references, {} profiles computed",
        refs.len(),
        warm.exec.profiles.tasks
    );

    // Stream the log one tuple at a time: each apply reports what it
    // touched and evicts those profiles, each re-resolve recomputes only
    // them.
    for (relation, values) in &stream.log {
        let update = UpdateTuple::new(relation.clone(), values.clone());
        let report = engine
            .apply_updates(std::slice::from_ref(&update))
            .expect("apply");
        if report.names.iter().any(|n| n == "Wei Wang") {
            let refs = engine.references_of("Wei Wang");
            let out = engine.resolve(&ResolveRequest::new(&refs));
            println!(
                "  +{relation} row: {} refs dirtied, {} of {} profiles recomputed",
                report.refs_dirtied,
                out.exec.profiles.tasks,
                refs.len()
            );
        }
    }

    // Streaming converged: the final partition equals a cold batch
    // resolve over the grown catalog, on a fresh engine.
    let refs = engine.references_of("Wei Wang");
    let streamed = engine.resolve(&ResolveRequest::new(&refs));
    let cold_engine = Distinct::prepare(
        engine.catalog(),
        "Publish",
        "author",
        DistinctConfig::default(),
    )
    .expect("union prepare");
    let cold = cold_engine.resolve(&ResolveRequest::new(&refs));
    assert_eq!(
        streamed.clustering.labels, cold.clustering.labels,
        "streaming must converge to the cold batch partition"
    );
    assert_eq!(
        streamed.clustering.dendrogram.merges(),
        cold.clustering.dendrogram.merges(),
        "and to its merges"
    );
    let k = cold.clustering.labels.iter().copied().max().unwrap_or(0) + 1;
    println!(
        "streamed ≡ batch: {} references -> {} people",
        refs.len(),
        k
    );

    // The durable variant: the whole log in one resumable, chunked,
    // crash-safe call — checkpoints land in a run directory, and a
    // second call over the same directory is a pure replay.
    let mut fresh = Distinct::prepare(
        &stream.base.catalog,
        "Publish",
        "author",
        DistinctConfig::default(),
    )
    .expect("prepare");
    let updates: Vec<UpdateTuple> = stream
        .log
        .iter()
        .map(|(r, v)| UpdateTuple::new(r.clone(), v.clone()))
        .collect();
    let run_dir = std::env::temp_dir().join(format!("incremental_updates_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let outcome = fresh
        .apply_update_stream(&updates, &run_dir)
        .expect("durable stream");
    println!(
        "durable stream: {} applied in {} chunks, {} names affected",
        outcome.report.applied, outcome.chunks_committed, outcome.report.names_affected
    );
    let wei = outcome
        .partitions
        .iter()
        .find(|(n, _)| n == "Wei Wang")
        .expect("Wei Wang partition");
    assert_eq!(wei.1, cold.clustering.labels, "durable stream diverged");
    let _ = std::fs::remove_dir_all(&run_dir);
    println!("durable stream partition matches too");
}
