//! Chaos kill sweeps over the durable resolution path.
//!
//! A clean durable run is measured first to learn its complete write
//! schedule (manifest, similarity tables, clustering). Then, for **every** write index in that schedule
//! and both fatal fault kinds (outright failure and torn write), a fresh
//! run is killed at exactly that write — retries disabled, so the fault
//! is a crash — and resumed on a cold engine. The invariants:
//!
//! * the killed run surfaces a typed [`DistinctError::Store`], never a
//!   panic or a silently wrong answer;
//! * the resume converges to the **bit-identical** partition of an
//!   uninterrupted resolve — labels and dendrogram merges both — and
//!   that expected partition is itself cross-checked against the
//!   reference oracle's naive agglomeration;
//! * killing the *resume* as well still converges on the third attempt;
//! * silent single-bit corruption (which the Vfs reports as success) is
//!   caught at resume time by the checkpoint checksums as a typed
//!   corruption or version error — or, when the flipped file is one the
//!   resume never needs, the answer is still bit-identical.
//!
//! The same discipline is applied to the *incremental* checkpoint path:
//! a durable update stream ([`Distinct::apply_update_stream`]) is killed
//! at every write in its schedule and resumed on a fresh base engine; the
//! resumed outcome — accumulated report and per-name partitions — must be
//! bit-identical to an uninterrupted stream's.

use cluster::Clustering;
use datagen::{AmbiguousSpec, DblpDataset, UpdateStream, World, WorldConfig};
use distinct::{Distinct, DistinctConfig, DistinctError, ResolveRequest, RunOptions, UpdateTuple};
use oracle::{Composite, Measure, OracleEngine};
use relstore::{FaultKind, FaultPlan, FaultyVfs, StdVfs};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn dataset() -> DblpDataset {
    let mut config = WorldConfig::tiny(21);
    config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![10, 8, 5])];
    datagen::to_catalog(&World::generate(config)).unwrap()
}

fn engine(d: &DblpDataset) -> Distinct {
    Distinct::prepare(&d.catalog, "Publish", "author", DistinctConfig::default()).unwrap()
}

/// Tight backoff so the retry test stays fast.
fn opts() -> RunOptions {
    RunOptions {
        backoff_base: Duration::from_micros(100),
        ..Default::default()
    }
}

fn fatal_opts() -> RunOptions {
    RunOptions {
        max_retries: 0,
        ..opts()
    }
}

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("distinct_chaos_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
    fn path(&self) -> &Path {
        &self.0
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn assert_same(ctx: &str, a: &Clustering, b: &Clustering) {
    assert_eq!(a.labels, b.labels, "labels diverge: {ctx}");
    assert_eq!(
        a.dendrogram.merges(),
        b.dendrogram.merges(),
        "dendrograms diverge: {ctx}"
    );
}

/// The uninterrupted answer, cross-checked against the reference oracle.
fn oracle_checked_expected(d: &DblpDataset, e: &Distinct) -> Clustering {
    let refs = e.references_of("Wei Wang");
    let expected = e.resolve(&ResolveRequest::new(&refs)).clustering;

    let (paths, ref_fk) =
        oracle::select_paths(e.catalog(), "Publish", "author", e.config().max_path_len)
            .expect("oracle path selection");
    let weights = e.weights();
    let oracle_engine = OracleEngine::new(
        e.catalog(),
        paths,
        ref_fk,
        weights.resem.clone(),
        weights.walk.clone(),
        Measure::Combined,
        Composite::Geometric,
    );
    let oracle = oracle_engine.resolve(&refs, e.config().min_sim);
    assert_eq!(
        expected.labels, oracle.labels,
        "production baseline disagrees with the oracle"
    );
    assert_eq!(d.truths[0].refs.len(), refs.len());
    expected
}

/// Total writes in a clean durable run — the sweep space.
fn write_schedule_len(e: &Distinct, refs: &[relstore::TupleRef]) -> u64 {
    let dir = TempDir::new("schedule");
    let mut counting = FaultyVfs::new(FaultPlan::new(0));
    let req = ResolveRequest::new(refs).resume(dir.path());
    e.resolve_durable_with(&req, &mut counting, &opts())
        .expect("clean durable run");
    counting.writes_attempted()
}

#[test]
fn kill_at_every_write_point_resumes_bit_identically() {
    let d = dataset();
    let e = engine(&d);
    let refs = e.references_of("Wei Wang");
    let expected = oracle_checked_expected(&d, &e);

    let total = write_schedule_len(&e, &refs);
    // Manifest, similarity tables, clustering.
    assert_eq!(
        total, 3,
        "write schedule changed; widen or narrow the sweep"
    );

    for nth in 1..=total {
        for kind in [FaultKind::Fail, FaultKind::Torn] {
            let dir = TempDir::new(&format!("kill_{nth}_{kind:?}"));
            let req = ResolveRequest::new(&refs).resume(dir.path());
            let mut vfs = FaultyVfs::new(FaultPlan::new(0xC0FFEE + nth).with_fault(nth, kind));
            let err = e
                .resolve_durable_with(&req, &mut vfs, &fatal_opts())
                .expect_err("the injected crash must surface");
            assert!(
                matches!(err, DistinctError::Store(_)),
                "write #{nth} {kind:?}: expected a store error, got {err}"
            );

            // A cold engine resumes the directory to the identical answer.
            let cold = engine(&d);
            let resumed = cold
                .resolve_durable_with(&req, &mut StdVfs, &opts())
                .unwrap_or_else(|e| panic!("resume after write #{nth} {kind:?} failed: {e}"));
            assert!(resumed.outcome.is_complete());
            assert_same(
                &format!("kill at write #{nth} ({kind:?})"),
                &resumed.outcome.clustering,
                &expected,
            );
        }
    }
}

#[test]
fn killing_the_resume_still_converges() {
    let d = dataset();
    let e = engine(&d);
    let refs = e.references_of("Wei Wang");
    let expected = e.resolve(&ResolveRequest::new(&refs)).clustering;
    let total = write_schedule_len(&e, &refs);

    for nth in 1..=total {
        let dir = TempDir::new(&format!("double_{nth}"));
        let req = ResolveRequest::new(&refs).resume(dir.path());
        let mut vfs = FaultyVfs::new(FaultPlan::fail_nth_write(nth));
        e.resolve_durable_with(&req, &mut vfs, &fatal_opts())
            .expect_err("first crash");

        // The resume is itself crashed at its second write — unless it
        // has fewer than two writes left, in which case it completes.
        let cold = engine(&d);
        let mut vfs2 = FaultyVfs::new(FaultPlan::fail_nth_write(2));
        match cold.resolve_durable_with(&req, &mut vfs2, &fatal_opts()) {
            Ok(out) => assert_same(
                &format!("short resume after crash at #{nth}"),
                &out.outcome.clustering,
                &expected,
            ),
            Err(err) => {
                assert!(matches!(err, DistinctError::Store(_)), "{err}");
                let third = engine(&d)
                    .resolve_durable_with(&req, &mut StdVfs, &opts())
                    .expect("third attempt completes");
                assert_same(
                    &format!("double crash at #{nth} then #2"),
                    &third.outcome.clustering,
                    &expected,
                );
            }
        }
    }
}

#[test]
fn transient_faults_under_retry_never_need_a_second_attempt() {
    let d = dataset();
    let e = engine(&d);
    let refs = e.references_of("Wei Wang");
    let expected = e.resolve(&ResolveRequest::new(&refs)).clustering;
    let total = write_schedule_len(&e, &refs);

    // With retries enabled, a failing write is rewritten and the run
    // completes first try, wherever the fault lands.
    for nth in 1..=total {
        let dir = TempDir::new(&format!("retry_{nth}"));
        let req = ResolveRequest::new(&refs).resume(dir.path());
        let mut vfs = FaultyVfs::new(FaultPlan::fail_nth_write(nth));
        let out = e
            .resolve_durable_with(&req, &mut vfs, &opts())
            .unwrap_or_else(|e| panic!("retry should absorb write #{nth}: {e}"));
        assert!(out.run.io_retries >= 1, "write #{nth} must cost a retry");
        assert_same(
            &format!("retried write #{nth}"),
            &out.outcome.clustering,
            &expected,
        );
    }
}

#[test]
fn silent_bit_flips_are_caught_or_harmless_on_resume() {
    let d = dataset();
    let e = engine(&d);
    let refs = e.references_of("Wei Wang");
    let expected = e.resolve(&ResolveRequest::new(&refs)).clustering;
    let total = write_schedule_len(&e, &refs);

    for nth in 1..=total {
        let dir = TempDir::new(&format!("flip_{nth}"));
        let req = ResolveRequest::new(&refs).resume(dir.path());
        // The flip reports success: the run completes from its in-memory
        // state and the corruption sits latent on disk.
        let mut vfs = FaultyVfs::new(FaultPlan::bit_flip_nth_write(nth, 0x5EED + nth));
        let flipped = e
            .resolve_durable_with(&req, &mut vfs, &opts())
            .expect("bit flips are silent at write time");
        assert_same(
            &format!("flipped run #{nth}"),
            &flipped.outcome.clustering,
            &expected,
        );

        // Resume must never return a *wrong* partition: either the
        // checksum/version check trips, or the flipped file was not on
        // the resume path and the answer is identical.
        match engine(&d).resolve_durable_with(&req, &mut StdVfs, &opts()) {
            Ok(resumed) => assert_same(
                &format!("resume over latent flip #{nth}"),
                &resumed.outcome.clustering,
                &expected,
            ),
            Err(
                DistinctError::CorruptCheckpoint { .. } | DistinctError::VersionMismatch { .. },
            ) => {}
            Err(other) => panic!("flip #{nth}: expected typed corruption, got {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental checkpoint path: durable update streams
// ---------------------------------------------------------------------------

/// A small world split into base + log so the stream spans several
/// checkpoint chunks without the sweep getting expensive.
fn stream_fixture() -> (UpdateStream, Vec<UpdateTuple>) {
    let mut config = WorldConfig::tiny(33);
    config.n_authors = 80;
    config.n_venues = 10;
    config.n_communities = 4;
    config.mean_papers_per_author = 4.0;
    config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![6, 5])];
    let stream = datagen::update_stream(&config, 0.2, 9).unwrap();
    let updates = stream
        .log
        .iter()
        .map(|(rel, values)| UpdateTuple::new(rel.clone(), values.clone()))
        .collect();
    (stream, updates)
}

fn base_engine(stream: &UpdateStream) -> Distinct {
    Distinct::prepare(
        &stream.base.catalog,
        "Publish",
        "author",
        DistinctConfig::default(),
    )
    .unwrap()
}

/// Chunks of 16 so the sweep crosses several chunk commits.
fn stream_opts() -> RunOptions {
    RunOptions {
        chunk_size: 16,
        backoff_base: Duration::from_micros(100),
        ..Default::default()
    }
}

#[test]
fn killed_update_stream_resumes_bit_identically_at_every_write() {
    let (stream, updates) = stream_fixture();

    // The uninterrupted outcome, and with it the write schedule to sweep.
    let expected = {
        let dir = TempDir::new("stream_clean");
        let mut counting = relstore::FaultyVfs::new(FaultPlan::new(0));
        let out = base_engine(&stream)
            .apply_update_stream_with(&updates, dir.path(), &mut counting, &stream_opts())
            .expect("clean update stream");
        (out, counting.writes_attempted())
    };
    let (expected, total) = expected;
    assert_eq!(expected.report.applied, updates.len());
    assert!(
        total >= 3,
        "schedule too short to be an interesting sweep: {total} writes"
    );
    assert!(
        !expected.partitions.is_empty(),
        "the log must dirty at least one name"
    );

    for nth in 1..=total {
        for kind in [FaultKind::Fail, FaultKind::Torn] {
            let dir = TempDir::new(&format!("stream_kill_{nth}_{kind:?}"));
            let fatal = RunOptions {
                max_retries: 0,
                ..stream_opts()
            };
            let mut vfs = FaultyVfs::new(FaultPlan::new(0xBEEF + nth).with_fault(nth, kind));
            let err = base_engine(&stream)
                .apply_update_stream_with(&updates, dir.path(), &mut vfs, &fatal)
                .expect_err("the injected crash must surface");
            assert!(
                matches!(err, DistinctError::Store(_)),
                "stream write #{nth} {kind:?}: expected a store error, got {err}"
            );

            // Resume on a fresh engine prepared on the same base catalog:
            // committed chunks replay from disk, the rest runs live, and
            // the outcome is bit-identical to the uninterrupted stream.
            let resumed = base_engine(&stream)
                .apply_update_stream_with(&updates, dir.path(), &mut StdVfs, &stream_opts())
                .unwrap_or_else(|e| {
                    panic!("stream resume after write #{nth} {kind:?} failed: {e}")
                });
            assert_eq!(
                resumed.report, expected.report,
                "kill at stream write #{nth} ({kind:?}): report diverged"
            );
            assert_eq!(
                resumed.partitions, expected.partitions,
                "kill at stream write #{nth} ({kind:?}): partitions diverged"
            );
            assert_eq!(
                resumed.chunks_committed + resumed.chunks_replayed,
                expected.chunks_committed,
                "kill at stream write #{nth} ({kind:?}): chunk accounting broken"
            );
        }
    }
}

#[test]
fn update_stream_transient_faults_are_absorbed_by_retry() {
    let (stream, updates) = stream_fixture();
    let dir_clean = TempDir::new("stream_retry_expected");
    let expected = base_engine(&stream)
        .apply_update_stream_with(&updates, dir_clean.path(), &mut StdVfs, &stream_opts())
        .unwrap();

    // A failing write under retry is rewritten; the stream completes in
    // one call wherever the fault lands (spot-checked across the span).
    for nth in [1u64, 2, 3] {
        let dir = TempDir::new(&format!("stream_retry_{nth}"));
        let mut vfs = FaultyVfs::new(FaultPlan::fail_nth_write(nth));
        let out = base_engine(&stream)
            .apply_update_stream_with(&updates, dir.path(), &mut vfs, &stream_opts())
            .unwrap_or_else(|e| panic!("retry should absorb stream write #{nth}: {e}"));
        assert!(out.io_retries >= 1, "stream write #{nth} must cost a retry");
        assert_eq!(out.report, expected.report);
        assert_eq!(out.partitions, expected.partitions);
    }
}
