//! Failure injection: corrupt inputs, injected I/O faults, execution
//! limits, degenerate databases, and hostile edge cases must produce
//! typed errors or degraded-but-valid results — never panics, never
//! silently corrupted data.
//!
//! Runs clean in parallel: every test owns a unique temp directory whose
//! guard removes it on drop, including during the unwind of a failed
//! assertion. CI additionally exercises this suite with
//! `--test-threads=1` to keep fault timelines deterministic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use datagen::{to_catalog, AmbiguousSpec, DblpDataset, World, WorldConfig};
use distinct::{
    Distinct, DistinctConfig, DistinctError, InterruptKind, ResolveRequest, RunControl,
    TrainRequest, TrainingConfig,
};
use proptest::prelude::*;
use relstore::{
    persist, AttrType, Catalog, FaultKind, FaultPlan, FaultyVfs, SchemaBuilder, StoreError, Tuple,
    Value,
};

// ---------------------------------------------------------------------------
// Per-test unique temp directories with guarded cleanup
// ---------------------------------------------------------------------------

/// A uniquely named temp directory removed when the guard drops — also on
/// test panic, so failed runs don't leak state into later ones.
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "distinct_fi_{tag}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    fn path(&self) -> &Path {
        &self.path
    }

    fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn training() -> TrainingConfig {
    TrainingConfig {
        positives: 20,
        negatives: 20,
        ..Default::default()
    }
}

fn tiny_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_relation(
        SchemaBuilder::new("A")
            .key("a", AttrType::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    c.insert("A", [Value::Int(1)].into()).unwrap();
    c.finalize(true).unwrap();
    c
}

fn wei_wang_dataset() -> DblpDataset {
    let mut config = WorldConfig::tiny(3);
    config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![4, 3])];
    to_catalog(&World::generate(config)).unwrap()
}

// ---------------------------------------------------------------------------
// Store corruption at rest
// ---------------------------------------------------------------------------

#[test]
fn persist_load_with_missing_relation_file_errors() {
    let dir = TempDir::new("missing_rel");
    let c = tiny_catalog();
    persist::save_catalog(&c, dir.path()).unwrap();
    std::fs::remove_file(dir.join("A.csv")).unwrap();
    assert!(matches!(
        persist::load_catalog(dir.path()),
        Err(StoreError::Io { .. })
    ));
}

#[test]
fn persist_load_with_corrupt_relation_body_errors() {
    let dir = TempDir::new("corrupt_rel");
    let c = tiny_catalog();
    persist::save_catalog(&c, dir.path()).unwrap();
    // The replacement is syntactically valid CSV: only the manifest
    // checksum can tell it apart from the real body.
    std::fs::write(dir.join("A.csv"), "a\nnot_an_int\n").unwrap();
    assert!(matches!(
        persist::load_catalog(dir.path()),
        Err(StoreError::Corrupt { .. })
    ));
}

#[test]
fn persist_load_without_manifest_errors() {
    let dir = TempDir::new("no_manifest");
    let c = tiny_catalog();
    persist::save_catalog(&c, dir.path()).unwrap();
    std::fs::remove_file(dir.join("manifest.json")).unwrap();
    assert!(matches!(
        persist::load_catalog(dir.path()),
        Err(StoreError::MissingManifest { .. })
    ));
}

// ---------------------------------------------------------------------------
// Injected I/O faults during save
// ---------------------------------------------------------------------------

/// Count how many writes a full save of `c` issues.
fn writes_per_save(c: &Catalog, dir: &Path) -> u64 {
    let mut counting = FaultyVfs::new(FaultPlan::new(0));
    persist::save_catalog_with(c, dir, &mut counting).unwrap();
    counting.writes_attempted()
}

#[test]
fn every_failed_write_during_save_yields_error_and_no_torn_load() {
    let d = wei_wang_dataset();
    let probe = TempDir::new("probe");
    let total = writes_per_save(&d.catalog, probe.path());
    assert!(total >= 5, "expected several files, saw {total} writes");

    for kind in [FaultKind::Fail, FaultKind::Torn] {
        for nth in 1..=total {
            let dir = TempDir::new("killsweep");
            let mut vfs =
                FaultyVfs::over(relstore::StdVfs, FaultPlan::new(7).with_fault(nth, kind));
            let err = persist::save_catalog_with(&d.catalog, dir.path(), &mut vfs)
                .expect_err("interrupted save must error");
            assert!(
                matches!(err, StoreError::Io { .. }),
                "{kind:?} #{nth}: {err}"
            );
            // A fresh directory holds no committed manifest: the loader
            // must refuse rather than assemble the partial files.
            assert!(
                persist::load_catalog(dir.path()).is_err(),
                "{kind:?} #{nth}: loaded a torn save"
            );
        }
    }
}

#[test]
fn every_bit_flipped_write_during_save_is_caught_at_load() {
    let d = wei_wang_dataset();
    let probe = TempDir::new("probe_flip");
    let total = writes_per_save(&d.catalog, probe.path());

    for nth in 1..=total {
        let dir = TempDir::new("flipsweep");
        let mut vfs = FaultyVfs::new(FaultPlan::bit_flip_nth_write(nth, 0xBEEF + nth));
        // Bit flips are silent at write time.
        persist::save_catalog_with(&d.catalog, dir.path(), &mut vfs).unwrap();
        match persist::load_catalog(dir.path()) {
            Err(StoreError::Corrupt { .. }) => {}
            // A flip inside the manifest itself may make it unparseable
            // (Corrupt) — but never loadable-with-wrong-data, which would
            // show up as Ok with a checksum that cannot match.
            Err(other) => panic!("write #{nth}: unexpected error kind {other:?}"),
            Ok(_) => panic!("write #{nth}: bit flip loaded silently"),
        }
    }
}

#[test]
fn interrupted_overwrite_preserves_the_previous_committed_catalog() {
    let d = wei_wang_dataset();
    let before = tiny_catalog();
    let dir = TempDir::new("overwrite");
    persist::save_catalog(&before, dir.path()).unwrap();

    // Kill the very first write of the overwriting save: the committed
    // store must still load, unchanged.
    let mut vfs = FaultyVfs::new(FaultPlan::fail_nth_write(1));
    assert!(persist::save_catalog_with(&d.catalog, dir.path(), &mut vfs).is_err());
    let loaded = persist::load_catalog(dir.path()).unwrap();
    assert_eq!(loaded.tuple_count(), before.tuple_count());
    assert_eq!(loaded.relation_count(), before.relation_count());
}

// ---------------------------------------------------------------------------
// Checkpoint faults
// ---------------------------------------------------------------------------

fn prepared_engine(d: &DblpDataset) -> Distinct {
    Distinct::prepare(
        &d.catalog,
        "Publish",
        "author",
        DistinctConfig {
            training: training(),
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn checkpoint_kill_mid_write_restores_pre_save_state_or_reports_corruption() {
    let d = wei_wang_dataset();
    let engine = prepared_engine(&d);
    let refs = engine.references_of("Wei Wang");
    let _ = engine.resolve(&ResolveRequest::new(&refs)); // warm the profile cache
    let dir = TempDir::new("ckpt");
    let path = dir.join("engine.ckpt");
    engine.save_checkpoint(&path).unwrap();
    let committed = std::fs::read(&path).unwrap();

    for plan in [
        FaultPlan::fail_nth_write(1),
        FaultPlan::torn_nth_write(1, 3),
        FaultPlan::torn_nth_write(1, 11),
    ] {
        let mut vfs = FaultyVfs::new(plan);
        assert!(engine.save_checkpoint_with(&path, &mut vfs).is_err());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            committed,
            "interrupted save touched the committed checkpoint"
        );
        let mut fresh = prepared_engine(&d);
        fresh.load_checkpoint(&path).unwrap();
        assert_eq!(fresh.cached_profiles(), engine.cached_profiles());
    }

    // Silent bit flip: save succeeds, load must refuse.
    let mut vfs = FaultyVfs::new(FaultPlan::bit_flip_nth_write(1, 42));
    engine.save_checkpoint_with(&path, &mut vfs).unwrap();
    let mut fresh = prepared_engine(&d);
    match fresh.load_checkpoint(&path) {
        Err(DistinctError::CorruptCheckpoint { .. }) => {}
        other => panic!("expected CorruptCheckpoint, got {other:?}"),
    }
    // Nothing partial was installed.
    assert_eq!(fresh.cached_profiles(), 0);
    assert!(fresh.learned().is_none());
}

// ---------------------------------------------------------------------------
// Execution limits degrade, never panic
// ---------------------------------------------------------------------------

#[test]
fn tight_budget_resolution_returns_degraded_partial_clustering() {
    let d = wei_wang_dataset();
    let engine = prepared_engine(&d);
    let refs = engine.references_of("Wei Wang");
    assert!(!refs.is_empty());
    let ctl = RunControl::new().with_budget(5);
    let outcome = engine.resolve(&ResolveRequest::new(&refs).control(&ctl));
    assert_eq!(outcome.clustering.labels.len(), refs.len());
    let degraded = outcome.degraded.expect("a 5-unit budget must degrade");
    assert_eq!(degraded.kind, InterruptKind::BudgetExhausted);
    assert!(degraded.profiles_computed < refs.len());
}

#[test]
fn zero_deadline_resolution_degrades_and_training_errors() {
    let d = wei_wang_dataset();
    let mut engine = prepared_engine(&d);
    let refs = engine.references_of("Wei Wang");

    let ctl = RunControl::new().with_deadline(std::time::Duration::ZERO);
    std::thread::sleep(std::time::Duration::from_millis(1));
    let outcome = engine.resolve(&ResolveRequest::new(&refs).control(&ctl));
    assert_eq!(outcome.clustering.labels.len(), refs.len());
    assert_eq!(
        outcome
            .degraded
            .expect("expired deadline must degrade")
            .kind,
        InterruptKind::DeadlineExceeded
    );

    let ctl = RunControl::new().with_deadline(std::time::Duration::ZERO);
    std::thread::sleep(std::time::Duration::from_millis(1));
    assert!(matches!(
        engine.train_with(&TrainRequest::new().control(&ctl)),
        Err(DistinctError::Interrupted { .. })
    ));
}

#[test]
fn cancellation_mid_run_is_typed_not_a_panic() {
    let d = wei_wang_dataset();
    let mut engine = prepared_engine(&d);
    let ctl = RunControl::new();
    ctl.token().cancel();
    match engine.train_with(&TrainRequest::new().control(&ctl)) {
        Err(DistinctError::Interrupted { kind, .. }) => {
            assert_eq!(kind, InterruptKind::Cancelled)
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Property: any single byte flip in any persisted file is detected
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_single_byte_corruption_is_detected(file_pick in any::<u64>(), pos_pick in any::<u64>(), flip in 1u8..=255) {
        let dir = TempDir::new("prop_flip");
        let d = wei_wang_dataset();
        persist::save_catalog(&d.catalog, dir.path()).unwrap();
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let target = &files[(file_pick % files.len() as u64) as usize];
        let mut bytes = std::fs::read(target).unwrap();
        prop_assume!(!bytes.is_empty());
        let pos = (pos_pick % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        std::fs::write(target, &bytes).unwrap();
        let result = persist::load_catalog(dir.path());
        prop_assert!(
            matches!(
                result,
                Err(StoreError::Corrupt { .. } | StoreError::MissingManifest { .. })
            ),
            "flipping byte {pos} of {} by {flip:#04x} was not detected: {result:?}",
            target.display()
        );
    }
}

// ---------------------------------------------------------------------------
// Degenerate databases and hostile configuration (pre-existing coverage)
// ---------------------------------------------------------------------------

#[test]
fn pipeline_on_database_with_no_informative_structure() {
    // A database where every reference links to one single shared paper:
    // all neighborhoods identical, no training signal. The pipeline must
    // fail gracefully at training (no unique names / degenerate features),
    // and unsupervised resolution must still return a clustering.
    let mut c = Catalog::new();
    c.add_relation(
        SchemaBuilder::new("Authors")
            .key("author", AttrType::Str)
            .build()
            .unwrap(),
    )
    .unwrap();
    c.add_relation(
        SchemaBuilder::new("Papers")
            .key("paper", AttrType::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    c.add_relation(
        SchemaBuilder::new("Publish")
            .fk("author", AttrType::Str, "Authors")
            .fk("paper", AttrType::Int, "Papers")
            .build()
            .unwrap(),
    )
    .unwrap();
    c.insert("Papers", [Value::Int(1)].into()).unwrap();
    for a in ["Shared Name", "Other Name"] {
        c.insert("Authors", [Value::str(a)].into()).unwrap();
    }
    for _ in 0..3 {
        c.insert("Publish", [Value::str("Shared Name"), Value::Int(1)].into())
            .unwrap();
    }
    c.insert("Publish", [Value::str("Other Name"), Value::Int(1)].into())
        .unwrap();

    let config = DistinctConfig {
        training: training(),
        ..Default::default()
    };
    let mut engine = Distinct::prepare(&c, "Publish", "author", config).unwrap();
    // Training has nothing to learn from (too few unique names).
    assert!(engine.train().is_err());
    // Resolution still works with uniform weights.
    let refs = engine.references_of("Shared Name");
    let clustering = engine.resolve(&ResolveRequest::new(&refs)).clustering;
    assert_eq!(refs.len(), 3);
    assert_eq!(clustering.labels.len(), 3);
}

#[test]
fn resolving_a_nonexistent_name_is_a_no_op() {
    let d = wei_wang_dataset();
    let engine = prepared_engine(&d);
    let refs = engine.references_of("Nobody At All");
    let clustering = engine.resolve(&ResolveRequest::new(&refs)).clustering;
    assert!(refs.is_empty());
    assert!(clustering.labels.is_empty());
    assert_eq!(clustering.cluster_count(), 0);
}

#[test]
fn catalog_rejects_inserting_wrong_arity_after_finalize() {
    let mut c = Catalog::new();
    c.add_relation(
        SchemaBuilder::new("A")
            .key("a", AttrType::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    c.finalize(true).unwrap();
    assert!(c
        .insert("A", Tuple::new(vec![Value::Int(1), Value::Int(2)]))
        .is_err());
    // The failed insert still invalidated finalization (mutable access).
    assert!(!c.is_finalized());
    c.finalize(true).unwrap();
}

#[test]
fn training_with_absurd_thresholds_errors_not_panics() {
    let d = wei_wang_dataset();
    // Zero rare-name thresholds: nothing qualifies as unique.
    let cfg = DistinctConfig {
        training: TrainingConfig {
            max_first_name_freq: 0,
            max_last_name_freq: 0,
            ..training()
        },
        ..Default::default()
    };
    let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", cfg).unwrap();
    assert!(engine.train().is_err());
}
