//! Determinism of the parallel execution layer: the pipeline must produce
//! bit-identical output for every thread count, limits must degrade
//! parallel runs as gracefully as sequential ones, and placeholder
//! profiles from degraded runs must never poison later complete runs.

use datagen::{to_catalog, AmbiguousSpec, World, WorldConfig};
use distinct::{
    Distinct, DistinctConfig, LearnedModel, ResolveRequest, RunControl, Stage, TrainRequest,
    TrainingConfig,
};

fn dataset() -> datagen::DblpDataset {
    let mut config = WorldConfig::tiny(7);
    config.ambiguous = vec![
        AmbiguousSpec::new("Wei Wang", vec![10, 8, 5]),
        AmbiguousSpec::new("Hui Fang", vec![5, 4]),
    ];
    to_catalog(&World::generate(config)).expect("valid world")
}

fn engine(d: &datagen::DblpDataset) -> Distinct {
    let config = DistinctConfig {
        training: TrainingConfig {
            positives: 80,
            negatives: 80,
            ..Default::default()
        },
        ..Default::default()
    };
    Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every number a learned model holds, as bits: both hyperplanes (weights,
/// then bias), both Platt scalers, the clamped path weights and the two
/// training accuracies.
fn learned_bits(m: &LearnedModel) -> Vec<u64> {
    [
        &m.resem_model.weights[..],
        &[m.resem_model.bias],
        &m.walk_model.weights,
        &[m.walk_model.bias],
        &[m.resem_platt.a, m.resem_platt.b],
        &[m.walk_platt.a, m.walk_platt.b],
        &m.weights.resem,
        &m.weights.walk,
        &[m.resem_train_accuracy, m.walk_train_accuracy],
    ]
    .iter()
    .flat_map(|part| bits(part))
    .collect()
}

// The learned model of the tiny(7) world below (80 + 80 training pairs),
// as `f64::to_bits`, recorded with the plain scalar solver that
// `crates/svm` keeps as its test oracle (`reference_smo`). Any change to
// SVM training that moves a single bit fails here.
const RESEM_WEIGHTS: [u64; 19] = [
    0x0000000000000000,
    0x0000000000000000,
    0xbf3684af7951b800,
    0x0000000000000000,
    0x0000000000000000,
    0x3ff002aa007beac8,
    0x3f4787355f6bc800,
    0xbf2103b7a2c15000,
    0xbf3684af7951b800,
    0x4007004a5708abd0,
    0xbf3684af7951b800,
    0x0000000000000000,
    0xbf48e0dffcd87000,
    0x3ff002aa007beac8,
    0x3f4787355f6bc800,
    0xbf2103b7a2c15000,
    0xbf3684af7951b800,
    0xbf3684af7951b800,
    0x4007004a5708abcd,
];
const RESEM_BIAS: u64 = 0xbff0000000000000;
const WALK_WEIGHTS: [u64; 19] = [
    0x0000000000000000,
    0x0000000000000000,
    0x3ffb237432147267,
    0x0000000000000000,
    0x0000000000000000,
    0x40332400823b60f7,
    0x4009a6621b341b7c,
    0xbcf7924924924923,
    0x3ffb237432147267,
    0x404d243fd7fc4099,
    0x3ffb237432147267,
    0x0000000000000000,
    0x400fd99f8b4fc7ca,
    0x40332400823b60f9,
    0x4009a6621b341b82,
    0xbcf1249249249248,
    0x3ffb237432147267,
    0x3ffb237432147278,
    0x404d243fd7fc4099,
];
const WALK_BIAS: u64 = 0xbff0000000000000;
const RESEM_PLATT: [u64; 2] = [0xbff10f54b8338361, 0xbfcea2c0585555c2];
const WALK_PLATT: [u64; 2] = [0xc00639ffe64cb8aa, 0xc00051a2a907b523];
const PATH_WEIGHTS_RESEM: [u64; 19] = [
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x3fc0853b132f45e6,
    0x3f1847155336d96e,
    0x0000000000000000,
    0x0000000000000000,
    0x3fd7bbde051329a2,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x3fc0853b132f45e6,
    0x3f1847155336d96e,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x3fd7bbde0513299f,
];
const PATH_WEIGHTS_WALK: [u64; 19] = [
    0x0000000000000000,
    0x0000000000000000,
    0x3f83fef199b061a6,
    0x0000000000000000,
    0x0000000000000000,
    0x3fbc34ba284446df,
    0x3f92e62ae89d9206,
    0x0000000000000000,
    0x3f83fef199b061a6,
    0x3fd578c6a05b5b3d,
    0x3f83fef199b061a6,
    0x0000000000000000,
    0x3f9777a8e0fe4929,
    0x3fbc34ba284446e2,
    0x3f92e62ae89d920b,
    0x0000000000000000,
    0x3f83fef199b061a6,
    0x3f83fef199b061b3,
    0x3fd578c6a05b5b3d,
];
const TRAIN_ACCURACY: [u64; 2] = [0x3fe799999999999a, 0x3fe5666666666666];

#[test]
fn learned_model_matches_the_pinned_bits() {
    let d = dataset();
    let mut e = engine(&d);
    e.train().unwrap();
    let m = e.learned().expect("trained");
    assert_eq!(bits(&m.resem_model.weights), RESEM_WEIGHTS);
    assert_eq!(m.resem_model.bias.to_bits(), RESEM_BIAS);
    assert_eq!(bits(&m.walk_model.weights), WALK_WEIGHTS);
    assert_eq!(m.walk_model.bias.to_bits(), WALK_BIAS);
    assert_eq!(bits(&[m.resem_platt.a, m.resem_platt.b]), RESEM_PLATT);
    assert_eq!(bits(&[m.walk_platt.a, m.walk_platt.b]), WALK_PLATT);
    assert_eq!(bits(&m.weights.resem), PATH_WEIGHTS_RESEM);
    assert_eq!(bits(&m.weights.walk), PATH_WEIGHTS_WALK);
    assert_eq!(
        bits(&[m.resem_train_accuracy, m.walk_train_accuracy]),
        TRAIN_ACCURACY
    );
}

#[test]
fn training_and_resolution_are_identical_at_1_2_and_8_threads() {
    let d = dataset();

    // Reference run: strictly sequential.
    let mut reference = engine(&d);
    let ref_report = reference
        .train_with(&TrainRequest::new().threads(1))
        .unwrap();
    let refs = reference.references_of("Wei Wang");
    let ref_outcome = reference.resolve(&ResolveRequest::new(&refs).threads(1));
    assert!(ref_outcome.is_complete());

    let ref_model = learned_bits(reference.learned().expect("trained"));

    for threads in [2, 8] {
        let mut e = engine(&d);
        let report = e.train_with(&TrainRequest::new().threads(threads)).unwrap();
        assert_eq!(
            report.path_weights, ref_report.path_weights,
            "learned weights differ at {threads} threads"
        );
        assert_eq!(
            learned_bits(e.learned().expect("trained")),
            ref_model,
            "learned model differs at {threads} threads"
        );
        assert_eq!(report.resem_accuracy, ref_report.resem_accuracy);
        assert_eq!(report.walk_accuracy, ref_report.walk_accuracy);
        // Task counts are thread-independent; only wall time may vary.
        assert_eq!(report.exec.profiles.tasks, ref_report.exec.profiles.tasks);
        assert_eq!(
            report.exec.similarity.tasks,
            ref_report.exec.similarity.tasks
        );

        let outcome = e.resolve(&ResolveRequest::new(&refs).threads(threads));
        assert!(outcome.is_complete());
        assert_eq!(
            outcome.clustering.labels, ref_outcome.clustering.labels,
            "clustering differs at {threads} threads"
        );
        assert_eq!(
            outcome.clustering.cluster_count(),
            ref_outcome.clustering.cluster_count()
        );
        assert_eq!(outcome.exec.profiles.tasks, ref_outcome.exec.profiles.tasks);
        assert_eq!(
            outcome.exec.similarity.tasks,
            ref_outcome.exec.similarity.tasks
        );
        assert_eq!(
            outcome.exec.clustering.tasks,
            ref_outcome.exec.clustering.tasks
        );
    }
}

#[test]
fn constrained_resolution_is_thread_count_independent() {
    let d = dataset();
    let e = engine(&d);
    let refs = e.references_of("Wei Wang");
    let constrained = |threads: usize| {
        e.resolve(
            &ResolveRequest::new(&refs)
                .must_link(&[(0, 1)])
                .cannot_link(&[(2, 3)])
                .threads(threads),
        )
        .clustering
        .labels
    };
    let base = constrained(1);
    assert_eq!(base[0], base[1]);
    assert_ne!(base[2], base[3]);
    for threads in [2, 8] {
        assert_eq!(constrained(threads), base, "{threads} threads");
    }
}

#[test]
fn cancellation_under_parallelism_returns_a_full_partition() {
    let d = dataset();
    let e = engine(&d);
    let refs = e.references_of("Wei Wang");

    // Cold engine, pre-cancelled: no profile completes, everything stays
    // a singleton, and the degradation is attributed to the profile stage.
    let ctl = RunControl::new();
    ctl.token().cancel();
    let outcome = e.resolve(&ResolveRequest::new(&refs).control(&ctl).threads(8));
    assert_eq!(outcome.clustering.labels.len(), refs.len());
    assert_eq!(outcome.clustering.cluster_count(), refs.len());
    let deg = outcome.degraded.expect("cancelled run must degrade");
    assert_eq!(deg.stage, Stage::Profiles);
    assert_eq!(deg.profiles_computed, 0);
    assert!(!deg.clustering_completed);

    // Warm cache, pre-cancelled: profiles are free cache hits, so the trip
    // lands on the similarity matrix instead — still a full partition.
    let _ = e.resolve(&ResolveRequest::new(&refs).threads(8));
    let ctl = RunControl::new();
    ctl.token().cancel();
    let outcome = e.resolve(&ResolveRequest::new(&refs).control(&ctl).threads(8));
    assert_eq!(outcome.clustering.labels.len(), refs.len());
    assert_eq!(outcome.clustering.cluster_count(), refs.len());
    let deg = outcome.degraded.expect("cancelled run must degrade");
    assert_eq!(deg.stage, Stage::SimilarityMatrix);
    assert_eq!(deg.profiles_computed, refs.len());
}

#[test]
fn degraded_runs_never_poison_later_complete_runs() {
    let d = dataset();
    let e = engine(&d);
    let refs = e.references_of("Hui Fang");

    // Starved run: placeholder profiles everywhere, nothing cached.
    let ctl = RunControl::new().with_budget(0);
    let degraded = e.resolve(&ResolveRequest::new(&refs).control(&ctl).threads(2));
    assert!(degraded.degraded.is_some());
    assert_eq!(degraded.clustering.cluster_count(), refs.len());
    assert_eq!(e.cached_profiles(), 0, "placeholders must never be cached");

    // A later unconstrained run recomputes real profiles and matches a
    // fresh engine that never saw the degraded run.
    let recovered = e.resolve(&ResolveRequest::new(&refs));
    assert!(recovered.is_complete());
    let fresh = engine(&d).resolve(&ResolveRequest::new(&refs));
    assert_eq!(recovered.clustering.labels, fresh.clustering.labels);
}
