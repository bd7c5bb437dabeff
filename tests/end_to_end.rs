//! Integration: the full DISTINCT pipeline over generated data — world
//! generation, catalog emission, training, resolution, evaluation, and
//! model persistence — exercised across crate boundaries.

use datagen::{to_catalog, AmbiguousSpec, World, WorldConfig};
use distinct::{
    CalibrationConfig, Distinct, DistinctConfig, PathWeights, ResolveRequest, TrainingConfig,
};
use eval::{bcubed_scores, pairwise_scores, Confusion};
use std::collections::BTreeMap;

fn dataset() -> datagen::DblpDataset {
    let mut config = WorldConfig::tiny(42);
    config.ambiguous = vec![
        AmbiguousSpec::new("Wei Wang", vec![10, 8, 5]),
        AmbiguousSpec::new("Hui Fang", vec![5, 4]),
    ];
    to_catalog(&World::generate(config)).expect("valid world")
}

fn engine_config() -> DistinctConfig {
    DistinctConfig {
        training: TrainingConfig {
            positives: 250,
            negatives: 250,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Train and auto-calibrate the clustering threshold (the extension that
/// replaces the paper's hand-tuned min-sim; see distinct::calibrate).
fn trained_engine(d: &datagen::DblpDataset) -> Distinct {
    let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", engine_config()).unwrap();
    engine.train().unwrap();
    engine
        .calibrate_threshold(&CalibrationConfig::default())
        .unwrap();
    engine
}

#[test]
fn trained_pipeline_beats_chance_on_every_planted_name() {
    let d = dataset();
    let engine = trained_engine(&d);

    for truth in &d.truths {
        let clustering = engine.resolve(&ResolveRequest::new(&truth.refs)).clustering;
        let s = pairwise_scores(&truth.labels, &clustering.labels);
        // Baseline comparison: all-singletons has f=0; all-merged has
        // f = f(one cluster). The pipeline must beat the better of the two.
        let merged = vec![0usize; truth.labels.len()];
        let merged_f = pairwise_scores(&truth.labels, &merged).f_measure;
        assert!(
            s.f_measure > merged_f,
            "{}: f {} not better than trivial merge {}",
            truth.name,
            s.f_measure,
            merged_f
        );
        assert!(s.f_measure > 0.5, "{}: f {}", truth.name, s.f_measure);
        // B³ agrees directionally.
        let b3 = bcubed_scores(&truth.labels, &clustering.labels);
        assert!(b3.f_measure > 0.5, "{}: b3 {}", truth.name, b3.f_measure);
    }
}

#[test]
fn hardest_name_resolves_with_high_purity() {
    let d = dataset();
    let engine = trained_engine(&d);
    let truth = &d.truths[0];
    let clustering = engine.resolve(&ResolveRequest::new(&truth.refs)).clustering;
    let confusion = Confusion::from_labels(&truth.labels, &clustering.labels);
    assert!(confusion.purity() > 0.8, "purity {}", confusion.purity());
}

#[test]
fn learned_weights_transfer_between_engines() {
    let d = dataset();
    let mut trained = Distinct::prepare(&d.catalog, "Publish", "author", engine_config()).unwrap();
    trained.train().unwrap();
    let json = serde_json::to_string(trained.weights()).unwrap();

    // A fresh engine (no training) with restored weights must produce the
    // same clusterings as the trained engine.
    let mut fresh = Distinct::prepare(&d.catalog, "Publish", "author", engine_config()).unwrap();
    let weights: PathWeights = serde_json::from_str(&json).unwrap();
    fresh.set_weights(weights).unwrap();

    for truth in &d.truths {
        let a = trained
            .resolve(&ResolveRequest::new(&truth.refs))
            .clustering;
        let b = fresh.resolve(&ResolveRequest::new(&truth.refs)).clustering;
        assert_eq!(a.labels, b.labels, "{}", truth.name);
    }
}

#[test]
fn supervised_weights_beat_uniform_on_average() {
    let d = dataset();
    let supervised = trained_engine(&d);
    let uniform = Distinct::prepare(&d.catalog, "Publish", "author", engine_config()).unwrap();

    let avg_f = |engine: &Distinct| -> f64 {
        d.truths
            .iter()
            .map(|t| {
                let c = engine.resolve(&ResolveRequest::new(&t.refs)).clustering;
                pairwise_scores(&t.labels, &c.labels).f_measure
            })
            .sum::<f64>()
            / d.truths.len() as f64
    };
    let s = avg_f(&supervised);
    let u = avg_f(&uniform);
    assert!(s > u - 0.02, "supervised {s} should not trail uniform {u}");
}

#[test]
fn resolution_is_deterministic() {
    let d = dataset();
    let run = || {
        let engine = trained_engine(&d);
        let truth = &d.truths[0];
        engine
            .resolve(&ResolveRequest::new(&truth.refs))
            .clustering
            .labels
    };
    assert_eq!(run(), run());
}

#[test]
fn references_outside_planted_names_also_resolve() {
    // Pick an arbitrary frequent ordinary name and check resolution does
    // not crash and yields a sane clustering.
    let d = dataset();
    let engine = Distinct::prepare(&d.catalog, "Publish", "author", engine_config()).unwrap();
    let publish = d.catalog.relation(d.publish);
    // The most frequent author value.
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, t) in publish.iter() {
        *counts.entry(t.get(0).as_str().unwrap()).or_default() += 1;
    }
    let (name, n) = counts
        .iter()
        .max_by_key(|(_, &c)| c)
        .map(|(v, &c)| (v.to_string(), c))
        .unwrap();
    let refs = engine.references_of(&name);
    let clustering = engine.resolve(&ResolveRequest::new(&refs)).clustering;
    assert_eq!(refs.len(), n);
    assert_eq!(clustering.labels.len(), n);
    assert!(clustering.cluster_count() >= 1);
}
