//! Automatic training-set construction (paper §3).
//!
//! "The majority of entities have distinct names in most applications": a
//! person name composed of a rare first name *and* a rare last name is
//! very likely unique. References to one such name give positive example
//! pairs (equivalent references); references to two different such names
//! give negative pairs (distinct references). No manual labels required.

use crate::config::TrainingConfig;
use crate::features::{resemblance_features, walk_features, Profile};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relstore::{Catalog, FxHashMap, RelId, TupleRef};
use std::sync::Arc;

/// One training pair with its label (+1 equivalent, −1 distinct).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingPair {
    /// First reference.
    pub a: TupleRef,
    /// Second reference.
    pub b: TupleRef,
    /// +1.0 for equivalent, −1.0 for distinct.
    pub label: f64,
}

/// The constructed training set plus statistics.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    /// The example pairs, positives first.
    pub pairs: Vec<TrainingPair>,
    /// How many names passed the rare-name filter.
    pub unique_names: usize,
    /// Positive pair count.
    pub positives: usize,
    /// Negative pair count.
    pub negatives: usize,
    /// The unique names themselves with their references — reused by
    /// threshold calibration ([`crate::calibrate`]), which pools several
    /// unique names into pseudo-ambiguous groups.
    pub names: Vec<(String, Vec<TupleRef>)>,
}

/// Per-pair feature vectors for SVM training, labelled.
#[derive(Debug, Clone, PartialEq)]
pub struct PairFeatures {
    /// Per-path set resemblances of the pair.
    pub resem: Vec<f64>,
    /// Per-path symmetrized walk probabilities of the pair.
    pub walk: Vec<f64>,
    /// +1.0 for equivalent, −1.0 for distinct (copied from the pair).
    pub label: f64,
}

/// Compute both feature vectors for every training pair, in parallel.
///
/// Every pair's features depend only on its two (immutable) profiles, so
/// the output — committed in pair order by the executor — is identical
/// for any thread count. A pair whose profiles are missing from the map
/// comes back `None`, as does every pair left unprocessed after `stop`
/// fires; callers decide whether that aborts the run.
pub fn featurize_pairs(
    pairs: &[TrainingPair],
    profiles: &FxHashMap<TupleRef, Arc<Profile>>,
    executor: &exec::Executor,
    stop: &(dyn Fn() -> bool + Sync),
) -> (Vec<Option<PairFeatures>>, exec::ParStats) {
    executor.par_map_guarded(
        pairs,
        |_, pair| {
            let pa = profiles.get(&pair.a)?;
            let pb = profiles.get(&pair.b)?;
            Some(PairFeatures {
                resem: resemblance_features(pa, pb),
                walk: walk_features(pa, pb),
                label: pair.label,
            })
        },
        stop,
    )
}

/// Errors from training-set construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainingError {
    /// The reference relation/attribute could not be resolved.
    BadReferenceSpec(String),
    /// Too few unique names to build any pairs.
    TooFewUniqueNames(usize),
}

impl std::fmt::Display for TrainingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainingError::BadReferenceSpec(s) => write!(f, "bad reference spec: {s}"),
            TrainingError::TooFewUniqueNames(n) => {
                write!(f, "only {n} unique names found; need at least 2")
            }
        }
    }
}

impl std::error::Error for TrainingError {}

/// Split a full name into (first token, last token); `None` for
/// single-token names.
fn split_name(name: &str) -> Option<(&str, &str)> {
    let mut parts = name.split_whitespace();
    let first = parts.next()?;
    let last = parts.last()?;
    if first == last && name.split_whitespace().count() == 1 {
        return None;
    }
    Some((first, last))
}

/// Build the training set from a reference relation.
///
/// `ref_relation.ref_attr` must be a foreign key to the relation holding
/// named objects (e.g. `Publish.author -> Authors`); names are that target
/// relation's key values.
pub fn build_training_set(
    catalog: &Catalog,
    ref_relation: &str,
    ref_attr: &str,
    cfg: &TrainingConfig,
) -> Result<TrainingSet, TrainingError> {
    let publish: RelId = catalog
        .relation_id(ref_relation)
        .ok_or_else(|| TrainingError::BadReferenceSpec(format!("no relation `{ref_relation}`")))?;
    let attr = catalog
        .relation(publish)
        .schema()
        .attr_index(ref_attr)
        .ok_or_else(|| TrainingError::BadReferenceSpec(format!("no attribute `{ref_attr}`")))?;
    let fk = catalog
        .fk_edges()
        .iter()
        .find(|e| e.from == publish && e.attr == attr)
        .ok_or_else(|| {
            TrainingError::BadReferenceSpec(format!("`{ref_attr}` is not a foreign key"))
        })?;
    let authors = fk.to;

    // Token frequencies over the *named-object* relation (one count per
    // distinct name, as in counting people per first name).
    let mut first_freq: FxHashMap<String, usize> = FxHashMap::default();
    let mut last_freq: FxHashMap<String, usize> = FxHashMap::default();
    let key_attr = catalog
        .relation(authors)
        .schema()
        .key_index()
        .ok_or_else(|| TrainingError::BadReferenceSpec("name relation has no key".to_string()))?;
    for (_, t) in catalog.relation(authors).iter() {
        if let Some(name) = t.get(key_attr).as_str() {
            if let Some((f, l)) = split_name(name) {
                *first_freq.entry(f.to_string()).or_insert(0) += 1;
                *last_freq.entry(l.to_string()).or_insert(0) += 1;
            }
        }
    }

    // Unique-name candidates with at least 2 references.
    let mut unique: Vec<(String, Vec<TupleRef>)> = Vec::new();
    for (tid, t) in catalog.relation(authors).iter() {
        let Some(name) = t.get(key_attr).as_str() else {
            continue;
        };
        let Some((f, l)) = split_name(name) else {
            continue;
        };
        if first_freq[f] > cfg.max_first_name_freq || last_freq[l] > cfg.max_last_name_freq {
            continue;
        }
        let refs = catalog.follow_backward(fk.id, TupleRef::new(authors, tid));
        if refs.len() >= 2 {
            unique.push((name.to_string(), refs));
        }
    }
    if unique.len() < 2 {
        return Err(TrainingError::TooFewUniqueNames(unique.len()));
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    unique.shuffle(&mut rng);

    // Positives: pairs within one unique name, round-robin over names so
    // no single prolific name dominates.
    let mut pairs: Vec<TrainingPair> = Vec::new();
    let mut per_name_pairs: Vec<Vec<(TupleRef, TupleRef)>> = unique
        .iter()
        .map(|(_, refs)| {
            let mut v = Vec::new();
            for i in 0..refs.len() {
                for j in (i + 1)..refs.len() {
                    v.push((refs[i], refs[j]));
                }
            }
            v.shuffle(&mut rng);
            v
        })
        .collect();
    let mut round = 0usize;
    while pairs.len() < cfg.positives {
        let mut any = false;
        for name_pairs in per_name_pairs.iter_mut() {
            if let Some((a, b)) = name_pairs.pop() {
                pairs.push(TrainingPair { a, b, label: 1.0 });
                any = true;
                if pairs.len() >= cfg.positives {
                    break;
                }
            }
        }
        round += 1;
        if !any || round > 10_000 {
            break; // exhausted all within-name pairs
        }
    }
    let positives = pairs.len();

    // Negatives: one reference each from two different unique names.
    let mut negatives = 0usize;
    let mut attempts = 0usize;
    while negatives < cfg.negatives && attempts < cfg.negatives * 20 {
        attempts += 1;
        let i = rng.gen_range(0..unique.len());
        let j = rng.gen_range(0..unique.len());
        if i == j {
            continue;
        }
        let a = unique[i].1[rng.gen_range(0..unique[i].1.len())];
        let b = unique[j].1[rng.gen_range(0..unique[j].1.len())];
        pairs.push(TrainingPair { a, b, label: -1.0 });
        negatives += 1;
    }

    Ok(TrainingSet {
        pairs,
        unique_names: unique.len(),
        positives,
        negatives,
        names: unique,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{AmbiguousSpec, World, WorldConfig};

    fn dataset() -> datagen::DblpDataset {
        let mut config = WorldConfig::tiny(13);
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![10, 6])];
        datagen::to_catalog(&World::generate(config)).unwrap()
    }

    fn training_cfg() -> TrainingConfig {
        TrainingConfig {
            positives: 60,
            negatives: 60,
            ..Default::default()
        }
    }

    #[test]
    fn split_name_behaviour() {
        assert_eq!(split_name("Wei Wang"), Some(("Wei", "Wang")));
        assert_eq!(split_name("Jose Luis Garcia"), Some(("Jose", "Garcia")));
        assert_eq!(split_name("Prince"), None);
        assert_eq!(split_name(""), None);
        assert_eq!(split_name("  padded   name  "), Some(("padded", "name")));
    }

    #[test]
    fn builds_requested_pair_counts() {
        let d = dataset();
        let ts = build_training_set(&d.catalog, "Publish", "author", &training_cfg()).unwrap();
        assert_eq!(ts.positives, 60, "unique names: {}", ts.unique_names);
        assert_eq!(ts.negatives, 60);
        assert_eq!(ts.pairs.len(), 120);
        assert!(ts.unique_names > 10);
    }

    #[test]
    fn positive_pairs_share_a_name_negatives_do_not() {
        let d = dataset();
        let ts = build_training_set(&d.catalog, "Publish", "author", &training_cfg()).unwrap();
        for p in &ts.pairs {
            let name_a = d.catalog.value(p.a, 0).as_str().unwrap().to_string();
            let name_b = d.catalog.value(p.b, 0).as_str().unwrap().to_string();
            if p.label > 0.0 {
                assert_eq!(name_a, name_b);
                assert_ne!(p.a, p.b, "a positive pair must be two distinct references");
            } else {
                assert_ne!(name_a, name_b);
            }
        }
    }

    #[test]
    fn ambiguous_name_is_not_treated_as_unique() {
        // "Wei Wang" has namesakes sharing "Wei" and "Wang", so the rare-
        // name filter must reject it — its pairs must never appear.
        let d = dataset();
        let ts = build_training_set(&d.catalog, "Publish", "author", &training_cfg()).unwrap();
        for p in &ts.pairs {
            let name = d.catalog.value(p.a, 0).as_str().unwrap();
            assert_ne!(name, "Wei Wang");
            let name = d.catalog.value(p.b, 0).as_str().unwrap();
            assert_ne!(name, "Wei Wang");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = dataset();
        let a = build_training_set(&d.catalog, "Publish", "author", &training_cfg()).unwrap();
        let b = build_training_set(&d.catalog, "Publish", "author", &training_cfg()).unwrap();
        assert_eq!(a.pairs, b.pairs);
        let c = build_training_set(
            &d.catalog,
            "Publish",
            "author",
            &TrainingConfig {
                seed: 99,
                ..training_cfg()
            },
        )
        .unwrap();
        assert_ne!(a.pairs, c.pairs);
    }

    #[test]
    fn bad_specs_error() {
        let d = dataset();
        assert!(matches!(
            build_training_set(&d.catalog, "Nope", "author", &training_cfg()),
            Err(TrainingError::BadReferenceSpec(_))
        ));
        assert!(matches!(
            build_training_set(&d.catalog, "Publish", "nope", &training_cfg()),
            Err(TrainingError::BadReferenceSpec(_))
        ));
    }

    #[test]
    fn positives_capped_by_available_pairs() {
        let d = dataset();
        let cfg = TrainingConfig {
            positives: 1_000_000,
            negatives: 10,
            ..Default::default()
        };
        let ts = build_training_set(&d.catalog, "Publish", "author", &cfg).unwrap();
        assert!(ts.positives < 1_000_000);
        assert!(ts.positives > 0);
        assert_eq!(ts.negatives, 10);
    }

    #[test]
    fn round_robin_spreads_positives_across_names() {
        let d = dataset();
        let ts = build_training_set(&d.catalog, "Publish", "author", &training_cfg()).unwrap();
        let mut names = std::collections::HashSet::new();
        for p in ts.pairs.iter().filter(|p| p.label > 0.0) {
            names.insert(d.catalog.value(p.a, 0).as_str().unwrap().to_string());
        }
        assert!(
            names.len() > 10,
            "positives concentrated on {} names",
            names.len()
        );
    }
}
