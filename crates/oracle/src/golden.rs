//! The golden conformance corpus: small serialized worlds with their
//! expected per-stage tables and clusterings, checked in under
//! `tests/golden/` at the repository root.
//!
//! Each case pins a datagen [`WorldConfig`] (fully reproducible from its
//! seed), an FNV-1a fingerprint of the generated catalog (so silent
//! datagen drift fails loudly instead of masquerading as an algorithm
//! change), and — per ambiguous name group — the oracle's resemblance /
//! walk / similarity matrices, merge history, and final labels computed
//! with **uniform** path weights. Uniform weights keep the corpus a pin
//! on the four numeric pillars alone; supervised weight learning is
//! exercised by the differential suite instead, so an SVM change can
//! never silently shift the goldens.
//!
//! Regenerate with `cargo run -p oracle --bin regen-golden`; CI fails if
//! the checked-in files differ from a fresh regeneration.

use crate::cluster::naive_agglomerate;
use crate::engine::{Composite, Measure, OracleEngine};
use crate::paths::select_paths;
use datagen::{AmbiguousSpec, World, WorldConfig};
use relstore::{Catalog, TupleRef};
use serde::{Deserialize, Serialize};

/// One recorded merge in a golden clustering.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GoldenMerge {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Similarity at which the merge happened.
    pub similarity: f64,
    /// Created cluster id (`n + merge index`).
    pub into: usize,
    /// Created cluster size.
    pub size: usize,
}

/// Expected outputs for one ambiguous name group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenGroup {
    /// The ambiguous name.
    pub name: String,
    /// Its references, in ground-truth order.
    pub refs: Vec<TupleRef>,
    /// Weighted set resemblance per pair (symmetric, zero diagonal).
    pub resemblance: Vec<Vec<f64>>,
    /// Symmetrized weighted walk probability per pair.
    pub walk: Vec<Vec<f64>>,
    /// Leaf composite similarity per pair.
    pub similarity: Vec<Vec<f64>>,
    /// Merge history of the naive agglomeration.
    pub merges: Vec<GoldenMerge>,
    /// Final labels (dense, first-appearance order).
    pub labels: Vec<usize>,
}

/// One golden conformance case: a pinned world plus expected outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenCase {
    /// Case (and file) name.
    pub name: String,
    /// The datagen world configuration, reproducible from its seed.
    pub config: WorldConfig,
    /// Join-path length bound used for path selection.
    pub max_path_len: usize,
    /// Clustering threshold.
    pub min_sim: f64,
    /// FNV-1a-64 fingerprint of the generated catalog (0 in templates).
    pub catalog_fingerprint: u64,
    /// Expected per-group outputs (empty in templates).
    pub groups: Vec<GoldenGroup>,
}

/// FNV-1a-64 over the catalog's full observable content: relation and
/// attribute names, every tuple's rendered values, and foreign-key
/// labels. Any datagen behavior change that alters the generated world
/// changes this fingerprint.
pub fn catalog_fingerprint(catalog: &Catalog) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for (_, rel) in catalog.relations() {
        eat(rel.name().as_bytes());
        for attr in &rel.schema().attributes {
            eat(attr.name.as_bytes());
        }
        for (_, tuple) in rel.iter() {
            eat(format!("{tuple:?}").as_bytes());
        }
    }
    for edge in catalog.fk_edges() {
        eat(edge.label.as_bytes());
    }
    h
}

/// The corpus templates: three pinned small worlds. `groups` is empty and
/// `catalog_fingerprint` 0 until [`compute_case`] fills them in.
pub fn golden_cases() -> Vec<GoldenCase> {
    let case = |name: &str, seed: u64, ambiguous: Vec<AmbiguousSpec>, min_sim: f64| {
        let mut config = WorldConfig::tiny(seed);
        config.n_authors = 120;
        config.n_venues = 12;
        config.n_communities = 5;
        config.ambiguous = ambiguous;
        GoldenCase {
            name: name.to_string(),
            config,
            max_path_len: 3,
            min_sim,
            catalog_fingerprint: 0,
            groups: Vec::new(),
        }
    };
    vec![
        case(
            "two_entities_one_name",
            7,
            vec![AmbiguousSpec::new("Wei Wang", vec![6, 5])],
            1e-4,
        ),
        case(
            "three_entities_one_name",
            13,
            vec![AmbiguousSpec::new("Lei Li", vec![5, 4, 3])],
            1e-4,
        ),
        case(
            "two_names_mixed_sizes",
            29,
            vec![
                AmbiguousSpec::new("Wei Wang", vec![4, 4]),
                AmbiguousSpec::new("Hui Fang", vec![3, 3]),
            ],
            1e-3,
        ),
    ]
}

/// Generate the case's world and compute its expected outputs with the
/// oracle under uniform path weights and the paper's Combined/Geometric
/// measure.
///
/// # Panics
///
/// Panics if the pinned world cannot be generated or its reference
/// relation cannot be resolved — golden configs are static, so either is
/// a programming error.
pub fn compute_case(template: &GoldenCase) -> GoldenCase {
    let d = datagen::to_catalog(&World::generate(template.config.clone()))
        .expect("golden world must convert to a catalog");
    let ex = relstore::expand_values(&d.catalog).expect("golden world must expand");
    let (paths, ref_fk) = select_paths(&ex.catalog, "Publish", "author", template.max_path_len)
        .expect("golden world must expose Publish.author");
    let uniform = vec![1.0 / paths.len() as f64; paths.len()];
    let engine = OracleEngine::new(
        &ex.catalog,
        paths,
        ref_fk,
        uniform.clone(),
        uniform,
        Measure::Combined,
        Composite::Geometric,
    );
    let groups = d
        .truths
        .iter()
        .map(|truth| {
            let tables = engine.pairwise(&truth.refs);
            let clustering = naive_agglomerate(
                truth.refs.len(),
                &tables.resemblance,
                &tables.dwalk,
                Measure::Combined,
                Composite::Geometric,
                template.min_sim,
            );
            GoldenGroup {
                name: truth.name.clone(),
                refs: truth.refs.clone(),
                resemblance: tables.resemblance,
                walk: tables.walk,
                similarity: tables.similarity,
                merges: clustering
                    .merges
                    .iter()
                    .map(|m| GoldenMerge {
                        a: m.a,
                        b: m.b,
                        similarity: m.similarity,
                        into: m.into,
                        size: m.size,
                    })
                    .collect(),
                labels: clustering.labels,
            }
        })
        .collect();
    GoldenCase {
        name: template.name.clone(),
        config: template.config.clone(),
        max_path_len: template.max_path_len,
        min_sim: template.min_sim,
        catalog_fingerprint: catalog_fingerprint(&ex.catalog),
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_validate_and_compute_deterministically() {
        for template in golden_cases() {
            template.config.validate().expect("golden config validates");
            let a = compute_case(&template);
            let b = compute_case(&template);
            assert_eq!(a, b, "{} must be deterministic", template.name);
            assert!(!a.groups.is_empty());
            assert_ne!(a.catalog_fingerprint, 0);
            for g in &a.groups {
                assert_eq!(g.labels.len(), g.refs.len());
                assert_eq!(g.resemblance.len(), g.refs.len());
            }
        }
    }

    #[test]
    fn fingerprint_is_sensitive_to_the_seed() {
        let mut t = golden_cases().remove(0);
        let a = compute_case(&t);
        t.config.seed += 1;
        let b = compute_case(&t);
        assert_ne!(a.catalog_fingerprint, b.catalog_fingerprint);
    }

    #[test]
    fn golden_json_round_trips() {
        let case = compute_case(&golden_cases().remove(0));
        let text = serde_json::to_string_pretty(&case).unwrap();
        let back: GoldenCase = serde_json::from_str(&text).unwrap();
        assert_eq!(case, back);
    }
}
