//! The oracle end-to-end engine: profiles → pairwise tables → naive
//! clustering, assembled from the literal per-pillar modules.
//!
//! Unlike the production pipeline there is no link graph, no profile
//! cache, no executor, no heap — just nested loops over `BTreeMap`s in
//! deterministic tuple order. The engine exists so differential tests can
//! ask for exactly the intermediate the production stage produced
//! (per-pair resemblance, directed walk, composite similarity) as well as
//! the final clustering.

use crate::cluster::{naive_agglomerate, OracleClustering};
use crate::profile::{build_profile, OracleProfile};
use crate::propagate::Adjacency;
use crate::resemblance::weighted_jaccard;
use crate::walk::directed_walk;
use relstore::{Catalog, FkId, JoinPath, TupleRef};

/// Which similarity measure drives clustering (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Average-Link weighted set resemblance only.
    SetResemblance,
    /// Collective random walk probability only.
    RandomWalk,
    /// Both, combined per [`Composite`] — the paper's DISTINCT setting.
    Combined,
}

/// How the two measures are combined under [`Measure::Combined`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Composite {
    /// Geometric mean `√(r · w)` (the paper's choice).
    Geometric,
    /// Arithmetic mean `(r + w) / 2`.
    Arithmetic,
}

/// Pairwise per-stage tables for a slice of references.
#[derive(Debug, Clone)]
pub struct OraclePairwise {
    /// Weighted set resemblance per pair (symmetric, zero diagonal).
    pub resemblance: Vec<Vec<f64>>,
    /// Weighted *directed* walk probability `i → j` (asymmetric).
    pub dwalk: Vec<Vec<f64>>,
    /// Symmetrized weighted walk probability `0.5·(d[i][j] + d[j][i])`.
    pub walk: Vec<Vec<f64>>,
    /// Leaf composite similarity per pair under the engine's measure.
    pub similarity: Vec<Vec<f64>>,
}

/// A fully configured reference oracle over one catalog.
#[derive(Debug)]
pub struct OracleEngine<'a> {
    adjacency: Adjacency<'a>,
    paths: Vec<JoinPath>,
    ref_fk: FkId,
    resem_weights: Vec<f64>,
    walk_weights: Vec<f64>,
    measure: Measure,
    composite: Composite,
}

impl<'a> OracleEngine<'a> {
    /// Build an engine from pre-selected paths and per-path weights.
    ///
    /// `resem_weights` and `walk_weights` must have one entry per path —
    /// pass `1/n` everywhere for the unsupervised (uniform) setting.
    pub fn new(
        catalog: &'a Catalog,
        paths: Vec<JoinPath>,
        ref_fk: FkId,
        resem_weights: Vec<f64>,
        walk_weights: Vec<f64>,
        measure: Measure,
        composite: Composite,
    ) -> Self {
        assert_eq!(
            resem_weights.len(),
            paths.len(),
            "one resem weight per path"
        );
        assert_eq!(walk_weights.len(), paths.len(), "one walk weight per path");
        Self {
            adjacency: Adjacency::new(catalog),
            paths,
            ref_fk,
            resem_weights,
            walk_weights,
            measure,
            composite,
        }
    }

    /// The join paths the oracle propagates along.
    pub fn paths(&self) -> &[JoinPath] {
        &self.paths
    }

    /// Naive profile of one reference.
    pub fn profile(&self, reference: TupleRef) -> OracleProfile {
        build_profile(&self.adjacency, &self.paths, self.ref_fk, reference)
    }

    /// Weighted leaf resemblance between two profiles:
    /// `Σ_k w_k · Resem(forward_k(a), forward_k(b))`.
    pub fn pair_resemblance(&self, a: &OracleProfile, b: &OracleProfile) -> f64 {
        let mut sum = 0.0;
        for (k, w) in self.resem_weights.iter().enumerate() {
            sum += w * weighted_jaccard(&a.props[k].forward, &b.props[k].forward);
        }
        sum
    }

    /// Weighted directed walk probability `a → b`:
    /// `Σ_k w_k · Walk_k(a → b)`.
    pub fn pair_directed_walk(&self, a: &OracleProfile, b: &OracleProfile) -> f64 {
        let mut sum = 0.0;
        for (k, w) in self.walk_weights.iter().enumerate() {
            sum += w * directed_walk(&a.props[k].forward, &b.props[k].backward);
        }
        sum
    }

    /// Leaf composite similarity from a symmetric resemblance and the two
    /// directed walk values.
    fn leaf_similarity(&self, resem: f64, d_ab: f64, d_ba: f64) -> f64 {
        let walk = 0.5 * (d_ab + d_ba);
        match self.measure {
            Measure::SetResemblance => resem,
            Measure::RandomWalk => walk,
            Measure::Combined => match self.composite {
                Composite::Geometric => (resem * walk).sqrt(),
                Composite::Arithmetic => 0.5 * (resem + walk),
            },
        }
    }

    /// Compute every pairwise per-stage table for `refs`.
    pub fn pairwise(&self, refs: &[TupleRef]) -> OraclePairwise {
        let n = refs.len();
        let profiles: Vec<OracleProfile> = refs.iter().map(|&r| self.profile(r)).collect();
        let mut resemblance = vec![vec![0.0; n]; n];
        let mut dwalk = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                dwalk[i][j] = self.pair_directed_walk(&profiles[i], &profiles[j]);
                if i < j {
                    let r = self.pair_resemblance(&profiles[i], &profiles[j]);
                    resemblance[i][j] = r;
                    resemblance[j][i] = r;
                }
            }
        }
        let mut walk = vec![vec![0.0; n]; n];
        let mut similarity = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                walk[i][j] = 0.5 * (dwalk[i][j] + dwalk[j][i]);
                similarity[i][j] =
                    self.leaf_similarity(resemblance[i][j], dwalk[i][j], dwalk[j][i]);
            }
        }
        OraclePairwise {
            resemblance,
            dwalk,
            walk,
            similarity,
        }
    }

    /// Resolve: cluster `refs` bottom-up until no pair reaches `min_sim`.
    pub fn resolve(&self, refs: &[TupleRef], min_sim: f64) -> OracleClustering {
        let tables = self.pairwise(refs);
        naive_agglomerate(
            refs.len(),
            &tables.resemblance,
            &tables.dwalk,
            self.measure,
            self.composite,
            min_sim,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::select_paths;
    use datagen::{AmbiguousSpec, World, WorldConfig};

    fn engine_fixture() -> (datagen::DblpDataset, relstore::Expanded) {
        let mut config = WorldConfig::tiny(6);
        config.n_authors = 90;
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![4, 3])];
        let d = datagen::to_catalog(&World::generate(config)).unwrap();
        let ex = relstore::expand_values(&d.catalog).unwrap();
        (d, ex)
    }

    #[test]
    fn pairwise_tables_are_consistent() {
        let (d, ex) = engine_fixture();
        let (paths, ref_fk) = select_paths(&ex.catalog, "Publish", "author", 3).unwrap();
        let n_paths = paths.len();
        let w = vec![1.0 / n_paths as f64; n_paths];
        let eng = OracleEngine::new(
            &ex.catalog,
            paths,
            ref_fk,
            w.clone(),
            w,
            Measure::Combined,
            Composite::Geometric,
        );
        let refs = &d.truths[0].refs;
        let t = eng.pairwise(refs);
        let n = refs.len();
        for i in 0..n {
            assert_eq!(t.similarity[i][i], 0.0);
            for j in 0..n {
                if i == j {
                    continue;
                }
                // Symmetry of the symmetric tables.
                assert_eq!(t.resemblance[i][j], t.resemblance[j][i]);
                assert_eq!(t.walk[i][j], t.walk[j][i]);
                assert_eq!(t.similarity[i][j], t.similarity[j][i]);
                // Leaf similarity reconstructs from resemblance and walk.
                let expect = (t.resemblance[i][j] * t.walk[i][j]).sqrt();
                assert!((t.similarity[i][j] - expect).abs() < 1e-15);
                assert!(t.resemblance[i][j] >= 0.0 && t.resemblance[i][j] <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn resolve_separates_the_seeded_entities_somewhere() {
        // With a permissive threshold the 4+3 split should produce at
        // least one merge and at most n clusters; exact agreement with
        // production is the differential suite's job, not this unit's.
        let (d, ex) = engine_fixture();
        let (paths, ref_fk) = select_paths(&ex.catalog, "Publish", "author", 3).unwrap();
        let n_paths = paths.len();
        let w = vec![1.0 / n_paths as f64; n_paths];
        let eng = OracleEngine::new(
            &ex.catalog,
            paths,
            ref_fk,
            w.clone(),
            w,
            Measure::Combined,
            Composite::Geometric,
        );
        let refs = &d.truths[0].refs;
        let c = eng.resolve(refs, 1e-6);
        assert_eq!(c.labels.len(), refs.len());
        let k = c.cluster_count();
        assert!(k >= 1 && k <= refs.len());
    }
}
