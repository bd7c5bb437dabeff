//! Reference profiles and per-path pairwise features.
//!
//! A reference's *profile* is one probability propagation per join path:
//! its neighbor tuples in ascending node order, with their connection
//! strengths (`Prob_P(r → t)`) and return probabilities (`Prob_P(t → r)`)
//! side by side, all paths in one [`Propagation`] buffer. All pairwise
//! quantities DISTINCT needs — per-path set resemblance (Definition 2) and
//! per-path random walk probability (§2.4) — are merge-joins over two
//! profiles' columns, without touching the database again.
//!
//! The tuple identified by the reference's own name (its author tuple) is
//! removed from every path's run: resembling references share it by
//! definition, so it carries no distinguishing signal but would otherwise
//! contribute a large constant resemblance along the coauthor path.

use crate::paths::PathSet;
use relgraph::{directed_walk, resemblance, LinkGraph, PathColumns, PropagateScratch, Propagation};
use relstore::{Catalog, TupleRef};

/// Per-path propagation results for one reference.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The reference this profile describes.
    pub reference: TupleRef,
    /// One run per path (order matches the [`PathSet`]).
    pub columns: Propagation,
    /// True for zero-mass placeholders fabricated when a control limit cut
    /// profiling short (see [`empty_profile`]). Placeholders must never
    /// enter the profile cache: a later, unrestricted run has to recompute
    /// the real profile instead of reusing the empty one.
    pub placeholder: bool,
}

impl Profile {
    /// Number of paths profiled.
    pub fn path_count(&self) -> usize {
        self.columns.paths()
    }

    /// Total neighbor tuples across all paths (diagnostics).
    pub fn neighbor_total(&self) -> usize {
        self.columns.neighbor_total()
    }

    /// The sorted columns of path `k`.
    pub fn path(&self, k: usize) -> PathColumns<'_> {
        self.columns.path(k)
    }
}

/// Build the profile of one reference.
pub fn build_profile(
    graph: &LinkGraph,
    catalog: &Catalog,
    paths: &PathSet,
    reference: TupleRef,
) -> Profile {
    build_profile_guarded(graph, catalog, paths, reference, &mut |_| true)
        // distinct-lint: allow(D101, reason="guard is the constant true closure above, so profiling can never be abandoned")
        .expect("permissive guard never stops profiling")
}

/// Like [`build_profile`], but cooperatively interruptible: `guard` is
/// charged per propagation level (see
/// [`relgraph::propagate_blocked_guarded`]) and returning `false` abandons
/// the profile — `None` comes back and no partial runs escape.
pub fn build_profile_guarded(
    graph: &LinkGraph,
    catalog: &Catalog,
    paths: &PathSet,
    reference: TupleRef,
    guard: &mut dyn FnMut(u64) -> bool,
) -> Option<Profile> {
    // Block the tuple identified by the reference's own name: linkage
    // routed through the shared name tuple (at any path level) is vacuous
    // for distinguishing resembling references.
    let blocked: Vec<relgraph::NodeId> = catalog
        .follow_forward(paths.ref_fk, reference)
        .map(|t| graph.node(t))
        .into_iter()
        .collect();
    let mut columns = Propagation::new();
    // distinct-lint: scratch(per profile: one propagation scratch serves every path of the profile; each call clears its vectors, keeping their capacity, and the scratch drops with the profile build)
    let mut scratch = PropagateScratch::default();
    for path in &paths.paths {
        relgraph::propagate_blocked_guarded(
            graph,
            catalog,
            path,
            reference,
            &blocked,
            guard,
            &mut scratch,
            &mut columns,
        )?;
    }
    Some(Profile {
        reference,
        columns,
        placeholder: false,
    })
}

/// A placeholder profile with no propagated mass: every pairwise feature
/// against it is zero, so under a positive `min_sim` its reference stays a
/// singleton. Degraded resolution uses these for references whose real
/// profiles could not be computed before the budget ran out.
pub fn empty_profile(paths: &PathSet, reference: TupleRef) -> Profile {
    Profile {
        reference,
        columns: Propagation::empty_paths(paths.len()),
        placeholder: true,
    }
}

/// The two profiles' runs of each path, in path order.
fn path_pairs<'a>(
    a: &'a Profile,
    b: &'a Profile,
) -> impl Iterator<Item = (PathColumns<'a>, PathColumns<'a>)> {
    debug_assert_eq!(a.path_count(), b.path_count());
    (0..a.path_count()).map(|k| (a.path(k), b.path(k)))
}

/// `Walk_P(x → y)` along one path: `x`'s forward row against `y`'s
/// backward row.
fn walk(x: PathColumns<'_>, y: PathColumns<'_>) -> f64 {
    directed_walk(x.forward_row(), y.backward_row())
}

/// Per-path set resemblance between two profiles (Definition 2), pair by
/// pair — the canonical reference the pruned engine must match bit for
/// bit.
pub fn resemblance_features(a: &Profile, b: &Profile) -> Vec<f64> {
    path_pairs(a, b)
        .map(|(x, y)| {
            resemblance(
                x.forward_row(),
                x.total_forward(),
                y.forward_row(),
                y.total_forward(),
            )
        })
        .collect()
}

/// Per-path symmetrized random walk probability between two profiles.
pub fn walk_features(a: &Profile, b: &Profile) -> Vec<f64> {
    path_pairs(a, b)
        .map(|(x, y)| 0.5 * (walk(x, y) + walk(y, x)))
        .collect()
}

/// Per-path *directed* walk probability `a → b` (used for the collective
/// cluster measure, which is directional before symmetrization).
pub fn directed_walk_features(a: &Profile, b: &Profile) -> Vec<f64> {
    path_pairs(a, b).map(|(x, y)| walk(x, y)).collect()
}

/// Weighted sum of a feature vector: `Σ w_i · f_i`.
pub fn weighted_sum(features: &[f64], weights: &[f64]) -> f64 {
    debug_assert_eq!(features.len(), weights.len());
    features.iter().zip(weights).map(|(f, w)| f * w).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{AmbiguousSpec, DblpDataset, World, WorldConfig};

    struct Fixture {
        catalog: Catalog,
        graph: LinkGraph,
        paths: PathSet,
        truth_refs: Vec<TupleRef>,
        truth_labels: Vec<usize>,
    }

    fn fixture() -> Fixture {
        let mut config = WorldConfig::tiny(4);
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![8, 6])];
        let d: DblpDataset = datagen::to_catalog(&World::generate(config)).unwrap();
        let ex = relstore::expand_values(&d.catalog).unwrap();
        let paths = PathSet::build(&ex.catalog, "Publish", "author", 3).unwrap();
        let graph = LinkGraph::build(&ex.catalog);
        Fixture {
            catalog: ex.catalog,
            graph,
            paths,
            truth_refs: d.truths[0].refs.clone(),
            truth_labels: d.truths[0].labels.clone(),
        }
    }

    #[test]
    fn profile_shape() {
        let f = fixture();
        let p = build_profile(&f.graph, &f.catalog, &f.paths, f.truth_refs[0]);
        assert_eq!(p.path_count(), f.paths.len());
        assert!(p.neighbor_total() > 0);
        assert_eq!(p.reference, f.truth_refs[0]);
    }

    #[test]
    fn own_identity_tuple_is_excluded() {
        let f = fixture();
        let r = f.truth_refs[0];
        let own = f.catalog.follow_forward(f.paths.ref_fk, r).unwrap();
        let own_node = f.graph.node(own);
        let p = build_profile(&f.graph, &f.catalog, &f.paths, r);
        for k in 0..p.path_count() {
            assert!(p.path(k).nodes.binary_search(&own_node).is_err());
        }
    }

    #[test]
    fn feature_vectors_are_path_aligned_and_bounded() {
        let f = fixture();
        let a = build_profile(&f.graph, &f.catalog, &f.paths, f.truth_refs[0]);
        let b = build_profile(&f.graph, &f.catalog, &f.paths, f.truth_refs[1]);
        let r = resemblance_features(&a, &b);
        let w = walk_features(&a, &b);
        assert_eq!(r.len(), f.paths.len());
        assert_eq!(w.len(), f.paths.len());
        for &v in r.iter().chain(&w) {
            assert!((0.0..=1.0 + 1e-9).contains(&v), "feature {v}");
        }
    }

    #[test]
    fn features_are_symmetric() {
        let f = fixture();
        let a = build_profile(&f.graph, &f.catalog, &f.paths, f.truth_refs[0]);
        let b = build_profile(&f.graph, &f.catalog, &f.paths, f.truth_refs[2]);
        assert_eq!(resemblance_features(&a, &b), resemblance_features(&b, &a));
        let w_ab = walk_features(&a, &b);
        let w_ba = walk_features(&b, &a);
        for (x, y) in w_ab.iter().zip(&w_ba) {
            assert!((x - y).abs() < 1e-15);
        }
    }

    #[test]
    fn directed_walks_symmetrize_to_walk_features() {
        let f = fixture();
        let a = build_profile(&f.graph, &f.catalog, &f.paths, f.truth_refs[0]);
        let b = build_profile(&f.graph, &f.catalog, &f.paths, f.truth_refs[1]);
        let ab = directed_walk_features(&a, &b);
        let ba = directed_walk_features(&b, &a);
        let sym = walk_features(&a, &b);
        for i in 0..sym.len() {
            assert!((0.5 * (ab[i] + ba[i]) - sym[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn same_entity_pairs_are_more_similar_on_average() {
        // The structural heart of the method: references to the same real
        // entity share more context than references to different entities
        // behind the same name.
        let f = fixture();
        let profiles: Vec<Profile> = f
            .truth_refs
            .iter()
            .map(|&r| build_profile(&f.graph, &f.catalog, &f.paths, r))
            .collect();
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in 0..profiles.len() {
            for j in (i + 1)..profiles.len() {
                let total: f64 = resemblance_features(&profiles[i], &profiles[j])
                    .iter()
                    .sum();
                if f.truth_labels[i] == f.truth_labels[j] {
                    same.push(total);
                } else {
                    diff.push(total);
                }
            }
        }
        // Unweighted sums include deliberately uninformative paths
        // (publisher, location), so the gap is modest here; the SVM
        // weighting is what sharpens it in the full pipeline.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&same) > 1.3 * mean(&diff),
            "same-entity mean {} vs cross-entity mean {}",
            mean(&same),
            mean(&diff)
        );
    }

    #[test]
    fn weighted_sum_helper() {
        assert_eq!(weighted_sum(&[1.0, 2.0, 3.0], &[0.5, 0.0, 1.0]), 3.5);
        assert_eq!(weighted_sum(&[], &[]), 0.0);
    }
}
