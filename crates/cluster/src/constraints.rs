//! Instance-level constraints for agglomerative clustering.
//!
//! Entity-resolution systems routinely receive user feedback: "these two
//! references are the same person" (must-link) or "these are different
//! people" (cannot-link). [`ConstrainedMerger`] wraps any [`Merger`] and
//! enforces both kinds:
//!
//! * **must-link** pairs report `f64::INFINITY` similarity, so the engine
//!   merges them before anything else;
//! * **cannot-link** pairs report `f64::NEG_INFINITY`, and the veto is
//!   propagated across merges: a cluster containing a reference
//!   cannot-linked to a reference of another cluster can never merge with
//!   it.

use crate::engine::Merger;
use std::collections::HashSet;

/// A [`Merger`] decorator enforcing must-link / cannot-link constraints.
#[derive(Debug)]
pub struct ConstrainedMerger<M> {
    inner: M,
    /// Members (leaf items) per cluster id; grows with merges.
    members: Vec<Vec<usize>>,
    /// Leaf-level cannot-link pairs (stored both ways).
    cannot: HashSet<(usize, usize)>,
    /// Leaf-level must-link pairs (stored once, a < b).
    must: HashSet<(usize, usize)>,
}

impl<M: Merger> ConstrainedMerger<M> {
    /// Wrap `inner` for a clustering over `n` items.
    ///
    /// # Panics
    /// Panics if a constraint names an item `>= n`, pairs an item with
    /// itself, or the same pair appears in both constraint sets.
    pub fn new(
        inner: M,
        n: usize,
        must_link: &[(usize, usize)],
        cannot_link: &[(usize, usize)],
    ) -> Self {
        let mut cannot = HashSet::new();
        for &(a, b) in cannot_link {
            assert!(a < n && b < n, "cannot-link names item out of range");
            assert_ne!(a, b, "cannot-link an item with itself");
            cannot.insert((a, b));
            cannot.insert((b, a));
        }
        let mut must = HashSet::new();
        for &(a, b) in must_link {
            assert!(a < n && b < n, "must-link names item out of range");
            assert_ne!(a, b, "must-link an item with itself");
            assert!(
                !cannot.contains(&(a, b)),
                "pair ({a}, {b}) is both must-link and cannot-link"
            );
            must.insert((a.min(b), a.max(b)));
        }
        ConstrainedMerger {
            inner,
            members: (0..n).map(|i| vec![i]).collect(),
            cannot,
            must,
        }
    }

    /// True if any member of cluster `a` is cannot-linked to any member of
    /// cluster `b`.
    fn vetoed(&self, a: usize, b: usize) -> bool {
        let (small, large) = if self.members[a].len() <= self.members[b].len() {
            (&self.members[a], &self.members[b])
        } else {
            (&self.members[b], &self.members[a])
        };
        small
            .iter()
            .any(|&x| large.iter().any(|&y| self.cannot.contains(&(x, y))))
    }

    /// True if some must-link pair spans clusters `a` and `b`.
    fn demanded(&self, a: usize, b: usize) -> bool {
        self.members[a].iter().any(|&x| {
            self.members[b]
                .iter()
                .any(|&y| self.must.contains(&(x.min(y), x.max(y))))
        })
    }

    /// Access the wrapped merger.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Merger> Merger for ConstrainedMerger<M> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        if self.vetoed(a, b) {
            return f64::NEG_INFINITY;
        }
        if self.demanded(a, b) {
            return f64::INFINITY;
        }
        self.inner.similarity(a, b)
    }

    fn merged(&mut self, a: usize, b: usize, into: usize, size_a: usize, size_b: usize) {
        debug_assert_eq!(into, self.members.len());
        let mut m = Vec::with_capacity(self.members[a].len() + self.members[b].len());
        m.extend_from_slice(&self.members[a]);
        m.extend_from_slice(&self.members[b]);
        self.members.push(m);
        self.inner.merged(a, b, into, size_a, size_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{agglomerate, MatrixMerger};
    use crate::linkage::Linkage;

    /// 4 items: (0,1) similar, (2,3) similar, weak cross links.
    fn base_matrix() -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; 4]; 4];
        let set = |m: &mut Vec<Vec<f64>>, i: usize, j: usize, v: f64| {
            m[i][j] = v;
            m[j][i] = v;
        };
        set(&mut m, 0, 1, 0.9);
        set(&mut m, 2, 3, 0.9);
        set(&mut m, 1, 2, 0.3);
        m
    }

    fn cluster_with(
        must: &[(usize, usize)],
        cannot: &[(usize, usize)],
        min_sim: f64,
    ) -> Vec<usize> {
        let inner = MatrixMerger::new(base_matrix(), Linkage::Average);
        let mut merger = ConstrainedMerger::new(inner, 4, must, cannot);
        agglomerate(4, &mut merger, min_sim).labels
    }

    #[test]
    fn unconstrained_baseline() {
        let labels = cluster_with(&[], &[], 0.5);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn cannot_link_blocks_a_natural_merge() {
        let labels = cluster_with(&[], &[(0, 1)], 0.5);
        assert_ne!(labels[0], labels[1], "vetoed pair must stay apart");
        assert_eq!(labels[2], labels[3]);
    }

    #[test]
    fn cannot_link_propagates_through_clusters() {
        // 0-1 merge naturally; cannot-link(0, 2) must then keep {0,1} from
        // ever merging with anything containing 2 — even at min_sim 0.
        let labels = cluster_with(&[], &[(0, 2)], 0.0);
        assert_ne!(labels[0], labels[2]);
        assert_eq!(labels[0], labels[1]); // natural merge unaffected
    }

    #[test]
    fn must_link_forces_a_merge_across_weak_similarity() {
        // (0, 3) have similarity 0: must-link forces them together anyway.
        let labels = cluster_with(&[(0, 3)], &[], 0.5);
        assert_eq!(labels[0], labels[3]);
    }

    #[test]
    fn must_link_merges_first_then_clustering_continues() {
        // must-link(0, 2) fires before any natural merge; afterwards the
        // engine keeps clustering with the (now combined) similarities:
        // {0,2}+1 has average 0.6 >= 0.5 and joins, while 3's average to
        // {0,1,2} is 0.3 and stays out.
        let labels = cluster_with(&[(0, 2)], &[], 0.5);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[3], labels[0]);
    }

    #[test]
    fn constraints_combine() {
        // Force 0-3 together but keep 1 away from 2.
        let labels = cluster_with(&[(0, 3)], &[(1, 2)], 0.5);
        assert_eq!(labels[0], labels[3]);
        assert_ne!(labels[1], labels[2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_constraint_panics() {
        cluster_with(&[], &[(0, 9)], 0.5);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_constraint_panics() {
        cluster_with(&[(1, 1)], &[], 0.5);
    }

    #[test]
    #[should_panic(expected = "both must-link and cannot-link")]
    fn contradictory_constraint_panics() {
        cluster_with(&[(0, 1)], &[(0, 1)], 0.5);
    }

    #[test]
    fn inner_access() {
        let inner = MatrixMerger::new(base_matrix(), Linkage::Average);
        let merger = ConstrainedMerger::new(inner, 4, &[], &[]);
        assert_eq!(merger.inner().items(), 4);
    }
}
