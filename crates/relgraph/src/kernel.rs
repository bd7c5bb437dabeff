//! The two pairwise kernels of DISTINCT, each one merge-join over sorted
//! rows.
//!
//! A *row* is a pair of aligned slices: strictly ascending ids and their
//! positive weights. One join path of a profile gives two rows over one id
//! column — the forward masses `Prob_P(r → t)` and the backward masses
//! `Prob_P(t → r)` ([`crate::PathColumns`]) — and a [`crate::SetArena`]
//! row is an interned copy of one of them. Both call the functions below,
//! so the per-pair features and the pruned similarity build agree bit for
//! bit: interning preserves id order, so every sum runs in the same order.
//!
//! * [`resemblance`] — the connection-strength-weighted Jaccard of
//!   Definition 2:
//!
//!   ```text
//!                  Σ_{t ∈ A ∩ B} min(w_A(t), w_B(t))
//!   Resem(A, B) = -----------------------------------
//!                  Σ_{t ∈ A ∪ B} max(w_A(t), w_B(t))
//!   ```
//!
//! * [`directed_walk`] — the random-walk probability of §2.4, out from
//!   `r1` along the path and back to `r2` along its reverse. Because each
//!   propagation yields both directions' masses, the walk is a dot product
//!   instead of a walk over the concatenated path:
//!
//!   ```text
//!   Walk_P(r1 → r2) = Σ_t  Prob_P(r1 → t) · Prob_P(t → r2)
//!   ```

use std::cmp::Ordering;

/// One sorted weighted row: strictly ascending ids and their aligned
/// weights.
pub type Row<'a, T> = (&'a [T], &'a [f64]);

/// Strictly ascending (which also rules out duplicates): the merge-join's
/// precondition.
fn is_strictly_ascending<T: Ord>(ids: &[T]) -> bool {
    ids.iter().zip(ids.iter().skip(1)).all(|(x, y)| x < y)
}

/// Call `f(w_a, w_b)` for every id the two rows share, in ascending id
/// order.
fn for_each_shared<T: Ord>(a: Row<'_, T>, b: Row<'_, T>, mut f: impl FnMut(f64, f64)) {
    let ((ia, wa), (ib, wb)) = (a, b);
    debug_assert!(is_strictly_ascending(ia), "lhs row not sorted");
    debug_assert!(is_strictly_ascending(ib), "rhs row not sorted");
    let (mut i, mut j) = (0, 0);
    while i < ia.len() && j < ib.len() {
        match ia[i].cmp(&ib[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                f(wa[i], wb[j]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Weighted Jaccard resemblance of Definition 2 between two rows whose
/// weight sums are `total_a` and `total_b` (each summed left to right,
/// `weights.iter().sum()`).
///
/// Returns 0 when either row is empty (no shared context — the paper's
/// convention for references with no neighbors along a path).
///
/// ```
/// use relgraph::{resemblance, NodeId};
/// let a: (&[NodeId], &[f64]) = (&[NodeId(1), NodeId(2)], &[0.5, 0.5]);
/// let b: (&[NodeId], &[f64]) = (&[NodeId(2), NodeId(3)], &[0.25, 0.75]);
/// // Σ min over ∩ = 0.25; Σ max over ∪ = 0.5 + 0.5 + 0.75 = 1.75.
/// let r = resemblance(a, 1.0, b, 1.0);
/// assert!((r - 0.25 / 1.75).abs() < 1e-12);
/// ```
pub fn resemblance<T: Ord>(a: Row<'_, T>, total_a: f64, b: Row<'_, T>, total_b: f64) -> f64 {
    if a.0.is_empty() || b.0.is_empty() {
        return 0.0;
    }
    let mut num = 0.0; // Σ min over the intersection
    for_each_shared(a, b, |x, y| num += x.min(y));
    // Σ max over the union = total_A + total_B − Σ min over the
    // intersection (min + max = w_A + w_B pointwise on the intersection).
    let den = total_a + total_b - num;
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Directed walk probability `Walk_P(a → b)`: the dot product of `a`'s
/// forward row with `b`'s backward row (symmetric in its two rows).
///
/// Zero signs are part of the value: an empty row gives `-0.0` (the empty
/// sum) and two non-empty rows that share nothing give `+0.0`. The
/// similarity tables, and so the bit-identity contract, carry these signs.
pub fn directed_walk<T: Ord>(forward: Row<'_, T>, backward: Row<'_, T>) -> f64 {
    if forward.0.is_empty() || backward.0.is_empty() {
        return -0.0;
    }
    let mut sum = 0.0;
    for_each_shared(forward, backward, |f, b| sum += f * b);
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A canonical row from arbitrary pairs: sorted by id, duplicates
    /// summed in input order, non-positive weights dropped.
    fn row(pairs: &[(u32, f64)]) -> (Vec<u32>, Vec<f64>) {
        let mut sorted = pairs.to_vec();
        sorted.sort_by_key(|&(n, _)| n);
        let mut out: Vec<(u32, f64)> = Vec::new();
        for (n, w) in sorted {
            match out.last_mut() {
                Some((m, acc)) if *m == n => *acc += w,
                _ => out.push((n, w)),
            }
        }
        out.retain(|&(_, w)| w > 0.0);
        out.into_iter().unzip()
    }

    fn resem(a: &(Vec<u32>, Vec<f64>), b: &(Vec<u32>, Vec<f64>)) -> f64 {
        let total = |w: &[f64]| w.iter().sum::<f64>();
        resemblance(
            (&a.0[..], &a.1[..]),
            total(&a.1),
            (&b.0[..], &b.1[..]),
            total(&b.1),
        )
    }

    fn walk(f: &(Vec<u32>, Vec<f64>), b: &(Vec<u32>, Vec<f64>)) -> f64 {
        directed_walk((&f.0[..], &f.1[..]), (&b.0[..], &b.1[..]))
    }

    /// The walk as a sum over the smaller row, probing the other for each
    /// id and adding a zero term when it is absent — the term order of a
    /// lookup-based walk. The merge-join must reproduce its every bit.
    fn lookup_walk(f: &(Vec<u32>, Vec<f64>), b: &(Vec<u32>, Vec<f64>)) -> f64 {
        let (small, large) = if f.0.len() <= b.0.len() {
            (f, b)
        } else {
            (b, f)
        };
        small
            .0
            .iter()
            .zip(&small.1)
            .map(|(n, w)| {
                let other = large.0.binary_search(n).map_or(0.0, |i| large.1[i]);
                w * other
            })
            .sum()
    }

    #[test]
    fn identical_rows_have_resemblance_one() {
        let s = row(&[(1, 0.3), (2, 0.7)]);
        assert!((resem(&s, &s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_rows_have_resemblance_zero() {
        assert_eq!(resem(&row(&[(1, 0.5)]), &row(&[(2, 0.5)])), 0.0);
    }

    #[test]
    fn empty_row_convention() {
        let (e, s) = (row(&[]), row(&[(1, 1.0)]));
        assert_eq!(resem(&e, &s), 0.0);
        assert_eq!(resem(&s, &e), 0.0);
        assert_eq!(resem(&e, &e), 0.0);
        assert_eq!(walk(&e, &s).to_bits(), (-0.0f64).to_bits());
        assert_eq!(walk(&s, &e).to_bits(), (-0.0f64).to_bits());
        // Non-empty but disjoint: a positive zero.
        assert_eq!(walk(&s, &row(&[(2, 1.0)])).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn hand_computed_resemblance() {
        // A = {1: .5, 2: .5}, B = {2: .25, 3: .75}
        // Σ min over ∩ = min(.5,.25) = .25
        // Σ max over ∪ = .5 (1) + max(.5,.25)=.5 (2) + .75 (3) = 1.75
        let a = row(&[(1, 0.5), (2, 0.5)]);
        let b = row(&[(2, 0.25), (3, 0.75)]);
        let r = resem(&a, &b);
        assert!((r - 0.25 / 1.75).abs() < 1e-12, "{r}");
        assert!((resem(&b, &a) - r).abs() < 1e-12);
    }

    #[test]
    fn directed_walk_hand_computed() {
        // a = (forward {1: .5, 2: .5}, backward {1: .2, 2: .3});
        // b = (forward {2: 1}, backward {2: .4}).
        let (fa, ba) = (row(&[(1, 0.5), (2, 0.5)]), row(&[(1, 0.2), (2, 0.3)]));
        let (fb, bb) = (row(&[(2, 1.0)]), row(&[(2, 0.4)]));
        // a→b: f_a(2) · b_b(2) = 0.5 · 0.4 = 0.2 (node 1 not in b's support).
        assert!((walk(&fa, &bb) - 0.2).abs() < 1e-12);
        // b→a: f_b(2) · b_a(2) = 1.0 · 0.3 = 0.3.
        assert!((walk(&fb, &ba) - 0.3).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn resemblance_is_symmetric_and_bounded(
            xs in proptest::collection::vec((0u32..20, 0.01f64..1.0), 0..15),
            ys in proptest::collection::vec((0u32..20, 0.01f64..1.0), 0..15),
        ) {
            let (a, b) = (row(&xs), row(&ys));
            let r1 = resem(&a, &b);
            prop_assert!((r1 - resem(&b, &a)).abs() < 1e-9);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r1));
        }

        #[test]
        fn self_resemblance_is_one_for_nonempty(
            xs in proptest::collection::vec((0u32..20, 0.01f64..1.0), 1..15),
        ) {
            let a = row(&xs);
            prop_assert!((resem(&a, &a) - 1.0).abs() < 1e-9);
        }

        #[test]
        fn resemblance_bounded_for_arbitrary_weights(
            xs in proptest::collection::vec((0u32..64, 1e-12f64..1e12), 0..40),
            ys in proptest::collection::vec((0u32..64, 1e-12f64..1e12), 0..40),
        ) {
            // Wildly mixed magnitudes (12 orders apart) must still land in
            // [0,1]: the D102 contract the clustering thresholds rely on.
            let r = resem(&row(&xs), &row(&ys));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r), "{r}");
            prop_assert!(r.is_finite());
        }

        #[test]
        fn walk_merge_join_matches_the_lookup_walk_bit_for_bit(
            xs in proptest::collection::vec((0u32..32, 1e-6f64..1.0), 0..25),
            ys in proptest::collection::vec((0u32..32, 1e-6f64..1.0), 0..25),
        ) {
            let (f, b) = (row(&xs), row(&ys));
            let got = walk(&f, &b);
            prop_assert_eq!(got.to_bits(), lookup_walk(&f, &b).to_bits());
            // Symmetric in its rows (f64 multiplication commutes bitwise).
            prop_assert_eq!(got.to_bits(), walk(&b, &f).to_bits());
        }
    }
}
