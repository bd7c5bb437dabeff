//! Naive connection-strength propagation by exhaustive walk enumeration
//! (paper §2.2).
//!
//! The paper defines `Prob_P(r → t)` by uniform probability propagation:
//! the tuple containing `r` starts with mass 1 and at every step each
//! tuple splits its mass evenly over the tuples joinable along the next
//! step. Equivalently — and this is the form implemented here —
//!
//! ```text
//! Prob_P(r → t) = Σ over walks r = u_0, u_1, …, u_L = t  of  Π_i 1/|nbrs(u_i)|
//! ```
//!
//! where `|nbrs(u_i)|` counts *all* tuples joinable from `u_i` along step
//! `i+1`. This module enumerates each walk individually via recursion over
//! an [`Adjacency`] derived from tuple values alone and accumulates the
//! products into a `BTreeMap` keyed by [`TupleRef`], so every sum runs in
//! tuple order.
//!
//! Semantics mirrored from the production propagation, stated explicitly:
//!
//! * **Blocked tuples** (the reference's own name tuple): a walk that
//!   steps onto a blocked tuple is dropped, but the `1/|nbrs|` share is
//!   still computed over the *unfiltered* neighbor count — blocked mass
//!   is lost, never renormalized. This holds in both directions.
//! * **Dead ends** (e.g. a null foreign key): the walk contributes
//!   nothing; its mass is lost.
//! * **Backward probabilities** `Prob_P(t → r)`: the probability that a
//!   walk from `t` along the reversed path lands exactly on `r`, with the
//!   same blocked/dead-end rules. They are computed only for tuples in
//!   the forward support (which is exactly the set of tuples that can
//!   reach `r` backwards — a forward walk reversed is a backward walk).

use relstore::{Catalog, Direction, JoinPath, JoinStep, TupleId, TupleRef, Value};
use std::collections::BTreeMap;

/// A deterministic weighted tuple set: probability mass per tuple, in
/// tuple order.
pub type Mass = BTreeMap<TupleRef, f64>;

/// Result of propagating one reference along one join path.
#[derive(Debug, Clone, Default)]
pub struct OraclePropagation {
    /// `Prob_P(r → t)` per reachable end-relation tuple `t`.
    pub forward: Mass,
    /// `Prob_P(t → r)` per reachable end-relation tuple `t` (same key set
    /// as `forward`).
    pub backward: Mass,
}

/// Foreign-key adjacency derived from tuple values alone: forward through
/// the referenced relation's key index, backward through a value →
/// referrers index built here. It never reads the catalog's resolved
/// foreign-key columns, so differential tests check them instead of
/// sharing them.
#[derive(Debug)]
pub struct Adjacency<'a> {
    catalog: &'a Catalog,
    /// Per FK edge: referencing tuples by foreign-key value, ascending.
    referrers: Vec<BTreeMap<&'a Value, Vec<TupleId>>>,
}

impl<'a> Adjacency<'a> {
    /// Index every foreign-key value of `catalog`'s tuples.
    pub fn new(catalog: &'a Catalog) -> Self {
        let referrers = catalog
            .fk_edges()
            .iter()
            .map(|edge| {
                let mut index: BTreeMap<&Value, Vec<TupleId>> = BTreeMap::new();
                for (tid, t) in catalog.relation(edge.from).iter() {
                    let v = t.get(edge.attr);
                    if !v.is_null() {
                        index.entry(v).or_default().push(tid);
                    }
                }
                index
            })
            .collect();
        Adjacency { catalog, referrers }
    }

    /// All tuples joinable from `t` along one step, in tuple order.
    pub fn step_neighbors(&self, step: JoinStep, t: TupleRef) -> Vec<TupleRef> {
        let edge = self.catalog.fk(step.fk);
        match step.dir {
            Direction::Forward => {
                let v = self.catalog.value(t, edge.attr);
                if v.is_null() {
                    return Vec::new();
                }
                let to = self.catalog.relation(edge.to).by_key(v);
                to.map(|tid| TupleRef::new(edge.to, tid))
                    .into_iter()
                    .collect()
            }
            Direction::Backward => {
                let key = self.catalog.value(t, edge.to_key);
                self.referrers[step.fk.index()]
                    .get(key)
                    .map_or(&[][..], Vec::as_slice)
                    .iter()
                    .map(|&tid| TupleRef::new(edge.from, tid))
                    .collect()
            }
        }
    }
}

/// Recursively enumerate forward walks from `t`, carrying the accumulated
/// probability `p`, and add each completed walk's mass to `out`.
fn forward_walks(
    adj: &Adjacency<'_>,
    steps: &[JoinStep],
    t: TupleRef,
    p: f64,
    blocked: &[TupleRef],
    out: &mut Mass,
) {
    match steps.split_first() {
        None => {
            *out.entry(t).or_insert(0.0) += p;
        }
        Some((step, rest)) => {
            let nbrs = adj.step_neighbors(*step, t);
            if nbrs.is_empty() {
                return; // dead end: mass lost
            }
            // Share over the unfiltered neighbor count: mass stepping onto
            // a blocked tuple is lost, not redistributed.
            let share = p / nbrs.len() as f64;
            for v in nbrs {
                if blocked.contains(&v) {
                    continue;
                }
                forward_walks(adj, rest, v, share, blocked, out);
            }
        }
    }
}

/// Recursively enumerate reverse walks from `t`; return the total
/// probability of landing exactly on `origin`.
fn reverse_walks(
    adj: &Adjacency<'_>,
    steps: &[JoinStep],
    t: TupleRef,
    p: f64,
    blocked: &[TupleRef],
    origin: TupleRef,
) -> f64 {
    match steps.split_first() {
        None => {
            if t == origin {
                p
            } else {
                0.0
            }
        }
        Some((step, rest)) => {
            let nbrs = adj.step_neighbors(*step, t);
            if nbrs.is_empty() {
                return 0.0;
            }
            let share = p / nbrs.len() as f64;
            let mut acc = 0.0;
            for v in nbrs {
                if blocked.contains(&v) {
                    continue;
                }
                acc += reverse_walks(adj, rest, v, share, blocked, origin);
            }
            acc
        }
    }
}

/// Propagate probabilities from `origin` along `path` by full walk
/// enumeration, never passing through any `blocked` tuple.
///
/// `origin` must be a tuple of the path's start relation. An empty path
/// yields `{origin: 1.0}` in both directions.
pub fn enumerate_propagation(
    adj: &Adjacency<'_>,
    path: &JoinPath,
    origin: TupleRef,
    blocked: &[TupleRef],
) -> OraclePropagation {
    let mut forward = Mass::new();
    forward_walks(adj, &path.steps, origin, 1.0, blocked, &mut forward);

    // Reverse the path: steps in reverse order, each direction flipped.
    let steps_rev: Vec<JoinStep> = path.steps.iter().rev().map(|s| s.reversed()).collect();
    let mut backward = Mass::new();
    for &t in forward.keys() {
        let p = reverse_walks(adj, &steps_rev, t, 1.0, blocked, origin);
        backward.insert(t, p);
    }
    OraclePropagation { forward, backward }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{AttrType, SchemaBuilder, TupleId, Value};

    /// The Fig. 3-style coauthor shape: Publish -> Papers <- Publish ->
    /// Authors, with paper 1 by (w, x, y) and paper 2 by (w, z).
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_relation(
            SchemaBuilder::new("Authors")
                .key("a", AttrType::Str)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.add_relation(
            SchemaBuilder::new("Papers")
                .key("p", AttrType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.add_relation(
            SchemaBuilder::new("Publish")
                .fk("a", AttrType::Str, "Authors")
                .fk("p", AttrType::Int, "Papers")
                .build()
                .unwrap(),
        )
        .unwrap();
        for a in ["w", "x", "y", "z"] {
            c.insert("Authors", [Value::str(a)].into()).unwrap();
        }
        for p in 1..=2 {
            c.insert("Papers", [Value::Int(p)].into()).unwrap();
        }
        for (a, p) in [("w", 1), ("x", 1), ("y", 1), ("w", 2), ("z", 2)] {
            c.insert("Publish", [Value::str(a), Value::Int(p)].into())
                .unwrap();
        }
        c.finalize(true).unwrap();
        c
    }

    fn coauthor_path(c: &Catalog) -> JoinPath {
        let publish = c.relation_id("Publish").unwrap();
        let fk_p = c
            .fk_edges()
            .iter()
            .find(|e| e.label == "Publish.p->Papers")
            .unwrap()
            .id;
        let fk_a = c
            .fk_edges()
            .iter()
            .find(|e| e.label == "Publish.a->Authors")
            .unwrap()
            .id;
        JoinPath::new(
            publish,
            vec![
                JoinStep::forward(fk_p),
                JoinStep::backward(fk_p),
                JoinStep::forward(fk_a),
            ],
            c,
        )
        .unwrap()
    }

    fn publish(c: &Catalog, idx: u32) -> TupleRef {
        TupleRef::new(c.relation_id("Publish").unwrap(), TupleId(idx))
    }

    fn author(c: &Catalog, name: &str) -> TupleRef {
        let authors = c.relation_id("Authors").unwrap();
        let tid = c.relation(authors).by_key(&Value::str(name)).unwrap();
        TupleRef::new(authors, tid)
    }

    #[test]
    fn forward_matches_hand_computation() {
        let c = catalog();
        let p = enumerate_propagation(&Adjacency::new(&c), &coauthor_path(&c), publish(&c, 0), &[]);
        // From (w, paper1): 1 → paper1 → its 3 records (1/3 each) → authors
        // w, x, y at 1/3 each.
        assert_eq!(p.forward.len(), 3);
        for name in ["w", "x", "y"] {
            let v = p.forward[&author(&c, name)];
            assert!((v - 1.0 / 3.0).abs() < 1e-12, "{name}: {v}");
        }
        let total: f64 = p.forward.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backward_matches_hand_computation() {
        let c = catalog();
        let p = enumerate_propagation(&Adjacency::new(&c), &coauthor_path(&c), publish(&c, 0), &[]);
        // From x (1 record → paper1 → 3 records): landing on the origin
        // record has probability 1/3. From w (2 records, one branch can
        // reach the origin): 1/2 · 1/3 = 1/6.
        assert!((p.backward[&author(&c, "x")] - 1.0 / 3.0).abs() < 1e-12);
        assert!((p.backward[&author(&c, "w")] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn blocking_loses_mass_without_renormalizing() {
        let c = catalog();
        // Origin (x, paper1), block author w: x and y keep exactly 1/3.
        let blocked = vec![author(&c, "w")];
        let p = enumerate_propagation(
            &Adjacency::new(&c),
            &coauthor_path(&c),
            publish(&c, 1),
            &blocked,
        );
        assert!(!p.forward.contains_key(&blocked[0]));
        for name in ["x", "y"] {
            let v = p.forward[&author(&c, name)];
            assert!((v - 1.0 / 3.0).abs() < 1e-12, "{name}: {v}");
        }
        let total: f64 = p.forward.values().sum();
        assert!((total - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_path_is_the_origin_with_probability_one() {
        let c = catalog();
        let publish_rel = c.relation_id("Publish").unwrap();
        let origin = publish(&c, 2);
        let p = enumerate_propagation(
            &Adjacency::new(&c),
            &JoinPath::empty(publish_rel),
            origin,
            &[],
        );
        assert_eq!(p.forward.len(), 1);
        assert_eq!(p.forward[&origin], 1.0);
        assert_eq!(p.backward[&origin], 1.0);
    }

    #[test]
    fn forward_and_backward_share_support_with_positive_values() {
        let c = catalog();
        let path = coauthor_path(&c);
        for idx in 0..5 {
            let p = enumerate_propagation(&Adjacency::new(&c), &path, publish(&c, idx), &[]);
            assert_eq!(
                p.forward.keys().collect::<Vec<_>>(),
                p.backward.keys().collect::<Vec<_>>()
            );
            for (&f, &b) in p.forward.values().zip(p.backward.values()) {
                assert!(f > 0.0 && f <= 1.0 + 1e-12);
                assert!(b > 0.0 && b <= 1.0 + 1e-12);
            }
        }
    }
}
