//! Probability propagation along a join path (paper §2.2).
//!
//! For a reference `r` and a join path `P`, the *connection strength*
//! between `r` and each neighbor tuple `t ∈ NB_P(r)` is modelled by
//! uniform probability propagation: the tuple containing `r` starts with
//! probability 1, and at each step every tuple with non-zero probability
//! splits its mass uniformly over the tuples joinable with it along the
//! next step of `P`.
//!
//! Both quantities the paper needs come out of one traversal:
//!
//! * `Prob_P(r → t)` — mass arriving at `t` walking the path forward; and
//! * `Prob_P(t → r)` — probability that a walk starting at `t` and
//!   following the *reverse* path lands exactly on `r`.

use crate::graph::{LinkGraph, NodeId};
use crate::kernel::Row;
use relstore::{Catalog, FxHashMap, JoinPath, TupleRef};

/// Sorted columns of one or more propagations, one run per join path.
///
/// Each run lists the reached nodes of its path's **end relation** in
/// strictly ascending order, with `Prob_P(r → t)` and `Prob_P(t → r)` side
/// by side; a node absent from a run has zero probability. Both masses are
/// positive for every listed node: a tuple is reachable from `r` iff `r`
/// is reachable from it along the reverse path. A reference's profile
/// holds one run per join path in one buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Propagation {
    /// End offset of each run in the columns.
    ends: Vec<usize>,
    /// Reached nodes, ascending within each run.
    nodes: Vec<NodeId>,
    /// `Prob_P(r → t)`, aligned with `nodes`.
    forward: Vec<f64>,
    /// `Prob_P(t → r)`, aligned with `nodes`.
    backward: Vec<f64>,
}

/// One join path's run of a [`Propagation`]: aligned column slices.
#[derive(Debug, Clone, Copy)]
pub struct PathColumns<'a> {
    /// Reached end-relation nodes, strictly ascending.
    pub nodes: &'a [NodeId],
    /// `Prob_P(r → t)` per node.
    pub forward: &'a [f64],
    /// `Prob_P(t → r)` per node.
    pub backward: &'a [f64],
}

impl<'a> PathColumns<'a> {
    /// Number of distinct neighbor tuples reached.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no neighbor tuples were reached.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward masses as a kernel row.
    pub fn forward_row(&self) -> Row<'a, NodeId> {
        (self.nodes, self.forward)
    }

    /// The backward masses as a kernel row.
    pub fn backward_row(&self) -> Row<'a, NodeId> {
        (self.nodes, self.backward)
    }

    /// Total forward mass (≤ 1; < 1 only if some walk dead-ends, e.g. a
    /// null foreign key), summed in ascending node order.
    pub fn total_forward(&self) -> f64 {
        self.forward.iter().sum()
    }
}

impl Propagation {
    /// No runs.
    pub fn new() -> Self {
        Propagation::default()
    }

    /// `paths` empty runs: no mass along any path.
    pub fn empty_paths(paths: usize) -> Self {
        Propagation {
            ends: vec![0; paths],
            ..Propagation::default()
        }
    }

    /// Number of runs (join paths).
    pub fn paths(&self) -> usize {
        self.ends.len()
    }

    /// Total neighbor tuples across all runs.
    pub fn neighbor_total(&self) -> usize {
        self.nodes.len()
    }

    /// Run `k` (panics when `k >= self.paths()`).
    pub fn path(&self, k: usize) -> PathColumns<'_> {
        let lo = k.checked_sub(1).map_or(0, |j| self.ends[j]);
        let hi = self.ends[k];
        PathColumns {
            nodes: &self.nodes[lo..hi],
            forward: &self.forward[lo..hi],
            backward: &self.backward[lo..hi],
        }
    }

    /// Append one run of `(node, forward, backward)` entries, which must
    /// come in strictly ascending node order with positive masses.
    // distinct-lint: allow(D005, reason="O(run) copy of one validated run; checkpoint loads and tests call it once per profile path")
    pub fn push_path(&mut self, entries: impl IntoIterator<Item = (NodeId, f64, f64)>) {
        let lo = self.nodes.len();
        for (n, f, b) in entries {
            self.nodes.push(n);
            self.forward.push(f);
            self.backward.push(b);
        }
        let run = &self.nodes[lo..];
        debug_assert!(
            run.iter().zip(run.iter().skip(1)).all(|(x, y)| x < y),
            "run not in strictly ascending node order"
        );
        self.ends.push(self.nodes.len());
    }
}

/// Propagate probabilities from `origin` along `path`: one run.
///
/// `origin` must be a tuple of the path's start relation. The catalog is
/// only consulted for the path's relation sequence; all adjacency comes
/// from the [`LinkGraph`].
pub fn propagate(
    graph: &LinkGraph,
    catalog: &Catalog,
    path: &JoinPath,
    origin: TupleRef,
) -> Propagation {
    propagate_blocked(graph, catalog, path, origin, &[])
}

/// Like [`propagate`], but walks never pass through any of the `blocked`
/// nodes: mass stepping onto a blocked node is dropped (not renormalized),
/// in both the forward and the reverse direction.
///
/// DISTINCT blocks the tuple identified by a reference's own name: all
/// resembling references share it by definition, so any linkage routed
/// through it (e.g. reaching every same-named reference via the shared
/// author tuple) is vacuous for distinguishing them.
pub fn propagate_blocked(
    graph: &LinkGraph,
    catalog: &Catalog,
    path: &JoinPath,
    origin: TupleRef,
    blocked: &[NodeId],
) -> Propagation {
    let mut out = Propagation::new();
    propagate_blocked_guarded(
        graph,
        catalog,
        path,
        origin,
        blocked,
        &mut |_| true,
        &mut out,
    )
    // distinct-lint: allow(D002, reason="guard is the constant true closure above, so the traversal can never be abandoned")
    .expect("permissive guard never stops propagation");
    out
}

/// Like [`propagate_blocked`], but cooperatively interruptible, and
/// appending its run to `out`.
///
/// `guard` is called once per propagation level (forward and backward) with
/// the number of frontier entries about to be expanded — the unit of work
/// that dominates propagation cost. Returning `false` abandons the
/// traversal: the function returns `None` and appends nothing (a
/// half-propagated profile would silently distort similarity values, which
/// is worse than having no profile).
pub fn propagate_blocked_guarded(
    graph: &LinkGraph,
    catalog: &Catalog,
    path: &JoinPath,
    origin: TupleRef,
    blocked: &[NodeId],
    guard: &mut dyn FnMut(u64) -> bool,
    out: &mut Propagation,
) -> Option<()> {
    debug_assert_eq!(
        origin.rel, path.start,
        "origin tuple not in path start relation"
    );
    let rels = path.relations(catalog);

    // Forward pass: `levels[i]` is the mass at level `i`, stored once and
    // read again by the backward pass.
    let mut levels: Vec<FxHashMap<NodeId, f64>> = Vec::with_capacity(path.len() + 1);
    let mut start: FxHashMap<NodeId, f64> = FxHashMap::default();
    start.insert(graph.node(origin), 1.0);
    levels.push(start);
    // Hoisted sort scratch, refilled per level instead of reallocated
    // (lint D110): each level clears it and re-extends from the frontier.
    let mut expand: Vec<(NodeId, f64)> = Vec::new();
    for (i, step) in path.steps.iter().enumerate() {
        if !guard(levels[i].len() as u64) {
            return None;
        }
        let src_rel = rels[i];
        let mut next: FxHashMap<NodeId, f64> = FxHashMap::default();
        // Expand the frontier in ascending node order: several sources can
        // deposit mass on the same target, and f64 `+=` is order-sensitive,
        // so hash-order expansion would make the low-order bits of `next`
        // depend on the frontier map's insertion history (lint D001).
        expand.clear();
        expand.extend(levels[i].iter().map(|(&u, &p)| (u, p)));
        expand.sort_unstable_by_key(|&(u, _)| u);
        for &(u, p) in &expand {
            let nbrs = graph.step_neighbors(*step, u, src_rel);
            if nbrs.is_empty() {
                continue; // dead end: mass is lost (e.g. null FK)
            }
            let share = p / nbrs.len() as f64;
            for &v in nbrs {
                if blocked.contains(&v) {
                    continue; // mass is lost at blocked nodes
                }
                *next.entry(v).or_insert(0.0) += share;
            }
        }
        levels.push(next);
    }

    // Backward pass: g_i(u) = P(reverse walk from u at level i reaches origin).
    // g_0(origin) = 1; g_i(u) = (Σ_{v ∈ rev(u)} g_{i-1}(v)) / |rev(u)| where
    // rev(u) enumerates *all* reverse-step neighbors of u (tuples off every
    // path to the origin contribute 0).
    let mut g: FxHashMap<NodeId, f64> = FxHashMap::default();
    g.insert(graph.node(origin), 1.0);
    for (i, step) in path.steps.iter().enumerate() {
        if !guard(levels[i + 1].len() as u64) {
            return None;
        }
        let rev = step.reversed();
        let rev_src_rel = rels[i + 1];
        let mut g_next: FxHashMap<NodeId, f64> = FxHashMap::default();
        // Each `u` gets an independent entry and `acc` sums over the
        // deterministic reverse-neighbor slice, so iteration order cannot
        // affect any value — only the map's (unobserved) internal layout.
        // distinct-lint: allow(D001, reason="per-key insert with no cross-key accumulation; acc sums a deterministic slice")
        for &u in levels[i + 1].keys() {
            let nbrs = graph.step_neighbors(rev, u, rev_src_rel);
            debug_assert!(!nbrs.is_empty(), "reached tuple has no reverse neighbor");
            let mut acc = 0.0;
            for &v in nbrs {
                if let Some(&gv) = g.get(&v) {
                    acc += gv;
                }
            }
            if acc > 0.0 {
                g_next.insert(u, acc / nbrs.len() as f64);
            }
        }
        g = g_next;
    }

    // The run: reached nodes ascending, both masses side by side. Every
    // reached node reached the origin back (the step that reached it
    // reverses), so `g` holds a positive mass for each.
    let reached = &levels[path.len()];
    let lo = out.nodes.len();
    out.nodes.extend(reached.keys().copied());
    out.nodes[lo..].sort_unstable();
    for n in &out.nodes[lo..] {
        let back = g.get(n).copied().unwrap_or(0.0);
        debug_assert!(back > 0.0, "reached node {n:?} has no return mass");
        out.forward.push(reached.get(n).copied().unwrap_or(0.0));
        out.backward.push(back);
    }
    out.ends.push(out.nodes.len());
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::directed_walk;
    use relstore::{AttrType, JoinStep, SchemaBuilder, Value};

    /// `(Prob_P(r → t), Prob_P(t → r))` of node `t` in `run`, if reached.
    fn masses(run: PathColumns<'_>, t: NodeId) -> Option<(f64, f64)> {
        let i = run.nodes.binary_search(&t).ok()?;
        Some((run.forward[i], run.backward[i]))
    }

    /// The Fig. 3-style setup: R_r --fk--> R1 <--fk-- R2... We model the
    /// DBLP shape: Publish -> Papers <- Publish -> Authors.
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
        // Paper 1 by (w, x, y); paper 2 by (w, z).
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

    fn publish_tuple(c: &Catalog, idx: u32) -> TupleRef {
        TupleRef::new(c.relation_id("Publish").unwrap(), relstore::TupleId(idx))
    }

    fn author_node(c: &Catalog, g: &LinkGraph, name: &str) -> NodeId {
        let authors = c.relation_id("Authors").unwrap();
        let tid = c.relation(authors).by_key(&Value::str(name)).unwrap();
        g.node(TupleRef::new(authors, tid))
    }

    #[test]
    fn forward_mass_is_conserved() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        // Origin: (w, paper1) record.
        let prop = propagate(&g, &c, &path, publish_tuple(&c, 0));
        let run = prop.path(0);
        assert!((run.total_forward() - 1.0).abs() < 1e-12);
        assert_eq!(run.len(), 3); // w, x, y all author paper 1
        assert!(!run.is_empty());
    }

    #[test]
    fn forward_probabilities_match_hand_computation() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        // From (w, paper1): forward to paper1 (prob 1), backward to its 3
        // records (1/3 each), forward to authors w, x, y (1/3 each).
        let prop = propagate(&g, &c, &path, publish_tuple(&c, 0));
        let run = prop.path(0);
        for name in ["w", "x", "y"] {
            let (p, _) = masses(run, author_node(&c, &g, name)).unwrap();
            assert!((p - 1.0 / 3.0).abs() < 1e-12, "{name}: {p}");
        }
        assert!(masses(run, author_node(&c, &g, "z")).is_none());
    }

    #[test]
    fn backward_probabilities_match_hand_computation() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        let prop = propagate(&g, &c, &path, publish_tuple(&c, 0));
        // Reverse path from author x: Authors <- Publish -> Papers <- Publish.
        // x has 1 publish record; it maps to paper1 (prob 1), which has 3
        // records, so landing exactly on (w, paper1) has prob 1/3.
        let run = prop.path(0);
        let (_, px) = masses(run, author_node(&c, &g, "x")).unwrap();
        assert!((px - 1.0 / 3.0).abs() < 1e-12);
        // From author w: 2 records (paper1, paper2); only the paper1 branch
        // can reach the origin record: 1/2 * 1/3 = 1/6.
        let (_, pw) = masses(run, author_node(&c, &g, "w")).unwrap();
        assert!((pw - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn runs_are_sorted_with_masses_in_unit_interval() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        for idx in 0..5 {
            let prop = propagate(&g, &c, &path, publish_tuple(&c, idx));
            assert_eq!(prop.paths(), 1);
            let run = prop.path(0);
            assert!(run.nodes.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(run.forward.len(), run.len());
            assert_eq!(run.backward.len(), run.len());
            for (&p, &b) in run.forward.iter().zip(run.backward) {
                assert!(p > 0.0 && p <= 1.0 + 1e-12);
                assert!(b > 0.0 && b <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn runs_append_to_one_buffer() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        let (a, b) = (publish_tuple(&c, 0), publish_tuple(&c, 3));
        let mut both = Propagation::new();
        for origin in [a, b] {
            propagate_blocked_guarded(&g, &c, &path, origin, &[], &mut |_| true, &mut both)
                .unwrap();
        }
        assert_eq!(both.paths(), 2);
        let (pa, pb) = (propagate(&g, &c, &path, a), propagate(&g, &c, &path, b));
        for (k, single) in [(0, &pa), (1, &pb)] {
            assert_eq!(both.path(k).nodes, single.path(0).nodes);
            assert_eq!(both.path(k).forward, single.path(0).forward);
            assert_eq!(both.path(k).backward, single.path(0).backward);
        }
        assert_eq!(
            both.neighbor_total(),
            pa.neighbor_total() + pb.neighbor_total()
        );
        let empty = Propagation::empty_paths(3);
        assert_eq!(empty.paths(), 3);
        assert!((0..3).all(|k| empty.path(k).is_empty()));
    }

    #[test]
    fn single_step_path() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let publish = c.relation_id("Publish").unwrap();
        let fk_p = c
            .fk_edges()
            .iter()
            .find(|e| e.label == "Publish.p->Papers")
            .unwrap()
            .id;
        let path = JoinPath::new(publish, vec![JoinStep::forward(fk_p)], &c).unwrap();
        let prop = propagate(&g, &c, &path, publish_tuple(&c, 0));
        let run = prop.path(0);
        assert_eq!(run.len(), 1);
        assert!((run.forward[0] - 1.0).abs() < 1e-12);
        // Reverse: paper1 has 3 records, so P(t -> r) = 1/3.
        assert!((run.backward[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dead_end_loses_mass() {
        let mut c = Catalog::new();
        c.add_relation(
            SchemaBuilder::new("B")
                .key("b", AttrType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.add_relation(
            SchemaBuilder::new("A")
                .fk("b", AttrType::Int, "B")
                .build()
                .unwrap(),
        )
        .unwrap();
        c.insert("B", [Value::Int(1)].into()).unwrap();
        c.insert("A", [Value::Null].into()).unwrap(); // dangling-by-null
        c.finalize(true).unwrap();
        let g = LinkGraph::build(&c);
        let a = c.relation_id("A").unwrap();
        let fk = c.fk_edges()[0].id;
        let path = JoinPath::new(a, vec![JoinStep::forward(fk)], &c).unwrap();
        let prop = propagate(&g, &c, &path, TupleRef::new(a, relstore::TupleId(0)));
        assert!(prop.path(0).is_empty());
        assert_eq!(prop.path(0).total_forward(), 0.0);
    }

    #[test]
    fn blocking_drops_mass_through_the_node_in_both_directions() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        let origin = publish_tuple(&c, 1); // (x, paper1)
                                           // Block author w: reachable via paper1's records.
        let blocked = vec![author_node(&c, &g, "w")];
        let prop = propagate_blocked(&g, &c, &path, origin, &blocked);
        let run = prop.path(0);
        assert!(masses(run, blocked[0]).is_none());
        // Mass that would have reached w is *lost*, not redistributed:
        // x and y still carry exactly 1/3 each.
        for name in ["x", "y"] {
            let (p, _) = masses(run, author_node(&c, &g, name)).unwrap();
            assert!((p - 1.0 / 3.0).abs() < 1e-12, "{name}: {p}");
        }
        assert!((run.total_forward() - 2.0 / 3.0).abs() < 1e-12);
        // Unblocked propagation is identical to propagate().
        let unblocked = propagate_blocked(&g, &c, &path, origin, &[]);
        assert_eq!(unblocked, propagate(&g, &c, &path, origin));
    }

    #[test]
    fn blocking_an_intermediate_node_cuts_paths_through_it() {
        // Block paper1 itself: the coauthor path from (w, paper2) can only
        // flow through paper2, so it reaches w and z but none of paper1's
        // authors.
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        let papers = c.relation_id("Papers").unwrap();
        let p1 = TupleRef::new(papers, relstore::TupleId(0));
        let origin = publish_tuple(&c, 3); // (w, paper2)
        let prop = propagate_blocked(&g, &c, &path, origin, &[g.node(p1)]);
        let run = prop.path(0);
        assert!(masses(run, author_node(&c, &g, "z")).is_some());
        assert!(masses(run, author_node(&c, &g, "x")).is_none());
        assert!(masses(run, author_node(&c, &g, "y")).is_none());
    }

    #[test]
    fn guarded_propagation_stops_cleanly_or_matches_unguarded() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let path = coauthor_path(&c);
        let origin = publish_tuple(&c, 0);
        let full = propagate(&g, &c, &path, origin);
        // A permissive guard reproduces the unguarded result and is called
        // once per level in each direction.
        let mut calls = 0u32;
        let mut got = Propagation::new();
        let mut count = |u: u64| {
            calls += 1;
            assert!(u > 0);
            true
        };
        propagate_blocked_guarded(&g, &c, &path, origin, &[], &mut count, &mut got).unwrap();
        assert_eq!(got, full);
        assert_eq!(calls as usize, 2 * path.len());
        // Tripping the guard at every possible level returns None and
        // appends nothing, never a partial run.
        for stop_at in 1..=(2 * path.len() as u32) {
            let mut n = 0u32;
            let mut stop = |_: u64| {
                n += 1;
                n < stop_at
            };
            let mut out = Propagation::new();
            let done = propagate_blocked_guarded(&g, &c, &path, origin, &[], &mut stop, &mut out);
            assert!(
                done.is_none(),
                "stop_at {stop_at} returned a partial result"
            );
            assert_eq!(out, Propagation::new(), "stop_at {stop_at} appended");
        }
    }

    #[test]
    fn empty_path_returns_origin_with_prob_one() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        let publish = c.relation_id("Publish").unwrap();
        let path = JoinPath::empty(publish);
        let origin = publish_tuple(&c, 2);
        let prop = propagate(&g, &c, &path, origin);
        assert_eq!(prop.path(0).len(), 1);
        assert_eq!(masses(prop.path(0), g.node(origin)), Some((1.0, 1.0)));
    }

    /// `Publish` records each pointing at a paper of `Papers`: record `i`
    /// names paper `papers[i]`. Returns the catalog, its graph and the
    /// one-step path Publish → Papers.
    fn paper_records(papers: &[i64]) -> (Catalog, LinkGraph, JoinPath) {
        let mut c = Catalog::new();
        c.add_relation(
            SchemaBuilder::new("Papers")
                .key("p", AttrType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.add_relation(
            SchemaBuilder::new("Publish")
                .fk("p", AttrType::Int, "Papers")
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut keys = papers.to_vec();
        keys.sort();
        keys.dedup();
        for p in keys {
            c.insert("Papers", [Value::Int(p)].into()).unwrap();
        }
        for &p in papers {
            c.insert("Publish", [Value::Int(p)].into()).unwrap();
        }
        c.finalize(true).unwrap();
        let g = LinkGraph::build(&c);
        let publish = c.relation_id("Publish").unwrap();
        let fk = c.fk_edges()[0].id;
        let path = JoinPath::new(publish, vec![JoinStep::forward(fk)], &c).unwrap();
        (c, g, path)
    }

    /// Walk probabilities over real propagations behave as the paper
    /// intends: references that share a paper have a much higher walk
    /// probability than references on different papers.
    #[test]
    fn end_to_end_shared_paper_beats_unrelated() {
        // Records 0, 1 share paper 1; record 2 is alone on paper 2.
        let (c, g, path) = paper_records(&[1, 1, 2]);
        let [p0, p1, p2] = [0, 1, 2].map(|i| propagate(&g, &c, &path, publish_tuple(&c, i)));
        let walk = |x: &Propagation, y: &Propagation| {
            directed_walk(x.path(0).forward_row(), y.path(0).backward_row())
        };
        // Shared paper: 1 · 1/2 in both directions. Unrelated: 0.
        assert!((walk(&p0, &p1) - 0.5).abs() < 1e-12);
        assert!((walk(&p1, &p0) - 0.5).abs() < 1e-12);
        assert_eq!(walk(&p0, &p2), 0.0);
        assert_eq!(walk(&p2, &p0), 0.0);
    }

    #[test]
    fn self_walk_reflects_fanout() {
        // A reference's walk probability to itself along a path is the
        // chance of returning to itself — 1/|paper records|.
        let (c, g, path) = paper_records(&[1, 1, 1, 1]);
        let p = propagate(&g, &c, &path, publish_tuple(&c, 0));
        let run = p.path(0);
        assert!((directed_walk(run.forward_row(), run.backward_row()) - 0.25).abs() < 1e-12);
    }
}
