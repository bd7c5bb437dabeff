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
use relstore::{Catalog, JoinPath, RelId, TupleRef};

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

/// One reached node of a propagation level with both its masses.
#[derive(Debug, Clone, Copy)]
struct Entry {
    node: NodeId,
    /// `Prob_P(r → t)` at this level.
    forward: f64,
    /// `Prob_P(t → r)` along the reverse of the path's prefix.
    backward: f64,
}

/// Reusable buffers of [`propagate_blocked_guarded`]: plain vectors, no
/// map. They hold every level's entries, a step's deposits and the path's
/// relation list. Every call clears what it uses (keeping the capacity),
/// so no value depends on an earlier call.
#[derive(Debug, Default)]
pub struct PropagateScratch {
    /// Every level's entries, level after level, each level in strictly
    /// ascending node order.
    entries: Vec<Entry>,
    /// Start offset of each level in `entries`, plus the end of the last.
    bounds: Vec<usize>,
    /// One forward step's `(target, source, share)` deposits.
    deposits: Vec<(NodeId, NodeId, f64)>,
    /// The path's relation at each level.
    rels: Vec<RelId>,
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
        // distinct-lint: scratch(per call: the one-run convenience form owns a scratch for its single propagation and drops it on return)
        &mut PropagateScratch::default(),
        &mut out,
    )
    .expect("permissive guard never stops propagation");
    out
}

/// Like [`propagate_blocked`], but cooperatively interruptible, working
/// in `scratch`, and appending its run to `out`.
///
/// Each level is a vector in ascending node order. A forward step pushes
/// every frontier node's shares in ascending source order, sorts them by
/// (target, source) and folds equal targets, so each target sums its
/// shares in ascending source order; a one-node frontier skips the sort,
/// its adjacency row being ascending already. The reverse pass reads the
/// previous level by binary search and writes each entry's reverse mass
/// beside its forward mass, so the run is the last level, copied with no
/// sort and no probe.
///
/// `guard` is called once per propagation level (forward and backward) with
/// the number of frontier entries about to be expanded — the unit of work
/// that dominates propagation cost. Returning `false` abandons the
/// traversal: the function returns `None` and appends nothing (a
/// half-propagated profile would silently distort similarity values, which
/// is worse than having no profile).
#[allow(clippy::too_many_arguments)]
pub fn propagate_blocked_guarded(
    graph: &LinkGraph,
    catalog: &Catalog,
    path: &JoinPath,
    origin: TupleRef,
    blocked: &[NodeId],
    guard: &mut dyn FnMut(u64) -> bool,
    scratch: &mut PropagateScratch,
    out: &mut Propagation,
) -> Option<()> {
    debug_assert_eq!(
        origin.rel, path.start,
        "origin tuple not in path start relation"
    );
    let PropagateScratch {
        entries,
        bounds,
        deposits,
        rels,
    } = scratch;
    rels.clear();
    rels.push(path.start);
    rels.extend(path.steps.iter().map(|s| s.dest(catalog)));

    // Forward pass: level `i` is `entries[bounds[i]..bounds[i + 1]]`, stored
    // once and read again by the reverse pass. The origin's reverse mass is
    // 1: a walk of no steps is already there.
    entries.clear();
    bounds.clear();
    entries.push(Entry {
        node: graph.node(origin),
        forward: 1.0,
        backward: 1.0,
    });
    bounds.extend([0, 1]);
    for (i, step) in path.steps.iter().enumerate() {
        let cur = bounds[i]..bounds[i + 1];
        if !guard(cur.len() as u64) {
            return None;
        }
        let src_rel = rels[i];
        deposits.clear();
        for e in &entries[cur.clone()] {
            let nbrs = graph.step_neighbors(*step, e.node, src_rel);
            if nbrs.is_empty() {
                continue; // dead end: mass is lost (e.g. null FK)
            }
            let share = e.forward / nbrs.len() as f64;
            for &v in nbrs {
                if !blocked.contains(&v) {
                    deposits.push((v, e.node, share)); // blocked nodes lose it
                }
            }
        }
        // Several sources can deposit mass on one target, and f64 `+=` is
        // order-sensitive: each target sums its shares in ascending source
        // order. One source's row is ascending and lists each target once.
        if cur.len() > 1 {
            deposits.sort_unstable_by_key(|&(v, u, _)| (v, u));
        }
        for &(v, _, share) in deposits.iter() {
            // The level's first target opens an entry even when it equals
            // the frontier's last node (a relation referencing itself).
            if entries.len() == cur.end || entries.last().map(|e| e.node) != Some(v) {
                entries.push(Entry {
                    node: v,
                    forward: 0.0,
                    backward: 0.0,
                });
            }
            if let Some(e) = entries.last_mut() {
                e.forward += share;
            }
        }
        bounds.push(entries.len());
        let next = &entries[cur.end..];
        debug_assert!(
            next.iter()
                .zip(next.iter().skip(1))
                .all(|(x, y)| x.node < y.node),
            "level {} not in strictly ascending node order",
            i + 1
        );
    }

    // Reverse pass: g_i(u) = P(reverse walk from u at level i reaches origin),
    // stored as the backward mass of u's entry. g_0(origin) = 1; g_i(u) =
    // (Σ_{v ∈ rev(u)} g_{i-1}(v)) / |rev(u)| where rev(u) enumerates *all*
    // reverse-step neighbors of u, summed in their row order (tuples off
    // every path to the origin contribute 0).
    for (i, step) in path.steps.iter().enumerate() {
        let (lo, hi, end) = (bounds[i], bounds[i + 1], bounds[i + 2]);
        if !guard((end - hi) as u64) {
            return None;
        }
        let rev = step.reversed();
        let rev_src_rel = rels[i + 1];
        let (done, rest) = entries.split_at_mut(hi);
        let prev = &done[lo..];
        for e in &mut rest[..end - hi] {
            let nbrs = graph.step_neighbors(rev, e.node, rev_src_rel);
            debug_assert!(!nbrs.is_empty(), "reached tuple has no reverse neighbor");
            let mut acc = 0.0;
            for v in nbrs {
                if let Ok(j) = prev.binary_search_by_key(v, |p| p.node) {
                    acc += prev[j].backward;
                }
            }
            if acc > 0.0 {
                e.backward = acc / nbrs.len() as f64;
            }
        }
    }

    // The run: the last level, both masses side by side. Every reached
    // node reached the origin back (the step that reached it reverses), so
    // each reverse mass is positive.
    let run = &entries[bounds[path.len()]..];
    debug_assert!(
        run.iter().all(|e| e.backward > 0.0),
        "a reached node has no return mass"
    );
    out.nodes.extend(run.iter().map(|e| e.node));
    out.forward.extend(run.iter().map(|e| e.forward));
    out.backward.extend(run.iter().map(|e| e.backward));
    out.ends.push(out.nodes.len());
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::directed_walk;
    use datagen::{to_catalog, World, WorldConfig};
    use relstore::{
        enumerate_paths, AttrType, JoinStep, PathEnumOptions, SchemaBuilder, TupleId, Value,
    };

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
        let mut scratch = PropagateScratch::default();
        for origin in [a, b] {
            propagate_blocked_guarded(
                &g,
                &c,
                &path,
                origin,
                &[],
                &mut |_| true,
                &mut scratch,
                &mut both,
            )
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
        propagate_blocked_guarded(
            &g,
            &c,
            &path,
            origin,
            &[],
            &mut count,
            &mut PropagateScratch::default(),
            &mut got,
        )
        .unwrap();
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
            let done = propagate_blocked_guarded(
                &g,
                &c,
                &path,
                origin,
                &[],
                &mut stop,
                &mut PropagateScratch::default(),
                &mut out,
            );
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

    /// A target reached from several sources sums their shares in
    /// ascending source order. Hub 1 has three mids; mids 0 and 1 have one
    /// leaf each and mid 2 has six, and one leaf of each mid points at
    /// target 0, which so receives 1/3, 1/3 and 1/18. Summed the other way
    /// round, those shares differ in the last bit.
    #[test]
    fn each_target_sums_its_shares_in_ascending_source_order() {
        let mut c = Catalog::new();
        for schema in [
            SchemaBuilder::new("Hub").key("h", AttrType::Int),
            SchemaBuilder::new("Target").key("t", AttrType::Int),
            SchemaBuilder::new("Mid")
                .key("m", AttrType::Int)
                .fk("h", AttrType::Int, "Hub"),
            SchemaBuilder::new("Leaf").fk("m", AttrType::Int, "Mid").fk(
                "t",
                AttrType::Int,
                "Target",
            ),
        ] {
            c.add_relation(schema.build().unwrap()).unwrap();
        }
        c.insert("Hub", [Value::Int(1)].into()).unwrap();
        for t in 0..6 {
            c.insert("Target", [Value::Int(t)].into()).unwrap();
        }
        for m in 0..3 {
            c.insert("Mid", [Value::Int(m), Value::Int(1)].into())
                .unwrap();
        }
        for (m, t) in [
            (0, 0),
            (1, 0),
            (2, 0),
            (2, 1),
            (2, 2),
            (2, 3),
            (2, 4),
            (2, 5),
        ] {
            c.insert("Leaf", [Value::Int(m), Value::Int(t)].into())
                .unwrap();
        }
        c.finalize(true).unwrap();
        let g = LinkGraph::build(&c);
        let fk = |label: &str| c.fk_edges().iter().find(|e| e.label == label).unwrap().id;
        let hub = c.relation_id("Hub").unwrap();
        let path = JoinPath::new(
            hub,
            vec![
                JoinStep::backward(fk("Mid.h->Hub")),
                JoinStep::backward(fk("Leaf.m->Mid")),
                JoinStep::forward(fk("Leaf.t->Target")),
            ],
            &c,
        )
        .unwrap();
        let prop = propagate(&g, &c, &path, TupleRef::new(hub, TupleId(0)));
        let target = TupleRef::new(c.relation_id("Target").unwrap(), TupleId(0));
        let (got, _) = masses(prop.path(0), g.node(target)).unwrap();
        let third: f64 = 1.0 / 3.0;
        let ascending = ((0.0 + third) + third) + third / 6.0;
        let descending = ((0.0 + third / 6.0) + third) + third;
        assert_ne!(ascending.to_bits(), descending.to_bits());
        assert_eq!(got.to_bits(), ascending.to_bits());
    }

    /// The units the hash-map kernel charged its guard for the test below,
    /// recorded before the sorted-vector kernel replaced it: a budget trips
    /// at the same level in either kernel.
    const UNITS: [u64; 240] = [
        1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 3, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 3, 1, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1,
        1, 1, 1, 14, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1, 3, 2, 1, 3, 2, 45, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1,
        1, 1, 1, 1, 1, 3, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 3, 2,
        1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 14, 1, 1, 1, 1, 1, 1,
        1, 3, 1, 1, 3, 2, 1, 3, 2, 40, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 4, 1, 0, 0, 0,
        0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 6, 1, 1, 4, 1, 4, 3, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0,
        0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 15, 1, 1, 1, 6, 1, 1, 6, 21, 1, 1, 4, 3, 1, 4, 3,
        62,
    ];

    /// The guard sees the frontier size of every level, forward then
    /// backward, for three references of a generated tiny world along
    /// every join path of up to four steps from `Publish`, with each
    /// reference's author tuple blocked as DISTINCT blocks it.
    #[test]
    fn guard_units_per_level_are_pinned() {
        let d = to_catalog(&World::generate(WorldConfig::tiny(5))).unwrap();
        let c = &d.catalog;
        let g = LinkGraph::build(c);
        let paths = enumerate_paths(c, d.publish, &PathEnumOptions::default());
        let author_fk = c
            .fk_edges()
            .iter()
            .find(|e| e.from == d.publish && e.to == d.authors)
            .unwrap()
            .id;
        let mut units = Vec::new();
        for tid in [0, 1, 777] {
            let origin = TupleRef::new(d.publish, TupleId(tid));
            let blocked: Vec<NodeId> = c
                .follow_forward(author_fk, origin)
                .map(|t| g.node(t))
                .into_iter()
                .collect();
            let mut scratch = PropagateScratch::default();
            let mut out = Propagation::new();
            for path in &paths {
                let mut guard = |u: u64| {
                    units.push(u);
                    true
                };
                propagate_blocked_guarded(
                    &g,
                    c,
                    path,
                    origin,
                    &blocked,
                    &mut guard,
                    &mut scratch,
                    &mut out,
                )
                .unwrap();
            }
            assert_eq!(out.paths(), paths.len());
        }
        assert_eq!(units, UNITS);
    }
}
