//! Compact linkage graph over a finalized catalog.
//!
//! Probability propagation visits foreign-key neighborhoods millions of
//! times. The [`LinkGraph`] flattens every tuple into a dense `u32` node
//! id and stores each foreign-key edge's adjacency as flat arrays: the
//! forward table is the catalog's resolved column (at most one target
//! per tuple) and the backward table its transpose in CSR (compressed
//! sparse row) form, both shifted into node ids. A traversal step is a
//! slice lookup, and building the graph is a copy of the catalog's
//! arrays, with no value hashed.

use relstore::{Catalog, Direction, FkId, FkLinks, FxHashMap, JoinStep, RelId, TupleId, TupleRef};

/// Dense node id: a tuple's position in the flattened catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The forward slot of a tuple with no target (null or dangling).
    const NONE: NodeId = NodeId(u32::MAX);

    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// CSR adjacency: `targets[offsets[i]..offsets[i+1]]` are node `i`'s
/// neighbors, where `i` is the tuple id *within the edge's source relation*.
#[derive(Debug, Clone, Default)]
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Csr {
    fn neighbors(&self, local: usize) -> &[NodeId] {
        let lo = self.offsets[local] as usize;
        let hi = self.offsets[local + 1] as usize;
        &self.targets[lo..hi]
    }
}

/// Flattened linkage graph for fast join-path traversal.
///
/// The graph is built once over a finalized catalog and can then grow by
/// [`LinkGraph::append_tuple`]: appended tuples get node ids *after* every
/// build-time id (so existing ids — and anything keyed on them, such as
/// cached profiles — stay valid) and their adjacency lives in small
/// hash-map overlays consulted before the CSR tables. An overlay entry
/// always holds the *fully merged* neighbor list (build-time neighbors
/// followed by appended ones, which preserves tuple-id order because
/// appended tuples have larger ids), so a traversal step is still a single
/// slice borrow.
#[derive(Debug, Clone)]
pub struct LinkGraph {
    /// Offset of each relation's tuples in the global node id space; one
    /// extra entry holds the build-time total node count.
    base: Vec<u32>,
    /// Per FK edge: forward column (source relation local id -> target,
    /// or [`NodeId::NONE`]).
    forward: Vec<Vec<NodeId>>,
    /// Per FK edge: backward adjacency (target relation local id -> referrers).
    backward: Vec<Csr>,
    /// Appended tuples in append order; tuple `extra[k]` has node id
    /// `built_total + k`.
    extra: Vec<TupleRef>,
    /// Per relation: node ids of appended tuples, indexed by
    /// `tid - built_len(rel)` (tuple ids are dense and appends only grow
    /// them). Empty until the first append.
    extra_by_rel: Vec<Vec<NodeId>>,
    /// Per FK edge: forward overlay keyed by global node id.
    fwd_over: Vec<FxHashMap<NodeId, Vec<NodeId>>>,
    /// Per FK edge: backward overlay keyed by global node id.
    bwd_over: Vec<FxHashMap<NodeId, Vec<NodeId>>>,
    /// Fast path: skip every overlay lookup while the graph is untouched.
    has_overlay: bool,
}

impl LinkGraph {
    /// Build the graph from a finalized catalog.
    ///
    /// # Panics
    /// Panics if the catalog is not finalized (edges would be stale).
    pub fn build(catalog: &Catalog) -> Self {
        assert!(
            catalog.is_finalized(),
            "LinkGraph::build requires a finalized catalog"
        );
        let mut base = Vec::with_capacity(catalog.relation_count() + 1);
        let mut total = 0u32;
        for (_, rel) in catalog.relations() {
            base.push(total);
            total += rel.len() as u32;
        }
        base.push(total);

        let mut forward = Vec::with_capacity(catalog.fk_edges().len());
        let mut backward = Vec::with_capacity(catalog.fk_edges().len());
        for edge in catalog.fk_edges() {
            let links = catalog.links(edge.id);
            let (from_base, to_base) = (base[edge.from.index()], base[edge.to.index()]);
            // Forward: each tuple of `from` points to <= 1 tuple of `to`.
            forward.push(
                links
                    .targets()
                    .iter()
                    .map(|&t| match t {
                        FkLinks::NONE => NodeId::NONE,
                        t => NodeId(to_base + t),
                    })
                    .collect(),
            );
            // Backward: each tuple of `to` points to all referrers in `from`.
            let to_len = catalog.relation(edge.to).len();
            let mut b = Csr {
                offsets: Vec::with_capacity(to_len + 1),
                // Every linked forward slot is one referrer.
                targets: Vec::with_capacity(links.targets().len()),
            };
            b.offsets.push(0);
            for tid in 0..to_len as u32 {
                for part in links.referrers(TupleId(tid)) {
                    b.targets
                        .extend(part.iter().map(|r| NodeId(from_base + r.0)));
                }
                b.offsets.push(b.targets.len() as u32);
            }
            backward.push(b);
        }
        LinkGraph {
            base,
            forward,
            backward,
            extra: Vec::new(),
            extra_by_rel: Vec::new(),
            fwd_over: Vec::new(),
            bwd_over: Vec::new(),
            has_overlay: false,
        }
    }

    /// Node count at build time (appended nodes get ids from here up).
    #[inline]
    fn built_total(&self) -> u32 {
        *self.base.last().unwrap_or(&0)
    }

    /// Build-time tuple count of one relation.
    #[inline]
    fn built_len(&self, rel: usize) -> u32 {
        self.base[rel + 1] - self.base[rel]
    }

    /// Whether `t` already has a node in this graph (build-time or
    /// appended). Catalog tuples inserted after the last
    /// [`LinkGraph::append_tuple`] call are not yet covered.
    pub fn covers(&self, t: TupleRef) -> bool {
        let rel = t.rel.index();
        let appended = if self.has_overlay {
            self.extra_by_rel[rel].len() as u32
        } else {
            0
        };
        t.tid.0 < self.built_len(rel) + appended
    }

    /// Append one catalog tuple to the graph, wiring its foreign-key
    /// adjacency into the overlays, and return its (new) node id.
    ///
    /// The catalog must be finalized and must already contain `t`. Forward
    /// targets of `t` must already be covered by the graph — append
    /// referenced tuples before referencing ones. Referrers of `t` that the
    /// graph does not cover yet are skipped; they wire themselves up when
    /// they are appended in turn.
    ///
    /// # Panics
    /// Panics if the catalog is not finalized (edges would be stale).
    pub fn append_tuple(&mut self, catalog: &Catalog, t: TupleRef) -> NodeId {
        assert!(
            catalog.is_finalized(),
            "LinkGraph::append_tuple requires a finalized catalog"
        );
        if !self.has_overlay {
            self.extra_by_rel = vec![Vec::new(); self.base.len().saturating_sub(1)];
            self.fwd_over = vec![FxHashMap::default(); self.forward.len()];
            self.bwd_over = vec![FxHashMap::default(); self.backward.len()];
            self.has_overlay = true;
        }
        let rel = t.rel.index();
        debug_assert_eq!(
            t.tid.0,
            self.built_len(rel) + self.extra_by_rel[rel].len() as u32,
            "tuples must be appended in catalog insertion order"
        );
        let id = NodeId(self.built_total() + self.extra.len() as u32);
        // distinct-lint: allow(D113, reason="the incremental overlay mirrors corpus growth: appended tuples stay addressable until the graph is rebuilt, which is the eviction point")
        self.extra.push(t);
        self.extra_by_rel[rel].push(id);

        // Out-edges: the new tuple's forward targets and its entry in each
        // target's backward list. A target inserted later in the same batch
        // is not covered yet — skip it; the in-edge fixup when the target
        // is appended wires this tuple's edge then.
        for &fk in catalog.out_edges(t.rel) {
            if let Some(target) = catalog.follow_forward(fk, t) {
                if !self.covers(target) {
                    continue;
                }
                let tn = self.node(target);
                self.fwd_over[fk.index()].insert(id, vec![tn]);
                if !self.bwd_over[fk.index()].contains_key(&tn) {
                    let seed = if tn.0 < self.built_total() {
                        let local = self.local(tn, target.rel);
                        self.backward[fk.index()].neighbors(local).to_vec()
                    } else {
                        Vec::new()
                    };
                    self.bwd_over[fk.index()].insert(tn, seed);
                }
                if let Some(list) = self.bwd_over[fk.index()].get_mut(&tn) {
                    list.push(id);
                }
            }
        }

        // In-edges: referrers that already exist (possible when the base
        // catalog was finalized without integrity checks, leaving dangling
        // foreign keys that the new tuple's key now resolves). Covered
        // referrers flip from no-target to the new node; uncovered ones are
        // future appends that handle themselves above.
        for &fk in catalog.in_edges(t.rel) {
            let mut backs: Vec<NodeId> = Vec::new();
            for r in catalog.follow_backward(fk, t) {
                if !self.covers(r) {
                    continue;
                }
                let rn = self.node(r);
                backs.push(rn);
                if rn != id {
                    self.fwd_over[fk.index()].insert(rn, vec![id]);
                }
            }
            if !backs.is_empty() {
                self.bwd_over[fk.index()].insert(id, backs);
            }
        }
        id
    }

    /// Total number of nodes (tuples across all relations).
    pub fn node_count(&self) -> usize {
        self.built_total() as usize + self.extra.len()
    }

    /// Map a tuple to its dense node id.
    #[inline]
    pub fn node(&self, t: TupleRef) -> NodeId {
        let rel = t.rel.index();
        if !self.has_overlay || t.tid.0 < self.built_len(rel) {
            NodeId(self.base[rel] + t.tid.0)
        } else {
            self.extra_by_rel[rel][(t.tid.0 - self.built_len(rel)) as usize]
        }
    }

    /// Map a node id back to its tuple.
    pub fn tuple(&self, n: NodeId) -> TupleRef {
        if n.0 >= self.built_total() {
            return self.extra[(n.0 - self.built_total()) as usize];
        }
        // base is sorted; partition_point finds the relation.
        let rel = self.base.partition_point(|&b| b <= n.0) - 1;
        TupleRef::new(RelId(rel as u32), TupleId(n.0 - self.base[rel]))
    }

    /// Local (within-relation) index of a node, given its relation.
    #[inline]
    fn local(&self, n: NodeId, rel: RelId) -> usize {
        (n.0 - self.base[rel.index()]) as usize
    }

    /// Neighbors of `n` along one join step. `src_rel` must be the step's
    /// source relation (i.e. the relation `n` belongs to).
    #[inline]
    pub fn step_neighbors(&self, step: JoinStep, n: NodeId, src_rel: RelId) -> &[NodeId] {
        if self.has_overlay {
            let over = match step.dir {
                Direction::Forward => &self.fwd_over[step.fk.index()],
                Direction::Backward => &self.bwd_over[step.fk.index()],
            };
            if let Some(list) = over.get(&n) {
                return list;
            }
            if n.0 >= self.built_total() {
                // Appended node with no overlay entry on this edge: no
                // neighbors (e.g. a null foreign key).
                return &[];
            }
        }
        let local = self.local(n, src_rel);
        match step.dir {
            Direction::Forward => match &self.forward[step.fk.index()][local] {
                t if *t == NodeId::NONE => &[],
                t => std::slice::from_ref(t),
            },
            Direction::Backward => self.backward[step.fk.index()].neighbors(local),
        }
    }

    /// Fanout of `n` along one join step.
    #[inline]
    pub fn step_fanout(&self, step: JoinStep, n: NodeId, src_rel: RelId) -> usize {
        self.step_neighbors(step, n, src_rel).len()
    }

    /// Memory the adjacency tables occupy, in bytes (diagnostics).
    pub fn adjacency_bytes(&self) -> usize {
        let csr = |c: &Csr| c.offsets.len() * 4 + c.targets.len() * 4;
        let over =
            |m: &FxHashMap<NodeId, Vec<NodeId>>| m.values().map(|v| 4 + 4 * v.len()).sum::<usize>(); // distinct-lint: allow(D107, reason="integer byte count; usize addition is order-independent")
        self.forward.iter().map(|f| f.len() * 4).sum::<usize>()
            + self.backward.iter().map(csr).sum::<usize>()
            + self.fwd_over.iter().map(over).sum::<usize>()
            + self.bwd_over.iter().map(over).sum::<usize>()
    }

    /// Number of appended (post-build) tuples.
    pub fn appended_count(&self) -> usize {
        self.extra.len()
    }

    /// Check that an edge id is valid for this graph.
    pub fn edge_count(&self) -> usize {
        self.forward.len()
    }

    /// Does this graph know the given FK edge?
    pub fn has_edge(&self, fk: FkId) -> bool {
        fk.index() < self.forward.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{AttrType, SchemaBuilder, Value};

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
        for a in ["x", "y"] {
            c.insert("Authors", [Value::str(a)].into()).unwrap();
        }
        for p in 1..=3 {
            c.insert("Papers", [Value::Int(p)].into()).unwrap();
        }
        c.insert("Publish", [Value::str("x"), Value::Int(1)].into())
            .unwrap();
        c.insert("Publish", [Value::str("y"), Value::Int(1)].into())
            .unwrap();
        c.insert("Publish", [Value::str("x"), Value::Int(2)].into())
            .unwrap();
        c.insert("Publish", [Value::str("x"), Value::Int(3)].into())
            .unwrap();
        c.finalize(true).unwrap();
        c
    }

    #[test]
    #[should_panic(expected = "finalized")]
    fn unfinalized_catalog_panics() {
        let mut c = catalog();
        c.insert("Papers", [Value::Int(9)].into()).unwrap();
        let _ = LinkGraph::build(&c);
    }

    #[test]
    fn node_ids_round_trip() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        assert_eq!(g.node_count(), 2 + 3 + 4);
        for (rid, rel) in c.relations() {
            for (tid, _) in rel.iter() {
                let t = TupleRef::new(rid, tid);
                assert_eq!(g.tuple(g.node(t)), t);
            }
        }
    }

    #[test]
    fn adjacency_matches_tuple_values() {
        // Expected neighbors come from tuple values alone (the key index
        // forward, a scan for equal values backward), not from the
        // catalog's resolved columns the graph copies.
        let c = catalog();
        let g = LinkGraph::build(&c);
        let node = |rel, tid| g.node(TupleRef::new(rel, tid));
        for edge in c.fk_edges() {
            let (from, to) = (c.relation(edge.from), c.relation(edge.to));
            for (tid, t) in from.iter() {
                let target = to.by_key(t.get(edge.attr)).map(|k| node(edge.to, k));
                let step = JoinStep::forward(edge.id);
                let got = g.step_neighbors(step, node(edge.from, tid), edge.from);
                assert_eq!(got, target.as_slice());
            }
            for (tid, t) in to.iter() {
                let referrers: Vec<NodeId> = from
                    .iter()
                    .filter(|(_, r)| r.get(edge.attr) == t.get(edge.to_key))
                    .map(|(s, _)| node(edge.from, s))
                    .collect();
                let step = JoinStep::backward(edge.id);
                let got = g.step_neighbors(step, node(edge.to, tid), edge.to);
                assert_eq!(got, referrers.as_slice());
            }
        }
        // Paper 1 has two publish records, paper 3 one.
        let papers = c.relation_id("Papers").unwrap();
        let fk_p = c
            .fk_edges()
            .iter()
            .find(|e| e.label == "Publish.p->Papers")
            .unwrap()
            .id;
        for (key, fanout) in [(1, 2), (3, 1)] {
            let p = c.relation(papers).by_key(&Value::Int(key)).unwrap();
            let n = node(papers, p);
            assert_eq!(g.step_fanout(JoinStep::backward(fk_p), n, papers), fanout);
        }
    }

    /// Every (tuple, edge, direction) adjacency of `g`, expressed in
    /// tuple space so graphs with different node numbering compare equal.
    fn adjacency_in_tuple_space(c: &Catalog, g: &LinkGraph) -> Vec<Vec<TupleRef>> {
        let mut out = Vec::new();
        for edge in c.fk_edges() {
            for (rel, dir) in [
                (edge.from, Direction::Forward),
                (edge.to, Direction::Backward),
            ] {
                for (tid, _) in c.relation(rel).iter() {
                    let n = g.node(TupleRef::new(rel, tid));
                    let step = JoinStep { fk: edge.id, dir };
                    out.push(
                        g.step_neighbors(step, n, rel)
                            .iter()
                            .map(|&m| g.tuple(m))
                            .collect(),
                    );
                }
            }
        }
        out
    }

    #[test]
    fn append_matches_cold_rebuild_and_keeps_old_ids() {
        let mut c = catalog();
        let mut g = LinkGraph::build(&c);
        let old_ids: Vec<(TupleRef, NodeId)> = c
            .relations()
            .flat_map(|(rid, rel)| {
                rel.iter()
                    .map(|(tid, _)| TupleRef::new(rid, tid))
                    .collect::<Vec<_>>()
            })
            .map(|t| (t, g.node(t)))
            .collect();

        // Grow the catalog: one new paper, two new publish records (one by
        // an existing author). Referenced tuples are appended first.
        let updates = [
            ("Papers", vec![Value::Int(4)]),
            ("Authors", vec![Value::str("z")]),
            ("Publish", vec![Value::str("x"), Value::Int(4)]),
            ("Publish", vec![Value::str("z"), Value::Int(4)]),
        ];
        for (rel, tuple) in updates {
            let t = c.insert(rel, relstore::Tuple::new(tuple)).unwrap();
            assert!(!g.covers(t));
            c.finalize(false).unwrap();
            let id = g.append_tuple(&c, t);
            assert!(g.covers(t));
            assert_eq!(g.node(t), id);
            assert_eq!(g.tuple(id), t);
        }

        // Old node ids are untouched by the appends.
        for (t, id) in &old_ids {
            assert_eq!(g.node(*t), *id);
        }
        assert_eq!(g.node_count(), 2 + 3 + 4 + 4);
        assert_eq!(g.appended_count(), 4);

        // The grown graph's adjacency equals a cold rebuild over the
        // union catalog, tuple for tuple.
        let cold = LinkGraph::build(&c);
        assert_eq!(
            adjacency_in_tuple_space(&c, &g),
            adjacency_in_tuple_space(&c, &cold)
        );
        assert!(g.adjacency_bytes() > cold.adjacency_bytes());
    }

    #[test]
    fn append_resolves_dangling_foreign_keys() {
        // A catalog finalized without integrity checks may hold references
        // to keys that do not exist yet; appending the missing target must
        // wire the existing referrers to it.
        let mut c = catalog();
        let publish = c.relation_id("Publish").unwrap();
        let dangling = c
            .insert("Publish", [Value::str("x"), Value::Int(9)].into())
            .unwrap();
        c.finalize(false).unwrap();
        let mut g = LinkGraph::build(&c);
        let fk_p = c
            .fk_edges()
            .iter()
            .find(|e| e.label == "Publish.p->Papers")
            .unwrap()
            .id;
        assert!(g
            .step_neighbors(JoinStep::forward(fk_p), g.node(dangling), publish)
            .is_empty());

        let p9 = c.insert("Papers", [Value::Int(9)].into()).unwrap();
        c.finalize(false).unwrap();
        g.append_tuple(&c, p9);
        assert_eq!(
            g.step_neighbors(JoinStep::forward(fk_p), g.node(dangling), publish),
            &[g.node(p9)]
        );
        let papers = c.relation_id("Papers").unwrap();
        assert_eq!(
            g.step_neighbors(JoinStep::backward(fk_p), g.node(p9), papers),
            &[g.node(dangling)]
        );
    }

    #[test]
    fn edge_bookkeeping() {
        let c = catalog();
        let g = LinkGraph::build(&c);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(FkId(0)));
        assert!(g.has_edge(FkId(1)));
        assert!(!g.has_edge(FkId(2)));
        assert!(g.adjacency_bytes() > 0);
    }
}
