//! The catalog: a named collection of relations linked by foreign keys.
//!
//! The catalog is the unit the rest of the system operates on. After all
//! relations are registered and populated, call [`Catalog::finalize`]: it
//! resolves foreign-key declarations into edges, resolves every
//! foreign-key *value* once into a column of target tuple ids, transposes
//! that column into the backward (target → referrers) adjacency, and
//! (optionally) checks referential integrity. Traversal reads these
//! arrays; it never looks an attribute value up.
//!
//! Relations only grow, so a later finalize extends the arrays instead of
//! rebuilding them: its cost is the number of tuples inserted since the
//! previous one, plus the slots still waiting for their key.

use crate::error::{Result, StoreError};
use crate::fxhash::FxHashMap;
use crate::relation::Relation;
use crate::schema::RelationSchema;
use crate::tuple::{RelId, Tuple, TupleId, TupleRef};
use crate::value::Value;
use std::fmt;

/// Identifier of a foreign-key edge within a catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FkId(pub u32);

impl FkId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A resolved foreign-key edge: `from.attr` references the key of `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FkEdge {
    /// Edge id.
    pub id: FkId,
    /// Referencing relation.
    pub from: RelId,
    /// Attribute position in `from` carrying the foreign key.
    pub attr: usize,
    /// Referenced relation (must declare a key).
    pub to: RelId,
    /// Key attribute position in `to`.
    pub to_key: usize,
    /// Human-readable label, e.g. `Publish.paper_key->Publications`.
    pub label: String,
}

impl FkEdge {
    /// Whether two edges link the same attribute to the same key.
    fn same_link(&self, other: &FkEdge) -> bool {
        (self.from, self.attr, self.to, self.to_key)
            == (other.from, other.attr, other.to, other.to_key)
    }
}

/// One foreign-key edge's adjacency, resolved from its values once.
///
/// Forward, a column holds each referencing tuple's target tuple id. The
/// backward adjacency is that column's counting-sort transpose (CSR rows
/// over the referenced relation, referrers ascending), plus a tail for
/// the referrers linked after the transpose: a later finalize appends to
/// the tail and never rebuilds the rows.
#[derive(Debug, Clone, Default)]
pub struct FkLinks {
    /// Per referencing tuple: the referenced tuple id, or [`FkLinks::NONE`]
    /// for a null or dangling value.
    targets: Vec<u32>,
    /// Referencing tuples whose non-null value matched no key yet,
    /// ascending; each finalize probes them again.
    dangling: Vec<u32>,
    /// Transpose rows: row `t` is `referrers[offsets[t]..offsets[t + 1]]`.
    /// Empty until the first transpose.
    offsets: Vec<u32>,
    referrers: Vec<TupleId>,
    /// Referrers linked after the transpose, per referenced tuple,
    /// ascending.
    tail: FxHashMap<u32, Vec<TupleId>>,
}

impl FkLinks {
    /// The forward slot of a tuple with no target.
    pub const NONE: u32 = u32::MAX;

    /// Links whose forward column is already resolved (no slot dangles);
    /// the next finalize transposes it.
    pub(crate) fn resolved(targets: Vec<u32>) -> Self {
        FkLinks {
            targets,
            ..FkLinks::default()
        }
    }

    /// The forward column: per referencing tuple linked so far, its target
    /// tuple id or [`FkLinks::NONE`].
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// The target of referencing tuple `tid`, if it has one.
    #[inline]
    pub(crate) fn target(&self, tid: TupleId) -> Option<TupleId> {
        match self.targets.get(tid.index()) {
            Some(&t) if t != Self::NONE => Some(TupleId(t)),
            _ => None,
        }
    }

    /// The referrers of referenced tuple `tid`, ascending: the transposed
    /// row, then the tail (every tail entry is larger than the row's).
    #[inline]
    pub fn referrers(&self, tid: TupleId) -> [&[TupleId]; 2] {
        let t = tid.index();
        let row = match self.offsets.get(t..t + 2) {
            Some(&[lo, hi]) => &self.referrers[lo as usize..hi as usize],
            _ => &[],
        };
        let tail = if self.tail.is_empty() {
            &[]
        } else {
            self.tail.get(&tid.0).map_or(&[][..], Vec::as_slice)
        };
        [row, tail]
    }

    /// Link the tuples `from` gained since the last call, and the slots
    /// left dangling then whose key `to` has since gained.
    ///
    /// Referrer order stays ascending without a sort: a dangling slot can
    /// only resolve to a tuple inserted after it was probed (keys never
    /// change), whose referrers all arrive from here on; re-probed slots
    /// precede every new slot; and new slots arrive in tuple order.
    fn link(&mut self, from: &Relation, attr: usize, to: &Relation) {
        let linked = self.targets.len();
        let transposed = !self.offsets.is_empty();
        let mut fresh: Vec<u32> = Vec::new();
        let targets = &mut self.targets;
        self.dangling
            .retain(|&s| match to.by_key(from.tuple(TupleId(s)).get(attr)) {
                Some(t) => {
                    targets[s as usize] = t.0;
                    fresh.push(s);
                    false
                }
                None => true,
            });
        targets.reserve(from.len() - linked);
        for s in linked as u32..from.len() as u32 {
            // No key is null, so a null value finds no target either.
            let v = from.tuple(TupleId(s)).get(attr);
            match to.by_key(v) {
                Some(t) => {
                    targets.push(t.0);
                    if transposed {
                        fresh.push(s);
                    }
                }
                None => {
                    targets.push(Self::NONE);
                    if !v.is_null() {
                        self.dangling.push(s);
                    }
                }
            }
        }
        if !transposed {
            self.transpose(to.len());
            return;
        }
        for s in fresh {
            let t = self.targets[s as usize];
            // distinct-lint: allow(D113, reason="the backward tail is the adjacency of tuples appended to the corpus; it lives as long as the catalog")
            self.tail.entry(t).or_default().push(TupleId(s));
        }
    }

    /// Counting-sort transpose of the forward column into `rows` rows.
    fn transpose(&mut self, rows: usize) {
        let mut offsets = vec![0u32; rows + 1];
        for &t in &self.targets {
            if t != Self::NONE {
                offsets[t as usize + 1] += 1;
            }
        }
        for i in 0..rows {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..rows].to_vec();
        let mut referrers = vec![TupleId(0); offsets[rows] as usize];
        for (s, &t) in self.targets.iter().enumerate() {
            if t != Self::NONE {
                let at = &mut next[t as usize];
                referrers[*at as usize] = TupleId(s as u32);
                *at += 1;
            }
        }
        self.offsets = offsets;
        self.referrers = referrers;
    }
}

/// A populated, linked relational database.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: Vec<Relation>,
    by_name: FxHashMap<String, RelId>,
    fks: Vec<FkEdge>,
    /// Per FK edge (aligned with `fks`): its resolved adjacency.
    links: Vec<FkLinks>,
    /// Forward columns resolved before the edges exist (by value
    /// expansion), keyed by referencing relation and attribute; the next
    /// finalize adopts them instead of probing.
    seeded: Vec<((RelId, usize), FkLinks)>,
    /// Outgoing FK edge ids per relation.
    out_edges: Vec<Vec<FkId>>,
    /// Incoming FK edge ids per relation.
    in_edges: Vec<Vec<FkId>>,
    finalized: bool,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a relation schema, returning the relation id.
    pub fn add_relation(&mut self, schema: RelationSchema) -> Result<RelId> {
        self.add_populated(Relation::new(schema))
    }

    /// Register a relation together with its stored tuples.
    pub(crate) fn add_populated(&mut self, relation: Relation) -> Result<RelId> {
        if self.by_name.contains_key(relation.name()) {
            return Err(StoreError::DuplicateRelation(relation.name().to_string()));
        }
        let id = RelId(self.relations.len() as u32);
        self.by_name.insert(relation.name().to_string(), id);
        self.relations.push(relation);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        self.finalized = false;
        Ok(id)
    }

    /// Hand the next finalize the adjacency of `from.attr`, already
    /// resolved: it is adopted as is instead of probed value by value.
    pub(crate) fn seed_links(&mut self, from: RelId, attr: usize, links: FkLinks) {
        self.seeded.push(((from, attr), links));
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Resolve a relation by name.
    pub fn relation_id(&self, name: &str) -> Option<RelId> {
        self.by_name.get(name).copied()
    }

    /// The relation with the given id.
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Mutable access to a relation (invalidates finalization).
    pub fn relation_mut(&mut self, id: RelId) -> &mut Relation {
        self.finalized = false;
        &mut self.relations[id.index()]
    }

    /// Iterate over relations with their ids.
    pub fn relations(&self) -> impl Iterator<Item = (RelId, &Relation)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelId(i as u32), r))
    }

    /// Insert a tuple into the named relation.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<TupleRef> {
        let rel = self
            .relation_id(relation)
            .ok_or_else(|| StoreError::UnknownRelation(relation.to_string()))?;
        self.finalized = false;
        // distinct-lint: allow(D113, reason="relation storage is the reference corpus: it grows with inserted tuples by design; dropping the catalog is the only eviction")
        let tid = self.relations[rel.index()].insert(tuple)?;
        Ok(TupleRef::new(rel, tid))
    }

    /// Resolve foreign-key declarations into edges, link every tuple
    /// inserted since the last call (and every slot still dangling), and
    /// optionally verify referential integrity (`check_integrity`): no
    /// non-null foreign-key value may be left without its key.
    ///
    /// Must be called after loading and before traversal; it is
    /// idempotent, and its cost is that of the tuples it links.
    pub fn finalize(&mut self, check_integrity: bool) -> Result<()> {
        let mut fks: Vec<FkEdge> = Vec::new();
        for (rid, rel) in self.relations.iter().enumerate() {
            for (attr, target) in rel.schema().foreign_keys() {
                let invalid = |reason: String| StoreError::InvalidForeignKey {
                    relation: rel.name().to_string(),
                    attribute: rel.schema().attributes[attr].name.clone(),
                    reason,
                };
                let to = self
                    .relation_id(target)
                    .ok_or_else(|| invalid(format!("target relation `{target}` does not exist")))?;
                let to_key = self.relations[to.index()]
                    .schema()
                    .key_index()
                    .ok_or_else(|| {
                        invalid(format!("target relation `{target}` declares no key"))
                    })?;
                fks.push(FkEdge {
                    id: FkId(fks.len() as u32),
                    from: RelId(rid as u32),
                    attr,
                    to,
                    to_key,
                    label: format!(
                        "{}.{}->{}",
                        rel.name(),
                        rel.schema().attributes[attr].name,
                        target
                    ),
                });
            }
        }
        // Keep the adjacency of every edge that survives unchanged (edges
        // are numbered in relation order, so registering a relation only
        // appends); adopt a seeded column or start empty otherwise.
        let mut old = std::mem::take(&mut self.links).into_iter();
        let mut links = Vec::with_capacity(fks.len());
        for (i, edge) in fks.iter().enumerate() {
            let kept = old
                .next()
                .filter(|_| self.fks.get(i).is_some_and(|e| e.same_link(edge)));
            let seeded = || {
                let at = self
                    .seeded
                    .iter()
                    .position(|(k, _)| *k == (edge.from, edge.attr))?;
                Some(self.seeded.swap_remove(at).1)
            };
            let mut l = kept.or_else(seeded).unwrap_or_default();
            l.link(
                &self.relations[edge.from.index()],
                edge.attr,
                &self.relations[edge.to.index()],
            );
            links.push(l);
        }
        self.seeded.clear();
        for edges in self.out_edges.iter_mut().chain(self.in_edges.iter_mut()) {
            edges.clear();
        }
        for edge in &fks {
            // distinct-lint: allow(D113, reason="FK adjacency tracks the schema, one entry per edge; rebuilt only with the catalog")
            self.out_edges[edge.from.index()].push(edge.id);
            // distinct-lint: allow(D113, reason="FK adjacency tracks the schema, one entry per edge; rebuilt only with the catalog")
            self.in_edges[edge.to.index()].push(edge.id);
        }
        self.fks = fks;
        self.links = links;
        if check_integrity {
            for (fk, l) in self.fks.iter().zip(&self.links) {
                if let Some(&s) = l.dangling.first() {
                    let from_rel = &self.relations[fk.from.index()];
                    return Err(StoreError::DanglingForeignKey {
                        relation: from_rel.name().to_string(),
                        attribute: from_rel.schema().attributes[fk.attr].name.clone(),
                        value: from_rel.tuple(TupleId(s)).get(fk.attr).to_string(),
                    });
                }
            }
        }
        self.finalized = true;
        Ok(())
    }

    /// True once [`Catalog::finalize`] has run since the last mutation.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// All foreign-key edges.
    pub fn fk_edges(&self) -> &[FkEdge] {
        &self.fks
    }

    /// The edge with the given id.
    pub fn fk(&self, id: FkId) -> &FkEdge {
        &self.fks[id.index()]
    }

    /// The resolved adjacency of edge `fk`, as of the last finalize.
    pub fn links(&self, fk: FkId) -> &FkLinks {
        &self.links[fk.index()]
    }

    /// FK edges leaving `rel` (rel is the referencing side).
    pub fn out_edges(&self, rel: RelId) -> &[FkId] {
        &self.out_edges[rel.index()]
    }

    /// FK edges entering `rel` (rel is the referenced side).
    pub fn in_edges(&self, rel: RelId) -> &[FkId] {
        &self.in_edges[rel.index()]
    }

    /// Follow edge `fk` forward from a tuple of the referencing relation:
    /// the single target tuple whose key equals the FK value (if any).
    /// Tuples inserted after the last finalize have no target yet.
    pub fn follow_forward(&self, fk: FkId, t: TupleRef) -> Option<TupleRef> {
        let edge = self.fk(fk);
        debug_assert_eq!(t.rel, edge.from, "tuple not in FK source relation");
        self.links(fk)
            .target(t.tid)
            .map(|tid| TupleRef::new(edge.to, tid))
    }

    /// Follow edge `fk` backward from a tuple of the referenced relation:
    /// all referrer tuples whose FK value equals this tuple's key, in
    /// ascending tuple order, as of the last finalize.
    pub fn follow_backward(&self, fk: FkId, t: TupleRef) -> Vec<TupleRef> {
        let edge = self.fk(fk);
        debug_assert_eq!(t.rel, edge.to, "tuple not in FK target relation");
        let [row, tail] = self.links(fk).referrers(t.tid);
        row.iter()
            .chain(tail)
            .map(|&tid| TupleRef::new(edge.from, tid))
            .collect()
    }

    /// Fanout of backward traversal without materializing the tuples.
    pub fn backward_count(&self, fk: FkId, t: TupleRef) -> usize {
        let [row, tail] = self.links(fk).referrers(t.tid);
        row.len() + tail.len()
    }

    /// The tuples of `fk`'s referencing relation whose foreign-key value
    /// equals `value`, ascending — including tuples inserted since the
    /// last finalize, which the adjacency does not cover yet.
    pub fn referrers_of(&self, fk: FkId, value: &Value) -> Vec<TupleId> {
        if value.is_null() {
            return Vec::new();
        }
        let edge = self.fk(fk);
        let from = self.relation(edge.from);
        let l = self.links(fk);
        let mut out = match self.relation(edge.to).by_key(value) {
            Some(t) => l.referrers(t).concat(),
            None => Vec::new(),
        };
        // A slot links to its key only at the finalize after the key
        // arrives, and a tuple only at the finalize after its insert.
        let unlinked = l
            .dangling
            .iter()
            .copied()
            .chain(l.targets.len() as u32..from.len() as u32);
        let before = out.len();
        out.extend(
            unlinked
                .map(TupleId)
                .filter(|&s| from.tuple(s).get(edge.attr) == value),
        );
        if out.len() > before {
            out.sort_unstable();
        }
        out
    }

    /// The value of attribute `attr` of a tuple.
    pub fn value(&self, t: TupleRef, attr: usize) -> &Value {
        self.relations[t.rel.index()].tuple(t.tid).get(attr)
    }
}

impl fmt::Display for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Catalog ({} relations, {} tuples)",
            self.relation_count(),
            self.tuple_count()
        )?;
        for (_, r) in self.relations() {
            writeln!(f, "  {}  [{} tuples]", r.schema(), r.len())?;
        }
        for fk in &self.fks {
            writeln!(f, "  FK {}", fk.label)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::tuple::TupleId;
    use crate::value::AttrType;

    /// Tiny two-relation catalog: Papers(paper KEY, venue->Venues), Venues(venue KEY).
    fn tiny() -> Catalog {
        let mut c = Catalog::new();
        c.add_relation(
            SchemaBuilder::new("Venues")
                .key("venue", AttrType::Str)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.add_relation(
            SchemaBuilder::new("Papers")
                .key("paper", AttrType::Int)
                .fk("venue", AttrType::Str, "Venues")
                .build()
                .unwrap(),
        )
        .unwrap();
        c.insert("Venues", [Value::str("VLDB")].into()).unwrap();
        c.insert("Venues", [Value::str("KDD")].into()).unwrap();
        c.insert("Papers", [Value::Int(1), Value::str("VLDB")].into())
            .unwrap();
        c.insert("Papers", [Value::Int(2), Value::str("VLDB")].into())
            .unwrap();
        c.insert("Papers", [Value::Int(3), Value::str("KDD")].into())
            .unwrap();
        c
    }

    #[test]
    fn register_and_lookup() {
        let c = tiny();
        assert_eq!(c.relation_count(), 2);
        assert_eq!(c.tuple_count(), 5);
        assert!(c.relation_id("Venues").is_some());
        assert!(c.relation_id("Nope").is_none());
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut c = tiny();
        let r = c.add_relation(
            SchemaBuilder::new("Venues")
                .key("venue", AttrType::Str)
                .build()
                .unwrap(),
        );
        assert!(matches!(r, Err(StoreError::DuplicateRelation(_))));
    }

    #[test]
    fn insert_unknown_relation_rejected() {
        let mut c = tiny();
        let r = c.insert("Nope", [Value::Int(1)].into());
        assert!(matches!(r, Err(StoreError::UnknownRelation(_))));
    }

    #[test]
    fn finalize_builds_edges_and_columns() {
        let mut c = tiny();
        assert!(!c.is_finalized());
        c.finalize(true).unwrap();
        assert!(c.is_finalized());
        assert_eq!(c.fk_edges().len(), 1);
        let fk = &c.fk_edges()[0];
        assert_eq!(fk.label, "Papers.venue->Venues");
        let papers = c.relation_id("Papers").unwrap();
        let venues = c.relation_id("Venues").unwrap();
        assert_eq!(c.out_edges(papers), &[fk.id]);
        assert_eq!(c.in_edges(venues), &[fk.id]);
        // Papers 1, 2 -> VLDB (venue 0); paper 3 -> KDD (venue 1).
        let links = c.links(fk.id);
        assert_eq!(links.targets(), &[0, 0, 1]);
        assert_eq!(
            links.referrers(TupleId(0)),
            [&[TupleId(0), TupleId(1)][..], &[]]
        );
        assert_eq!(links.referrers(TupleId(1)), [&[TupleId(2)][..], &[]]);
    }

    #[test]
    fn refinalize_extends_columns_and_keeps_referrers_ascending() {
        let mut c = tiny();
        // Paper 4 dangles until ICDE arrives; paper 5 and 6 come later.
        c.insert("Papers", [Value::Int(4), Value::str("ICDE")].into())
            .unwrap();
        c.finalize(false).unwrap();
        let fk = c.fk_edges()[0].id;
        let papers = c.relation_id("Papers").unwrap();
        let venues = c.relation_id("Venues").unwrap();
        let p = |i: u32| TupleRef::new(papers, TupleId(i));
        assert_eq!(c.follow_forward(fk, p(3)), None);
        c.insert("Papers", [Value::Int(5), Value::str("VLDB")].into())
            .unwrap();
        let icde = c.insert("Venues", [Value::str("ICDE")].into()).unwrap();
        c.insert("Papers", [Value::Int(6), Value::str("ICDE")].into())
            .unwrap();
        // Not linked until the next finalize, but found by value.
        assert_eq!(c.follow_backward(fk, icde), vec![]);
        assert_eq!(
            c.referrers_of(fk, &Value::str("ICDE")),
            vec![TupleId(3), TupleId(5)]
        );
        c.finalize(true).unwrap();
        c.finalize(true).unwrap(); // idempotent
        assert_eq!(c.follow_forward(fk, p(3)), Some(icde));
        assert_eq!(c.follow_backward(fk, icde), vec![p(3), p(5)]);
        let vldb = TupleRef::new(venues, TupleId(0));
        assert_eq!(c.follow_backward(fk, vldb), vec![p(0), p(1), p(4)]);
        assert_eq!(c.backward_count(fk, vldb), 3);
        assert_eq!(
            c.referrers_of(fk, &Value::str("VLDB")),
            vec![TupleId(0), TupleId(1), TupleId(4)]
        );
        assert_eq!(c.referrers_of(fk, &Value::Null), vec![]);
    }

    #[test]
    fn forward_and_backward_traversal() {
        let mut c = tiny();
        c.finalize(true).unwrap();
        let papers = c.relation_id("Papers").unwrap();
        let venues = c.relation_id("Venues").unwrap();
        let fk = c.fk_edges()[0].id;

        let p0 = TupleRef::new(papers, TupleId(0));
        let v = c.follow_forward(fk, p0).unwrap();
        assert_eq!(v.rel, venues);
        assert_eq!(c.value(v, 0).as_str(), Some("VLDB"));

        let back = c.follow_backward(fk, v);
        assert_eq!(back.len(), 2);
        assert_eq!(c.backward_count(fk, v), 2);
    }

    #[test]
    fn integrity_check_catches_dangling_fk() {
        let mut c = tiny();
        c.insert("Papers", [Value::Int(9), Value::str("NOSUCH")].into())
            .unwrap();
        let r = c.finalize(true);
        assert!(matches!(r, Err(StoreError::DanglingForeignKey { .. })));
        // Without the check it finalizes, and forward traversal yields None.
        let mut c2 = tiny();
        c2.insert("Papers", [Value::Int(9), Value::str("NOSUCH")].into())
            .unwrap();
        c2.finalize(false).unwrap();
        let papers = c2.relation_id("Papers").unwrap();
        let fk = c2.fk_edges()[0].id;
        assert_eq!(
            c2.follow_forward(fk, TupleRef::new(papers, TupleId(3))),
            None
        );
    }

    #[test]
    fn fk_to_missing_relation_rejected() {
        let mut c = Catalog::new();
        c.add_relation(
            SchemaBuilder::new("A")
                .key("a", AttrType::Int)
                .fk("b", AttrType::Int, "B")
                .build()
                .unwrap(),
        )
        .unwrap();
        assert!(matches!(
            c.finalize(false),
            Err(StoreError::InvalidForeignKey { .. })
        ));
    }

    #[test]
    fn fk_to_keyless_relation_rejected() {
        let mut c = Catalog::new();
        c.add_relation(
            SchemaBuilder::new("B")
                .data("x", AttrType::Int)
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
        assert!(matches!(
            c.finalize(false),
            Err(StoreError::InvalidForeignKey { .. })
        ));
    }

    #[test]
    fn mutation_invalidates_finalization() {
        let mut c = tiny();
        c.finalize(false).unwrap();
        assert!(c.is_finalized());
        c.insert("Venues", [Value::str("ICDE")].into()).unwrap();
        assert!(!c.is_finalized());
        c.finalize(true).unwrap();
        assert!(c.is_finalized());
    }

    #[test]
    fn null_fk_is_allowed_and_skipped() {
        let mut c = tiny();
        c.insert("Papers", [Value::Int(10), Value::Null].into())
            .unwrap();
        c.finalize(true).unwrap();
        let papers = c.relation_id("Papers").unwrap();
        let fk = c.fk_edges()[0].id;
        assert_eq!(
            c.follow_forward(fk, TupleRef::new(papers, TupleId(3))),
            None
        );
    }

    #[test]
    fn display_mentions_relations_and_fks() {
        let mut c = tiny();
        c.finalize(false).unwrap();
        let s = c.to_string();
        assert!(s.contains("Papers"));
        assert!(s.contains("FK Papers.venue->Venues"));
    }
}
