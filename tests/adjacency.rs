//! Foreign-key adjacency checked against tuple values alone.
//!
//! The catalog resolves each foreign-key value once into a column of
//! target tuple ids and transposes that column for the backward
//! direction; the link graph copies both. The checks here derive every
//! adjacency from the tuples' values instead — forward through the
//! referenced relation's key index, backward through a value → referrers
//! map built here — so they test the columns rather than read them.

use datagen::{World, WorldConfig};
use distinct::{Distinct, DistinctConfig, UpdateTuple};
use proptest::prelude::*;
use relgraph::{LinkGraph, NodeId};
use relstore::{
    AttrType, Catalog, FxHashMap, JoinStep, SchemaBuilder, Tuple, TupleId, TupleRef, Value,
};

/// Per FK edge: the referencing tuples of each non-null value, ascending.
fn referrers_by_value(c: &Catalog) -> Vec<FxHashMap<&Value, Vec<TupleId>>> {
    c.fk_edges()
        .iter()
        .map(|edge| {
            let mut index: FxHashMap<&Value, Vec<TupleId>> = FxHashMap::default();
            for (tid, t) in c.relation(edge.from).iter() {
                let v = t.get(edge.attr);
                if !v.is_null() {
                    index.entry(v).or_default().push(tid);
                }
            }
            index
        })
        .collect()
}

/// Relation lengths of `c`: what a graph built over it numbers densely.
fn lengths(c: &Catalog) -> Vec<usize> {
    c.relations().map(|(_, r)| r.len()).collect()
}

/// `g` against the tuple values of `c`. Node ids form a bijection with
/// the tuples, and the first `built[rel]` tuples of each relation (those
/// present when the graph was built) keep the dense id
/// `Σ built[..rel] + tid`. Every step from every node, along every edge
/// in both directions, equals the value-derived neighbors in tuple order.
fn assert_adjacency_matches_values(c: &Catalog, g: &LinkGraph, built: &[usize]) {
    assert_eq!(g.node_count(), c.tuple_count());
    let mut seen = vec![false; g.node_count()];
    let mut offset = 0u32;
    for (rid, rel) in c.relations() {
        for (tid, _) in rel.iter() {
            let t = TupleRef::new(rid, tid);
            let n = g.node(t);
            assert_eq!(g.tuple(n), t);
            if tid.index() < built[rid.index()] {
                assert_eq!(n, NodeId(offset + tid.0), "node id of {t}");
            }
            assert!(
                !std::mem::replace(&mut seen[n.index()], true),
                "{n:?} reused"
            );
        }
        offset += built[rid.index()] as u32;
    }
    let index = referrers_by_value(c);
    for edge in c.fk_edges() {
        let to = c.relation(edge.to);
        let node = |rel, tid| g.node(TupleRef::new(rel, tid));
        for (tid, t) in c.relation(edge.from).iter() {
            let v = t.get(edge.attr);
            let target = if v.is_null() { None } else { to.by_key(v) };
            let expected: Vec<NodeId> = target.map(|k| node(edge.to, k)).into_iter().collect();
            let got = g.step_neighbors(JoinStep::forward(edge.id), node(edge.from, tid), edge.from);
            assert_eq!(
                got,
                expected.as_slice(),
                "{} forward from {tid:?}",
                edge.label
            );
        }
        for (tid, t) in to.iter() {
            let expected: Vec<NodeId> = index[edge.id.index()]
                .get(t.get(edge.to_key))
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .map(|&s| node(edge.from, s))
                .collect();
            let got = g.step_neighbors(JoinStep::backward(edge.id), node(edge.to, tid), edge.to);
            assert_eq!(
                got,
                expected.as_slice(),
                "{} backward from {tid:?}",
                edge.label
            );
        }
    }
}

fn prepare(catalog: &Catalog) -> Distinct {
    Distinct::prepare(catalog, "Publish", "author", DistinctConfig::default()).unwrap()
}

/// The engine's graph over its expanded catalog, right after `prepare`.
fn check_prepared_world(config: WorldConfig) {
    let d = datagen::to_catalog(&World::generate(config)).unwrap();
    let engine = prepare(&d.catalog);
    let c = engine.catalog();
    assert_adjacency_matches_values(c, engine.graph(), &lengths(c));
}

/// The standard evaluation world (2K authors, Table 1 names planted).
fn standard(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        ambiguous: WorldConfig::table1_ambiguous(),
        ..Default::default()
    }
}

#[test]
fn tiny_world_adjacency_matches_values() {
    check_prepared_world(WorldConfig::tiny(21));
}

#[test]
fn standard_world_adjacency_matches_values() {
    check_prepared_world(standard(7));
}

#[test]
fn mid_world_adjacency_matches_values() {
    // The ladder's mid rung: 4× the standard world.
    check_prepared_world(WorldConfig {
        n_authors: 8_000,
        n_venues: 160,
        n_communities: 64,
        first_name_pool: 1_600,
        last_name_pool: 3_600,
        ..standard(7)
    });
}

#[test]
fn update_stream_adjacency_matches_values() {
    // Twenty one-paper batches, as the laptop_updates benchmark applies
    // them: each paper's Publications row, then its bylines.
    const BATCHES: usize = 20;
    let config = standard(2007);
    let papers = World::generate(config.clone()).papers.len();
    let holdout = 3.0 * BATCHES as f64 / papers as f64;
    let stream = datagen::update_stream(&config, holdout, 2007 ^ 0x5eed).unwrap();
    let mut batches: Vec<Vec<UpdateTuple>> = Vec::new();
    for (relation, values) in &stream.log {
        if relation == "Publications" || batches.is_empty() {
            batches.push(Vec::new());
        }
        if let Some(b) = batches.last_mut() {
            b.push(UpdateTuple::new(relation.clone(), values.clone()));
        }
    }
    assert!(
        batches.len() >= BATCHES,
        "only {} papers held out",
        batches.len()
    );
    let mut engine = prepare(&stream.base.catalog);
    let built = lengths(engine.catalog());
    for batch in &batches[..BATCHES] {
        let report = engine.apply_updates(batch).unwrap();
        assert_eq!(report.applied, batch.len());
        assert_adjacency_matches_values(engine.catalog(), engine.graph(), &built);
    }
    // A graph built cold over the grown catalog numbers it densely.
    let cold = LinkGraph::build(engine.catalog());
    assert_adjacency_matches_values(engine.catalog(), &cold, &lengths(engine.catalog()));
}

/// Papers(paper KEY, venue -> Venues, cites -> Papers): a self-referencing
/// edge next to an ordinary one, both nullable.
fn papers_schema() -> Catalog {
    let mut c = Catalog::new();
    c.add_relation(
        SchemaBuilder::new("Venues")
            .key("venue", AttrType::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    c.add_relation(
        SchemaBuilder::new("Papers")
            .key("paper", AttrType::Int)
            .fk("venue", AttrType::Int, "Venues")
            .fk("cites", AttrType::Int, "Papers")
            .build()
            .unwrap(),
    )
    .unwrap();
    c
}

#[test]
fn dangling_foreign_keys_match_values() {
    // A catalog finalized without integrity checks: paper 1 cites the
    // paper 3 that arrives later, and paper 2's venue 9 arrives later.
    let mut c = papers_schema();
    c.insert("Venues", [Value::Int(0)].into()).unwrap();
    for (p, v, cites) in [(1, 0, 3), (2, 9, 1)] {
        c.insert(
            "Papers",
            [Value::Int(p), Value::Int(v), Value::Int(cites)].into(),
        )
        .unwrap();
    }
    c.finalize(false).unwrap();
    let built = lengths(&c);
    let mut g = LinkGraph::build(&c);
    assert_adjacency_matches_values(&c, &g, &built);
    // The missing keys arrive: referenced tuples before referencing ones.
    let arrivals = [
        ("Venues", vec![Value::Int(9)]),
        ("Papers", vec![Value::Int(3), Value::Int(9), Value::Null]),
        ("Papers", vec![Value::Int(4), Value::Null, Value::Int(3)]),
    ];
    for (rel, values) in arrivals {
        let t = c.insert(rel, Tuple::new(values)).unwrap();
        c.finalize(false).unwrap();
        g.append_tuple(&c, t);
        assert_adjacency_matches_values(&c, &g, &built);
    }
    c.finalize(true).unwrap();
    assert_adjacency_matches_values(&c, &LinkGraph::build(&c), &lengths(&c));

    // The same through the engine: a byline of a paper not yet
    // published dangles until a later batch publishes it.
    let d = datagen::to_catalog(&World::generate(WorldConfig::tiny(21))).unwrap();
    let mut engine = prepare(&d.catalog);
    let built = lengths(engine.catalog());
    let author = d
        .catalog
        .relation(d.authors)
        .tuple(TupleId(0))
        .get(0)
        .clone();
    let proceedings = d.catalog.relation_id("Proceedings").unwrap();
    let proc_key = d
        .catalog
        .relation(proceedings)
        .tuple(TupleId(0))
        .get(0)
        .clone();
    let byline = UpdateTuple::new("Publish", vec![author, Value::Int(9_999_999)]);
    engine.apply_updates(&[byline]).unwrap();
    assert_adjacency_matches_values(engine.catalog(), engine.graph(), &built);
    let paper = UpdateTuple::new(
        "Publications",
        vec![Value::Int(9_999_999), Value::str("A late paper"), proc_key],
    );
    engine.apply_updates(&[paper]).unwrap();
    assert_adjacency_matches_values(engine.catalog(), engine.graph(), &built);
}

/// A catalog holding the logged tuples, finalized once.
fn rebuilt(log: &[(&str, Vec<Value>)]) -> Catalog {
    let mut c = papers_schema();
    for (rel, values) in log {
        c.insert(rel, Tuple::new(values.clone())).unwrap();
    }
    c.finalize(false).unwrap();
    c
}

/// One edge's traversal: each referencing tuple's target, then each
/// referenced tuple's referrers.
type EdgeTraversal = (Vec<Option<TupleRef>>, Vec<Vec<TupleRef>>);

/// Forward and backward traversal of every tuple, along every edge.
fn traversal(c: &Catalog) -> Vec<EdgeTraversal> {
    c.fk_edges()
        .iter()
        .map(|edge| {
            let from = c.relation(edge.from).iter();
            let to = c.relation(edge.to).iter();
            (
                from.map(|(tid, _)| c.follow_forward(edge.id, TupleRef::new(edge.from, tid)))
                    .collect(),
                to.map(|(tid, _)| c.follow_backward(edge.id, TupleRef::new(edge.to, tid)))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Inserts interleaved with `finalize(false)`, with foreign-key values
    // that dangle until their key arrives: after every finalize, the
    // incrementally extended columns traverse exactly like those of a
    // catalog rebuilt from the same tuples and finalized once.
    #[test]
    fn incremental_finalize_matches_a_rebuilt_catalog(
        ops in proptest::collection::vec(
            (0u8..4, 0i64..8, proptest::option::of(0i64..8), proptest::option::of(0i64..12)),
            1..40,
        ),
    ) {
        let mut c = papers_schema();
        let mut log: Vec<(&str, Vec<Value>)> = Vec::new();
        let mut next_paper = 0i64;
        let opt = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        for (kind, venue, paper_venue, cites) in ops {
            let tuple = match kind {
                0 => ("Venues", vec![Value::Int(venue)]),
                1 | 2 => {
                    next_paper += 1;
                    ("Papers", vec![Value::Int(next_paper), opt(paper_venue), opt(cites)])
                }
                _ => {
                    c.finalize(false).unwrap();
                    prop_assert_eq!(traversal(&c), traversal(&rebuilt(&log)));
                    continue;
                }
            };
            // Duplicate venue keys are refused and leave no trace.
            if c.insert(tuple.0, Tuple::new(tuple.1.clone())).is_ok() {
                log.push(tuple);
            }
        }
        c.finalize(false).unwrap();
        prop_assert_eq!(traversal(&c), traversal(&rebuilt(&log)));
    }
}
