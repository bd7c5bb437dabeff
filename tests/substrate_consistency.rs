//! Integration: cross-crate consistency of the substrates — the CSV
//! loader, attribute expansion, the CSR link graph, probability
//! propagation, and the clustering engine must agree with each other on
//! generated data.

use datagen::{to_catalog, AmbiguousSpec, World, WorldConfig};
use relgraph::{propagate, LinkGraph};
use relstore::{csv, expand_values, Catalog, JoinPath, JoinStep, PathEnumOptions, TupleRef};

fn dataset() -> datagen::DblpDataset {
    let mut config = WorldConfig::tiny(9);
    config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![6, 4])];
    to_catalog(&World::generate(config)).expect("valid world")
}

#[test]
fn csv_round_trip_preserves_every_relation() {
    let d = dataset();
    let mut rebuilt = Catalog::new();
    for (_, rel) in d.catalog.relations() {
        rebuilt.add_relation(rel.schema().clone()).unwrap();
    }
    for (rid, rel) in d.catalog.relations() {
        let text = csv::to_csv(rel);
        let loaded = csv::load_csv(rebuilt.relation_mut(rid), &text).unwrap();
        assert_eq!(loaded, rel.len(), "{}", rel.name());
    }
    rebuilt.finalize(true).unwrap();
    // Every tuple identical.
    for (rid, rel) in d.catalog.relations() {
        let other = rebuilt.relation(rid);
        assert_eq!(rel.len(), other.len());
        for (tid, t) in rel.iter() {
            assert_eq!(t, other.tuple(tid));
        }
    }
}

#[test]
fn propagation_forward_mass_is_bounded_on_every_path() {
    let d = dataset();
    let ex = expand_values(&d.catalog).unwrap();
    let graph = LinkGraph::build(&ex.catalog);
    let publish = ex.catalog.relation_id("Publish").unwrap();
    let opts = PathEnumOptions {
        max_len: 4,
        ..Default::default()
    };
    let paths = relstore::enumerate_paths(&ex.catalog, publish, &opts);
    assert!(!paths.is_empty());
    let truth = &d.truths[0];
    for path in paths.iter().take(12) {
        for &r in truth.refs.iter().take(5) {
            let prop = propagate(&graph, &ex.catalog, path, r);
            let run = prop.path(0);
            let total = run.total_forward();
            assert!(
                total <= 1.0 + 1e-9,
                "path {} leaked mass: {total}",
                path.describe(&ex.catalog)
            );
            for (&p, &b) in run.forward.iter().zip(run.backward) {
                assert!(p > 0.0 && p <= 1.0 + 1e-9);
                assert!(b > 0.0 && b <= 1.0 + 1e-9);
            }
        }
    }
}

#[test]
fn propagation_support_matches_raw_traversal() {
    // The tuples with nonzero probability must be exactly the tuples the
    // oracle's walk enumeration over the catalog's own indexes reaches.
    let d = dataset();
    let ex = expand_values(&d.catalog).unwrap();
    let graph = LinkGraph::build(&ex.catalog);
    let publish = ex.catalog.relation_id("Publish").unwrap();
    let opts = PathEnumOptions {
        max_len: 3,
        ..Default::default()
    };
    let paths = relstore::enumerate_paths(&ex.catalog, publish, &opts);
    let r = d.truths[0].refs[0];
    for path in paths.iter().take(10) {
        let prop = propagate(&graph, &ex.catalog, path, r);
        let mut via_prop: Vec<TupleRef> =
            prop.path(0).nodes.iter().map(|&n| graph.tuple(n)).collect();
        via_prop.sort_unstable();
        let via_walks: Vec<TupleRef> = oracle::enumerate_propagation(&ex.catalog, path, r, &[])
            .forward
            .into_keys()
            .collect();
        assert_eq!(via_prop, via_walks, "path {}", path.describe(&ex.catalog));
    }
}

#[test]
fn link_graph_agrees_with_catalog_adjacency() {
    let d = dataset();
    let ex = expand_values(&d.catalog).unwrap();
    let graph = LinkGraph::build(&ex.catalog);
    for edge in ex.catalog.fk_edges().iter().take(6) {
        let from_rel = ex.catalog.relation(edge.from);
        for (tid, _) in from_rel.iter().take(50) {
            let t = TupleRef::new(edge.from, tid);
            let expected: Vec<_> = ex
                .catalog
                .follow_forward(edge.id, t)
                .into_iter()
                .map(|x| graph.node(x))
                .collect();
            let got = graph.step_neighbors(JoinStep::forward(edge.id), graph.node(t), edge.from);
            assert_eq!(got, expected.as_slice());
        }
    }
}

#[test]
fn expansion_only_adds_relations_and_preserves_counts() {
    let d = dataset();
    let ex = expand_values(&d.catalog).unwrap();
    assert!(ex.catalog.relation_count() > d.catalog.relation_count());
    for (rid, rel) in d.catalog.relations() {
        assert_eq!(rel.len(), ex.catalog.relation(rid).len(), "{}", rel.name());
        assert_eq!(rel.name(), ex.catalog.relation(rid).name());
    }
    // Expanded FK edges form a superset (by label) of the originals.
    let labels: std::collections::HashSet<String> = ex
        .catalog
        .fk_edges()
        .iter()
        .map(|e| e.label.clone())
        .collect();
    for e in d.catalog.fk_edges() {
        assert!(labels.contains(&e.label), "missing {}", e.label);
    }
}

#[test]
fn empty_join_path_is_identity_everywhere() {
    let d = dataset();
    let ex = expand_values(&d.catalog).unwrap();
    let graph = LinkGraph::build(&ex.catalog);
    let publish = ex.catalog.relation_id("Publish").unwrap();
    let path = JoinPath::empty(publish);
    let r = d.truths[0].refs[0];
    let prop = propagate(&graph, &ex.catalog, &path, r);
    assert_eq!(prop.path(0).nodes, [graph.node(r)]);
    let walks = oracle::enumerate_propagation(&ex.catalog, &path, r, &[]);
    assert_eq!(walks.forward.into_keys().collect::<Vec<_>>(), vec![r]);
}
