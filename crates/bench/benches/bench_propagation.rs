//! Criterion bench: probability propagation along join paths (the inner
//! loop of profile construction).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{to_catalog, AmbiguousSpec, World, WorldConfig};
use relgraph::{propagate, LinkGraph};
use relstore::expand_values;
use std::hint::black_box;

fn bench_propagation(c: &mut Criterion) {
    let mut config = WorldConfig::tiny(5);
    config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![20, 10])];
    let d = to_catalog(&World::generate(config)).unwrap();
    let ex = expand_values(&d.catalog).unwrap();
    let graph = LinkGraph::build(&ex.catalog);
    let publish = ex.catalog.relation_id("Publish").unwrap();
    let opts = relstore::PathEnumOptions {
        max_len: 4,
        ..Default::default()
    };
    let paths = relstore::enumerate_paths(&ex.catalog, publish, &opts);
    let refs = &d.truths[0].refs;

    let mut group = c.benchmark_group("propagation");
    for (label, len) in [("len2", 2usize), ("len3", 3), ("len4", 4)] {
        let path = paths
            .iter()
            .find(|p| p.len() == len)
            .expect("path of length");
        group.bench_with_input(BenchmarkId::new("single_path", label), path, |b, path| {
            b.iter(|| {
                let prop = propagate(&graph, &ex.catalog, path, black_box(refs[0]));
                black_box(prop.neighbor_total())
            })
        });
    }
    group.bench_function("all_paths_one_reference", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for path in &paths {
                total += propagate(&graph, &ex.catalog, path, black_box(refs[1])).neighbor_total();
            }
            black_box(total)
        })
    });
    group.finish();

    c.bench_function("link_graph_build", |b| {
        b.iter(|| black_box(LinkGraph::build(&ex.catalog).node_count()))
    });
}

criterion_group!(benches, bench_propagation);
criterion_main!(benches);
