//! Criterion bench: the two pairwise kernels — weighted Jaccard
//! resemblance (Definition 2) and the directed walk (§2.4) — each one
//! merge-join over sorted rows, at several row sizes and overlap regimes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relgraph::{directed_walk, resemblance, NodeId};
use std::hint::black_box;

/// A sorted row over nodes `start..start + len` and its weight total.
fn make_row(start: u32, len: u32) -> (Vec<NodeId>, Vec<f64>, f64) {
    let (ids, weights): (Vec<NodeId>, Vec<f64>) = (start..start + len)
        .map(|n| (NodeId(n), 1.0 / (n - start + 1) as f64))
        .unzip();
    let total = weights.iter().sum();
    (ids, weights, total)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    for &n in &[10u32, 100, 1000] {
        let a = make_row(0, n);
        let b = make_row(n / 2, n);
        let d = make_row(10 * n, n);
        let small = make_row(0, 8);
        group.bench_with_input(
            BenchmarkId::new("resemblance_half_overlap", n),
            &n,
            |bench, _| {
                bench.iter(|| {
                    black_box(resemblance((&a.0, &a.1), a.2, black_box((&b.0, &b.1)), b.2))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("resemblance_disjoint", n),
            &n,
            |bench, _| {
                bench.iter(|| {
                    black_box(resemblance((&a.0, &a.1), a.2, black_box((&d.0, &d.1)), d.2))
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("walk_half_overlap", n), &n, |bench, _| {
            bench.iter(|| black_box(directed_walk((&a.0, &a.1), black_box((&b.0, &b.1)))))
        });
        group.bench_with_input(
            BenchmarkId::new("walk_small_vs_large", n),
            &n,
            |bench, _| {
                bench.iter(|| {
                    black_box(directed_walk((&small.0, &small.1), black_box((&b.0, &b.1))))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
