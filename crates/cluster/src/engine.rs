//! The agglomerative clustering engine (paper §4).
//!
//! Every item starts as a singleton cluster; the engine repeatedly merges
//! the most similar pair of clusters until no pair reaches `min_sim`.
//! Cluster-pair similarities come from a pluggable [`Merger`], which is
//! also notified of merges so it can maintain its state *incrementally* —
//! the efficiency technique of §4.2: the similarity between a merged
//! cluster and any other cluster is aggregated from the children's
//! similarities rather than recomputed from scratch.
//!
//! The engine keeps candidate pairs in a lazy max-heap. A pair's
//! similarity never changes while both clusters are alive (only new
//! clusters introduce new pairs), so stale entries are exactly those
//! naming a dead cluster and can be skipped on pop.

use crate::dendrogram::Dendrogram;
use crate::linkage::Linkage;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{self, AtomicBool};

/// Provides cluster-pair similarities and receives merge notifications.
///
/// Cluster ids follow the dendrogram convention: `0..n` are the initial
/// singletons, and the `k`-th merge creates id `n + k`.
pub trait Merger {
    /// Similarity between two live clusters. Must be symmetric and finite.
    fn similarity(&self, a: usize, b: usize) -> f64;

    /// Clusters `a` and `b` were merged into the new cluster `into`.
    ///
    /// Implementations update their internal state so later
    /// `similarity(into, _)` calls work. Sizes are tracked by the engine
    /// and passed for convenience.
    fn merged(&mut self, a: usize, b: usize, into: usize, size_a: usize, size_b: usize);
}

/// Result of a clustering run.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Label per item (dense, in order of first appearance).
    pub labels: Vec<usize>,
    /// Full merge history.
    pub dendrogram: Dendrogram,
}

impl Clustering {
    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.labels.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Items grouped by cluster label.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        crate::dendrogram::groups(&self.labels)
    }
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    sim: f64,
    a: usize,
    b: usize,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.sim == other.sim && self.a == other.a && self.b == other.b
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by similarity; ties broken by ids for determinism.
        self.sim
            .total_cmp(&other.sim)
            .then_with(|| (other.a, other.b).cmp(&(self.a, self.b)))
    }
}

/// Outcome of a guarded clustering run: the best clustering reached before
/// the guard stopped the engine (identical to the full result when
/// `completed` is true).
#[derive(Debug, Clone)]
pub struct PartialClustering {
    /// Labels and merge history as of the stopping point. Always a valid
    /// partition of the items — interruption only means some merges that
    /// would have happened did not.
    pub clustering: Clustering,
    /// False iff the guard stopped the run early.
    pub completed: bool,
}

/// Run agglomerative clustering over `n` items.
///
/// Merging stops when the best remaining pair's similarity is below
/// `min_sim` (or nothing is left to merge). Similarities must be finite;
/// non-finite values are treated as "do not merge".
pub fn agglomerate<M: Merger>(n: usize, merger: &mut M, min_sim: f64) -> Clustering {
    agglomerate_guarded(n, merger, min_sim, &mut |_| true).clustering
}

/// Like [`agglomerate`], but cooperatively interruptible.
///
/// `guard` is called with a count of similarity evaluations about to be
/// charged; returning `false` stops the engine at the next safe point. The
/// result is then the clustering built so far — every merge already
/// recorded stands, pending ones are abandoned — with `completed = false`.
/// Merges happen in decreasing similarity order, so an interrupted run has
/// performed a prefix of the full run's merges: the strongest evidence is
/// applied first and an early stop only leaves clusters *less* merged.
pub fn agglomerate_guarded<M: Merger>(
    n: usize,
    merger: &mut M,
    min_sim: f64,
    guard: &mut dyn FnMut(u64) -> bool,
) -> PartialClustering {
    let mut dendrogram = Dendrogram::new(n);
    if n == 0 {
        return PartialClustering {
            clustering: Clustering {
                labels: Vec::new(),
                dendrogram,
            },
            completed: true,
        };
    }

    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    let mut completed = true;

    // Seed the heap row by row, checking the guard between rows: with no
    // candidates admitted yet an early stop yields all-singletons.
    // NaN means "do not merge"; +inf (a must-link constraint) sorts first;
    // −inf (a cannot-link veto) fails the threshold like any low value.
    'seed: for a in 0..n {
        if !guard((n - a - 1) as u64) {
            completed = false;
            break 'seed;
        }
        for b in (a + 1)..n {
            let sim = merger.similarity(a, b);
            if !sim.is_nan() && sim >= min_sim {
                heap.push(Candidate { sim, a, b });
            }
        }
    }

    if completed {
        completed = merge_down(n, merger, min_sim, &mut heap, &mut dendrogram, guard);
    }

    // The dendrogram only contains merges with sim >= min_sim, so cutting
    // at -inf applies them all.
    let labels = dendrogram.cut(f64::NEG_INFINITY);
    PartialClustering {
        clustering: Clustering { labels, dendrogram },
        completed,
    }
}

/// The sequential merge loop shared by every entry point: pop the best
/// candidate, skip stale entries, merge, push the new cluster's pairs.
/// Returns `false` iff the guard stopped the loop before the heap drained.
fn merge_down<M: Merger>(
    n: usize,
    merger: &mut M,
    min_sim: f64,
    heap: &mut BinaryHeap<Candidate>,
    dendrogram: &mut Dendrogram,
    guard: &mut dyn FnMut(u64) -> bool,
) -> bool {
    // alive[id] for ids 0..n+merges; sizes likewise.
    let mut alive = vec![true; n];
    let mut sizes = vec![1usize; n];
    while let Some(c) = heap.pop() {
        if !alive[c.a] || !alive[c.b] {
            continue; // stale entry
        }
        // One merge costs up to `into` fresh similarity evaluations.
        if !guard(alive.iter().filter(|&&v| v).count() as u64) {
            return false;
        }
        // Merge.
        let (sa, sb) = (sizes[c.a], sizes[c.b]);
        let into = dendrogram.record(c.a, c.b, c.sim, sa + sb);
        alive[c.a] = false;
        alive[c.b] = false;
        alive.push(true);
        sizes.push(sa + sb);
        merger.merged(c.a, c.b, into, sa, sb);
        // New candidate pairs against every live cluster.
        for other in 0..into {
            if alive[other] {
                let sim = merger.similarity(into, other);
                if !sim.is_nan() && sim >= min_sim {
                    heap.push(Candidate {
                        sim,
                        a: into,
                        b: other,
                    });
                }
            }
        }
    }
    true
}

/// Like [`agglomerate_guarded`], but seeds the candidate heap **in
/// parallel** over the flat upper-triangle pair index space
/// `0..n·(n−1)/2` — the O(n²) initial similarity matrix that dominates
/// clustering cost for large reference groups.
///
/// Determinism: chunk boundaries are a pure function of the pair count and
/// thread count; each pair's similarity is computed independently from the
/// immutable merger state; and [`Candidate`]'s total order (similarity,
/// then ids) makes the heap's pop sequence independent of insertion order.
/// A complete run therefore produces **bit-identical** output to
/// [`agglomerate_guarded`] at any thread count. The merge loop itself is
/// inherently sequential and runs on the calling thread.
///
/// Interruption: `guard` is charged once per chunk (with the chunk's pair
/// count) during seeding and per merge afterwards. If it trips during
/// seeding, pending chunks are abandoned and **no merges are applied** —
/// mirroring [`agglomerate_guarded`]'s all-singletons degradation — because
/// an incomplete candidate set no longer guarantees best-first merge order.
/// The returned [`exec::ParStats`] describes the seeding stage (the merge
/// loop's time is the caller's to measure).
pub fn agglomerate_exec<M: Merger + Sync>(
    n: usize,
    merger: &mut M,
    min_sim: f64,
    executor: &exec::Executor,
    guard: &(dyn Fn(u64) -> bool + Sync),
) -> (PartialClustering, exec::ParStats) {
    let mut dendrogram = Dendrogram::new(n);
    if n == 0 {
        return (
            PartialClustering {
                clustering: Clustering {
                    labels: Vec::new(),
                    dendrogram,
                },
                completed: true,
            },
            exec::ParStats {
                threads: 1,
                ..Default::default()
            },
        );
    }

    let total = exec::triangle_count(n);
    let tripped = AtomicBool::new(false);
    let m: &M = &*merger;
    let (chunks, mut stats) = executor.par_chunks(
        total,
        |range: Range<usize>| -> Option<Vec<Candidate>> {
            if !guard(range.len() as u64) {
                tripped.store(true, atomic::Ordering::Relaxed);
                return None;
            }
            let mut local = Vec::new();
            for k in range {
                let (a, b) = exec::triangle_pair(n, k);
                let sim = m.similarity(a, b);
                if !sim.is_nan() && sim >= min_sim {
                    local.push(Candidate { sim, a, b });
                }
            }
            Some(local)
        },
        || tripped.load(atomic::Ordering::Relaxed),
    );

    // A chunk whose guard charge was refused produced nothing: report it as
    // not covered and treat the whole seeding stage as stopped.
    stats.stopped = stats.stopped || tripped.load(atomic::Ordering::Relaxed);
    stats.completed = chunks
        .iter()
        .filter(|(_, v)| v.is_some())
        .map(|(r, _)| r.len())
        .sum();

    let mut completed = !stats.stopped;
    if completed {
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        for (_, local) in chunks {
            // distinct-lint: allow(D101, reason="stats.stopped was checked above; a complete run leaves every chunk Some by the exec pool contract")
            heap.extend(local.expect("complete seeding has no refused chunks"));
        }
        let mut g = |units: u64| guard(units);
        completed = merge_down(n, merger, min_sim, &mut heap, &mut dendrogram, &mut g);
    }

    let labels = dendrogram.cut(f64::NEG_INFINITY);
    (
        PartialClustering {
            clustering: Clustering { labels, dendrogram },
            completed,
        },
        stats,
    )
}

/// A [`Merger`] over a precomputed pairwise similarity matrix with a
/// classic [`Linkage`] rule — the textbook algorithm, used directly by the
/// ablation experiments and as the reference implementation in tests.
#[derive(Debug, Clone)]
pub struct MatrixMerger {
    /// Similarities indexed by cluster id pairs; grows as merges happen.
    sims: Vec<Vec<f64>>,
    sizes: Vec<usize>,
    linkage: Linkage,
    n: usize,
}

impl MatrixMerger {
    /// Build from a symmetric `n × n` similarity matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn new(matrix: Vec<Vec<f64>>, linkage: Linkage) -> Self {
        let n = matrix.len();
        for row in &matrix {
            assert_eq!(row.len(), n, "similarity matrix must be square");
        }
        MatrixMerger {
            sims: matrix,
            sizes: vec![1; n],
            linkage,
            n,
        }
    }

    /// Number of initial items.
    pub fn items(&self) -> usize {
        self.n
    }
}

impl Merger for MatrixMerger {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        self.sims[a][b]
    }

    fn merged(&mut self, a: usize, b: usize, into: usize, size_a: usize, size_b: usize) {
        debug_assert_eq!(into, self.sims.len());
        // Row/column for the new cluster, combined per the linkage rule.
        let mut row: Vec<f64> = Vec::with_capacity(into + 1);
        for c in 0..into {
            row.push(
                self.linkage
                    .combine(self.sims[a][c], self.sims[b][c], size_a, size_b),
            );
        }
        row.push(1.0); // self-similarity, never queried
        for (c, &s) in row.iter().enumerate().take(into) {
            self.sims[c].push(s);
        }
        self.sims.push(row);
        self.sizes.push(size_a + size_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tight pairs: (0,1), (2,3), (4,5); weak links across.
    fn three_pairs() -> Vec<Vec<f64>> {
        let n = 6;
        let mut m = vec![vec![0.0; n]; n];
        let set = |m: &mut Vec<Vec<f64>>, i: usize, j: usize, v: f64| {
            m[i][j] = v;
            m[j][i] = v;
        };
        set(&mut m, 0, 1, 0.9);
        set(&mut m, 2, 3, 0.8);
        set(&mut m, 4, 5, 0.85);
        set(&mut m, 1, 2, 0.1);
        set(&mut m, 3, 4, 0.05);
        m
    }

    #[test]
    fn min_sim_controls_granularity() {
        let mut merger = MatrixMerger::new(three_pairs(), Linkage::Average);
        let c = agglomerate(6, &mut merger, 0.5);
        assert_eq!(c.cluster_count(), 3);
        let g = c.groups();
        assert!(g.contains(&vec![0, 1]));
        assert!(g.contains(&vec![2, 3]));
        assert!(g.contains(&vec![4, 5]));
    }

    #[test]
    fn zero_min_sim_merges_connected_components() {
        // min_sim 0.0 still requires positive similarity? No: >= 0 merges
        // everything with sim >= 0, i.e. all pairs here.
        let mut merger = MatrixMerger::new(three_pairs(), Linkage::Single);
        let c = agglomerate(6, &mut merger, 0.01);
        // Single-link chains: 0-1-2-3-4-5 all connected via 0.1 and 0.05.
        assert_eq!(c.cluster_count(), 1);
    }

    #[test]
    fn high_min_sim_keeps_singletons() {
        let mut merger = MatrixMerger::new(three_pairs(), Linkage::Average);
        let c = agglomerate(6, &mut merger, 0.95);
        assert_eq!(c.cluster_count(), 6);
        assert!(c.dendrogram.merges().is_empty());
    }

    #[test]
    fn merge_order_is_by_decreasing_similarity() {
        let mut merger = MatrixMerger::new(three_pairs(), Linkage::Average);
        let c = agglomerate(6, &mut merger, 0.5);
        let sims: Vec<f64> = c.dendrogram.merges().iter().map(|m| m.similarity).collect();
        assert_eq!(sims, vec![0.9, 0.85, 0.8]);
    }

    #[test]
    fn complete_link_resists_chaining() {
        // Chain 0-1-2 with strong consecutive links but zero 0-2 link.
        let mut m = vec![vec![0.0; 3]; 3];
        m[0][1] = 0.9;
        m[1][0] = 0.9;
        m[1][2] = 0.8;
        m[2][1] = 0.8;
        // Complete link: after (0,1) merge, sim to 2 is min(0, 0.8) = 0.
        let mut merger = MatrixMerger::new(m.clone(), Linkage::Complete);
        let c = agglomerate(3, &mut merger, 0.1);
        assert_eq!(c.cluster_count(), 2);
        // Single link: chain collapses into one cluster.
        let mut merger = MatrixMerger::new(m, Linkage::Single);
        let c = agglomerate(3, &mut merger, 0.1);
        assert_eq!(c.cluster_count(), 1);
    }

    #[test]
    fn average_link_matches_brute_force() {
        // Compare engine's average-link result against a brute-force
        // implementation on a random-ish fixed matrix.
        let n = 8;
        let mut m = vec![vec![0.0; n]; n];
        let mut v = 0.13f64;
        for i in 0..n {
            for j in (i + 1)..n {
                v = (v * 7.7).fract();
                m[i][j] = v;
                m[j][i] = v;
            }
        }
        let min_sim = 0.4;
        let mut merger = MatrixMerger::new(m.clone(), Linkage::Average);
        let got = agglomerate(n, &mut merger, min_sim);

        // Brute force: repeatedly find best pair by average pairwise sim.
        let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        loop {
            let mut best = (f64::NEG_INFINITY, 0, 0);
            for i in 0..clusters.len() {
                for j in (i + 1)..clusters.len() {
                    let mut s = 0.0;
                    for &x in &clusters[i] {
                        for &y in &clusters[j] {
                            s += m[x][y];
                        }
                    }
                    s /= (clusters[i].len() * clusters[j].len()) as f64;
                    if s > best.0 {
                        best = (s, i, j);
                    }
                }
            }
            if best.0 < min_sim || clusters.len() < 2 {
                break;
            }
            let merged_b = clusters.remove(best.2);
            clusters[best.1].extend(merged_b);
        }
        let mut expected: Vec<Vec<usize>> = clusters
            .into_iter()
            .map(|mut c| {
                c.sort_unstable();
                c
            })
            .collect();
        expected.sort();
        let mut actual: Vec<Vec<usize>> = got
            .groups()
            .into_iter()
            .map(|mut c| {
                c.sort_unstable();
                c
            })
            .collect();
        actual.sort();
        assert_eq!(actual, expected);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let mut merger = MatrixMerger::new(vec![], Linkage::Average);
        let c = agglomerate(0, &mut merger, 0.5);
        assert_eq!(c.cluster_count(), 0);
        assert!(c.labels.is_empty());

        let mut merger = MatrixMerger::new(vec![vec![1.0]], Linkage::Average);
        let c = agglomerate(1, &mut merger, 0.5);
        assert_eq!(c.labels, vec![0]);
        assert_eq!(c.cluster_count(), 1);
    }

    #[test]
    fn nan_similarity_means_no_merge() {
        let m = vec![vec![0.0, f64::NAN], vec![f64::NAN, 0.0]];
        let mut merger = MatrixMerger::new(m, Linkage::Average);
        let c = agglomerate(2, &mut merger, 0.0);
        assert_eq!(c.cluster_count(), 2);
    }

    #[test]
    fn guarded_run_with_permissive_guard_matches_unguarded() {
        let mut merger = MatrixMerger::new(three_pairs(), Linkage::Average);
        let full = agglomerate(6, &mut merger, 0.5);
        let mut merger = MatrixMerger::new(three_pairs(), Linkage::Average);
        let guarded = agglomerate_guarded(6, &mut merger, 0.5, &mut |_| true);
        assert!(guarded.completed);
        assert_eq!(guarded.clustering.labels, full.labels);
    }

    #[test]
    fn guard_tripped_during_seeding_yields_singletons() {
        let mut merger = MatrixMerger::new(three_pairs(), Linkage::Average);
        let mut calls = 0u32;
        let out = agglomerate_guarded(6, &mut merger, 0.5, &mut |_| {
            calls += 1;
            calls <= 1
        });
        assert!(!out.completed);
        assert_eq!(out.clustering.cluster_count(), 6, "no merges applied");
    }

    #[test]
    fn guard_tripped_mid_merge_keeps_strongest_merges() {
        // Budget admits seeding (6 rows) plus exactly one merge: the
        // strongest pair (0,1) at 0.9 merges, the rest stay singletons.
        let mut merger = MatrixMerger::new(three_pairs(), Linkage::Average);
        let mut checks = 0u32;
        let out = agglomerate_guarded(6, &mut merger, 0.5, &mut |_| {
            checks += 1;
            checks <= 7
        });
        assert!(!out.completed);
        let merges = out.clustering.dendrogram.merges();
        assert_eq!(merges.len(), 1);
        assert_eq!(merges[0].similarity, 0.9);
        assert_eq!(out.clustering.cluster_count(), 5);
        // Labels still partition every item.
        assert_eq!(out.clustering.labels.len(), 6);
    }

    #[test]
    fn guarded_merge_prefix_property() {
        // However early the guard trips, the merges performed are a prefix
        // of the full run's merge sequence.
        let mut merger = MatrixMerger::new(three_pairs(), Linkage::Average);
        let full: Vec<f64> = agglomerate(6, &mut merger, 0.5)
            .dendrogram
            .merges()
            .iter()
            .map(|m| m.similarity)
            .collect();
        for budget in 0..12u32 {
            let mut merger = MatrixMerger::new(three_pairs(), Linkage::Average);
            let mut checks = 0u32;
            let out = agglomerate_guarded(6, &mut merger, 0.5, &mut |_| {
                checks += 1;
                checks <= budget
            });
            let got: Vec<f64> = out
                .clustering
                .dendrogram
                .merges()
                .iter()
                .map(|m| m.similarity)
                .collect();
            assert!(
                full.starts_with(&got),
                "budget {budget}: {got:?} not a prefix of {full:?}"
            );
        }
    }

    #[test]
    fn exec_seeding_matches_sequential_at_any_thread_count() {
        // Larger pseudo-random matrix so multiple chunks actually form.
        let n = 40;
        let mut m = vec![vec![0.0; n]; n];
        let mut v = 0.37f64;
        for i in 0..n {
            for j in (i + 1)..n {
                v = (v * 9.9).fract();
                m[i][j] = v;
                m[j][i] = v;
            }
        }
        let mut reference = MatrixMerger::new(m.clone(), Linkage::Average);
        let expected = agglomerate(n, &mut reference, 0.5);
        for threads in [1usize, 2, 3, 8] {
            let mut merger = MatrixMerger::new(m.clone(), Linkage::Average);
            let (out, stats) = agglomerate_exec(
                n,
                &mut merger,
                0.5,
                &exec::Executor::with_threads(threads),
                &|_| true,
            );
            assert!(out.completed, "threads={threads}");
            assert!(!stats.stopped);
            assert_eq!(stats.tasks, n * (n - 1) / 2);
            assert_eq!(stats.completed, stats.tasks);
            assert_eq!(out.clustering.labels, expected.labels, "threads={threads}");
            let sims: Vec<f64> = out
                .clustering
                .dendrogram
                .merges()
                .iter()
                .map(|mg| mg.similarity)
                .collect();
            let want: Vec<f64> = expected
                .dendrogram
                .merges()
                .iter()
                .map(|mg| mg.similarity)
                .collect();
            assert_eq!(sims, want, "threads={threads}");
        }
    }

    #[test]
    fn exec_guard_trip_during_seeding_yields_singletons() {
        for threads in [1usize, 4] {
            let mut merger = MatrixMerger::new(three_pairs(), Linkage::Average);
            let (out, stats) = agglomerate_exec(
                6,
                &mut merger,
                0.5,
                &exec::Executor::with_threads(threads),
                &|_| false, // budget already exhausted
            );
            assert!(!out.completed, "threads={threads}");
            assert!(stats.stopped);
            assert_eq!(out.clustering.cluster_count(), 6, "no merges applied");
            assert_eq!(out.clustering.labels.len(), 6);
        }
    }

    #[test]
    fn exec_empty_and_tiny_inputs() {
        let ex = exec::Executor::with_threads(4);
        let mut merger = MatrixMerger::new(vec![], Linkage::Average);
        let (out, stats) = agglomerate_exec(0, &mut merger, 0.5, &ex, &|_| true);
        assert!(out.completed);
        assert!(out.clustering.labels.is_empty());
        assert_eq!(stats.tasks, 0);

        let mut merger = MatrixMerger::new(vec![vec![1.0]], Linkage::Average);
        let (out, _) = agglomerate_exec(1, &mut merger, 0.5, &ex, &|_| true);
        assert!(out.completed);
        assert_eq!(out.clustering.labels, vec![0]);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two identical-similarity pairs: results must be stable across runs.
        let mut m = vec![vec![0.0; 4]; 4];
        m[0][1] = 0.5;
        m[1][0] = 0.5;
        m[2][3] = 0.5;
        m[3][2] = 0.5;
        let run = || {
            let mut merger = MatrixMerger::new(m.clone(), Linkage::Average);
            agglomerate(4, &mut merger, 0.4).labels
        };
        assert_eq!(run(), run());
    }
}
