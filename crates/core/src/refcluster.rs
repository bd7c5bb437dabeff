//! Clustering references with the composite similarity measure (paper §4).
//!
//! Cluster similarity combines, by geometric mean:
//!
//! * **average set resemblance** — Average-Link over the weighted per-pair
//!   resemblances (robust to individual misleading linkages); and
//! * **collective random walk probability** — the probability of walking
//!   from one cluster to the other, treating each cluster as a single
//!   object (robust to an author's weakly linked collaboration partitions).
//!
//! Both are maintained *incrementally* (§4.2): the tables hold pairwise
//! **sums**, so the values for a merged cluster are the sums of its
//! children's values — O(live clusters) per merge instead of a full
//! recomputation.

use crate::config::{CompositeMode, MeasureMode};
use crate::features::{weighted_sum, Profile};
use crate::learn::PathWeights;
use cluster::Merger;
use relgraph::{ArenaPool, IntersectionMatrix, SetArena};
use relstore::FxHashMap;
use std::borrow::Borrow;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Similarity kernel-unit accounting of one matrix build.
///
/// One *unit* is one (unordered reference pair, join path) evaluation,
/// covering that pair's set resemblance and both directed walks along the
/// path — so `total = pairs × paths`. A unit is **pruned** when the
/// engine proved all three kernel values exactly zero without running a
/// merge-join for the pair, and **exact** otherwise (at least one kernel
/// evaluated, possibly reused from a content-identical row pair).
/// `pruned + exact == total` holds by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairCounters {
    /// Kernel units scheduled (`pairs × paths`).
    pub total: u64,
    /// Units skipped under a provably-exactly-zero certificate.
    pub pruned: u64,
    /// Units that ran (or reused) at least one exact kernel.
    pub exact: u64,
    /// Distinct neighbor-set rows interned into [`SetArena`]s during the
    /// build.
    pub interned: u64,
}

/// One assembly chunk's `(resemblance, walk i→j, walk j→i)` triples plus
/// the exact kernel units the chunk consumed.
type ChunkValues = (Vec<(f64, f64, f64)>, u64);

/// Per-path kernel memos of the pruned similarity build: interned row
/// assignments, the support-overlap matrix, and the *nonzero* kernel
/// values, computed once per distinct row pair. A pair the matrix shows
/// disjoint (and so a missing memo entry) is a proof that the kernel
/// value is exactly zero.
struct PathKernels {
    /// Distinct forward-set row of each reference.
    row_f: Vec<u32>,
    /// Distinct backward-set row of each reference.
    row_b: Vec<u32>,
    /// Which distinct rows share a member; its diagonal marks the
    /// non-empty rows.
    overlap: IntersectionMatrix,
    /// Resemblance per normalized `(min, max)` forward-row pair.
    resem: FxHashMap<(u32, u32), f64>,
    /// Walk dot product per normalized `(min, max)` row pair (the dot is
    /// symmetric in its rows, so one entry serves both directions).
    dot: FxHashMap<(u32, u32), f64>,
    /// Distinct rows interned into this path's arena (accounting).
    interned: u64,
}

impl PathKernels {
    /// A memo lookup, skipped when the overlap matrix already proves the
    /// rows disjoint (most pairs: one bit test instead of a hash probe).
    fn memo(&self, memo: &FxHashMap<(u32, u32), f64>, a: u32, b: u32) -> Option<f64> {
        if !self.overlap.intersects(a, b) {
            return None;
        }
        memo.get(&(a.min(b), a.max(b))).copied()
    }

    fn resem_at(&self, i: usize, j: usize) -> Option<f64> {
        self.memo(&self.resem, self.row_f[i], self.row_f[j])
    }

    /// Walk dot `i → j` (forward row of `i` against backward row of `j`).
    fn dot_at(&self, i: usize, j: usize) -> Option<f64> {
        self.memo(&self.dot, self.row_f[i], self.row_b[j])
    }

    /// The exact kernel's zero for a pruned `i → j` walk: `-0.0` when
    /// either side's support is empty, `+0.0` when both are non-empty but
    /// provably disjoint — bit-identical to what `directed_walk` returns
    /// (its `Sum` folds from `-0.0`, which only survives when the
    /// iterated support is empty).
    fn zero_walk(&self, i: usize, j: usize) -> f64 {
        let (a, b) = (self.row_f[i], self.row_b[j]);
        if self.overlap.intersects(a, a) && self.overlap.intersects(b, b) {
            0.0
        } else {
            -0.0
        }
    }
}

/// A [`Merger`] implementing DISTINCT's composite cluster similarity.
#[derive(Debug, Clone)]
pub struct DistinctMerger {
    /// `resem[a][b]` = Σ over member pairs of weighted set resemblance
    /// (symmetric).
    resem: Vec<Vec<f64>>,
    /// `dwalk[a][b]` = Σ over member pairs of weighted *directed* walk
    /// probability from a member of `a` to a member of `b` (asymmetric).
    dwalk: Vec<Vec<f64>>,
    /// Cluster sizes (leaves = 1).
    sizes: Vec<usize>,
    measure: MeasureMode,
    composite: CompositeMode,
    n: usize,
}

impl DistinctMerger {
    /// Build the pairwise tables from reference profiles, sequentially and
    /// unguarded.
    pub fn from_profiles(
        profiles: &[Profile],
        weights: &PathWeights,
        measure: MeasureMode,
        composite: CompositeMode,
    ) -> Self {
        Self::from_profiles_exec(
            profiles,
            weights,
            measure,
            composite,
            &exec::Executor::sequential(),
            &|_| true,
        )
        .0
        // distinct-lint: allow(D101, reason="guard is the constant true closure above, so the build can never be refused")
        .expect("permissive guard never stops the matrix build")
    }

    /// Like [`DistinctMerger::from_profiles`], but computes the O(n²)
    /// pairwise feature tables **in parallel** — this is the
    /// similarity-matrix hot path of resolution. It first builds, per
    /// join path, a columnar [`SetArena`] over all forward and backward
    /// sets (deduplicating content-identical rows) and an exact
    /// support-overlap matrix over the distinct rows, and evaluates only
    /// the kernels not *proven* exactly zero — then assembles the
    /// upper-triangle pair chunks from memo lookups, where a missing entry
    /// is a proof the exact kernel returns zero. Only provably-zero work
    /// is skipped, so the tables equal, bit for bit, the per-pair
    /// [`crate::resemblance_features`] and [`crate::directed_walk_features`]
    /// under [`weighted_sum`] — the losslessness contract — for any
    /// thread count.
    ///
    /// `guard` is charged with kernel-pair counts (per assembly chunk,
    /// per arena build and per surviving kernel batch); if it trips,
    /// pending work is abandoned and `None` is returned — a partially
    /// filled matrix would silently bias the clustering toward whichever
    /// pairs happened to be computed. The [`exec::ParStats`] records how
    /// far the stage got either way, and the returned [`PairCounters`]
    /// record how many kernel units were pruned (zeroed on an interrupted
    /// build, like the tables).
    pub fn from_profiles_exec<P>(
        profiles: &[P],
        weights: &PathWeights,
        measure: MeasureMode,
        composite: CompositeMode,
        executor: &exec::Executor,
        guard: &(dyn Fn(u64) -> bool + Sync),
    ) -> (Option<Self>, exec::ParStats, PairCounters)
    where
        P: Borrow<Profile> + Sync,
    {
        // distinct-lint: scratch(transient: oracle and test callers build and drop a private pool per call; engine callers thread the engine-owned pool through from_profiles_pooled instead)
        let pool = ArenaPool::new();
        Self::from_profiles_pooled(
            profiles, weights, measure, composite, executor, guard, &pool,
        )
    }

    /// Like [`DistinctMerger::from_profiles_exec`], but the per-path
    /// [`SetArena`]s are taken from (and returned to) `pool` instead of
    /// being rebuilt from cold heap on every call — the scratch seam that
    /// lets an engine reuse arena capacity across resolves of different
    /// names. Tables are bit-identical to the per-call build:
    /// [`SetArena::rebuild_rows`] is content-equivalent to
    /// [`SetArena::build`].
    pub fn from_profiles_pooled<P>(
        profiles: &[P],
        weights: &PathWeights,
        measure: MeasureMode,
        composite: CompositeMode,
        executor: &exec::Executor,
        guard: &(dyn Fn(u64) -> bool + Sync),
        pool: &ArenaPool,
    ) -> (Option<Self>, exec::ParStats, PairCounters)
    where
        P: Borrow<Profile> + Sync,
    {
        let n = profiles.len();
        let n_paths = profiles.first().map_or(0, |p| p.borrow().path_count());
        let n_pairs = exec::triangle_count(n);
        let unit_total = (n_pairs * n_paths) as u64;
        let tripped = AtomicBool::new(false);

        // Per-path kernel memos first, then the pairs read off them.
        let path_idx: Vec<usize> = (0..n_paths).collect();
        let (built, prep_stats) = executor.par_map_guarded(
            &path_idx,
            |_, &k| build_path_kernels(profiles, k, guard, &tripped, pool),
            || tripped.load(Ordering::Relaxed),
        );
        let Some(kernels) = built.into_iter().collect::<Option<Vec<PathKernels>>>() else {
            let mut stats = prep_stats;
            stats.stopped = true;
            return (None, stats, PairCounters::default());
        };

        // Assembly over the flat upper-triangle pair index space. Each
        // pair's features depend only on its two (immutable) profiles /
        // memos and every value lands in a fixed matrix cell.
        let (chunks, mut stats) = executor.par_chunks(
            n_pairs,
            |range: Range<usize>| -> Option<ChunkValues> {
                if !guard(range.len() as u64) {
                    tripped.store(true, Ordering::Relaxed);
                    return None;
                }
                let mut exact_units = 0u64;
                // Per-path feature buffers, allocated once per chunk and
                // overwritten for every pair.
                let mut feats = vec![0.0f64; 3 * n_paths];
                let (r_feats, walk_feats) = feats.split_at_mut(n_paths);
                let (dij_feats, dji_feats) = walk_feats.split_at_mut(n_paths);
                let vals = range
                    .map(|k| {
                        let (i, j) = exec::triangle_pair(n, k);
                        for (p, pk) in kernels.iter().enumerate() {
                            let mut hit = false;
                            r_feats[p] = pk.resem_at(i, j).inspect(|_| hit = true).unwrap_or(0.0);
                            dij_feats[p] = pk
                                .dot_at(i, j)
                                .inspect(|_| hit = true)
                                .unwrap_or_else(|| pk.zero_walk(i, j));
                            dji_feats[p] = pk
                                .dot_at(j, i)
                                .inspect(|_| hit = true)
                                .unwrap_or_else(|| pk.zero_walk(j, i));
                            if hit {
                                exact_units += 1;
                            }
                        }
                        let r = weighted_sum(r_feats, &weights.resem);
                        let dij = weighted_sum(dij_feats, &weights.walk);
                        let dji = weighted_sum(dji_feats, &weights.walk);
                        (r, dij, dji)
                    })
                    .collect();
                Some((vals, exact_units))
            },
            || tripped.load(Ordering::Relaxed),
        );
        stats.stopped = stats.stopped || tripped.load(Ordering::Relaxed);
        stats.completed = chunks
            .iter()
            .filter(|(_, v)| v.is_some())
            .map(|(r, _)| r.len())
            .sum();
        // One ParStats for the whole stage: pair-granularity tasks (the
        // unit existing probes assert on), wall covering both phases.
        stats.threads = stats.threads.max(prep_stats.threads);
        stats.wall += prep_stats.wall;
        stats.stopped = stats.stopped || prep_stats.stopped;
        if stats.stopped {
            return (None, stats, PairCounters::default());
        }
        let mut exact_units = 0u64;
        let mut resem = vec![vec![0.0; n]; n];
        let mut dwalk = vec![vec![0.0; n]; n];
        for (range, vals) in chunks {
            // distinct-lint: allow(D101, reason="stats.stopped was checked above; a complete run leaves every chunk Some by the exec pool contract")
            let (vals, chunk_exact) = vals.expect("complete run has no refused chunks");
            exact_units += chunk_exact;
            for (k, (r, dij, dji)) in range.zip(vals) {
                let (i, j) = exec::triangle_pair(n, k);
                resem[i][j] = r;
                resem[j][i] = r;
                dwalk[i][j] = dij;
                dwalk[j][i] = dji;
            }
        }
        let counters = PairCounters {
            total: unit_total,
            pruned: unit_total - exact_units,
            exact: exact_units,
            interned: kernels.iter().map(|k| k.interned).sum(),
        };
        (
            Some(DistinctMerger {
                resem,
                dwalk,
                sizes: vec![1; n],
                measure,
                composite,
                n,
            }),
            stats,
            counters,
        )
    }

    /// Number of leaf references.
    pub fn items(&self) -> usize {
        self.n
    }

    /// The leaf pairwise tables `(resemblance, directed walk)`, for the
    /// run manager's similarity-stage checkpoint. Only meaningful on a
    /// freshly built merger (before any merge extends the tables).
    pub(crate) fn to_tables(&self) -> (&[Vec<f64>], &[Vec<f64>]) {
        (&self.resem, &self.dwalk)
    }

    /// Rebuild a merger from checkpointed leaf tables. Inverse of
    /// [`DistinctMerger::to_tables`] — JSON round-trips `f64` exactly, so
    /// a merger restored this way clusters bit-identically to the one that
    /// was saved. Returns `None` when the tables are not square matrices
    /// of matching size.
    pub(crate) fn from_tables(
        resem: Vec<Vec<f64>>,
        dwalk: Vec<Vec<f64>>,
        measure: MeasureMode,
        composite: CompositeMode,
    ) -> Option<Self> {
        let n = resem.len();
        if dwalk.len() != n
            || resem.iter().any(|row| row.len() != n)
            || dwalk.iter().any(|row| row.len() != n)
        {
            return None;
        }
        Some(DistinctMerger {
            resem,
            dwalk,
            sizes: vec![1; n],
            measure,
            composite,
            n,
        })
    }

    /// The weighted resemblance between two leaf references (diagnostics).
    pub fn leaf_resemblance(&self, i: usize, j: usize) -> f64 {
        self.resem[i][j]
    }

    /// The symmetrized weighted walk probability between two leaves.
    pub fn leaf_walk(&self, i: usize, j: usize) -> f64 {
        0.5 * (self.dwalk[i][j] + self.dwalk[j][i])
    }

    /// Average-Link resemblance between clusters `a` and `b`.
    fn average_resemblance(&self, a: usize, b: usize) -> f64 {
        self.resem[a][b] / (self.sizes[a] * self.sizes[b]) as f64
    }

    /// Collective random walk probability between clusters: start at a
    /// uniformly random member of one cluster, land anywhere in the other;
    /// symmetrized by averaging both directions.
    fn collective_walk(&self, a: usize, b: usize) -> f64 {
        let a_to_b = self.dwalk[a][b] / self.sizes[a] as f64;
        let b_to_a = self.dwalk[b][a] / self.sizes[b] as f64;
        0.5 * (a_to_b + b_to_a)
    }
}

/// Build the kernel memos for one join path: intern all forward and
/// backward rows into a columnar [`SetArena`], read the candidate row
/// pairs off the exact support-overlap matrix (every other pair is
/// provably zero), and run the merge-join kernels only for those.
///
/// `guard` is charged once with the interned set count (the arena and
/// overlap build) and once with the surviving kernel count.
///
/// The arena is taken from `pool` and rebuilt in place (bit-identical
/// to a fresh [`SetArena::build`]); it returns to the pool on every
/// exit path, including a tripped guard.
fn build_path_kernels<P: Borrow<Profile>>(
    profiles: &[P],
    k: usize,
    guard: &(dyn Fn(u64) -> bool + Sync),
    tripped: &AtomicBool,
    pool: &ArenaPool,
) -> Option<PathKernels> {
    let n = profiles.len();
    if !guard(2 * n as u64) {
        tripped.store(true, Ordering::Relaxed);
        return None;
    }
    let mut arena: SetArena = pool.take();
    rebuild_path_arena(&mut arena, profiles, k);
    let overlap = arena.intersections();
    let row_f: Vec<u32> = (0..n).map(|i| arena.row_of(i)).collect();
    let row_b: Vec<u32> = (0..n).map(|i| arena.row_of(n + i)).collect();

    // Each distinct row's roles: a forward row, a forward row of at least
    // two references (only those produce a same-row (r, r) resemblance
    // lookup from an i ≠ j pair), a backward row.
    const FWD: u8 = 1;
    const FWD_TWICE: u8 = 2;
    const BWD: u8 = 4;
    let mut role = vec![0u8; arena.rows()];
    for &r in &row_f {
        let x = &mut role[r as usize];
        *x |= if *x & FWD != 0 { FWD_TWICE } else { FWD };
    }
    for &r in &row_b {
        role[r as usize] |= BWD;
    }

    // Candidate row pairs, normalized (min, max), read off the overlap
    // matrix — the one zero certificate. Two rows with no shared member
    // have exactly zero kernels and are never listed; a shared member
    // with positive weights makes the kernel nonzero, so every listed
    // pair runs. Dot candidates pair a forward row with a backward row
    // (either way round); a few combos only realized by i == j ride
    // along harmlessly.
    let mut resem_cands: Vec<(u32, u32)> = Vec::new();
    let mut dot_cands: Vec<(u32, u32)> = Vec::new();
    overlap.for_each_upper(|a, b| {
        let (ra, rb) = (role[a as usize], role[b as usize]);
        if ra & FWD != 0 && rb & FWD != 0 && (a != b || ra & FWD_TWICE != 0) {
            resem_cands.push((a, b));
        }
        if (ra & FWD != 0 && rb & BWD != 0) || (ra & BWD != 0 && rb & FWD != 0) {
            dot_cands.push((a, b));
        }
    });
    if !guard((resem_cands.len() + dot_cands.len()) as u64) {
        tripped.store(true, Ordering::Relaxed);
        pool.put(arena);
        return None;
    }
    let mut resem = FxHashMap::default();
    for (a, b) in resem_cands {
        resem.insert((a, b), arena.resemblance_rows(a, b));
    }
    let mut dot = FxHashMap::default();
    for (a, b) in dot_cands {
        dot.insert((a, b), arena.dot_rows(a, b));
    }
    let interned = arena.rows() as u64;
    pool.put(arena);
    Some(PathKernels {
        row_f,
        row_b,
        overlap,
        resem,
        dot,
        interned,
    })
}

/// Rebuild `arena` over join path `k`'s rows: every reference's forward
/// row, then every reference's backward row, streamed straight off the
/// profiles' sorted columns.
fn rebuild_path_arena<P: Borrow<Profile>>(arena: &mut SetArena, profiles: &[P], k: usize) {
    let n = profiles.len();
    arena.rebuild_rows((0..2 * n).map(|x| {
        let run = profiles[x % n].borrow().path(k);
        let weights = if x < n { run.forward } else { run.backward };
        run.nodes.iter().copied().zip(weights.iter().copied())
    }));
}

impl Merger for DistinctMerger {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        match self.measure {
            MeasureMode::SetResemblance => self.average_resemblance(a, b),
            MeasureMode::RandomWalk => self.collective_walk(a, b),
            MeasureMode::Combined => {
                let r = self.average_resemblance(a, b);
                let w = self.collective_walk(a, b);
                match self.composite {
                    CompositeMode::Geometric => (r * w).sqrt(),
                    CompositeMode::Arithmetic => 0.5 * (r + w),
                }
            }
        }
    }

    fn merged(&mut self, a: usize, b: usize, into: usize, size_a: usize, size_b: usize) {
        debug_assert_eq!(into, self.resem.len());
        let total = into + 1;
        // New resemblance row: plain sums.
        let mut r_row = Vec::with_capacity(total);
        for c in 0..into {
            r_row.push(self.resem[a][c] + self.resem[b][c]);
        }
        r_row.push(0.0); // self entry, never queried
        for (c, &v) in r_row.iter().enumerate().take(into) {
            self.resem[c].push(v);
        }
        self.resem.push(r_row);
        // New directed-walk row and column.
        let mut out_row = Vec::with_capacity(total); // into -> c
        for c in 0..into {
            out_row.push(self.dwalk[a][c] + self.dwalk[b][c]);
        }
        out_row.push(0.0);
        for c in 0..into {
            let incoming = self.dwalk[c][a] + self.dwalk[c][b]; // c -> into
            self.dwalk[c].push(incoming);
        }
        self.dwalk.push(out_row);
        self.sizes.push(size_a + size_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::agglomerate;
    use relgraph::{NodeId, Propagation};
    use relstore::{RelId, TupleId, TupleRef};

    /// A one-path profile from `(node, forward, backward)` entries in any
    /// order (a later entry for the same node wins, as with a map insert).
    fn column_profile(idx: u32, entries: &[(u32, f64, f64)]) -> Profile {
        let sorted: std::collections::BTreeMap<u32, (f64, f64)> =
            entries.iter().map(|&(n, f, b)| (n, (f, b))).collect();
        let mut columns = Propagation::new();
        columns.push_path(sorted.into_iter().map(|(n, (f, b))| (NodeId(n), f, b)));
        Profile {
            reference: TupleRef::new(RelId(0), TupleId(idx)),
            columns,
            placeholder: false,
        }
    }

    /// A synthetic one-path profile whose forward masses are given by
    /// (node, weight) pairs; backward mirrors forward (good enough for
    /// merger arithmetic tests).
    fn profile(idx: u32, pairs: &[(u32, f64)]) -> Profile {
        let entries: Vec<(u32, f64, f64)> = pairs.iter().map(|&(n, w)| (n, w, w)).collect();
        column_profile(idx, &entries)
    }

    fn weights() -> PathWeights {
        PathWeights {
            resem: vec![1.0],
            walk: vec![1.0],
        }
    }

    /// The leaf tables `(resemblance, directed walk)` scored pair by pair
    /// with the per-path kernels, without arenas or pruning: the
    /// reference the pruned build must match bit for bit.
    fn exact_tables(profiles: &[Profile], weights: &PathWeights) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        use crate::features::{directed_walk_features, resemblance_features};
        let n = profiles.len();
        let mut resem = vec![vec![0.0; n]; n];
        let mut dwalk = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let (pi, pj) = (&profiles[i], &profiles[j]);
                let r = weighted_sum(&resemblance_features(pi, pj), &weights.resem);
                resem[i][j] = r;
                resem[j][i] = r;
                dwalk[i][j] = weighted_sum(&directed_walk_features(pi, pj), &weights.walk);
                dwalk[j][i] = weighted_sum(&directed_walk_features(pj, pi), &weights.walk);
            }
        }
        (resem, dwalk)
    }

    /// Every entry of `got` carries `want`'s bits, zero signs included.
    fn assert_bits(got: &[Vec<f64>], want: &[Vec<f64>], table: &str) {
        assert_eq!(got.len(), want.len(), "{table}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{table} row {i}");
        }
    }

    /// Two tight groups: {0,1} share node 1, {2,3} share node 2.
    fn two_groups() -> Vec<Profile> {
        vec![
            profile(0, &[(1, 1.0)]),
            profile(1, &[(1, 1.0)]),
            profile(2, &[(2, 1.0)]),
            profile(3, &[(2, 1.0)]),
        ]
    }

    #[test]
    fn leaf_similarities_reflect_shared_context() {
        let m = DistinctMerger::from_profiles(
            &two_groups(),
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        assert_eq!(m.items(), 4);
        assert!((m.leaf_resemblance(0, 1) - 1.0).abs() < 1e-12);
        assert_eq!(m.leaf_resemblance(0, 2), 0.0);
        assert!(m.leaf_walk(0, 1) > 0.0);
        assert_eq!(m.leaf_walk(0, 3), 0.0);
    }

    #[test]
    fn combined_measure_clusters_the_groups() {
        let mut m = DistinctMerger::from_profiles(
            &two_groups(),
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        let c = agglomerate(4, &mut m, 0.01);
        assert_eq!(c.cluster_count(), 2);
        let g = c.groups();
        assert!(g.contains(&vec![0, 1]));
        assert!(g.contains(&vec![2, 3]));
    }

    #[test]
    fn geometric_composite_vetoes_on_either_zero() {
        // Profiles share neighbors (resemblance > 0) but have zero walk
        // probability: different nodes in backward rows would be needed.
        // Construct resem > 0, walk = 0 by giving asymmetric supports:
        // here we instead verify the arithmetic difference directly.
        let p = vec![profile(0, &[(1, 1.0)]), profile(1, &[(1, 1.0)])];
        let geo = DistinctMerger::from_profiles(
            &p,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        let ari = DistinctMerger::from_profiles(
            &p,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Arithmetic,
        );
        let sg = geo.similarity(0, 1);
        let sa = ari.similarity(0, 1);
        // Both positive here; geometric <= arithmetic (AM-GM).
        assert!(sg > 0.0);
        assert!(sg <= sa + 1e-12);
    }

    #[test]
    fn single_measure_modes() {
        let p = two_groups();
        let r_only = DistinctMerger::from_profiles(
            &p,
            &weights(),
            MeasureMode::SetResemblance,
            CompositeMode::Geometric,
        );
        assert!((r_only.similarity(0, 1) - 1.0).abs() < 1e-12);
        let w_only = DistinctMerger::from_profiles(
            &p,
            &weights(),
            MeasureMode::RandomWalk,
            CompositeMode::Geometric,
        );
        assert!((w_only.similarity(0, 1) - 1.0).abs() < 1e-12); // 1*1 both ways
        assert_eq!(w_only.similarity(0, 2), 0.0);
    }

    #[test]
    fn incremental_aggregation_matches_recomputation() {
        // After merging 0 and 1, avg resemblance to 2 must equal the mean
        // of the leaf resemblances, and collective walk must equal the
        // formula over members.
        let profiles = vec![
            profile(0, &[(1, 0.8), (2, 0.2)]),
            profile(1, &[(1, 0.5), (3, 0.5)]),
            profile(2, &[(1, 0.4), (2, 0.6)]),
        ];
        let mut m = DistinctMerger::from_profiles(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        let r02 = m.leaf_resemblance(0, 2);
        let r12 = m.leaf_resemblance(1, 2);
        let d02 = m.dwalk[0][2];
        let d12 = m.dwalk[1][2];
        let d20 = m.dwalk[2][0];
        let d21 = m.dwalk[2][1];
        m.merged(0, 1, 3, 1, 1);
        let avg = m.average_resemblance(3, 2);
        assert!((avg - 0.5 * (r02 + r12)).abs() < 1e-12);
        let cw = m.collective_walk(3, 2);
        let expected = 0.5 * ((d02 + d12) / 2.0 + (d20 + d21) / 1.0);
        assert!((cw - expected).abs() < 1e-12);
    }

    #[test]
    fn parallel_matrix_build_matches_sequential() {
        // A spread of profiles with varying overlap so the matrices are
        // non-trivial; compare every table entry across thread counts.
        let profiles: Vec<Profile> = (0..12)
            .map(|i| profile(i, &[(i % 4, 0.5 + 0.04 * i as f64), ((i + 1) % 4, 0.3)]))
            .collect();
        let reference = DistinctMerger::from_profiles(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        let (resem, dwalk) = exact_tables(&profiles, &weights());
        assert_bits(&reference.resem, &resem, "resem");
        assert_bits(&reference.dwalk, &dwalk, "dwalk");
        for threads in [2usize, 5, 8] {
            let (m, stats, counters) = DistinctMerger::from_profiles_exec(
                &profiles,
                &weights(),
                MeasureMode::Combined,
                CompositeMode::Geometric,
                &exec::Executor::with_threads(threads),
                &|_| true,
            );
            let m = m.expect("permissive guard");
            assert!(!stats.stopped);
            assert_eq!(stats.completed, 12 * 11 / 2);
            // One join path in this fixture, so units == pairs.
            assert_eq!(counters.total, 12 * 11 / 2);
            assert_eq!(counters.pruned + counters.exact, counters.total);
            assert_bits(
                &m.resem,
                &reference.resem,
                &format!("resem, threads={threads}"),
            );
            assert_bits(
                &m.dwalk,
                &reference.dwalk,
                &format!("dwalk, threads={threads}"),
            );
        }
    }

    /// The losslessness contract at the table level: the pruned build's
    /// matrices carry the per-pair kernels' bits, including zero signs,
    /// and its counters account for real pruning.
    #[test]
    fn pruned_build_is_bit_identical_and_actually_prunes() {
        // Three disconnected cliques: most pairs have provably-zero
        // kernels, a few same-row references exercise memo reuse.
        let mut profiles: Vec<Profile> = Vec::new();
        for g in 0..3u32 {
            for m in 0..3u32 {
                profiles.push(profile(
                    g * 3 + m,
                    &[(10 * g, 0.5 + 0.1 * m as f64), (10 * g + 1, 0.2)],
                ));
            }
        }
        profiles.push(profile(9, &[(0, 0.5), (1, 0.2)])); // same content as profile 0
        profiles.push(profile(10, &[])); // empty: exercises the -0.0 walk zero
        let n = profiles.len();
        let (resem, dwalk) = exact_tables(&profiles, &weights());
        let (pruned, stats, counters) = DistinctMerger::from_profiles_exec(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
            &exec::Executor::with_threads(3),
            &|_| true,
        );
        let pruned = pruned.expect("permissive guard");
        assert!(!stats.stopped);
        assert_bits(&pruned.resem, &resem, "resem");
        assert_bits(&pruned.dwalk, &dwalk, "dwalk");
        assert_eq!(counters.total, exec::triangle_count(n) as u64);
        assert_eq!(counters.pruned + counters.exact, counters.total);
        // Cross-clique and empty-profile units are all provably zero:
        // 9 same-clique pairs + the pair joining profile 0's duplicate
        // to its clique... every nonzero unit involves two refs of one
        // clique (clique 0 has 4 members now): C(4,2) + C(3,2) + C(3,2) = 12.
        assert_eq!(counters.exact, 12);
        assert!(counters.pruned > counters.exact);
    }

    /// The forward rows, then the backward rows, of path 0.
    fn path_rows(profiles: &[Profile]) -> Vec<Vec<(NodeId, f64)>> {
        let rows = |backward: bool| {
            profiles.iter().map(move |p| {
                let run = p.path(0);
                let w = if backward { run.backward } else { run.forward };
                run.nodes.iter().copied().zip(w.iter().copied()).collect()
            })
        };
        rows(false).chain(rows(true)).collect()
    }

    proptest::proptest! {
        // The streamed path arena interns exactly what `SetArena::build`
        // does over the forward rows and then the backward rows. Masses
        // are quarter steps, so rows repeat often; `dup` appends a copy of
        // one reference; empty rows occur.
        #[test]
        fn streamed_path_arena_matches_build_over_the_rows(
            refs in proptest::collection::vec(
                proptest::collection::vec((0u32..10, 1i32..4, 1i32..4), 0..6),
                1..10,
            ),
            dup in 0usize..10,
        ) {
            let mut profiles: Vec<Profile> = refs
                .iter()
                .enumerate()
                .map(|(i, entries)| {
                    let entries: Vec<(u32, f64, f64)> = entries
                        .iter()
                        .map(|&(n, f, b)| (n, 0.25 * f64::from(f), 0.25 * f64::from(b)))
                        .collect();
                    column_profile(i as u32, &entries)
                })
                .collect();
            profiles.push(profiles[dup % profiles.len()].clone());
            let mut streamed = SetArena::empty();
            rebuild_path_arena(&mut streamed, &profiles, 0);
            proptest::prop_assert_eq!(streamed, SetArena::build(path_rows(&profiles)));
        }
    }

    #[test]
    fn streamed_path_arena_covers_duplicates_and_empties() {
        let profiles = vec![
            column_profile(0, &[(1, 0.5, 0.25), (3, 0.5, 0.75)]),
            column_profile(1, &[]),
            column_profile(2, &[(1, 0.5, 0.25), (3, 0.5, 0.75)]),
        ];
        let mut streamed = SetArena::empty();
        rebuild_path_arena(&mut streamed, &profiles, 0);
        assert_eq!(streamed, SetArena::build(path_rows(&profiles)));
        assert_eq!(streamed.row_of(0), streamed.row_of(2));
        // An empty row's total is the empty sum, `-0.0`.
        assert_eq!(
            streamed.total(streamed.row_of(1)).to_bits(),
            (-0.0f64).to_bits()
        );
        // The backward rows carry the backward masses.
        assert_eq!(streamed.total(streamed.row_of(3)), 1.0);
    }

    #[test]
    fn table_round_trip_restores_a_bit_identical_merger() {
        let profiles: Vec<Profile> = (0..9)
            .map(|i| profile(i, &[(i % 3, 0.4 + 0.05 * i as f64), ((i + 1) % 3, 0.25)]))
            .collect();
        let m = DistinctMerger::from_profiles(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        let (resem, dwalk) = m.to_tables();
        let restored = DistinctMerger::from_tables(
            resem.to_vec(),
            dwalk.to_vec(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        )
        .unwrap();
        let (mut a, mut b) = (m.clone(), restored);
        let ca = agglomerate(9, &mut a, 0.01);
        let cb = agglomerate(9, &mut b, 0.01);
        assert_eq!(ca.labels, cb.labels);
        assert_eq!(ca.dendrogram.merges(), cb.dendrogram.merges());
        // Malformed tables are refused, not misindexed.
        assert!(DistinctMerger::from_tables(
            vec![vec![0.0; 2]; 3],
            vec![vec![0.0; 3]; 3],
            MeasureMode::Combined,
            CompositeMode::Geometric,
        )
        .is_none());
    }

    #[test]
    fn tripped_matrix_build_returns_none() {
        let profiles = two_groups();
        let (m, stats, counters) = DistinctMerger::from_profiles_exec(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
            &exec::Executor::sequential(),
            &|_| false,
        );
        assert!(m.is_none());
        assert!(stats.stopped);
        assert_eq!(stats.completed, 0);
        assert_eq!(counters, PairCounters::default());
    }

    #[test]
    fn merged_tables_stay_symmetric_in_resemblance() {
        let profiles = two_groups();
        let mut m = DistinctMerger::from_profiles(
            &profiles,
            &weights(),
            MeasureMode::Combined,
            CompositeMode::Geometric,
        );
        m.merged(0, 1, 4, 1, 1);
        for c in 0..4 {
            assert_eq!(m.resem[4][c], m.resem[c][4]);
        }
    }
}
