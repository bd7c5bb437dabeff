//! Columnar kernel arena: interned, flattened weighted sets.
//!
//! [`SetArena::rebuild_rows`] takes the weighted rows of one similarity
//! stage (e.g. all forward and backward rows of one join path), streamed
//! as ascending `(NodeId, weight)` iterators, and re-encodes them for the
//! pairwise kernels:
//!
//! * **row dedup** — content-identical rows share one *distinct row*
//!   ([`SetArena::row_of`] maps input index → row). Same-context
//!   references (e.g. same-year references on a deterministic
//!   single-fanout path) produce literally identical sets, so one kernel
//!   evaluation per distinct row pair serves every reference pair that
//!   realizes it. Each row is written straight into the columns and cut
//!   off again when a content-equal row already exists, found through a
//!   hash head and an intrusive chain — no per-row or per-bucket buffer;
//! * **id interning** — every [`NodeId`] appearing in any row is mapped
//!   to a dense `u32` by ascending node id. The mapping is
//!   order-preserving, so ascending interned order *is* ascending node
//!   order and the merge-joins accumulate in exactly the order they do
//!   over the source rows — the bit-identity the determinism contract
//!   needs;
//! * **flat columns** — all rows live in two contiguous `ids`/`weights`
//!   columns sliced by offset, so a kernel streams two cache-resident
//!   runs instead of chasing per-pair map storage.
//!
//! [`SetArena::resemblance_rows`] and [`SetArena::dot_rows`] run
//! [`crate::resemblance`] and [`crate::directed_walk`] on the interned
//! rows, so they are bit-identical to the same kernels on the source rows
//! (property-tested below): row totals are accumulated left to right,
//! like `weights.iter().sum()`.
//!
//! [`SetArena::intersections`] precomputes the exact support-overlap
//! matrix over distinct rows from CSR posting lists (one buffer: count,
//! prefix sum, fill) — the pruned similarity engine's zero certificate.

use crate::graph::NodeId;
use crate::kernel::{directed_walk, resemblance};
use relstore::FxHashMap;

/// End of an intrusive dedup chain.
const NONE: u32 = u32::MAX;

/// SplitMix64 step used to combine content hashes for row/posting dedup.
/// Purely an in-process bucketing aid; equality is always confirmed by an
/// exact comparison, so hash quality affects speed, never results.
fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One multiply-rotate step (the FxHash combine) folding a member into a
/// row's content hash; [`mix`] finishes the row. Cheap per member, and
/// like `mix` only a bucketing aid.
fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// A flat, deduplicated, interned arena of weighted sets (module docs).
#[derive(Debug, Clone)]
pub struct SetArena {
    /// Input set index → distinct row index.
    row_of: Vec<u32>,
    /// Distinct row → half-open range into `ids`/`weights` (`len + 1`).
    offsets: Vec<u32>,
    /// Interned member ids, ascending within each row.
    ids: Vec<u32>,
    /// Member weights, aligned with `ids`.
    weights: Vec<f64>,
    /// Per-row total mass, accumulated left to right (bit-identical to
    /// the source row's `weights.iter().sum()`).
    totals: Vec<f64>,
    /// The interning table: sorted distinct node ids (dense id → node).
    nodes: Vec<u32>,
    /// Build scratch: content hash → newest distinct row with that hash.
    heads: FxHashMap<u64, u32>,
    /// Build scratch: per distinct row, the previous distinct row with
    /// the same content hash ([`NONE`] ends the chain).
    chain: Vec<u32>,
}

impl SetArena {
    /// An arena over zero sets, holding no heap capacity. The unit
    /// [`ArenaPool::take`] hands out when the pool is dry; feed it to
    /// [`SetArena::rebuild_rows`] before use.
    pub fn empty() -> SetArena {
        SetArena {
            row_of: Vec::new(),
            offsets: Vec::new(),
            ids: Vec::new(),
            weights: Vec::new(),
            totals: Vec::new(),
            nodes: Vec::new(),
            heads: FxHashMap::default(),
            chain: Vec::new(),
        }
    }

    /// Build an arena over the given rows (in order; the index of each
    /// row in this iteration is its input index for [`SetArena::row_of`]).
    pub fn build<R>(rows: R) -> SetArena
    where
        R: IntoIterator,
        R::Item: IntoIterator<Item = (NodeId, f64)>,
    {
        let mut arena = Self::empty();
        arena.rebuild_rows(rows);
        arena
    }

    /// Rebuild this arena in place over a new row sequence, reusing the
    /// capacity left by the previous build. Each row is an iterator of
    /// `(node, weight)` pairs in strictly ascending node order — one
    /// [`crate::PathColumns`] row, zipped. The result is a pure function of
    /// the rows' contents: distinct rows are numbered in first-appearance
    /// order and totals accumulate left to right, so it is field for
    /// field identical to `SetArena::build` over the same sets. Capacity
    /// is the only thing that survives; no content does. This is the
    /// reuse seam the resolve spine's pooled arenas go through (lint
    /// D112).
    pub fn rebuild_rows<R>(&mut self, rows: R)
    where
        R: IntoIterator,
        R::Item: IntoIterator<Item = (NodeId, f64)>,
    {
        self.row_of.clear();
        self.offsets.clear();
        self.ids.clear();
        self.weights.clear();
        self.totals.clear();
        self.heads.clear();
        self.chain.clear();
        self.offsets.push(0u32);
        for row in rows {
            let lo = self.ids.len();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            // `-0.0` is std's `Sum<f64>` identity, so starting there makes
            // the accumulated total bit-identical to `weights.iter().sum()`
            // even for empty rows (where the sum *is* `-0.0`).
            let mut total = -0.0f64;
            for (NodeId(n), w) in row {
                debug_assert!(
                    self.ids.len() == lo || self.ids[self.ids.len() - 1] < n,
                    "row not in strictly ascending node order"
                );
                self.ids.push(n);
                self.weights.push(w);
                h = fold(fold(h, u64::from(n)), w.to_bits());
                total += w;
            }
            let r = self.dedup_tail(lo, mix(h ^ (self.ids.len() - lo) as u64), total);
            self.row_of.push(r);
        }
        // Intern: dense ids assigned by ascending NodeId, so ascending
        // interned order within a row is ascending node order.
        self.nodes.clear();
        self.nodes.extend_from_slice(&self.ids);
        self.nodes.sort_unstable();
        self.nodes.dedup();
        for id in &mut self.ids {
            // Every id is in `nodes` (collected from `ids` just above), so
            // the search always lands on `Ok`.
            let (Ok(dense) | Err(dense)) = self.nodes.binary_search(id);
            *id = dense as u32;
        }
    }

    /// Settle the row just written at `ids[lo..]` (content hash `h`,
    /// total `total`): when a content-equal distinct row exists, cut the
    /// new copy off the columns and return that row; otherwise keep it
    /// as the next distinct row.
    fn dedup_tail(&mut self, lo: usize, h: u64, total: f64) -> u32 {
        let hi = self.ids.len();
        let head = self.heads.get(&h).copied().unwrap_or(NONE);
        let mut cand = head;
        while cand != NONE {
            let (ci, cw) = self.row(cand);
            if ci == &self.ids[lo..hi]
                && cw
                    .iter()
                    .zip(&self.weights[lo..hi])
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            {
                self.ids.truncate(lo);
                self.weights.truncate(lo);
                return cand;
            }
            cand = self.chain[cand as usize];
        }
        let r = self.totals.len() as u32;
        self.offsets.push(hi as u32);
        self.totals.push(total);
        self.chain.push(head);
        self.heads.insert(h, r);
        r
    }

    /// Distinct row holding input set `i`.
    pub fn row_of(&self, i: usize) -> u32 {
        self.row_of[i]
    }

    /// Number of distinct rows.
    pub fn rows(&self) -> usize {
        self.totals.len()
    }

    /// Number of input sets the arena was built over.
    pub fn inputs(&self) -> usize {
        self.row_of.len()
    }

    /// Number of distinct interned member ids.
    pub fn universe(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// True when distinct row `r` has no members.
    fn is_empty_row(&self, r: u32) -> bool {
        self.offsets[r as usize] == self.offsets[r as usize + 1]
    }

    /// The `(interned id, weight)` column slice of one distinct row.
    fn row(&self, r: u32) -> (&[u32], &[f64]) {
        let lo = self.offsets[r as usize] as usize;
        let hi = self.offsets[r as usize + 1] as usize;
        (&self.ids[lo..hi], &self.weights[lo..hi])
    }

    /// Total mass of a distinct row (bit-identical to the source row's
    /// `weights.iter().sum()`).
    pub fn total(&self, r: u32) -> f64 {
        self.totals[r as usize]
    }

    /// [`crate::resemblance`] of two distinct rows.
    pub fn resemblance_rows(&self, a: u32, b: u32) -> f64 {
        resemblance(self.row(a), self.total(a), self.row(b), self.total(b))
    }

    /// [`crate::directed_walk`] of two distinct rows: `a` encodes a
    /// forward row and `b` a backward row, or vice versa (the dot is
    /// symmetric, and f64 multiplication commutes bitwise).
    pub fn dot_rows(&self, a: u32, b: u32) -> f64 {
        directed_walk(self.row(a), self.row(b))
    }

    /// Exact support-overlap matrix over distinct rows, from CSR posting
    /// lists: one count per interned id, a prefix sum, then one fill pass
    /// into a single buffer. Posting lists are deduplicated by content
    /// first: ids sharing the same set of rows (common when rows share
    /// long runs) are marked once instead of once per id.
    pub fn intersections(&self) -> IntersectionMatrix {
        let d = self.rows();
        // `start[n]` counts the rows holding id `n`, then (inclusive
        // prefix sum) ends its posting; the fill walks rows in descending order and
        // pre-decrements, so afterwards `start[n]..start[n + 1]` is id
        // `n`'s posting in ascending row order — content hashes below
        // are canonical.
        let mut start = vec![0u32; self.nodes.len() + 1];
        for &n in &self.ids {
            start[n as usize] += 1;
        }
        let mut acc = 0u32;
        for s in &mut start {
            acc += *s;
            *s = acc;
        }
        let mut postings = vec![0u32; self.ids.len()];
        for r in (0..d as u32).rev() {
            for &n in self.row(r).0 {
                start[n as usize] -= 1;
                postings[start[n as usize] as usize] = r;
            }
        }
        let mut bits = vec![0u64; (d * d).div_ceil(64)];
        let set = |bits: &mut Vec<u64>, a: usize, b: usize| {
            let k = a * d + b;
            bits[k / 64] |= 1u64 << (k % 64);
        };
        // Posting dedup: content hash → newest marked posting, chained
        // through `marked` (posting range, previous marked index).
        let mut seen: FxHashMap<u64, u32> = FxHashMap::default();
        let mut marked: Vec<(usize, usize, u32)> = Vec::new();
        for (&lo, &hi) in start.iter().zip(start.iter().skip(1)) {
            let (lo, hi) = (lo as usize, hi as usize);
            let rows = &postings[lo..hi];
            if rows.len() < 2 {
                continue;
            }
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ rows.len() as u64;
            for &r in rows {
                h = mix(h ^ u64::from(r));
            }
            let head = seen.get(&h).copied().unwrap_or(NONE);
            let mut cand = head;
            while cand != NONE {
                let (m_lo, m_hi, prev) = marked[cand as usize];
                if &postings[m_lo..m_hi] == rows {
                    break; // identical posting already marked
                }
                cand = prev;
            }
            if cand != NONE {
                continue;
            }
            seen.insert(h, marked.len() as u32);
            marked.push((lo, hi, head));
            for (x, &a) in rows.iter().enumerate() {
                for &b in &rows[x + 1..] {
                    set(&mut bits, a as usize, b as usize);
                    set(&mut bits, b as usize, a as usize);
                }
            }
        }
        // A row intersects itself exactly when it is non-empty.
        for r in 0..d {
            if !self.is_empty_row(r as u32) {
                set(&mut bits, r, r);
            }
        }
        IntersectionMatrix { bits, d }
    }
}

/// Two arenas are equal when they hold the same rows bit for bit: the
/// same row assignment, columns, weights and totals (compared by
/// `to_bits`, so signed zeros count) and interning table. Build scratch
/// is not content and is not compared.
impl PartialEq for SetArena {
    fn eq(&self, other: &SetArena) -> bool {
        let bits = |xs: &[f64], ys: &[f64]| {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.row_of == other.row_of
            && self.offsets == other.offsets
            && self.ids == other.ids
            && bits(&self.weights, &other.weights)
            && bits(&self.totals, &other.totals)
            && self.nodes == other.nodes
    }
}

impl Eq for SetArena {}

/// A free-list of [`SetArena`]s reused across similarity stages.
///
/// One similarity stage builds one arena per join path; with per-call
/// construction every resolve re-grows the same five columns from zero.
/// An engine-owned pool instead recycles the columns: [`ArenaPool::take`]
/// pops a previously built arena (or mints an empty one), the stage
/// [`SetArena::rebuild_rows`]s it in place — bit-identical to a fresh build,
/// only capacity survives — and [`ArenaPool::put`] returns it when the
/// stage ends. Behind a `Mutex` because resolves run under `&self`; the
/// lock is touched twice per stage, never inside a kernel loop.
#[derive(Debug, Default)]
pub struct ArenaPool {
    // distinct-lint: shared(free-list handoff: take pops and put pushes under a lock held for that single Vec op; a taken arena is exclusively owned until put back, so no two stages ever alias one)
    free: std::sync::Mutex<Vec<SetArena>>,
}

impl ArenaPool {
    /// An empty pool: the first takes mint empty arenas.
    pub fn new() -> ArenaPool {
        ArenaPool {
            free: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Pop a recycled arena, or mint an empty one when the pool is dry.
    /// Callers must [`SetArena::rebuild_rows`] it before use and should
    /// [`ArenaPool::put`] it back when the stage is done.
    pub fn take(&self) -> SetArena {
        // distinct-lint: allow(D101, reason="a poisoned pool mutex means a kernel stage panicked mid-build; resolve is already unwinding and recycled capacity is unrecoverable")
        if let Some(arena) = self.free.lock().unwrap().pop() {
            return arena;
        }
        // distinct-lint: scratch(pooled per engine: taken at the start of a similarity stage, rebuilt in place over that stage's weighted sets, returned to the free list when the stage ends)
        SetArena::empty()
    }

    /// Return an arena to the free list for the next stage to reuse.
    pub fn put(&self, arena: SetArena) {
        // distinct-lint: allow(D101, reason="a poisoned pool mutex means a kernel stage panicked mid-build; resolve is already unwinding, so losing the returned capacity is the correct degraded behavior")
        self.free.lock().unwrap().push(arena);
    }

    /// Number of arenas currently parked in the free list (diagnostics
    /// and tests; the pool never caps it — it is bounded by the number
    /// of concurrently live stages, i.e. the resolver thread count).
    pub fn parked(&self) -> usize {
        // A poisoned pool reads as empty rather than panicking: this is
        // a diagnostic, not a correctness surface.
        self.free.lock().map(|f| f.len()).unwrap_or(0)
    }
}

/// Symmetric boolean matrix: do two distinct rows share a member?
#[derive(Debug, Clone)]
pub struct IntersectionMatrix {
    bits: Vec<u64>,
    d: usize,
}

impl IntersectionMatrix {
    /// True when rows `a` and `b` share at least one member. For `a == b`
    /// that means the row itself is non-empty.
    pub fn intersects(&self, a: u32, b: u32) -> bool {
        let k = a as usize * self.d + b as usize;
        self.bits[k / 64] & (1u64 << (k % 64)) != 0
    }

    /// Call `f(a, b)` for every intersecting pair with `a <= b`, in
    /// ascending `(a, b)` order, skipping empty words of the bitset.
    pub fn for_each_upper(&self, mut f: impl FnMut(u32, u32)) {
        for a in 0..self.d {
            let (row, end) = (a * self.d, (a + 1) * self.d);
            let mut k = row + a;
            while k < end {
                let word = self.bits[k / 64] >> (k % 64);
                if word == 0 {
                    k = (k / 64 + 1) * 64;
                    continue;
                }
                k += word.trailing_zeros() as usize;
                if k < end {
                    f(a as u32, (k - row) as u32);
                }
                k += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A sorted weighted row.
    type Set = Vec<(NodeId, f64)>;

    /// A canonical row from arbitrary pairs: sorted by node, duplicates
    /// summed in input order, non-positive weights dropped.
    fn set(pairs: &[(u32, f64)]) -> Set {
        let mut sorted = pairs.to_vec();
        sorted.sort_by_key(|&(n, _)| n);
        let mut out: Set = Vec::new();
        for (n, w) in sorted {
            match out.last_mut() {
                Some((m, acc)) if m.0 == n => *acc += w,
                _ => out.push((NodeId(n), w)),
            }
        }
        out.retain(|&(_, w)| w > 0.0);
        out
    }

    fn total(s: &Set) -> f64 {
        s.iter().map(|&(_, w)| w).sum()
    }

    /// True when the two rows share a node.
    fn shares(a: &Set, b: &Set) -> bool {
        a.iter().any(|(n, _)| b.iter().any(|(m, _)| m == n))
    }

    fn columns(s: &Set) -> (Vec<NodeId>, Vec<f64>) {
        s.iter().copied().unzip()
    }

    #[test]
    fn dedup_shares_rows_and_row_of_is_stable() {
        let a = set(&[(1, 0.5), (3, 0.5)]);
        let b = set(&[(2, 1.0)]);
        let a2 = set(&[(1, 0.5), (3, 0.5)]);
        let arena = SetArena::build([a, b, a2]);
        assert_eq!(arena.inputs(), 3);
        assert_eq!(arena.rows(), 2);
        assert_eq!(arena.row_of(0), arena.row_of(2));
        assert_ne!(arena.row_of(0), arena.row_of(1));
        assert_eq!(arena.universe(), 3); // nodes 1, 2, 3
    }

    #[test]
    fn near_identical_weights_do_not_dedup() {
        let a = set(&[(1, 0.5)]);
        let b = set(&[(1, 0.5 + f64::EPSILON)]);
        let arena = SetArena::build([a, b]);
        assert_eq!(arena.rows(), 2);
    }

    #[test]
    fn totals_match_sets_bitwise() {
        let sets = [
            set(&[(1, 0.1), (2, 0.2), (7, 0.7)]),
            set(&[]),
            set(&[(4, 1e-9), (5, 1e9)]),
        ];
        let arena = SetArena::build(sets.clone());
        for (i, s) in sets.iter().enumerate() {
            let t = arena.total(arena.row_of(i));
            assert_eq!(t.to_bits(), total(s).to_bits());
        }
    }

    #[test]
    fn empty_rows_kernel_to_zero_and_do_not_intersect() {
        let arena = SetArena::build([set(&[]), set(&[(1, 1.0)])]);
        let (re, rs) = (arena.row_of(0), arena.row_of(1));
        assert_eq!(arena.resemblance_rows(re, rs), 0.0);
        assert_eq!(arena.resemblance_rows(re, re), 0.0);
        assert_eq!(arena.dot_rows(re, rs), 0.0);
        let m = arena.intersections();
        assert!(!m.intersects(re, rs));
        assert!(!m.intersects(re, re)); // empty row: even self is empty
        assert!(m.intersects(rs, rs));
    }

    #[test]
    fn self_resemblance_is_exactly_one() {
        let arena = SetArena::build([set(&[(1, 0.3), (5, 0.2), (9, 0.5)])]);
        let r = arena.row_of(0);
        // num accumulates the same bits as the total, and t + t − t == t
        // exactly, so the division is t / t == 1.0 with no rounding.
        assert_eq!(arena.resemblance_rows(r, r), 1.0);
    }

    #[test]
    fn intersections_match_brute_force() {
        let sets = [
            set(&[(1, 0.5), (2, 0.5)]),
            set(&[(2, 0.25), (3, 0.75)]),
            set(&[(4, 1.0)]),
            set(&[(1, 0.1), (4, 0.9)]),
            set(&[]),
        ];
        let arena = SetArena::build(sets.clone());
        let m = arena.intersections();
        for i in 0..sets.len() {
            for j in 0..sets.len() {
                let expect = shares(&sets[i], &sets[j]);
                let (ri, rj) = (arena.row_of(i), arena.row_of(j));
                assert_eq!(m.intersects(ri, rj), expect, "({i}, {j})");
            }
        }
    }

    #[test]
    fn rebuild_over_dirty_arena_matches_fresh_build() {
        let first = [
            set(&[(9, 0.25), (11, 0.75)]),
            set(&[(2, 1.0), (3, 0.5), (7, 0.125)]),
            set(&[(9, 0.25), (11, 0.75)]),
        ];
        let second = [set(&[(1, 0.5)]), set(&[])];
        let mut reused = SetArena::build(first.clone());
        reused.rebuild_rows(second.clone());
        assert_eq!(reused, SetArena::build(second));
        // And back again: stale capacity from `second` must not leak.
        reused.rebuild_rows(first.clone());
        assert_eq!(reused, SetArena::build(first));
    }

    #[test]
    fn empty_arena_has_no_rows_or_capacity() {
        let e = SetArena::empty();
        assert_eq!(e.rows(), 0);
        assert_eq!(e.inputs(), 0);
        assert_eq!(e.universe(), 0);
        // `empty()` is the pre-rebuild unit (no heap capacity at all, not
        // even the offsets sentinel); only after a rebuild over zero sets
        // is it field-for-field the same as a fresh `build([])`.
        let mut rebuilt = SetArena::empty();
        rebuilt.rebuild_rows(Vec::<Set>::new());
        assert_eq!(rebuilt, SetArena::build(Vec::<Set>::new()));
    }

    #[test]
    fn pool_recycles_capacity_and_is_bit_transparent() {
        let pool = ArenaPool::new();
        assert_eq!(pool.parked(), 0);
        let sets = [set(&[(1, 0.5), (2, 0.5)]), set(&[(3, 1.0)])];
        let mut a = pool.take(); // dry pool mints an empty arena
        a.rebuild_rows(sets.clone());
        let ids_cap = a.ids.capacity();
        pool.put(a);
        assert_eq!(pool.parked(), 1);
        let mut b = pool.take(); // recycled: same allocation comes back
        assert_eq!(pool.parked(), 0);
        assert!(b.ids.capacity() >= ids_cap);
        b.rebuild_rows(sets.clone());
        assert_eq!(b, SetArena::build(sets));
        pool.put(b);
    }

    proptest! {
        // The load-bearing property: the kernels on interned rows
        // reproduce the kernels on the source rows bit for bit.
        #[test]
        fn resemblance_rows_bit_identical(
            xs in proptest::collection::vec((0u32..32, 1e-6f64..1.0), 0..25),
            ys in proptest::collection::vec((0u32..32, 1e-6f64..1.0), 0..25),
        ) {
            let (a, b) = (set(&xs), set(&ys));
            let arena = SetArena::build([a.clone(), b.clone()]);
            let got = arena.resemblance_rows(arena.row_of(0), arena.row_of(1));
            let (ca, cb) = (columns(&a), columns(&b));
            let want = resemblance((&ca.0[..], &ca.1[..]), total(&a), (&cb.0[..], &cb.1[..]), total(&b));
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }

        // Same for the walk kernel, both row orders (the dot is
        // symmetric: f64 multiplication commutes bitwise).
        #[test]
        fn dot_rows_bit_identical_to_directed_walk(
            xs in proptest::collection::vec((0u32..32, 1e-6f64..1.0), 0..25),
            ys in proptest::collection::vec((0u32..32, 1e-6f64..1.0), 0..25),
        ) {
            let (fwd, bwd) = (set(&xs), set(&ys));
            let arena = SetArena::build([fwd.clone(), bwd.clone()]);
            let got = arena.dot_rows(arena.row_of(0), arena.row_of(1));
            let (cf, cb) = (columns(&fwd), columns(&bwd));
            let want = directed_walk((&cf.0[..], &cf.1[..]), (&cb.0[..], &cb.1[..]));
            prop_assert_eq!(got.to_bits(), want.to_bits());
            let rev = arena.dot_rows(arena.row_of(1), arena.row_of(0));
            prop_assert_eq!(got.to_bits(), rev.to_bits());
        }

        // Interning and flattening round-trip: weights and order survive.
        #[test]
        fn totals_and_dedup_agree_with_sources(
            sets in proptest::collection::vec(
                proptest::collection::vec((0u32..16, 1e-3f64..1.0), 0..10),
                1..8,
            ),
        ) {
            let sets: Vec<Set> = sets.iter().map(|s| set(s)).collect();
            let arena = SetArena::build(sets.clone());
            prop_assert_eq!(arena.inputs(), sets.len());
            for (i, s) in sets.iter().enumerate() {
                prop_assert_eq!(
                    arena.total(arena.row_of(i)).to_bits(),
                    total(s).to_bits()
                );
                // Dedup is exact: equal rows ⟺ equal content.
                for (j, t) in sets.iter().enumerate() {
                    let same_row = arena.row_of(i) == arena.row_of(j);
                    let same_content = s.len() == t.len()
                        && s.iter().zip(t).all(|((n1, w1), (n2, w2))| {
                            n1 == n2 && w1.to_bits() == w2.to_bits()
                        });
                    prop_assert_eq!(same_row, same_content, "{} vs {}", i, j);
                }
            }
        }

        // Pool-reuse soundness on arbitrary inputs: a rebuild over a
        // dirty arena is indistinguishable from a fresh build.
        #[test]
        fn dirty_rebuild_bit_identical_to_fresh(
            first in proptest::collection::vec(
                proptest::collection::vec((0u32..16, 1e-3f64..1.0), 0..10),
                1..6,
            ),
            second in proptest::collection::vec(
                proptest::collection::vec((0u32..16, 1e-3f64..1.0), 0..10),
                1..6,
            ),
        ) {
            let first: Vec<Set> = first.iter().map(|s| set(s)).collect();
            let second: Vec<Set> = second.iter().map(|s| set(s)).collect();
            let mut reused = SetArena::build(first);
            reused.rebuild_rows(second.clone());
            prop_assert_eq!(reused, SetArena::build(second));
        }

        // Exactness of the intersection matrix on arbitrary inputs, over
        // dense ids and over ids spread across 0..1_000_000 (a stride), so
        // the CSR postings are interned across wide gaps.
        #[test]
        fn intersections_exact(
            sets in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 1e-3f64..1.0), 0..8),
                1..24,
            ),
            stride in proptest::option::of(1u32..83_334),
        ) {
            let stride = stride.unwrap_or(1);
            let sets: Vec<Set> = sets
                .iter()
                .map(|s| set(&s.iter().map(|&(n, w)| (n * stride, w)).collect::<Vec<_>>()))
                .collect();
            let arena = SetArena::build(sets.clone());
            let m = arena.intersections();
            for i in 0..sets.len() {
                for j in 0..sets.len() {
                    prop_assert_eq!(
                        m.intersects(arena.row_of(i), arena.row_of(j)),
                        shares(&sets[i], &sets[j])
                    );
                }
            }
            // The upper-triangle walk lists exactly the intersecting
            // pairs, in order, across word boundaries of the bitset.
            let d = arena.rows() as u32;
            let mut listed = Vec::new();
            m.for_each_upper(|a, b| listed.push((a, b)));
            let expect: Vec<(u32, u32)> = (0..d)
                .flat_map(|a| (a..d).map(move |b| (a, b)))
                .filter(|&(a, b)| m.intersects(a, b))
                .collect();
            prop_assert_eq!(listed, expect);
        }
    }
}
