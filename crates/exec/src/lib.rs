//! # exec — deterministic parallel execution for the DISTINCT pipeline
//!
//! A small, dependency-free scoped thread pool (`std::thread` + channels)
//! for the pipeline's embarrassingly parallel stages: per-reference
//! probability propagation, the O(n²) pairwise similarity matrix, and
//! training-set feature extraction.
//!
//! The design constraint is **determinism**: clustering output must be
//! bit-identical regardless of thread count. Every primitive here follows
//! the same recipe:
//!
//! 1. the work is split into fixed index ranges (*chunks*) whose
//!    boundaries depend only on the input length — never on timing;
//! 2. workers claim chunks in any order from a shared atomic counter and
//!    compute results into chunk-local buffers;
//! 3. results are **committed in index order** by the caller's thread
//!    after all workers finish (*ordered reduction*).
//!
//! Because the per-item work functions are pure (they read shared
//! immutable state and write only their own output slot), step 3 makes the
//! result a pure function of the input: thread count and scheduling can
//! change wall-clock time, never the answer.
//!
//! Cooperative interruption composes with the same chunking: a `stop`
//! predicate is consulted once per chunk claim, so cancellation and
//! deadline trips propagate to every worker within one chunk of work.
//! Interrupted runs return `None` for unprocessed items — degraded but
//! well-formed results, with a [`ParStats`] recording how far the stage
//! got.
//!
//! A [`Executor::sequential`] executor runs everything inline on the
//! calling thread — with per-item (not per-chunk) stop checks, making
//! single-threaded runs behave exactly like the pre-parallel pipeline.

#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable overriding the worker-thread count (`0` or unset
/// means "one worker per available core").
pub const THREADS_ENV: &str = "DISTINCT_THREADS";

/// How many chunks each worker should see on average: more chunks give
/// better load balancing for skewed per-item costs (a prolific author's
/// profile costs far more than a one-paper author's) at the price of more
/// atomic claims. 4 keeps the claim overhead invisible next to the work.
const CHUNKS_PER_WORKER: usize = 4;

/// Statistics of one parallel stage, for speedup reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParStats {
    /// Items the stage set out to process.
    pub tasks: usize,
    /// Items that produced a result (equals `tasks` for complete runs).
    pub completed: usize,
    /// Worker threads used (1 = inline on the calling thread).
    pub threads: usize,
    /// Wall-clock time of the stage.
    pub wall: Duration,
    /// Whether the `stop` predicate cut the stage short.
    pub stopped: bool,
}

impl ParStats {
    /// Merge two stage statistics (summing work, taking the max thread
    /// count, accumulating wall time).
    pub fn merge(self, other: ParStats) -> ParStats {
        ParStats {
            tasks: self.tasks + other.tasks,
            completed: self.completed + other.completed,
            threads: self.threads.max(other.threads),
            wall: self.wall + other.wall,
            stopped: self.stopped || other.stopped,
        }
    }
}

/// A deterministic parallel executor.
///
/// Cheap to copy; owns no threads between calls — each parallel primitive
/// spawns scoped workers for its own duration, so borrowed inputs need no
/// `'static` bound and a dropped executor leaks nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

impl Executor {
    /// An executor that runs everything inline on the calling thread.
    /// Behavior (including interruption granularity) is identical to the
    /// pre-parallel pipeline.
    pub fn sequential() -> Self {
        Executor { threads: 1 }
    }

    /// An executor with an explicit worker count. `0` means "auto": the
    /// [`THREADS_ENV`] override if set, else one worker per available core.
    pub fn with_threads(threads: usize) -> Self {
        Executor {
            threads: if threads == 0 {
                Self::auto_threads()
            } else {
                threads
            },
        }
    }

    /// An executor sized from the environment: [`THREADS_ENV`] if set to a
    /// positive integer, else one worker per available core.
    pub fn from_env() -> Self {
        Executor {
            threads: Self::auto_threads(),
        }
    }

    /// The "auto" worker count: [`THREADS_ENV`] if set and positive, else
    /// [`std::thread::available_parallelism`] (1 if unknown).
    pub fn auto_threads() -> usize {
        if let Ok(v) = std::env::var(THREADS_ENV) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Worker threads this executor uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this executor runs inline (no worker threads).
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }

    /// Chunk length for `total` items: boundaries depend only on `total`
    /// and the thread count, never on timing.
    fn chunk_len(&self, total: usize) -> usize {
        total.div_ceil(self.threads * CHUNKS_PER_WORKER).max(1)
    }

    /// Map `f` over `items`, interruptibly, committing results in index
    /// order.
    ///
    /// `f(i, &items[i])` returns `None` when the item could not be
    /// processed (e.g. its own finer-grained guard tripped); `stop()` is
    /// consulted before each chunk claim (each item, when sequential) and
    /// `true` abandons all unclaimed work. Unprocessed items come back as
    /// `None`. For complete runs the output is a pure function of `items`
    /// — identical for every thread count.
    pub fn par_map_guarded<I, T>(
        &self,
        items: &[I],
        f: impl Fn(usize, &I) -> Option<T> + Sync,
        stop: impl Fn() -> bool + Sync,
    ) -> (Vec<Option<T>>, ParStats)
    where
        I: Sync,
        T: Send,
    {
        // distinct-lint: allow(D004, reason="wall time feeds ParStats.elapsed reporting only; interruption goes through the stop callback")
        let start = Instant::now();
        let n = items.len();
        let mut out: Vec<Option<T>> = Vec::with_capacity(n);
        let mut stopped = false;
        let threads = self.threads.min(n.max(1));
        if threads <= 1 {
            // Inline, with per-item stop checks: exactly the pre-parallel
            // pipeline's behavior (after a trip, nothing further runs).
            for (i, item) in items.iter().enumerate() {
                if stopped || stop() {
                    stopped = true;
                    out.push(None);
                } else {
                    out.push(f(i, item));
                }
            }
        } else {
            out.resize_with(n, || None);
            let chunk = self.chunk_len(n);
            let n_chunks = n.div_ceil(chunk);
            let next = AtomicUsize::new(0);
            let stop_flag = AtomicBool::new(false);
            let (tx, rx) = mpsc::channel::<(usize, Vec<Option<T>>)>();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let tx = tx.clone();
                    let (next, stop_flag, f, stop) = (&next, &stop_flag, &f, &stop);
                    scope.spawn(move || loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            return;
                        }
                        if stop_flag.load(Ordering::Relaxed) || stop() {
                            stop_flag.store(true, Ordering::Relaxed);
                            return;
                        }
                        let lo = c * chunk;
                        let hi = (lo + chunk).min(n);
                        let local: Vec<Option<T>> = (lo..hi).map(|i| f(i, &items[i])).collect();
                        // A send only fails if the receiver is gone, which
                        // cannot happen while the scope is open.
                        let _ = tx.send((lo, local));
                    });
                }
                drop(tx);
                // Ordered reduction: buffer chunk results as they arrive,
                // then commit below in ascending index order.
                let mut buffered: Vec<(usize, Vec<Option<T>>)> = rx.iter().collect();
                buffered.sort_unstable_by_key(|&(lo, _)| lo);
                for (lo, local) in buffered {
                    for (off, v) in local.into_iter().enumerate() {
                        out[lo + off] = v;
                    }
                }
            });
            stopped = stop_flag.load(Ordering::Relaxed);
        }
        let completed = out.iter().filter(|v| v.is_some()).count();
        let stats = ParStats {
            tasks: n,
            completed,
            threads,
            wall: start.elapsed(),
            stopped,
        };
        (out, stats)
    }

    /// Infallible, uninterruptible [`Executor::par_map_guarded`]: map `f`
    /// over `items` and return the results in index order.
    pub fn par_map_indexed<I, T>(&self, items: &[I], f: impl Fn(usize, &I) -> T + Sync) -> Vec<T>
    where
        I: Sync,
        T: Send,
    {
        let (out, _) = self.par_map_guarded(items, |i, item| Some(f(i, item)), || false);
        out.into_iter()
            // distinct-lint: allow(D002, reason="stop callback is the constant false closure above, so no item can be skipped")
            .map(|v| v.expect("infallible map never skips an item"))
            .collect()
    }

    /// Process the index space `0..total` in chunks, interruptibly,
    /// returning each processed chunk's result **in ascending index
    /// order**. Chunk boundaries depend only on `total` and the thread
    /// count. `stop()` is consulted before each chunk (both sequential and
    /// parallel); chunks abandoned after a stop are simply absent from the
    /// result, and `ParStats::completed` counts the indexes actually
    /// covered.
    pub fn par_chunks<T>(
        &self,
        total: usize,
        f: impl Fn(Range<usize>) -> T + Sync,
        stop: impl Fn() -> bool + Sync,
    ) -> (Vec<(Range<usize>, T)>, ParStats)
    where
        T: Send,
    {
        // distinct-lint: allow(D004, reason="wall time feeds ParStats.elapsed reporting only; interruption goes through the stop callback")
        let start = Instant::now();
        let chunk = self.chunk_len(total);
        let n_chunks = total.div_ceil(chunk);
        let threads = self.threads.min(n_chunks.max(1));
        let mut results: Vec<(Range<usize>, T)> = Vec::with_capacity(n_chunks);
        let mut stopped = false;
        if threads <= 1 {
            for c in 0..n_chunks {
                if stop() {
                    stopped = true;
                    break;
                }
                let range = c * chunk..((c + 1) * chunk).min(total);
                results.push((range.clone(), f(range)));
            }
        } else {
            let next = AtomicUsize::new(0);
            let stop_flag = AtomicBool::new(false);
            let (tx, rx) = mpsc::channel::<(Range<usize>, T)>();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let tx = tx.clone();
                    let (next, stop_flag, f, stop) = (&next, &stop_flag, &f, &stop);
                    scope.spawn(move || loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            return;
                        }
                        if stop_flag.load(Ordering::Relaxed) || stop() {
                            stop_flag.store(true, Ordering::Relaxed);
                            return;
                        }
                        let range = c * chunk..((c + 1) * chunk).min(total);
                        let value = f(range.clone());
                        let _ = tx.send((range, value));
                    });
                }
                drop(tx);
                results.extend(rx.iter());
            });
            results.sort_unstable_by_key(|(r, _)| r.start);
            stopped = stop_flag.load(Ordering::Relaxed);
        }
        let completed = results.iter().map(|(r, _)| r.len()).sum();
        let stats = ParStats {
            tasks: total,
            completed,
            threads,
            wall: start.elapsed(),
            stopped,
        };
        (results, stats)
    }
}

/// A monotonically increasing progress counter shared between a running
/// stage and its [`Watchdog`]. The stage beats it at natural progress
/// points (work charges, checkpoint writes) — one relaxed atomic add, so
/// beating from a hot loop is free; the watchdog thread polls it.
#[derive(Debug, Clone, Default)]
pub struct Heartbeat(Arc<AtomicU64>); // distinct-lint: shared(commutative counter: relaxed beats; the watchdog only compares successive reads)

impl Heartbeat {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one unit of observable progress.
    pub fn beat(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Total beats recorded so far.
    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A background thread that watches a [`Heartbeat`] and fires a callback
/// once when no beat lands for `stall_after` — converting a silently stuck
/// stage (livelocked worker, pathological input) into an explicit,
/// observable event. The run manager wires the callback to trip its
/// `RunControl` with a typed `Stalled` interruption, so a stall degrades
/// the run exactly like any other limit instead of hanging forever.
///
/// The watchdog never kills anything itself: the callback cooperatively
/// signals the watched computation, which unwinds through its ordinary
/// guard checks. Dropping the watchdog stops and joins the thread.
#[derive(Debug)]
pub struct Watchdog {
    // distinct-lint: shared(monotonic flag: set-once stop signal, joined on drop)
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<bool>>,
}

impl Watchdog {
    /// Start watching `heartbeat`. `on_stall` runs on the watchdog thread,
    /// at most once, when `stall_after` elapses with no beat; `poll` sets
    /// the check cadence (and thus the detection slack — a stall is
    /// noticed within `stall_after + poll`).
    pub fn spawn(
        heartbeat: Heartbeat,
        stall_after: Duration,
        poll: Duration,
        on_stall: impl FnOnce() + Send + 'static,
    ) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut last_count = heartbeat.count();
            // distinct-lint: allow(D004, reason="the watchdog exists to observe wall-clock silence; it never influences the computed result, only raises a typed Stalled signal")
            let mut last_beat = Instant::now();
            loop {
                if stop_flag.load(Ordering::Relaxed) {
                    return false;
                }
                std::thread::sleep(poll);
                let count = heartbeat.count();
                if count != last_count {
                    last_count = count;
                    // distinct-lint: allow(D004, reason="stall timer restarts at each observed beat; reporting only, see above")
                    last_beat = Instant::now();
                    continue;
                }
                // distinct-lint: allow(D004, reason="stall detection compares wall-clock silence to the configured threshold; reporting only, see above")
                if Instant::now().duration_since(last_beat) >= stall_after {
                    if !stop_flag.load(Ordering::Relaxed) {
                        on_stall();
                        return true;
                    }
                    return false;
                }
            }
        });
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop watching and join the thread. Returns whether the stall
    /// callback fired.
    pub fn stop(mut self) -> bool {
        self.shutdown()
    }

    fn shutdown(&mut self) -> bool {
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.take() {
            Some(handle) => handle.join().unwrap_or(false),
            None => false,
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Number of unordered pairs `(i, j)` with `i < j < n` — the size of the
/// upper-triangle pair index space used by the similarity stages.
pub fn triangle_count(n: usize) -> usize {
    if n < 2 {
        0
    } else {
        n * (n - 1) / 2
    }
}

/// The `k`-th pair of the upper triangle of an `n × n` matrix, in row-major
/// order: `(0,1), (0,2), …, (0,n-1), (1,2), …`. Lets chunks of the flat
/// pair index space `0..triangle_count(n)` be mapped back to index pairs
/// without any shared iteration state.
///
/// # Panics
/// Panics (in debug builds) if `k >= triangle_count(n)`.
pub fn triangle_pair(n: usize, k: usize) -> (usize, usize) {
    debug_assert!(k < triangle_count(n), "pair index {k} out of range");
    // Pairs preceding row i: off(i) = i·(n−1) − i·(i−1)/2, increasing in i,
    // rearranged so no intermediate underflows at i = 0.
    let off = |i: usize| i * (2 * n - i - 1) / 2;
    let mut lo = 0usize;
    let mut hi = n;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if off(mid) <= k {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, lo + 1 + (k - off(lo)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn triangle_enumeration_is_row_major_and_complete() {
        assert_eq!(triangle_count(0), 0);
        assert_eq!(triangle_count(1), 0);
        assert_eq!(triangle_count(5), 10);
        for n in [2usize, 3, 7, 20] {
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(triangle_pair(n, k), (i, j), "n={n} k={k}");
                    k += 1;
                }
            }
            assert_eq!(k, triangle_count(n));
        }
    }

    #[test]
    fn sequential_and_parallel_maps_agree() {
        let items: Vec<u64> = (0..1000).collect();
        let f = |i: usize, &x: &u64| x * x + i as u64;
        let seq = Executor::sequential().par_map_indexed(&items, f);
        for threads in [2, 3, 8, 33] {
            let par = Executor::with_threads(threads).par_map_indexed(&items, f);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_covers_the_index_space_in_order() {
        for total in [0usize, 1, 7, 64, 1000] {
            for threads in [1, 2, 8] {
                let exec = Executor::with_threads(threads);
                let (chunks, stats) = exec.par_chunks(total, |r| r.clone(), || false);
                assert!(!stats.stopped);
                assert_eq!(stats.tasks, total);
                assert_eq!(stats.completed, total);
                let mut expect = 0usize;
                for (range, echoed) in &chunks {
                    assert_eq!(range, echoed);
                    assert_eq!(range.start, expect, "gap before {range:?}");
                    expect = range.end;
                }
                assert_eq!(expect, total);
            }
        }
    }

    #[test]
    fn stop_predicate_cuts_work_short() {
        let items: Vec<u64> = (0..10_000).collect();
        for threads in [1, 4] {
            let exec = Executor::with_threads(threads);
            // Small enough to fire within the per-chunk stop checks of the
            // parallel path (not just the per-item checks of the
            // sequential one).
            let budget = AtomicU64::new(5);
            let (out, stats) = exec.par_map_guarded(
                &items,
                |_, &x| Some(x),
                || budget.fetch_sub(1, Ordering::Relaxed) == 0,
            );
            assert_eq!(out.len(), items.len());
            assert!(stats.stopped, "threads={threads}");
            assert!(stats.completed < items.len(), "threads={threads}");
            // Completed entries hold their own value; skipped ones None.
            for (i, v) in out.iter().enumerate() {
                if let Some(x) = v {
                    assert_eq!(*x, items[i]);
                }
            }
        }
    }

    #[test]
    fn item_level_failures_do_not_stop_the_stage() {
        let items: Vec<u64> = (0..100).collect();
        let exec = Executor::with_threads(4);
        let (out, stats) =
            exec.par_map_guarded(&items, |_, &x| (x % 3 != 0).then_some(x), || false);
        assert!(!stats.stopped);
        assert_eq!(
            stats.completed,
            items.iter().filter(|&&x| x % 3 != 0).count()
        );
        assert_eq!(out.iter().filter(|v| v.is_none()).count(), 34);
    }

    #[test]
    fn sequential_stop_is_per_item_and_prefix_shaped() {
        // After the stop predicate first fires, *no* later item runs —
        // matching the pre-parallel pipeline's degradation shape.
        let items: Vec<u64> = (0..100).collect();
        let calls = AtomicU64::new(0);
        let (out, stats) = Executor::sequential().par_map_guarded(
            &items,
            |_, &x| Some(x),
            || calls.fetch_add(1, Ordering::Relaxed) >= 10,
        );
        assert!(stats.stopped);
        assert_eq!(stats.completed, 10);
        assert!(out[..10].iter().all(Option::is_some));
        assert!(out[10..].iter().all(Option::is_none));
    }

    #[test]
    fn empty_input() {
        let exec = Executor::with_threads(8);
        let (out, stats) = exec.par_map_guarded(&[] as &[u64], |_, &x| Some(x), || false);
        assert!(out.is_empty());
        assert_eq!(stats.tasks, 0);
        assert!(!stats.stopped);
    }

    #[test]
    fn auto_threads_is_positive_and_zero_means_auto() {
        assert!(Executor::auto_threads() >= 1);
        assert_eq!(
            Executor::with_threads(0).threads(),
            Executor::auto_threads()
        );
        assert!(Executor::sequential().is_sequential());
        assert!(!Executor::with_threads(2).is_sequential());
    }

    #[test]
    fn watchdog_fires_on_silence_and_reports_it() {
        let hb = Heartbeat::new();
        let fired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        let dog = Watchdog::spawn(
            hb,
            Duration::from_millis(40),
            Duration::from_millis(5),
            move || flag.store(true, Ordering::Relaxed),
        );
        // Nobody beats: the stall must be noticed well within the margin.
        std::thread::sleep(Duration::from_millis(300));
        assert!(dog.stop());
        assert!(fired.load(Ordering::Relaxed));
    }

    #[test]
    fn watchdog_stays_quiet_while_beats_arrive() {
        let hb = Heartbeat::new();
        let fired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        let dog = Watchdog::spawn(
            hb.clone(),
            Duration::from_millis(500),
            Duration::from_millis(5),
            move || flag.store(true, Ordering::Relaxed),
        );
        for _ in 0..20 {
            hb.beat();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!dog.stop());
        assert!(!fired.load(Ordering::Relaxed));
        assert_eq!(hb.count(), 20);
    }

    #[test]
    fn dropping_a_watchdog_joins_without_firing() {
        let fired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        let dog = Watchdog::spawn(
            Heartbeat::new(),
            Duration::from_secs(3600),
            Duration::from_millis(5),
            move || flag.store(true, Ordering::Relaxed),
        );
        drop(dog);
        assert!(!fired.load(Ordering::Relaxed));
    }

    #[test]
    fn stats_merge_accumulates() {
        let a = ParStats {
            tasks: 10,
            completed: 8,
            threads: 2,
            wall: Duration::from_millis(5),
            stopped: false,
        };
        let b = ParStats {
            tasks: 5,
            completed: 5,
            threads: 4,
            wall: Duration::from_millis(3),
            stopped: true,
        };
        let m = a.merge(b);
        assert_eq!(m.tasks, 15);
        assert_eq!(m.completed, 13);
        assert_eq!(m.threads, 4);
        assert_eq!(m.wall, Duration::from_millis(8));
        assert!(m.stopped);
    }
}
