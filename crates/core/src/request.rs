//! Unified request builders for the pipeline entry points.
//!
//! One resolution used to mean picking among six `resolve*` methods whose
//! names encoded which options were set. A [`ResolveRequest`] carries the
//! options instead — threshold override, user constraints, execution
//! limits, worker threads — and a single [`crate::Distinct::resolve`]
//! consumes it. [`TrainRequest`] does the same for training. Both builders
//! borrow their inputs, so building a request allocates nothing beyond the
//! constraint lists.
//!
//! ```text
//! let outcome = engine.resolve(&ResolveRequest::new(&refs)
//!     .min_sim(0.01)
//!     .control(&ctl)
//!     .threads(4));
//! ```

use crate::control::RunControl;
use relstore::TupleRef;
use std::path::Path;
use std::time::Duration;

/// Statistics of one pipeline stage, for speedup reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// Work items the stage set out to process (references, pairs, ...).
    pub tasks: usize,
    /// Items actually processed (equals `tasks` for complete runs).
    pub completed: usize,
    /// Worker threads used (1 = inline on the calling thread).
    pub threads: usize,
    /// Wall-clock time of the stage.
    pub wall: Duration,
    /// Logical-clock time of the stage: [`RunControl`] work units charged
    /// while it ran. Unlike `wall` this is deterministic for a given
    /// input, so benchmark deltas can separate algorithmic work from
    /// machine noise.
    pub logical: u64,
}

impl From<exec::ParStats> for StageStats {
    fn from(s: exec::ParStats) -> Self {
        StageStats {
            tasks: s.tasks,
            completed: s.completed,
            threads: s.threads,
            wall: s.wall,
            logical: 0,
        }
    }
}

/// Per-stage execution statistics of one pipeline run.
///
/// Stages that did not run (e.g. `clustering` in a training report) are
/// left at their zeroed default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecReport {
    /// Profile construction (tasks = references profiled, cached ones
    /// excluded).
    pub profiles: StageStats,
    /// Pairwise similarity features (tasks = reference or training pairs).
    pub similarity: StageStats,
    /// Clustering (tasks = candidate pairs seeded; wall covers the whole
    /// agglomeration including the sequential merge loop).
    pub clustering: StageStats,
    /// Peak resident set size of the process in bytes when the run
    /// finished (`/proc/self/status` VmHWM), `0` where unavailable.
    /// Process-wide, so concurrent runs share one high-water mark.
    pub peak_rss_bytes: u64,
    /// Similarity kernel units scheduled: one unit is one (unordered
    /// reference pair, join path) evaluation covering the pair's
    /// resemblance and both directed walks along that path. Equals
    /// `pairs × paths` whenever the similarity stage ran to completion.
    pub pairs_total: u64,
    /// Kernel units the pruned engine skipped because every kernel value
    /// was provably exactly zero (support-overlap certificate).
    /// Invariant: `pairs_pruned + pairs_exact == pairs_total`.
    pub pairs_pruned: u64,
    /// Kernel units whose exact merge-join kernels were evaluated (or
    /// reused from a content-identical row pair).
    pub pairs_exact: u64,
    /// Always `0`: every resolve builds its tables or restores them from
    /// a durable run, so no kernel unit is copied from an earlier
    /// resolve. Kept, with [`ExecReport::pairs_dirty`], because the
    /// repository's benchmark (`perfbench/`) still reads it.
    pub pairs_cached: u64,
    /// Always `0`, like [`ExecReport::pairs_cached`]: what an update
    /// changed shows in the profile stage instead (`profiles.tasks`
    /// counts the evicted and added references' recomputed profiles).
    pub pairs_dirty: u64,
    /// Distinct neighbor-set rows interned into per-path `SetArena`s
    /// during this run; `0` when the tables were restored from a durable
    /// run's `similarity.ck` instead of built.
    pub arena_rows_interned: u64,
}

impl ExecReport {
    /// Total wall-clock time across the tracked stages.
    pub fn total_wall(&self) -> Duration {
        self.profiles.wall + self.similarity.wall + self.clustering.wall
    }

    /// Total logical-clock work units across the tracked stages.
    pub fn total_logical(&self) -> u64 {
        self.profiles.logical + self.similarity.logical + self.clustering.logical
    }

    /// The widest thread count any stage used.
    pub fn max_threads(&self) -> usize {
        self.profiles
            .threads
            .max(self.similarity.threads)
            .max(self.clustering.threads)
    }
}

/// A resolution request: which references to cluster, under which options.
///
/// Defaults reproduce the plain `resolve` of earlier versions: the
/// engine's configured `min_sim`, no constraints, no execution limits, and
/// the engine's configured thread count.
#[derive(Debug, Clone, Default)]
pub struct ResolveRequest<'a> {
    pub(crate) refs: &'a [TupleRef],
    pub(crate) min_sim: Option<f64>,
    pub(crate) must_link: Vec<(usize, usize)>,
    pub(crate) cannot_link: Vec<(usize, usize)>,
    pub(crate) control: Option<&'a RunControl>,
    pub(crate) threads: Option<usize>,
    pub(crate) run_dir: Option<&'a Path>,
}

impl<'a> ResolveRequest<'a> {
    /// A request to cluster `refs` with all options at their defaults.
    pub fn new(refs: &'a [TupleRef]) -> Self {
        ResolveRequest {
            refs,
            ..Default::default()
        }
    }

    /// The same request as [`ResolveRequest::new`]. Incremental state
    /// lives in the engine's profile cache, which every resolve reads:
    /// after [`crate::Distinct::apply_updates`] a resolve recomputes only
    /// the evicted and added references' profiles and rebuilds the
    /// name's tables. Kept as an alias because the repository's benchmark
    /// (`perfbench/`) still calls it.
    pub fn incremental(refs: &'a [TupleRef]) -> Self {
        Self::new(refs)
    }

    /// Override the clustering threshold for this run only (the baselines'
    /// per-method threshold sweep in Fig. 4).
    pub fn min_sim(mut self, min_sim: f64) -> Self {
        self.min_sim = Some(min_sim);
        self
    }

    /// Require the referenced pairs (indexes into `refs`) to end up in the
    /// same cluster. Semantics follow [`cluster::ConstrainedMerger`].
    pub fn must_link(mut self, pairs: &[(usize, usize)]) -> Self {
        self.must_link.extend_from_slice(pairs);
        self
    }

    /// Forbid the referenced pairs (indexes into `refs`) from sharing a
    /// cluster; vetoes propagate across merges.
    pub fn cannot_link(mut self, pairs: &[(usize, usize)]) -> Self {
        self.cannot_link.extend_from_slice(pairs);
        self
    }

    /// Run under execution limits: cancellation, deadline, and work budget
    /// are honored at chunk boundaries, degrading gracefully (see
    /// [`crate::Degraded`]).
    pub fn control(mut self, ctl: &'a RunControl) -> Self {
        self.control = Some(ctl);
        self
    }

    /// Worker threads for this run, overriding
    /// [`crate::DistinctConfig::threads`]. `0` means "auto" (the
    /// `DISTINCT_THREADS` environment variable if set, else one worker per
    /// core); `1` forces sequential execution. Output is identical for
    /// every value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Make the run durable: the similarity tables and the final
    /// clustering are committed into `run_dir`, and a request repeated
    /// over the same directory skips the stages whose output is
    /// committed. Consumed by
    /// [`crate::Distinct::resolve_durable`]; the plain
    /// [`crate::Distinct::resolve`] ignores it.
    pub fn resume(mut self, run_dir: &'a Path) -> Self {
        self.run_dir = Some(run_dir);
        self
    }

    /// The run directory set by [`ResolveRequest::resume`], if any.
    pub fn run_dir(&self) -> Option<&Path> {
        self.run_dir
    }

    /// The references this request clusters.
    pub fn refs(&self) -> &[TupleRef] {
        self.refs
    }

    /// Whether any must-link / cannot-link constraint is set.
    pub fn is_constrained(&self) -> bool {
        !self.must_link.is_empty() || !self.cannot_link.is_empty()
    }

    /// Why clustering cannot run this request at threshold `min_sim`: a
    /// non-finite threshold, or a constraint pair that names a reference
    /// out of range, links a reference with itself, or is both must-link
    /// and cannot-link (the cases [`cluster::ConstrainedMerger::new`]
    /// asserts on).
    pub(crate) fn check(&self, min_sim: f64) -> Result<(), String> {
        if !min_sim.is_finite() {
            return Err(format!("min_sim must be finite, got {min_sim}"));
        }
        let n = self.refs.len();
        let mut pairs = self.must_link.iter().chain(&self.cannot_link);
        if let Some((a, b)) = pairs.find(|&&(a, b)| a >= n || b >= n || a == b) {
            return Err(format!(
                "constraint pair ({a}, {b}) must name two distinct references below {n}"
            ));
        }
        let unordered = |&(a, b): &(usize, usize)| (a.min(b), a.max(b));
        let cannot: std::collections::HashSet<_> = self.cannot_link.iter().map(unordered).collect();
        if let Some((a, b)) = self
            .must_link
            .iter()
            .find(|p| cannot.contains(&unordered(p)))
        {
            return Err(format!("pair ({a}, {b}) is both must-link and cannot-link"));
        }
        Ok(())
    }
}

/// A training request: how to run automatic training-set construction and
/// weight learning. Defaults reproduce the plain `train()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainRequest<'a> {
    pub(crate) control: Option<&'a RunControl>,
    pub(crate) threads: Option<usize>,
}

impl<'a> TrainRequest<'a> {
    /// A request with all options at their defaults.
    pub fn new() -> Self {
        TrainRequest::default()
    }

    /// Run under execution limits. Training cannot degrade gracefully, so
    /// a tripped limit aborts with [`crate::DistinctError::Interrupted`]
    /// and leaves previously installed weights untouched.
    pub fn control(mut self, ctl: &'a RunControl) -> Self {
        self.control = Some(ctl);
        self
    }

    /// Worker threads for the parallel training stages (profile fan-out,
    /// pair featurization); same semantics as
    /// [`ResolveRequest::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{RelId, TupleId};

    #[test]
    fn builder_accumulates_options() {
        let refs = vec![
            TupleRef::new(RelId(0), TupleId(0)),
            TupleRef::new(RelId(0), TupleId(1)),
        ];
        let ctl = RunControl::new();
        let req = ResolveRequest::new(&refs)
            .min_sim(0.25)
            .must_link(&[(0, 1)])
            .cannot_link(&[])
            .control(&ctl)
            .threads(3);
        assert_eq!(req.refs().len(), 2);
        assert_eq!(req.min_sim, Some(0.25));
        assert!(req.is_constrained());
        assert!(req.control.is_some());
        assert_eq!(req.threads, Some(3));

        let bare = ResolveRequest::new(&refs);
        assert!(!bare.is_constrained());
        assert!(bare.min_sim.is_none());
        assert!(bare.threads.is_none());
    }

    #[test]
    fn exec_report_aggregates() {
        let r = ExecReport {
            profiles: StageStats {
                tasks: 10,
                completed: 10,
                threads: 4,
                wall: Duration::from_millis(7),
                logical: 100,
            },
            similarity: StageStats {
                tasks: 45,
                completed: 45,
                threads: 2,
                wall: Duration::from_millis(3),
                logical: 45,
            },
            clustering: StageStats::default(),
            peak_rss_bytes: 0,
            pairs_total: 45,
            pairs_pruned: 25,
            pairs_exact: 20,
            pairs_cached: 0,
            pairs_dirty: 0,
            arena_rows_interned: 12,
        };
        assert_eq!(r.total_wall(), Duration::from_millis(10));
        assert_eq!(r.total_logical(), 145);
        assert_eq!(r.max_threads(), 4);
        assert_eq!(r.pairs_pruned + r.pairs_exact, r.pairs_total);
    }

    #[test]
    fn resume_builder_carries_the_run_dir() {
        let refs = vec![TupleRef::new(RelId(0), TupleId(0))];
        let dir = Path::new("/tmp/run");
        let req = ResolveRequest::new(&refs).resume(dir);
        assert_eq!(req.run_dir(), Some(dir));
        assert!(ResolveRequest::new(&refs).run_dir().is_none());
    }
}
