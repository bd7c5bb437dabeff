//! The DISTINCT pipeline: prepare → train → resolve.
//!
//! ```text
//! let mut engine = Distinct::prepare(&catalog, "Publish", "author", config)?;
//! engine.train()?;                                  // §3 (or skip: uniform weights)
//! let refs = engine.references_of("Wei Wang");
//! let outcome = engine.resolve(&ResolveRequest::new(&refs));   // §4
//! ```
//!
//! Resolution and training fan their hot stages — profile construction,
//! the pairwise similarity matrix, training-pair featurization — out over
//! an [`exec::Executor`]; output is bit-identical for any thread count
//! (see the `exec` crate docs for the determinism recipe).

use crate::cache::ProfileCache;
use crate::config::{check_min_sim, DistinctConfig, WeightingMode};
use crate::control::{InterruptKind, Progress, RunControl, Stage};
use crate::features::{
    build_profile, build_profile_guarded, empty_profile, resemblance_features, walk_features,
    Profile,
};
use crate::learn::{assemble_datasets, learn_weights_guarded, LearnedModel, PathWeights};
use crate::paths::PathSet;
use crate::refcluster::DistinctMerger;
use crate::request::{ExecReport, ResolveRequest, StageStats, TrainRequest};
use crate::training::{
    build_training_set, featurize_pairs, PairFeatures, TrainingError, TrainingSet,
};
use cluster::{agglomerate_exec, Clustering, ConstrainedMerger, Dendrogram, PartialClustering};
use relgraph::LinkGraph;
use relstore::{Catalog, FxHashMap, StoreError, TupleId, TupleRef, Value};
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;
use svm::SvmError;

/// Errors surfaced by the pipeline.
#[derive(Debug)]
#[allow(missing_docs)] // variant payloads are self-describing
pub enum DistinctError {
    /// Invalid configuration.
    Config(String),
    /// The reference relation/attribute could not be resolved.
    BadReferenceSpec(String),
    /// Underlying store failure.
    Store(StoreError),
    /// Training-set construction failure.
    Training(TrainingError),
    /// SVM training failure.
    Svm(SvmError),
    /// A [`RunControl`] limit stopped an operation that cannot degrade
    /// gracefully (training must either finish or not install weights).
    Interrupted {
        /// The stage that was running when the limit tripped.
        stage: Stage,
        /// Which limit tripped.
        kind: InterruptKind,
        /// How far the stage had progressed.
        progress: Progress,
    },
    /// A checkpoint file failed integrity or compatibility verification;
    /// nothing was installed (see [`crate::checkpoint`]).
    CorruptCheckpoint {
        /// The offending file.
        path: String,
        /// What failed.
        reason: String,
    },
    /// A checkpoint file declares a format version this build does not
    /// understand. Unlike [`DistinctError::CorruptCheckpoint`] the bytes
    /// are intact — they were written by a different (older or newer)
    /// build and must not be reinterpreted under this build's schema.
    VersionMismatch {
        /// The offending file.
        path: String,
        /// The format version the file declares.
        found: u32,
        /// The format version this build reads and writes.
        expected: u32,
    },
}

impl fmt::Display for DistinctError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistinctError::Config(s) => write!(f, "bad configuration: {s}"),
            DistinctError::BadReferenceSpec(s) => write!(f, "bad reference spec: {s}"),
            DistinctError::Store(e) => write!(f, "store error: {e}"),
            DistinctError::Training(e) => write!(f, "training error: {e}"),
            DistinctError::Svm(e) => write!(f, "svm error: {e}"),
            DistinctError::Interrupted {
                stage,
                kind,
                progress,
            } => {
                write!(f, "interrupted ({kind}) during {stage} at {progress}")
            }
            DistinctError::CorruptCheckpoint { path, reason } => {
                write!(f, "corrupt checkpoint `{path}`: {reason}")
            }
            DistinctError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint `{path}` has format version {found}, this build understands {expected}"
            ),
        }
    }
}

impl std::error::Error for DistinctError {}

impl From<StoreError> for DistinctError {
    fn from(e: StoreError) -> Self {
        DistinctError::Store(e)
    }
}
impl From<TrainingError> for DistinctError {
    fn from(e: TrainingError) -> Self {
        DistinctError::Training(e)
    }
}
impl From<SvmError> for DistinctError {
    fn from(e: SvmError) -> Self {
        DistinctError::Svm(e)
    }
}

/// Attach a stage's logical-clock delta ([`RunControl`] units charged
/// while it ran) to its parallel statistics.
fn stage_stats(par: exec::ParStats, logical: u64) -> StageStats {
    let mut s: StageStats = par.into();
    s.logical = logical;
    s
}

/// How a limited [`Distinct::resolve`] run was degraded by its limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degraded {
    /// The stage running when the first limit tripped.
    pub stage: Stage,
    /// Which limit tripped first.
    pub kind: InterruptKind,
    /// Profiles fully computed before profiling was cut off. References
    /// beyond this count were resolved with zero-mass placeholder profiles
    /// and therefore stay singletons.
    pub profiles_computed: usize,
    /// Total references in the resolve call.
    pub refs_total: usize,
    /// Whether the agglomerative merge loop ran to completion. When
    /// `false` the clustering holds only a prefix of the merge sequence —
    /// the highest-similarity merges, since merging is strongest-first.
    pub clustering_completed: bool,
}

impl fmt::Display for Degraded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded ({}) at {}: {}/{} profiles, clustering {}",
            self.kind,
            self.stage,
            self.profiles_computed,
            self.refs_total,
            if self.clustering_completed {
                "completed"
            } else {
                "partial"
            }
        )
    }
}

/// Result of a limit-aware resolution: always a valid clustering over all
/// input references, plus a [`Degraded`] report when a limit tripped.
#[derive(Debug, Clone)]
pub struct ResolveOutcome {
    /// The (possibly partial) clustering; `labels.len()` always equals the
    /// number of input references.
    pub clustering: Clustering,
    /// `None` when the run finished within its limits.
    pub degraded: Option<Degraded>,
    /// Per-stage execution statistics (task counts, threads, wall time).
    pub exec: ExecReport,
}

impl ResolveOutcome {
    /// Whether the run finished within its limits.
    pub fn is_complete(&self) -> bool {
        self.degraded.is_none()
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Names that passed the rare-name uniqueness filter.
    pub unique_names: usize,
    /// Positive / negative pair counts actually used.
    pub positives: usize,
    /// Negative pair count.
    pub negatives: usize,
    /// Training accuracy of the resemblance SVM.
    pub resem_accuracy: f64,
    /// Training accuracy of the walk SVM.
    pub walk_accuracy: f64,
    /// Per-path `(description, resemblance weight, walk weight)`.
    pub path_weights: Vec<(String, f64, f64)>,
    /// Per-stage execution statistics: `profiles` covers the fan-out over
    /// training references, `similarity` the pair featurization;
    /// `clustering` stays zeroed (training does not cluster).
    pub exec: ExecReport,
}

/// The prepared DISTINCT engine.
pub struct Distinct {
    pub(crate) config: DistinctConfig,
    pub(crate) catalog: Catalog,
    pub(crate) graph: LinkGraph,
    pub(crate) paths: PathSet,
    pub(crate) ref_attr_idx: usize,
    pub(crate) weights: PathWeights,
    pub(crate) learned: Option<LearnedModel>,
    pub(crate) profile_cache: ProfileCache,
    /// Bumped whenever the installed weights (or the measure settings a
    /// model import carries) change; cached per-name similarity tables are
    /// only valid for the epoch they were built under.
    pub(crate) weights_epoch: u64,
    /// Per-name incremental state: leaf similarity tables and dirty
    /// marks (see [`crate::update`]). Only
    /// [`ResolveRequest::incremental`] requests read or write it.
    // distinct-lint: shared(exclusive takeout: an entry leaves the map before pool fanout and returns after the ordered commit, so no guard spans a boundary)
    pub(crate) names: parking_lot::Mutex<crate::update::NameCache>,
    /// Recycled [`relgraph::SetArena`]s for the pruned similarity
    /// kernel: each similarity stage takes one arena per join path,
    /// rebuilds it in place, and parks it back here, so repeat resolves
    /// (any name — arenas carry capacity, not content) skip the cold
    /// column growth. Interior locking because `resolve` is `&self`.
    pub(crate) arena_pool: relgraph::ArenaPool,
    /// Reusable phase-2 exclusion sweeper for [`Distinct::apply_updates`]
    /// (which is `&mut self`, so no lock): each batch recompiles it over
    /// its own neighborhood, reusing the previous batch's buffers.
    pub(crate) sweep_scratch: crate::update::ExclusionSweeper,
}

impl Distinct {
    /// Prepare the engine over a catalog.
    ///
    /// `ref_relation.ref_attr` designates the references (a foreign key to
    /// the named-object relation). The input catalog need not be
    /// finalized; if `config.expand_attributes` is set (the default, per
    /// §2.1) a value-expanded copy is analyzed instead.
    pub fn prepare(
        catalog: &Catalog,
        ref_relation: &str,
        ref_attr: &str,
        config: DistinctConfig,
    ) -> Result<Distinct, DistinctError> {
        config.validate().map_err(DistinctError::Config)?;
        let catalog = if config.expand_attributes {
            relstore::expand_values(catalog)?.catalog
        } else {
            let mut c = catalog.clone();
            if !c.is_finalized() {
                c.finalize(false)?;
            }
            c
        };
        let paths = PathSet::build(&catalog, ref_relation, ref_attr, config.max_path_len)
            .ok_or_else(|| {
                DistinctError::BadReferenceSpec(format!(
                    "`{ref_relation}.{ref_attr}` is not a foreign-key reference attribute"
                ))
            })?;
        if paths.is_empty() {
            return Err(DistinctError::BadReferenceSpec(
                "no join paths available from the reference relation".into(),
            ));
        }
        let ref_attr_idx = catalog
            .relation(paths.start)
            .schema()
            .attr_index(ref_attr)
            .ok_or_else(|| {
                DistinctError::BadReferenceSpec(format!(
                    "reference attribute `{ref_attr}` not found in relation schema"
                ))
            })?;
        let graph = LinkGraph::build(&catalog);
        let n_paths = paths.len();
        Ok(Distinct {
            config,
            catalog,
            graph,
            paths,
            ref_attr_idx,
            weights: PathWeights::uniform(n_paths),
            learned: None,
            // distinct-lint: scratch(keyed memo: one profile per reference, computed on demand, shared via Arc, evicted when an update batch dirties the reference)
            profile_cache: ProfileCache::new(),
            weights_epoch: 0,
            // distinct-lint: scratch(per-name takeout: incremental resolves remove a name's entry, patch it unlocked, and reinsert; weight-epoch bumps and update batches invalidate entries)
            names: parking_lot::Mutex::new(crate::update::NameCache::default()),
            // distinct-lint: scratch(engine-owned free list: similarity stages take arenas at start, rebuild them in place, and park them back for the next resolve of any name)
            arena_pool: relgraph::ArenaPool::new(),
            // distinct-lint: scratch(rebuilt per update batch: apply_updates recompiles the phase-1 neighborhood into the same adjacency/index/stamp buffers, clearing content but keeping capacity)
            sweep_scratch: crate::update::ExclusionSweeper::empty(),
        })
    }

    /// The (possibly expanded) catalog under analysis.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The engine configuration.
    pub fn config(&self) -> &DistinctConfig {
        &self.config
    }

    /// The join paths under analysis.
    pub fn paths(&self) -> &PathSet {
        &self.paths
    }

    /// Index of the reference attribute within the reference relation.
    pub fn ref_attr_index(&self) -> usize {
        self.ref_attr_idx
    }

    /// Current per-path weights.
    pub fn weights(&self) -> &PathWeights {
        &self.weights
    }

    /// Override the per-path weights (e.g. to reuse a serialized model).
    ///
    /// Returns an error, and installs nothing, unless the weights cover
    /// exactly the engine's paths and every entry is finite and
    /// non-negative (learned weights are clamped at zero).
    pub fn set_weights(&mut self, weights: PathWeights) -> Result<(), DistinctError> {
        if weights.resem.len() != self.paths.len() || weights.walk.len() != self.paths.len() {
            return Err(DistinctError::Config(format!(
                "weights cover {} paths, engine has {}",
                weights.resem.len(),
                self.paths.len()
            )));
        }
        if let Some(bad) = weights
            .resem
            .iter()
            .chain(&weights.walk)
            .find(|w| !(w.is_finite() && **w >= 0.0))
        {
            return Err(DistinctError::Config(format!(
                "weights must be finite and non-negative, got {bad}"
            )));
        }
        self.weights = weights;
        self.weights_epoch += 1;
        Ok(())
    }

    /// The learned model from the last [`Distinct::train`] call.
    pub fn learned(&self) -> Option<&LearnedModel> {
        self.learned.as_ref()
    }

    /// All references whose value equals `name`.
    pub fn references_of(&self, name: &str) -> Vec<TupleRef> {
        self.catalog
            .relation(self.paths.start)
            .lookup(self.ref_attr_idx, &Value::str(name))
            .into_iter()
            .map(|tid: TupleId| TupleRef::new(self.paths.start, tid))
            .collect()
    }

    /// The profile of a reference (cached).
    pub fn profile(&self, r: TupleRef) -> Arc<Profile> {
        if let Some(p) = self.profile_cache.get(&r) {
            return p;
        }
        let p = Arc::new(build_profile(&self.graph, &self.catalog, &self.paths, r));
        self.profile_cache.insert(r, Arc::clone(&p));
        p
    }

    /// The profile of a reference (cached), charged against `ctl`. Returns
    /// `None` when a control limit trips mid-computation; nothing partial
    /// is cached.
    pub fn profile_ctl(&self, r: TupleRef, ctl: &RunControl) -> Option<Arc<Profile>> {
        if let Some(p) = self.profile_cache.get(&r) {
            return Some(p);
        }
        let p = Arc::new(build_profile_guarded(
            &self.graph,
            &self.catalog,
            &self.paths,
            r,
            &mut ctl.guard(),
        )?);
        self.profile_cache.insert(r, Arc::clone(&p));
        Some(p)
    }

    /// Number of profiles currently cached.
    pub fn cached_profiles(&self) -> usize {
        self.profile_cache.len()
    }

    /// The link graph the engine propagates over.
    pub fn graph(&self) -> &LinkGraph {
        &self.graph
    }

    /// Compute the per-stage intermediates for `refs` exactly as
    /// [`Distinct::resolve`] would: cached profiles, then the leaf
    /// pairwise tables under the current weights, measure, and composite.
    ///
    /// This is the differential-testing observation surface — it lets an
    /// external oracle pin each stage's numbers instead of only the final
    /// clustering. Runs sequentially and unguarded (stage values are
    /// bit-identical for any thread count, so one canonical order
    /// suffices); profiles computed here land in the shared cache, making
    /// this also a deterministic cache-warming primitive for
    /// warm-vs-cold differential runs.
    pub fn stage_probe(&self, refs: &[TupleRef]) -> crate::probe::StageProbe {
        self.stage_probe_with(refs, &relgraph::Resemblance::default())
    }

    /// [`Distinct::stage_probe`] under an explicit similarity kernel —
    /// the hook the oracle differential suite uses to pin
    /// [`relgraph::Resemblance::Exact`] and the pruned default against
    /// each other bit for bit.
    // distinct-lint: allow(D005, reason="documented sequential diagnostic surface outside resolve()'s budget scope")
    pub fn stage_probe_with(
        &self,
        refs: &[TupleRef],
        kernel: &relgraph::Resemblance,
    ) -> crate::probe::StageProbe {
        let profiles: Vec<Arc<Profile>> = refs.iter().map(|&r| self.profile(r)).collect();
        let (merger, _, _) = DistinctMerger::from_profiles_exec(
            &profiles,
            &self.weights,
            self.config.measure,
            self.config.composite,
            kernel,
            &exec::Executor::sequential(),
            &|_| true,
        );
        // distinct-lint: allow(D002, reason="guard is the constant true closure above, so the build can never be refused")
        let merger = merger.expect("permissive guard never stops the matrix build");
        let n = refs.len();
        let mut resemblance = vec![vec![0.0; n]; n];
        let mut walk = vec![vec![0.0; n]; n];
        let mut similarity = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                resemblance[i][j] = merger.leaf_resemblance(i, j);
                walk[i][j] = merger.leaf_walk(i, j);
                similarity[i][j] = cluster::Merger::similarity(&merger, i, j);
            }
        }
        crate::probe::StageProbe {
            profiles,
            resemblance,
            walk,
            similarity,
        }
    }

    /// Snapshot of the profile cache (for checkpointing).
    pub(crate) fn profile_cache_snapshot(&self) -> Vec<(TupleRef, Arc<Profile>)> {
        self.profile_cache.snapshot()
    }

    /// Replace the profile cache wholesale (checkpoint restore).
    pub(crate) fn install_profiles(&mut self, entries: Vec<(TupleRef, Arc<Profile>)>) {
        self.profile_cache.replace(entries);
    }

    /// Drop every cached profile (run-manager memory-budget guard).
    /// Always safe: profiles are pure caches of deterministic computation.
    pub(crate) fn evict_profiles(&self) {
        self.profile_cache.evict_all();
    }

    /// Install a learned model without retraining (checkpoint restore).
    pub(crate) fn install_learned(&mut self, model: Option<LearnedModel>) {
        self.learned = model;
    }

    /// Override the clustering threshold (checkpoint restore).
    pub(crate) fn set_min_sim(&mut self, min_sim: f64) {
        self.config.min_sim = min_sim;
    }

    /// Compute and cache the profiles of `refs` using `threads` worker
    /// threads (profile construction is the pipeline's dominant cost and
    /// is embarrassingly parallel — the engine state it reads is
    /// immutable). A `threads` of 1 computes serially, 0 means auto.
    /// Results are bit-identical to serial computation.
    pub fn precompute_profiles(&self, refs: &[TupleRef], threads: usize) {
        let executor = if threads == 1 {
            exec::Executor::sequential()
        } else {
            exec::Executor::with_threads(threads)
        };
        let ctl = RunControl::new();
        let _ = self.profile_fanout(refs, &executor, &ctl, &ctl.shared_guard());
    }

    /// The executor for one run: an explicit per-request override beats the
    /// engine configuration (where 0 = auto).
    pub(crate) fn executor_for(&self, threads: Option<usize>) -> exec::Executor {
        exec::Executor::with_threads(threads.unwrap_or(self.config.threads))
    }

    /// Fan profile construction for `refs` out over `executor`, charging
    /// `guard` per propagation level and honoring `ctl` at item/chunk
    /// boundaries, and return one profile per input
    /// reference in input order. Cached profiles are reused for free;
    /// freshly computed ones enter the shared cache. References whose
    /// profile could not be computed before a limit tripped get a
    /// zero-mass [`empty_profile`] placeholder, which is never cached — a
    /// later, unconstrained run recomputes the real profile.
    pub(crate) fn profile_fanout(
        &self,
        refs: &[TupleRef],
        executor: &exec::Executor,
        ctl: &RunControl,
        guard: &(dyn Fn(u64) -> bool + Sync),
    ) -> (Vec<Arc<Profile>>, exec::ParStats) {
        // Deduplicated, sorted work list of cache misses: each missing
        // profile is computed exactly once, in an order independent of the
        // caller's reference order.
        let mut todo: Vec<TupleRef> = refs
            .iter()
            .copied()
            .filter(|r| !self.profile_cache.contains(r))
            .collect();
        todo.sort_unstable();
        todo.dedup();
        let (computed, stats) = executor.par_map_guarded(
            &todo,
            |_, &r| {
                let mut g = |units: u64| guard(units);
                build_profile_guarded(&self.graph, &self.catalog, &self.paths, r, &mut g)
                    .map(Arc::new)
            },
            || ctl.status().is_some(),
        );
        for (&r, p) in todo.iter().zip(computed) {
            if let Some(p) = p {
                self.profile_cache.insert(r, p);
            }
        }
        let profiles = refs
            .iter()
            .map(|&r| {
                self.profile_cache
                    .get(&r)
                    .unwrap_or_else(|| Arc::new(empty_profile(&self.paths, r)))
            })
            .collect();
        (profiles, stats)
    }

    /// Build the automatically constructed training set (§3) without
    /// learning — exposed for inspection and experiments.
    pub fn build_training_pairs(&self) -> Result<TrainingSet, DistinctError> {
        let rel_name = self.catalog.relation(self.paths.start).name().to_string();
        let attr_name = self.catalog.relation(self.paths.start).schema().attributes
            [self.ref_attr_idx]
            .name
            .clone();
        Ok(build_training_set(
            &self.catalog,
            &rel_name,
            &attr_name,
            &self.config.training,
        )?)
    }

    /// Construct the training set, learn per-path weights with the SVM,
    /// and install them (§3).
    ///
    /// If the engine is configured with [`WeightingMode::Uniform`] this
    /// still trains (for reporting) but leaves uniform weights installed.
    pub fn train(&mut self) -> Result<TrainingReport, DistinctError> {
        self.train_with(&TrainRequest::new())
    }

    /// Train according to a [`TrainRequest`]. Training cannot degrade
    /// gracefully — a half-trained model would silently misweight every
    /// later resolution — so tripping a limit aborts with
    /// [`DistinctError::Interrupted`] and leaves the previously installed
    /// weights untouched.
    ///
    /// Profile construction, pair featurization and the two SVM fits fan
    /// out over the requested thread count; the learned model is
    /// identical for any.
    pub fn train_with(&mut self, req: &TrainRequest<'_>) -> Result<TrainingReport, DistinctError> {
        let unlimited = RunControl::new();
        let ctl = req.control.unwrap_or(&unlimited);
        let executor = self.executor_for(req.threads);
        let interrupted = |stage, kind, done: usize, total: usize| DistinctError::Interrupted {
            stage,
            kind,
            progress: Progress { done, total },
        };
        if let Some(kind) = ctl.status() {
            return Err(interrupted(Stage::TrainingSet, kind, 0, 0));
        }
        let ts = self.build_training_pairs()?;
        if let Some(kind) = ctl.status() {
            return Err(interrupted(
                Stage::TrainingSet,
                kind,
                ts.pairs.len(),
                ts.pairs.len(),
            ));
        }
        // Every distinct reference in the training pairs, profiled once.
        let mut train_refs: Vec<TupleRef> = ts.pairs.iter().flat_map(|p| [p.a, p.b]).collect();
        train_refs.sort_unstable();
        train_refs.dedup();
        let logical0 = ctl.spent();
        let (profiles, profile_stats) =
            self.profile_fanout(&train_refs, &executor, ctl, &ctl.shared_guard());
        let profile_logical = ctl.spent().saturating_sub(logical0);
        let real = profiles.iter().filter(|p| !p.placeholder).count();
        if real < train_refs.len() {
            let kind = ctl.status().unwrap_or(InterruptKind::Cancelled);
            return Err(interrupted(Stage::Profiles, kind, real, train_refs.len()));
        }
        let by_ref: FxHashMap<TupleRef, Arc<Profile>> =
            train_refs.iter().copied().zip(profiles).collect();
        let logical1 = ctl.spent();
        let (featurized, feature_stats) =
            featurize_pairs(&ts.pairs, &by_ref, &executor, &|| ctl.status().is_some());
        let feature_logical = ctl.spent().saturating_sub(logical1);
        let features: Vec<PairFeatures> = {
            let done = featurized.iter().filter(|f| f.is_some()).count();
            if done < ts.pairs.len() {
                let kind = ctl.status().unwrap_or(InterruptKind::Cancelled);
                return Err(interrupted(Stage::TrainingSet, kind, done, ts.pairs.len()));
            }
            featurized.into_iter().flatten().collect()
        };
        let (resem_data, walk_data) = assemble_datasets(&features).map_err(DistinctError::Svm)?;
        let model = learn_weights_guarded(
            &resem_data,
            &walk_data,
            self.config.training.svm_c,
            self.config.training.seed,
            &executor,
            &ctl.shared_guard(),
        )
        .map_err(|e| match e {
            SvmError::Interrupted { passes_done } => interrupted(
                Stage::SvmTraining,
                ctl.status().unwrap_or(InterruptKind::Cancelled),
                passes_done,
                0,
            ),
            other => DistinctError::Svm(other),
        })?;
        let report = TrainingReport {
            unique_names: ts.unique_names,
            positives: ts.positives,
            negatives: ts.negatives,
            resem_accuracy: model.resem_train_accuracy,
            walk_accuracy: model.walk_train_accuracy,
            path_weights: self
                .paths
                .descriptions
                .iter()
                .cloned()
                .zip(model.weights.resem.iter().copied())
                .zip(model.weights.walk.iter().copied())
                .map(|((d, r), w)| (d, r, w))
                .collect(),
            exec: ExecReport {
                profiles: stage_stats(profile_stats, profile_logical),
                similarity: stage_stats(feature_stats, feature_logical),
                clustering: Default::default(),
                peak_rss_bytes: crate::control::peak_rss_bytes().unwrap_or(0),
                // Training featurizes explicit pairs; the pruned
                // similarity engine (and its accounting) is a resolve
                // concern.
                pairs_total: 0,
                pairs_pruned: 0,
                pairs_exact: 0,
                pairs_cached: 0,
                pairs_dirty: 0,
                names_affected: 0,
                arena_rows_interned: 0,
            },
        };
        if self.config.weighting == WeightingMode::Supervised {
            self.weights = model.weights.clone();
            self.weights_epoch += 1;
        }
        self.learned = Some(model);
        Ok(report)
    }

    /// Calibrate `min_sim` automatically from pseudo-ambiguous groups of
    /// unique names (see [`crate::calibrate`]) and install the selected
    /// threshold. Call after [`Distinct::train`] so the calibration runs
    /// under the final weights.
    ///
    /// Returns `None` (leaving the configured threshold untouched) when too
    /// few unique names exist to synthesize groups.
    pub fn calibrate_threshold(
        &mut self,
        cfg: &crate::calibrate::CalibrationConfig,
    ) -> Result<Option<crate::calibrate::CalibrationResult>, DistinctError> {
        let ts = self.build_training_pairs()?;
        let result = crate::calibrate::calibrate_min_sim(self, &ts.names, cfg);
        if let Some(r) = &result {
            self.config.min_sim = r.min_sim;
        }
        Ok(result)
    }

    /// Cluster a set of references (§4) according to a [`ResolveRequest`]:
    /// the configured measure, weighting, and composite, with the request's
    /// threshold / constraints / limits / threads applied on top.
    ///
    /// Resolution always has a meaningful partial answer, so a limited run
    /// never errors: references whose profiles could not be computed in
    /// time stay singletons (their pairwise similarities are zero, below
    /// any positive `min_sim`); a similarity matrix cut short degrades the
    /// whole result to singletons (a partially populated matrix would bias
    /// the clustering); an interrupted merge loop keeps the merges already
    /// made — the strongest-evidence ones, since merging proceeds in
    /// decreasing similarity order. The outcome is always a valid
    /// clustering over all requested references, tagged with a
    /// [`Degraded`] report when any limit tripped, plus an [`ExecReport`]
    /// with per-stage task counts and wall times.
    ///
    /// A request built with [`ResolveRequest::incremental`] over exactly
    /// one name's current references uses that name's cached tables (see
    /// [`crate::update`]): clean pairs are copied and only dirty pairs are
    /// re-scored. A cold or stale cache entry builds the tables instead.
    /// Either way the fresh tables go back into the cache, and they, and
    /// so the partition and every merge, equal a batch resolve's bit for
    /// bit.
    pub fn resolve(&self, req: &ResolveRequest<'_>) -> ResolveOutcome {
        let unlimited = RunControl::new();
        let ctl = req.control.unwrap_or(&unlimited);
        let source = match req.incremental.then(|| self.cached_name(req.refs)) {
            Some(Some(name)) => TableSource::Cached(name),
            _ => TableSource::Built,
        };
        let Ok(outcome) = self.resolve_staged(req, ctl, None, source, |_| Ok::<(), Infallible>(()));
        outcome
    }

    /// The one resolve driver, behind [`Distinct::resolve`] and
    /// [`Distinct::resolve_durable_with`]: profiles, then the pairwise
    /// similarity tables from `source`, then agglomerative clustering,
    /// with the trip bookkeeping, the singleton fallback and the
    /// [`ExecReport`] in one place.
    ///
    /// Every stage charges its work against `ctl`, and each charge also
    /// beats `heartbeat` when one is given (the durable path's watchdog
    /// listens to it). `commit_tables` gets freshly built or patched
    /// tables when no stage has tripped; its error aborts the run before
    /// clustering. A [`TableSource::Cached`] run puts the same fresh
    /// tables back into the name cache after clustering.
    pub(crate) fn resolve_staged<E>(
        &self,
        req: &ResolveRequest<'_>,
        ctl: &RunControl,
        heartbeat: Option<&exec::Heartbeat>,
        source: TableSource,
        commit_tables: impl FnOnce(&DistinctMerger) -> Result<(), E>,
    ) -> Result<ResolveOutcome, E> {
        let charge = ctl.shared_guard();
        let guard = |units: u64| {
            if let Some(heartbeat) = heartbeat {
                heartbeat.beat();
            }
            charge(units)
        };
        let n = req.refs.len();
        let min_sim = req.min_sim.unwrap_or(self.config.min_sim);
        let executor = self.executor_for(req.threads);
        // The first stage a limit cuts short names the degradation.
        let mut trip: Option<(Stage, InterruptKind)> = None;
        let tripped = |trip: &mut Option<(Stage, InterruptKind)>, stage: Stage| {
            trip.get_or_insert_with(|| (stage, ctl.status().unwrap_or(InterruptKind::Cancelled)));
        };

        let mut profiles_computed = n;
        let (mut profile_stats, mut profile_logical) = (exec::ParStats::default(), 0);
        let (mut matrix_stats, mut similarity_logical) = (exec::ParStats::default(), 0);
        let mut pair_counters = crate::refcluster::PairCounters::default();
        let mut pairs_dirty = 0;
        // The name whose cache entry takes the tables back, once they are
        // known to be complete.
        let mut keep_as = None;
        let merger = match source {
            TableSource::Restored(tables) => Some(tables),
            source => {
                // Stage 1: profiles (placeholders for anything a limit
                // cut off).
                let logical0 = ctl.spent();
                let (profiles, stats) = self.profile_fanout(req.refs, &executor, ctl, &guard);
                profile_stats = stats;
                profile_logical = ctl.spent().saturating_sub(logical0);
                profiles_computed = profiles.iter().filter(|p| !p.placeholder).count();
                if profiles_computed < n {
                    tripped(&mut trip, Stage::Profiles);
                }

                // Stage 2: pairwise similarity tables, patched from a warm
                // cache entry only over real profiles, built otherwise.
                let logical1 = ctl.spent();
                let name = match source {
                    TableSource::Cached(name) => Some(name),
                    _ => None,
                };
                let entry = name
                    .as_deref()
                    .filter(|_| profiles_computed == n)
                    .and_then(|name| self.take_name_entry(name, req.refs));
                let (built, stats, counters) = match entry {
                    Some(entry) => {
                        let patched = self.patch_tables(entry, req.refs, &profiles, &guard);
                        pairs_dirty = patched.2.exact;
                        patched
                    }
                    None => DistinctMerger::from_profiles_pooled(
                        &profiles,
                        &self.weights,
                        self.config.measure,
                        self.config.composite,
                        &req.resemblance,
                        &executor,
                        &guard,
                        &self.arena_pool,
                    ),
                };
                matrix_stats = stats;
                similarity_logical = ctl.spent().saturating_sub(logical1);
                pair_counters = counters;
                if let (Some(tables), None) = (&built, trip) {
                    commit_tables(tables)?;
                    keep_as = name;
                }
                built
            }
        };

        // Stage 3: agglomerative clustering, wrapped in user constraints
        // when any are present.
        // distinct-lint: allow(D004, reason="wall time feeds ExecReport stage timings only; control flow stays with RunControl")
        let clock = Instant::now();
        let logical2 = ctl.spent();
        let (partial, mut cluster_stats, clustered) = match merger {
            Some(inner) if req.is_constrained() => {
                let mut constrained =
                    ConstrainedMerger::new(inner, n, &req.must_link, &req.cannot_link);
                let (partial, stats) =
                    agglomerate_exec(n, &mut constrained, min_sim, &executor, &guard);
                (partial, stats, Some(constrained.into_inner()))
            }
            Some(mut inner) => {
                let (partial, stats) = agglomerate_exec(n, &mut inner, min_sim, &executor, &guard);
                (partial, stats, Some(inner))
            }
            None => {
                // The matrix build was cut short: every reference stays a
                // singleton (an empty dendrogram cut below any threshold).
                tripped(&mut trip, Stage::SimilarityMatrix);
                let dendrogram = Dendrogram::new(n);
                let labels = dendrogram.cut(f64::NEG_INFINITY);
                let clustering = Clustering { labels, dendrogram };
                let stats = exec::ParStats {
                    threads: 1,
                    ..Default::default()
                };
                (
                    PartialClustering {
                        clustering,
                        completed: false,
                    },
                    stats,
                    None,
                )
            }
        };
        cluster_stats.wall = clock.elapsed();
        let clustering_logical = ctl.spent().saturating_sub(logical2);
        if !partial.completed {
            tripped(&mut trip, Stage::Clustering);
        }
        if let (Some(name), Some(tables)) = (keep_as, clustered) {
            self.put_name_entry(name, req.refs, tables);
        }
        let degraded = trip.map(|(stage, kind)| Degraded {
            stage,
            kind,
            profiles_computed,
            refs_total: n,
            clustering_completed: partial.completed,
        });
        Ok(ResolveOutcome {
            clustering: partial.clustering,
            degraded,
            exec: ExecReport {
                profiles: stage_stats(profile_stats, profile_logical),
                similarity: stage_stats(matrix_stats, similarity_logical),
                clustering: stage_stats(cluster_stats, clustering_logical),
                peak_rss_bytes: crate::control::peak_rss_bytes().unwrap_or(0),
                pairs_total: pair_counters.total,
                pairs_pruned: pair_counters.pruned,
                pairs_exact: pair_counters.exact,
                pairs_cached: pair_counters.cached,
                pairs_dirty,
                names_affected: u64::from(pairs_dirty > 0),
                arena_rows_interned: pair_counters.interned,
            },
        })
    }

    /// Calibrated probability that two references denote the same entity,
    /// combining the trained resemblance and walk models through their
    /// Platt scalers. Returns `None` before training.
    pub fn pair_probability(&self, a: TupleRef, b: TupleRef) -> Option<f64> {
        let learned = self.learned.as_ref()?;
        let pa = self.profile(a);
        let pb = self.profile(b);
        Some(learned.pair_probability(&resemblance_features(&pa, &pb), &walk_features(&pa, &pb)))
    }

    /// Export the trained state (configuration + weights + path
    /// descriptions) as JSON. Returns `None` before training.
    pub fn export_model(&self) -> Option<String> {
        let learned = self.learned.as_ref()?;
        let saved = SavedModel {
            config: self.config.clone(),
            weights: self.weights.clone(),
            paths: self.paths.descriptions.clone(),
            resem_train_accuracy: learned.resem_train_accuracy,
            walk_train_accuracy: learned.walk_train_accuracy,
        };
        serde_json::to_string_pretty(&saved).ok()
    }

    /// Import a model exported by [`Distinct::export_model`] into this
    /// engine. The path descriptions must match exactly — a model is only
    /// valid for the schema (and path enumeration settings) it was trained
    /// on. A refused model leaves the engine exactly as it was.
    pub fn import_model(&mut self, json: &str) -> Result<(), DistinctError> {
        let saved: SavedModel = serde_json::from_str(json)
            .map_err(|e| DistinctError::Config(format!("unparseable model: {e}")))?;
        if saved.paths != self.paths.descriptions {
            return Err(DistinctError::Config(
                "model was trained on a different join-path set".into(),
            ));
        }
        check_min_sim(saved.config.min_sim).map_err(DistinctError::Config)?;
        // The last check: `set_weights` installs nothing unless it succeeds.
        self.set_weights(saved.weights)?;
        self.config.min_sim = saved.config.min_sim;
        self.config.measure = saved.config.measure;
        self.config.composite = saved.config.composite;
        Ok(())
    }
}

/// Where [`Distinct::resolve_staged`] gets a run's leaf similarity tables.
pub(crate) enum TableSource {
    /// The profile and similarity stages build them.
    Built,
    /// Tables a durable run committed (`similarity.ck`): the profile and
    /// similarity stages are skipped.
    Restored(DistinctMerger),
    /// The name cache's entry for this name (see [`crate::update`]):
    /// after the profile stage, a warm entry is taken out and
    /// [`Distinct::patch_tables`] copies its clean pairs and re-scores the
    /// dirty ones. A missing or stale entry, or a profile stage cut short,
    /// builds instead. Complete tables go back under the name after
    /// clustering.
    Cached(String),
}

/// On-disk form of a trained engine (see [`Distinct::export_model`]).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct SavedModel {
    config: DistinctConfig,
    weights: PathWeights,
    paths: Vec<String>,
    resem_train_accuracy: f64,
    walk_train_accuracy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MeasureMode;
    use datagen::{AmbiguousSpec, World, WorldConfig};
    use eval::pairwise_scores;

    fn dataset() -> datagen::DblpDataset {
        let mut config = WorldConfig::tiny(21);
        config.ambiguous = vec![
            AmbiguousSpec::new("Wei Wang", vec![10, 8, 5]),
            AmbiguousSpec::new("Hui Fang", vec![5, 4]),
        ];
        datagen::to_catalog(&World::generate(config)).unwrap()
    }

    fn small_training() -> crate::config::TrainingConfig {
        crate::config::TrainingConfig {
            positives: 80,
            negatives: 80,
            ..Default::default()
        }
    }

    #[test]
    fn prepare_validates_inputs() {
        let d = dataset();
        let mut bad = DistinctConfig::default();
        bad.max_path_len = 0;
        assert!(matches!(
            Distinct::prepare(&d.catalog, "Publish", "author", bad),
            Err(DistinctError::Config(_))
        ));
        assert!(matches!(
            Distinct::prepare(&d.catalog, "Nope", "author", DistinctConfig::default()),
            Err(DistinctError::BadReferenceSpec(_))
        ));
    }

    #[test]
    fn prepare_exposes_paths_and_uniform_weights() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        assert!(!engine.paths().is_empty());
        assert_eq!(engine.weights().path_count(), engine.paths().len());
        assert!(engine.learned().is_none());
        let sum: f64 = engine.weights().resem.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn references_of_finds_planted_name() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        let refs = engine.references_of("Wei Wang");
        assert_eq!(refs.len(), 23);
        assert!(engine.references_of("Nobody Here").is_empty());
    }

    #[test]
    fn profiles_are_cached() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        let r = engine.references_of("Wei Wang")[0];
        assert_eq!(engine.cached_profiles(), 0);
        let p1 = engine.profile(r);
        let p2 = engine.profile(r);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(engine.cached_profiles(), 1);
    }

    #[test]
    fn stage_probe_matches_resolution_and_warms_the_cache() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        let refs = engine.references_of("Hui Fang");
        assert_eq!(engine.cached_profiles(), 0);
        let probe = engine.stage_probe(&refs);
        assert_eq!(engine.cached_profiles(), refs.len());
        assert_eq!(probe.len(), refs.len());
        let n = refs.len();
        for i in 0..n {
            assert_eq!(probe.similarity[i][i], 0.0);
            for j in 0..n {
                if i == j {
                    continue;
                }
                assert_eq!(probe.resemblance[i][j], probe.resemblance[j][i]);
                assert_eq!(probe.walk[i][j], probe.walk[j][i]);
                assert_eq!(probe.similarity[i][j], probe.similarity[j][i]);
            }
        }
        // The probe's similarities are exactly what resolve merges on:
        // every recorded merge of two leaves must use a probed value.
        let outcome = engine.resolve(&ResolveRequest::new(&refs));
        for m in outcome.clustering.dendrogram.merges() {
            if m.a < n && m.b < n {
                assert_eq!(m.similarity, probe.similarity[m.a][m.b]);
            }
        }
    }

    #[test]
    fn training_learns_informative_weights() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        let report = engine.train().unwrap();
        assert!(report.unique_names >= 2);
        assert_eq!(report.positives, 80);
        assert_eq!(report.negatives, 80);
        // Hard, realistic training data: an author's two papers often share
        // nothing, so accuracies well above chance (not near 1.0) are the
        // expected regime.
        assert!(
            report.resem_accuracy > 0.6,
            "resem acc {}",
            report.resem_accuracy
        );
        assert!(
            report.walk_accuracy > 0.55,
            "walk acc {}",
            report.walk_accuracy
        );
        // Weights are installed and normalized.
        let sum: f64 = engine.weights().resem.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(engine.learned().is_some());
        // The coauthor-flavored path family (through sibling Publish
        // records) must dominate the resemblance weights.
        let coauthor_family: f64 = report
            .path_weights
            .iter()
            .filter(|(d, _, _)| d.contains("<-[paper_key] Publish"))
            .map(|(_, r, _)| r)
            .sum();
        assert!(
            coauthor_family > 0.2,
            "coauthor-family resem weight {coauthor_family}"
        );
    }

    #[test]
    fn uniform_mode_trains_but_keeps_uniform_weights() {
        let d = dataset();
        let config = DistinctConfig {
            weighting: WeightingMode::Uniform,
            training: small_training(),
            ..Default::default()
        };
        let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        let before = engine.weights().clone();
        engine.train().unwrap();
        assert_eq!(engine.weights(), &before);
        assert!(engine.learned().is_some());
    }

    #[test]
    fn end_to_end_distinguishes_planted_entities() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        engine.train().unwrap();
        let truth = &d.truths[0];
        let outcome = engine.resolve(&ResolveRequest::new(&truth.refs));
        assert!(outcome.is_complete());
        assert_eq!(outcome.exec.profiles.tasks, truth.refs.len());
        assert_eq!(
            outcome.exec.similarity.tasks,
            truth.refs.len() * (truth.refs.len() - 1) / 2
        );
        let scores = pairwise_scores(&truth.labels, &outcome.clustering.labels);
        assert!(
            scores.f_measure > 0.75,
            "f-measure {} (p {}, r {})",
            scores.f_measure,
            scores.precision,
            scores.recall
        );
    }

    #[test]
    fn set_weights_validates_dimension() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        assert!(engine.set_weights(PathWeights::uniform(1)).is_err());
        let n = engine.paths().len();
        assert!(engine.set_weights(PathWeights::uniform(n)).is_ok());
    }

    #[test]
    fn set_weights_refuses_non_finite_and_negative_entries() {
        let d = dataset();
        let mut engine =
            Distinct::prepare(&d.catalog, "Publish", "author", DistinctConfig::default()).unwrap();
        let n = engine.paths().len();
        let before = engine.weights().clone();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut resem = PathWeights::uniform(n);
            resem.resem[0] = bad;
            let mut walk = PathWeights::uniform(n);
            walk.walk[n - 1] = bad;
            for w in [resem, walk] {
                assert!(
                    matches!(engine.set_weights(w), Err(DistinctError::Config(_))),
                    "{bad} accepted"
                );
                assert_eq!(engine.weights(), &before);
            }
        }
        // Zero is a legal weight: learned weights are clamped there.
        let mut zero = PathWeights::uniform(n);
        zero.resem[0] = 0.0;
        assert!(engine.set_weights(zero).is_ok());
    }

    #[test]
    fn a_refused_model_import_leaves_the_engine_unchanged() {
        let d = dataset();
        let mut engine =
            Distinct::prepare(&d.catalog, "Publish", "author", DistinctConfig::default()).unwrap();
        let n = engine.paths().len();
        let paths = engine.paths().descriptions.clone();
        let model = |min_sim: f64, weights: PathWeights| {
            let saved = SavedModel {
                config: DistinctConfig {
                    min_sim,
                    measure: MeasureMode::RandomWalk,
                    ..Default::default()
                },
                weights,
                paths: paths.clone(),
                resem_train_accuracy: 0.9,
                walk_train_accuracy: 0.9,
            };
            serde_json::to_string(&saved).unwrap()
        };
        let negative = PathWeights {
            resem: vec![-1.0; n],
            ..PathWeights::uniform(n)
        };
        let cases = [
            (
                "weights for another path count",
                model(0.5, PathWeights::uniform(n + 1)),
            ),
            ("negative weights", model(0.5, negative)),
            ("NaN threshold", model(f64::NAN, PathWeights::uniform(n))),
            ("negative threshold", model(-0.5, PathWeights::uniform(n))),
        ];
        let config = engine.config().clone();
        let weights = engine.weights().clone();
        for (what, json) in cases {
            assert!(
                matches!(engine.import_model(&json), Err(DistinctError::Config(_))),
                "{what} accepted"
            );
            assert_eq!(engine.config().min_sim.to_bits(), config.min_sim.to_bits());
            assert_eq!(engine.config().measure, config.measure, "{what}");
            assert_eq!(engine.weights(), &weights, "{what}");
        }
        engine
            .import_model(&model(0.5, PathWeights::uniform(n)))
            .unwrap();
        assert_eq!(engine.config().min_sim, 0.5);
        assert_eq!(engine.config().measure, MeasureMode::RandomWalk);
    }

    #[test]
    fn min_sim_extremes() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        let refs = engine.references_of("Wei Wang");
        // Impossibly high threshold: all singletons.
        let c = engine
            .resolve(&ResolveRequest::new(&refs).min_sim(10.0))
            .clustering;
        assert_eq!(c.cluster_count(), refs.len());
        // Zero-ish threshold merges anything with positive similarity:
        // far fewer clusters.
        let c = engine
            .resolve(&ResolveRequest::new(&refs).min_sim(1e-12))
            .clustering;
        assert!(c.cluster_count() < refs.len());
    }

    #[test]
    fn constrained_resolution_honors_user_feedback() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        engine.train().unwrap();
        let truth = &d.truths[0];
        let unconstrained = engine.resolve(&ResolveRequest::new(&truth.refs)).clustering;

        // Cannot-link two references that the unconstrained run merged.
        let groups = unconstrained.groups();
        let merged_group = groups.iter().find(|g| g.len() >= 2).expect("some merge");
        let (a, b) = (merged_group[0], merged_group[1]);
        let c = engine
            .resolve(&ResolveRequest::new(&truth.refs).cannot_link(&[(a, b)]))
            .clustering;
        assert_ne!(c.labels[a], c.labels[b]);

        // Must-link two references the unconstrained run separated.
        let (x, y) = {
            let mut found = None;
            'outer: for i in 0..truth.refs.len() {
                for j in (i + 1)..truth.refs.len() {
                    if unconstrained.labels[i] != unconstrained.labels[j] {
                        found = Some((i, j));
                        break 'outer;
                    }
                }
            }
            found.expect("some separated pair")
        };
        let c = engine
            .resolve(&ResolveRequest::new(&truth.refs).must_link(&[(x, y)]))
            .clustering;
        assert_eq!(c.labels[x], c.labels[y]);
    }

    #[test]
    fn model_export_import_round_trip() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let mut trained =
            Distinct::prepare(&d.catalog, "Publish", "author", config.clone()).unwrap();
        assert!(trained.export_model().is_none(), "no model before training");
        trained.train().unwrap();
        let json = trained.export_model().unwrap();

        let mut fresh = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        fresh.import_model(&json).unwrap();
        assert_eq!(fresh.weights(), trained.weights());
        let truth = &d.truths[0];
        assert_eq!(
            fresh
                .resolve(&ResolveRequest::new(&truth.refs))
                .clustering
                .labels,
            trained
                .resolve(&ResolveRequest::new(&truth.refs))
                .clustering
                .labels
        );

        // A model for a different path set is rejected.
        let mut shallow = Distinct::prepare(
            &d.catalog,
            "Publish",
            "author",
            DistinctConfig {
                max_path_len: 2,
                training: small_training(),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(
            shallow.import_model(&json),
            Err(DistinctError::Config(_))
        ));
        assert!(fresh.import_model("not json").is_err());
    }

    #[test]
    fn pair_probability_orders_same_vs_cross_entity_pairs() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        assert!(engine
            .pair_probability(d.truths[0].refs[0], d.truths[0].refs[1])
            .is_none());
        engine.train().unwrap();
        let truth = &d.truths[0];
        // Average probability over same-entity pairs must exceed the
        // average over cross-entity pairs, and all values must be valid
        // probabilities.
        let (mut same, mut cross) = (Vec::new(), Vec::new());
        for i in 0..truth.refs.len() {
            for j in (i + 1)..truth.refs.len() {
                let p = engine
                    .pair_probability(truth.refs[i], truth.refs[j])
                    .unwrap();
                assert!((0.0..=1.0).contains(&p), "p = {p}");
                if truth.labels[i] == truth.labels[j] {
                    same.push(p);
                } else {
                    cross.push(p);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&same) > mean(&cross),
            "same-entity mean P {} vs cross {}",
            mean(&same),
            mean(&cross)
        );
    }

    #[test]
    fn empty_and_singleton_reference_sets() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        let empty = engine.resolve(&ResolveRequest::new(&[])).clustering;
        assert!(empty.labels.is_empty());
        assert_eq!(empty.cluster_count(), 0);
        let one = engine
            .resolve(&ResolveRequest::new(&d.truths[0].refs[..1]))
            .clustering;
        assert_eq!(one.labels, vec![0]);
        assert_eq!(one.cluster_count(), 1);
    }

    #[test]
    fn unexpanded_mode_still_works() {
        // expand_attributes = false: only the raw FK paths exist
        // (no pseudo-value relations), but the pipeline must run end to end.
        let d = dataset();
        let config = DistinctConfig {
            expand_attributes: false,
            training: small_training(),
            ..Default::default()
        };
        let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        // No pseudo-relations in the analyzed catalog.
        assert!(
            engine.paths().descriptions.iter().all(|p| !p.contains('#')),
            "{:?}",
            engine.paths().descriptions
        );
        engine.train().unwrap();
        let truth = &d.truths[0];
        let c = engine.resolve(&ResolveRequest::new(&truth.refs)).clustering;
        assert_eq!(c.labels.len(), truth.refs.len());
        let s = pairwise_scores(&truth.labels, &c.labels);
        assert!(s.f_measure > 0.3, "f {}", s.f_measure);
    }

    #[test]
    fn unlimited_control_resolve_matches_plain_resolve() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        engine.train().unwrap();
        let truth = &d.truths[0];
        let plain = engine.resolve(&ResolveRequest::new(&truth.refs)).clustering;
        let ctl = RunControl::new();
        let outcome = engine.resolve(&ResolveRequest::new(&truth.refs).control(&ctl));
        assert!(outcome.is_complete());
        assert_eq!(outcome.clustering.labels, plain.labels);
    }

    #[test]
    fn tight_budget_resolve_degrades_without_panicking() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        let refs = engine.references_of("Wei Wang");
        // Budgets from starvation up to generous: every run must return a
        // full-length, valid partition and report degradation iff it was
        // actually cut short.
        for budget in [0, 1, 10, 100, 1_000, 100_000_000] {
            let ctl = RunControl::new().with_budget(budget);
            let outcome = engine.resolve(&ResolveRequest::new(&refs).control(&ctl));
            assert_eq!(outcome.clustering.labels.len(), refs.len());
            let k = outcome.clustering.cluster_count();
            assert!(k >= 1 && k <= refs.len());
            if let Some(d) = &outcome.degraded {
                assert_eq!(d.kind, InterruptKind::BudgetExhausted);
                assert_eq!(d.refs_total, refs.len());
                assert!(d.profiles_computed <= refs.len());
                if d.stage == Stage::Clustering {
                    // Profiling finished; only the merge loop was cut.
                    assert_eq!(d.profiles_computed, refs.len());
                    assert!(!d.clustering_completed);
                }
                let shown = d.to_string();
                assert!(shown.contains("work budget exhausted"), "{shown}");
            }
        }
        // Starvation budget on a *fresh* engine (the loop above filled the
        // shared profile cache, and cached profiles are free): nothing
        // profiles, everything stays singleton.
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let fresh = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        let ctl = RunControl::new().with_budget(0);
        let outcome = fresh.resolve(&ResolveRequest::new(&refs).control(&ctl));
        let deg = outcome.degraded.expect("zero budget must degrade");
        assert_eq!(deg.stage, Stage::Profiles);
        assert_eq!(deg.profiles_computed, 0);
        assert_eq!(outcome.clustering.cluster_count(), refs.len());
    }

    #[test]
    fn cancelled_resolve_still_returns_full_partition() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        let refs = engine.references_of("Hui Fang");
        let ctl = RunControl::new();
        ctl.token().cancel();
        let outcome = engine.resolve(&ResolveRequest::new(&refs).control(&ctl));
        assert_eq!(outcome.clustering.labels.len(), refs.len());
        let deg = outcome.degraded.expect("cancelled run must degrade");
        assert_eq!(deg.kind, InterruptKind::Cancelled);
    }

    #[test]
    fn interrupted_training_is_an_error_and_leaves_weights_untouched() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        let before = engine.weights().clone();
        let ctl = RunControl::new().with_budget(0);
        let err = engine
            .train_with(&TrainRequest::new().control(&ctl))
            .unwrap_err();
        match err {
            DistinctError::Interrupted { kind, .. } => {
                assert_eq!(kind, InterruptKind::BudgetExhausted);
            }
            other => panic!("expected Interrupted, got {other}"),
        }
        assert_eq!(engine.weights(), &before);
        assert!(engine.learned().is_none());
    }

    #[test]
    fn zero_deadline_training_is_interrupted() {
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
        let ctl = RunControl::new().with_deadline(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let err = engine
            .train_with(&TrainRequest::new().control(&ctl))
            .unwrap_err();
        assert!(
            matches!(
                err,
                DistinctError::Interrupted {
                    kind: InterruptKind::DeadlineExceeded,
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn degraded_budget_sweep_is_monotone_enough() {
        // More budget can only profile more references; the count of real
        // (non-placeholder) profiles must be non-decreasing in the budget.
        let d = dataset();
        let config = DistinctConfig {
            training: small_training(),
            ..Default::default()
        };
        let refs = {
            let engine =
                Distinct::prepare(&d.catalog, "Publish", "author", config.clone()).unwrap();
            engine.references_of("Wei Wang")
        };
        let mut last = 0usize;
        for budget in [50, 500, 5_000, 50_000, 500_000] {
            // Fresh engine per run: the profile cache would otherwise let
            // later runs reuse earlier runs' work.
            let engine =
                Distinct::prepare(&d.catalog, "Publish", "author", config.clone()).unwrap();
            // Single-threaded: parallel workers would race the budget and
            // break strict monotonicity across runs.
            let ctl = RunControl::new().with_budget(budget);
            let outcome = engine.resolve(&ResolveRequest::new(&refs).control(&ctl).threads(1));
            let computed = outcome
                .degraded
                .as_ref()
                .map(|deg| deg.profiles_computed)
                .unwrap_or(refs.len());
            assert!(
                computed >= last,
                "budget {budget}: {computed} < previous {last}"
            );
            last = computed;
        }
    }

    #[test]
    fn measure_modes_produce_valid_clusterings() {
        let d = dataset();
        for measure in [
            MeasureMode::Combined,
            MeasureMode::SetResemblance,
            MeasureMode::RandomWalk,
        ] {
            let config = DistinctConfig {
                measure,
                training: small_training(),
                ..Default::default()
            };
            let engine = Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap();
            let truth = &d.truths[1];
            let c = engine.resolve(&ResolveRequest::new(&truth.refs)).clustering;
            assert_eq!(c.labels.len(), truth.refs.len());
        }
    }
}
