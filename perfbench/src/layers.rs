//! Calls into the library shared by the workloads, each in an untraced
//! form (the entry point a user calls) and a traced form (the public
//! calls that entry point makes, in the same order, each timed).
//!
//! A decomposed node reports `<node>.residual_*`: its wall time minus the
//! sum of its timed children, i.e. the time no child accounts for. The
//! one exception is `prepare.residual_s`; see [`prepare`].

use crate::metrics::{ms, Metrics};
use crate::vfs::VfsStats;
use distinct::{
    assemble_datasets, featurize_pairs, learn_weights, Distinct, DistinctConfig, ExecReport,
    PairFeatures, PathSet, Profile, WeightingMode,
};
use distinct_bench::AllocSnapshot;
use relgraph::LinkGraph;
use relstore::{Catalog, FxHashMap, TupleRef};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads for every parallel stage (the benchmark machine's
/// core count; results are identical at any count).
pub const THREADS: usize = 2;

/// The reference relation and attribute of the generated schema.
const REF_RELATION: &str = "Publish";
const REF_ATTR: &str = "author";

/// The engine configuration every workload uses.
pub fn config() -> DistinctConfig {
    DistinctConfig {
        threads: THREADS,
        ..Default::default()
    }
}

/// `Distinct::prepare`, returning the engine and its wall time.
///
/// Traced, the three public calls `prepare` makes — `expand_values`,
/// `PathSet::build`, `LinkGraph::build` — first run standalone, each
/// timed (their results are dropped before the real `prepare`, so peak
/// memory is unchanged). `prepare` returns the engine without exposing
/// its parts, so `prepare.residual_s` is the real call's wall minus that
/// standalone re-run of its three parts: two executions, not a parent
/// span and its children. It estimates the time `prepare` spends outside
/// those calls only up to run-to-run noise, and can be negative.
pub fn prepare(
    catalog: &Catalog,
    trace: bool,
    m: &mut Metrics,
) -> Result<(Distinct, Duration), String> {
    let pieces = if trace {
        prepare_pieces(catalog, m)?
    } else {
        Duration::ZERO
    };
    let a = AllocSnapshot::now();
    let t = Instant::now();
    let engine = Distinct::prepare(catalog, REF_RELATION, REF_ATTR, config())
        .map_err(|e| format!("prepare: {e}"))?;
    let wall = t.elapsed();
    if trace {
        m.set("prepare.s", "s", wall.as_secs_f64());
        m.set(
            "prepare.residual_s",
            "s",
            wall.as_secs_f64() - pieces.as_secs_f64(),
        );
        m.set("prepare.allocs", "count", a.delta().allocs as f64);
    }
    Ok((engine, wall))
}

fn prepare_pieces(catalog: &Catalog, m: &mut Metrics) -> Result<Duration, String> {
    let a = AllocSnapshot::now();
    let t = Instant::now();
    let expanded = relstore::expand_values(catalog).map_err(|e| format!("expand_values: {e}"))?;
    let expand = t.elapsed();
    m.set("relstore.expand_s", "s", expand.as_secs_f64());
    m.set("relstore.expand_allocs", "count", a.delta().allocs as f64);
    m.set(
        "relstore.tuples_expanded",
        "count",
        expanded.catalog.tuple_count() as f64,
    );

    let t = Instant::now();
    let paths = PathSet::build(
        &expanded.catalog,
        REF_RELATION,
        REF_ATTR,
        config().max_path_len,
    )
    .ok_or("PathSet::build: the reference attribute is not a foreign key")?;
    let build_paths = t.elapsed();
    m.set("paths.build_ms", "ms", ms(build_paths));
    m.set("paths.count", "count", paths.len() as f64);

    let a = AllocSnapshot::now();
    let t = Instant::now();
    let graph = LinkGraph::build(&expanded.catalog);
    let build_graph = t.elapsed();
    m.set("relgraph.linkgraph_build_s", "s", build_graph.as_secs_f64());
    m.set(
        "relgraph.linkgraph_allocs",
        "count",
        a.delta().allocs as f64,
    );
    drop((graph, paths, expanded));
    Ok(expand + build_paths + build_graph)
}

/// `Distinct::train`, returning its wall time.
///
/// Traced, training runs as the public calls `train` makes —
/// `build_training_pairs` → `precompute_profiles` → `featurize_pairs` →
/// `assemble_datasets` → `learn_weights` — and the learned weights are
/// installed with `set_weights`, exactly as `train` installs them.
pub fn train(engine: &mut Distinct, trace: bool, m: &mut Metrics) -> Result<Duration, String> {
    let t = Instant::now();
    if !trace {
        engine.train().map_err(|e| format!("train: {e}"))?;
        return Ok(t.elapsed());
    }
    let t1 = Instant::now();
    let ts = engine
        .build_training_pairs()
        .map_err(|e| format!("build_training_pairs: {e}"))?;
    let set = t1.elapsed();
    m.set("training.pairs", "count", ts.pairs.len() as f64);

    let mut refs: Vec<TupleRef> = ts.pairs.iter().flat_map(|p| [p.a, p.b]).collect();
    refs.sort_unstable();
    refs.dedup();
    let t2 = Instant::now();
    engine.precompute_profiles(&refs, THREADS);
    let profiles = t2.elapsed();

    let t3 = Instant::now();
    let by_ref: FxHashMap<TupleRef, Arc<Profile>> =
        refs.iter().map(|&r| (r, engine.profile(r))).collect();
    let executor = exec::Executor::with_threads(THREADS);
    let (featurized, _) = featurize_pairs(&ts.pairs, &by_ref, &executor, &|| false);
    let features: Vec<PairFeatures> = featurized
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("featurize_pairs: a training profile is missing")?;
    let featurize = t3.elapsed();

    let (resem, walk) = assemble_datasets(&features).map_err(|e| format!("assemble: {e}"))?;
    let a = AllocSnapshot::now();
    let t4 = Instant::now();
    let training = &engine.config().training;
    let model = learn_weights(&resem, &walk, training.svm_c, training.seed)
        .map_err(|e| format!("learn_weights: {e}"))?;
    let fit = t4.elapsed();
    m.set("svm.fit_allocs", "count", a.delta().allocs as f64);
    if engine.config().weighting == WeightingMode::Supervised {
        engine
            .set_weights(model.weights)
            .map_err(|e| format!("set_weights: {e}"))?;
    }
    let wall = t.elapsed();
    m.set("training.set_ms", "ms", ms(set));
    m.set("training.profiles_ms", "ms", ms(profiles));
    m.set("training.featurize_ms", "ms", ms(featurize));
    m.set("svm.fit_ms", "ms", ms(fit));
    m.set("train.ms", "ms", ms(wall));
    m.set(
        "train.residual_ms",
        "ms",
        ms(wall) - ms(set + profiles + featurize + fit),
    );
    Ok(wall)
}

/// Add one resolve's stage walls and kernel-unit counters.
pub fn add_exec(m: &mut Metrics, e: &ExecReport) {
    m.add_ms("profiles.ms", e.profiles.wall);
    m.add("profiles.computed", "count", e.profiles.completed as f64);
    m.add_ms("similarity.ms", e.similarity.wall);
    m.add("similarity.pairs_total", "count", e.pairs_total as f64);
    m.add("similarity.pairs_pruned", "count", e.pairs_pruned as f64);
    m.add("similarity.pairs_exact", "count", e.pairs_exact as f64);
    m.add_ms("clustering.ms", e.clustering.wall);
    m.max("exec.threads", "count", e.max_threads() as f64);
}

/// Ratios derived from [`add_exec`] counters.
pub fn finish_exec(m: &mut Metrics) {
    let total = m.get("similarity.pairs_total");
    if total > 0.0 {
        m.set(
            "similarity.prune_ratio",
            "ratio",
            m.get("similarity.pairs_pruned") / total,
        );
    }
}

/// The per-layer storage metrics of a [`crate::vfs::TimedVfs`].
pub fn add_vfs(m: &mut Metrics, s: &VfsStats) {
    m.set("relstore.vfs_writes", "count", s.writes as f64);
    m.set("relstore.vfs_write_bytes", "bytes", s.write_bytes as f64);
    m.set("relstore.vfs_write_ms", "ms", ms(s.write));
    m.set("relstore.vfs_rename_ms", "ms", ms(s.rename));
    m.set("relstore.vfs_read_ms", "ms", ms(s.read));
}

/// Mean pairwise F-measure of predicted partitions against the ground
/// truth, one `(truth, refs, labels)` per name; `None` when a name's
/// resolved references are not exactly its true references.
pub fn mean_f1<'a>(
    names: impl IntoIterator<Item = (&'a datagen::NameGroundTruth, &'a [TupleRef], &'a [usize])>,
) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for (truth, refs, labels) in names {
        if refs.len() != truth.refs.len() || labels.len() != refs.len() {
            return None;
        }
        let label_of: FxHashMap<TupleRef, usize> =
            refs.iter().copied().zip(labels.iter().copied()).collect();
        let pred = truth
            .refs
            .iter()
            .map(|r| label_of.get(r).copied())
            .collect::<Option<Vec<usize>>>()?;
        sum += eval::PairCounts::from_labels(&truth.labels, &pred)
            .scores()
            .f_measure;
        count += 1;
    }
    (count > 0).then(|| sum / count as f64)
}
