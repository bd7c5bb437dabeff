//! `laptop_updates`: writes beside reads. Each round's standard world is
//! split by `datagen::update_stream` into a base catalog and held-out
//! papers. The engine is prepared on the base without training, every
//! base name is resolved incrementally once, and then the first
//! [`BATCHES`] held-out papers arrive one at a time, each as its own
//! durable `apply_update_stream_with` call into a fresh run directory.
//!
//! It exercises `core::update` dirtying, incremental re-scoring and many
//! small durable commits. It bypasses the SVM (so an SVM change should
//! not move it) and the whole-catalog pass (`resolve_all`).
//!
//! Traced, the batches alternate between two forms, so that every figure
//! comes from one real execution. An even batch runs as the public calls
//! the stream call makes for it — `apply_updates`, then an incremental
//! `resolve` of every affected name — and feeds the `update.*` split and
//! pair counters; it commits nothing. An odd batch is the real stream
//! call through a [`TimedVfs`], committing the affected names'
//! partitions, and feeds the storage and commit figures (`relstore.vfs_*`,
//! `runmgr.*`, `update.commit_ms`).

use crate::layers;
use crate::metrics::{ms, Metrics, Ops};
use crate::stats::{median, percentile};
use crate::vfs::TimedVfs;
use crate::Ctx;
use datagen::NameGroundTruth;
use distinct::{Distinct, ResolveRequest, RunOptions, UpdateTuple};
use relstore::{FxHashSet, StdVfs, TupleRef, Vfs};
use std::time::Instant;

/// Worlds per run, one per round. How much a batch costs depends mostly
/// on its world (how far an update's dirtying spreads), so a run spreads
/// its batches over several worlds and reports the median round.
const WORLDS: usize = 5;

/// Update batches (one held-out paper each) applied per world. The
/// latencies of all rounds are pooled, so a run has at least
/// `WORLDS * BATCHES` = 100 samples: ten beyond the p90.
const BATCHES: usize = 20;

/// Set-up (a `prepare` of about 20 ms) repeats this often per round; the
/// round reports the median.
const SETUP_REPEATS: usize = 5;

pub fn run(ctx: &Ctx, ops: &mut Ops) -> Result<Vec<Metrics>, String> {
    let opts = RunOptions::default();
    let mut latencies: Vec<f64> = Vec::new();
    let mut rounds = ctx.rounds(WORLDS, |round, seed, m| {
        let config = distinct_bench::standard_world_config(seed);
        let papers = datagen::World::generate(config.clone()).papers.len();
        // Hold out well over BATCHES papers, so every seed has enough.
        let holdout = 3.0 * BATCHES as f64 / papers as f64;
        let stream = datagen::update_stream(&config, holdout, seed ^ 0x5eed)
            .map_err(|e| format!("generate: {e}"))?;
        // One batch per held-out paper: its Publications row, then its
        // bylines.
        let mut batches: Vec<Vec<UpdateTuple>> = Vec::new();
        for (relation, values) in &stream.log {
            if relation == "Publications" || batches.is_empty() {
                batches.push(Vec::new());
            }
            if let Some(b) = batches.last_mut() {
                b.push(UpdateTuple::new(relation.clone(), values.clone()));
            }
        }
        if batches.len() < BATCHES {
            return Err(format!("only {} papers held out", batches.len()));
        }
        batches.truncate(BATCHES);
        let base = &stream.base;
        let publish = base.catalog.relation(base.publish);
        let attr = publish
            .schema()
            .attr_index("author")
            .ok_or("Publish has no author attribute")?;
        let mut seen = FxHashSet::default();
        let names: Vec<String> = publish
            .iter()
            .map(|(_, t)| t.get(attr).to_string())
            .filter(|n| seen.insert(n.clone()))
            .collect();
        eprintln!(
            "laptop_updates: {} base references, {} names, {} update batches",
            publish.len(),
            names.len(),
            batches.len()
        );

        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut engine = None;
        for _ in 0..SETUP_REPEATS {
            drop(engine.take());
            let (e, wall) = layers::prepare(&base.catalog, ctx.trace, m)?;
            setups.push(wall.as_secs_f64());
            engine = Some(e);
        }
        let mut engine = engine.ok_or("no set-up ran")?;
        let setup = median(&setups).unwrap_or(0.0);

        let t = Instant::now();
        for name in &names {
            let refs = engine.references_of(name);
            let out = engine.resolve(&ResolveRequest::incremental(&refs));
            ops.check(out.is_complete(), || format!("resolve of {name} degraded"));
            if ctx.trace {
                layers::add_exec(m, &out.exec);
            }
        }
        let resolve = t.elapsed().as_secs_f64();

        let mut timed = TimedVfs::default();
        let (mut updates, mut committed_labels) = (0.0, 0usize);
        for (i, batch) in batches.iter().enumerate() {
            let dir = ctx.work.join(format!("updates-{round}-{i}"));
            let t = Instant::now();
            let wall = if ctx.trace && i % 2 == 0 {
                batch_decomposed(&mut engine, batch, m, ops);
                t.elapsed()
            } else {
                let vfs: &mut dyn Vfs = if ctx.trace { &mut timed } else { &mut StdVfs };
                let res = engine.apply_update_stream_with(batch, &dir, vfs, &opts);
                let wall = t.elapsed();
                let ok = match &res {
                    Ok(o) if o.chunks_committed == 1 && o.report.applied == batch.len() => {
                        if ctx.trace {
                            m.add_ms("runmgr.durable_ms", wall);
                            m.add("runmgr.chunks_committed", "count", 1.0);
                            committed_labels +=
                                o.partitions.iter().map(|(_, l)| l.len()).sum::<usize>();
                        }
                        true
                    }
                    _ => false,
                };
                ops.check(ok, || format!("update batch {i}: {res:?}"));
                wall
            };
            updates += wall.as_secs_f64();
            latencies.push(ms(wall));
        }
        let _ = std::fs::remove_dir_all(&ctx.work);

        // Invariant 7 from outside: at stream end each Table 1 name's
        // incremental partition equals a batch resolve on the same engine.
        let mut results: Vec<(Vec<TupleRef>, Vec<usize>)> = Vec::new();
        for truth in &stream.truths {
            let refs = engine.references_of(&truth.name);
            let inc = engine.resolve(&ResolveRequest::incremental(&refs));
            let batch = engine.resolve(&ResolveRequest::new(&refs));
            ops.check(inc.clustering.labels == batch.clustering.labels, || {
                format!("{}: incremental partition != batch partition", truth.name)
            });
            results.push((refs, inc.clustering.labels));
        }
        // The truths cover the whole log; score the applied prefix.
        let truths: Vec<NameGroundTruth> = stream
            .truths
            .iter()
            .zip(&results)
            .map(|(t, (refs, _))| applied_truth(t, refs))
            .collect();
        let f1 = layers::mean_f1(
            truths
                .iter()
                .zip(&results)
                .map(|(truth, (refs, labels))| (truth, refs.as_slice(), labels.as_slice())),
        );
        ops.check(f1.is_some(), || {
            "a Table 1 name does not cover its true references".into()
        });

        m.set("pairwise_f1", "ratio", f1.unwrap_or(0.0));
        m.set("setup_s", "s", setup);
        m.set("resolve_s", "s", resolve);
        m.set("update_s", "s", updates);
        m.set("total_s", "s", setup + resolve + updates);
        if ctx.trace {
            layers::finish_exec(m);
            layers::add_vfs(m, &timed.stats);
            m.set(
                "profiles.cached_end",
                "count",
                engine.cached_profiles() as f64,
            );
            m.set("update.batches", "count", batches.len() as f64);
            let total = m.get("update.pairs_total");
            if total > 0.0 {
                m.set(
                    "update.dirty_ratio",
                    "ratio",
                    m.get("update.pairs_dirty") / total,
                );
            }
            // The stream calls' own split: the live work between probing
            // for the chunk and writing it, the filesystem, and the rest
            // (claiming the run directory: fingerprint and manifest).
            let durable = m.get("runmgr.durable_ms");
            let live = ms(timed.stats.read_to_write);
            m.set("update.commit_ms", "ms", durable - live);
            m.set(
                "runmgr.residual_ms",
                "ms",
                durable - live - ms(timed.stats.total()),
            );
            m.set(
                "runmgr.bytes_per_ref",
                "bytes/ref",
                timed.stats.write_bytes as f64 / committed_labels.max(1) as f64,
            );
        }
        Ok(())
    })?;

    // Percentiles over every round's batches, with their sample counts.
    let p50 = percentile(&latencies, 50.0);
    let p90 = percentile(&latencies, 90.0);
    ops.check(p90.is_some(), || {
        format!("{} batches are too few for a p90", latencies.len())
    });
    if let (Some(first), Some(p50), Some(p90)) = (rounds.first_mut(), p50, p90) {
        first.set("update_ms_p50", "ms", p50.value);
        first.set("update_ms_p90", "ms", p90.value);
        first.set("update_ms_p90_beyond", "count", p90.beyond as f64);
        first.set("update_ms_samples", "count", p90.samples as f64);
    }
    Ok(rounds)
}

/// The ground truth of `truth`'s name restricted to `refs`, the
/// references present after the applied prefix of the log (a prefix of
/// the full replay, so they keep their tuple ids). Unknown references are
/// kept out, so [`layers::mean_f1`] rejects the name.
fn applied_truth(truth: &NameGroundTruth, refs: &[TupleRef]) -> NameGroundTruth {
    let present: FxHashSet<TupleRef> = refs.iter().copied().collect();
    let (refs, labels) = truth
        .refs
        .iter()
        .zip(&truth.labels)
        .filter(|(r, _)| present.contains(r))
        .map(|(&r, &l)| (r, l))
        .unzip();
    NameGroundTruth {
        name: truth.name.clone(),
        refs,
        labels,
    }
}

/// One update batch as the public calls `apply_update_stream_with` makes
/// for it before committing: `apply_updates`, then an incremental
/// `resolve` of every affected name.
fn batch_decomposed(engine: &mut Distinct, batch: &[UpdateTuple], m: &mut Metrics, ops: &mut Ops) {
    let t = Instant::now();
    let report = match engine.apply_updates(batch) {
        Ok(r) => r,
        Err(e) => return ops.check(false, || format!("apply_updates: {e}")),
    };
    m.add_ms("update.apply_ms", t.elapsed());
    m.add("update.refs_dirtied", "count", report.refs_dirtied as f64);
    m.add(
        "update.names_affected",
        "count",
        report.names_affected as f64,
    );

    let t = Instant::now();
    let mut complete = report.applied == batch.len();
    for name in &report.names {
        let refs = engine.references_of(name);
        let out = engine.resolve(&ResolveRequest::incremental(&refs));
        complete &= out.is_complete();
        let e = &out.exec;
        m.add("update.pairs_dirty", "count", e.pairs_dirty as f64);
        m.add("update.pairs_cached", "count", e.pairs_cached as f64);
        m.add("update.pairs_total", "count", e.pairs_total as f64);
    }
    m.add_ms("update.resolve_ms", t.elapsed());
    ops.check(complete, || "decomposed update batch is incomplete".into());
}
