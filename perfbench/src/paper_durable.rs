//! `paper_durable`: the paper-scale catalog (`WorldConfig::paper_scale`,
//! about 1.7M references), `prepare` + `train`, then a durable resolve of
//! each of the ten Table 1 names, each into a fresh run directory through
//! the real filesystem.
//!
//! The large catalog makes `prepare` (value expansion, the link graph)
//! the biggest cost, and the durable path commits few, large checkpoints.
//! It bypasses `core::update` and the whole-catalog pass (`resolve_all`).
//!
//! The resolve phase is short (about 2 s) next to set-up, so one burst of
//! host noise would set it; it therefore runs [`PASSES`] times, each pass
//! into fresh run directories, and `resolve_s` is the median pass. Only
//! the first pass computes the names' profiles (about a tenth of a pass);
//! later passes find them in the engine's profile cache, which no public
//! call empties. Every pass must reproduce the first pass's partitions,
//! and the per-layer figures come from the first pass.

use crate::layers::{self, THREADS};
use crate::metrics::{ms, Metrics, Ops};
use crate::stats::median;
use crate::vfs::TimedVfs;
use crate::Ctx;
use distinct::{ResolveRequest, RunOptions};
use relstore::{StdVfs, TupleRef, Vfs};
use std::time::Instant;

/// Worlds per run: one, since a round takes about 20 s and 2.3 GB.
const WORLDS: usize = 1;

/// Durable passes over the ten names per round.
const PASSES: usize = 3;

pub fn run(ctx: &Ctx, ops: &mut Ops) -> Result<Vec<Metrics>, String> {
    let opts = RunOptions {
        chunk_size: 64,
        ..Default::default()
    };
    ctx.rounds(WORLDS, |round, seed, m| {
        let t = Instant::now();
        let dataset = datagen::stream_to_catalog(&datagen::WorldConfig::paper_scale(seed))
            .map_err(|e| format!("generate: {e}"))?;
        eprintln!(
            "paper_durable: {} references generated in {:.1} s",
            dataset.catalog.relation(dataset.publish).len(),
            t.elapsed().as_secs_f64()
        );
        let (mut engine, prepare) = layers::prepare(&dataset.catalog, ctx.trace, m)?;
        let train = layers::train(&mut engine, ctx.trace, m)?;
        let setup = prepare + train;

        let mut timed = TimedVfs::default();
        let (mut durable, mut stages) = (0.0, 0.0);
        let mut results: Vec<(Vec<TupleRef>, Vec<usize>)> = Vec::new();
        let mut passes = Vec::with_capacity(PASSES);
        for pass in 0..PASSES {
            // Per-layer figures from the first (cold) pass only.
            let traced = ctx.trace && pass == 0;
            let t = Instant::now();
            for (i, truth) in dataset.truths.iter().enumerate() {
                let dir = ctx.work.join(format!("durable-{round}-{pass}-{i}"));
                let refs = engine.references_of(&truth.name);
                let req = ResolveRequest::new(&refs).resume(&dir).threads(THREADS);
                let vfs: &mut dyn Vfs = if traced { &mut timed } else { &mut StdVfs };
                let t1 = Instant::now();
                let res = engine.resolve_durable_with(&req, vfs, &opts);
                let wall = t1.elapsed();
                let labels = match res {
                    Ok(d) => {
                        ops.check(
                            d.outcome.is_complete()
                                && !d.run.clustering_restored
                                && d.outcome.clustering.labels.len() == refs.len(),
                            || format!("durable resolve of {} is incomplete", truth.name),
                        );
                        if traced {
                            layers::add_exec(m, &d.outcome.exec);
                            stages += ms(d.outcome.exec.total_wall());
                            m.add(
                                "runmgr.chunks_committed",
                                "count",
                                d.run.chunks_committed as f64,
                            );
                        }
                        d.outcome.clustering.labels
                    }
                    Err(e) => {
                        ops.check(false, || format!("durable resolve of {}: {e}", truth.name));
                        Vec::new()
                    }
                };
                if traced {
                    durable += ms(wall);
                }
                if pass == 0 {
                    results.push((refs, labels));
                } else {
                    ops.check(results[i].1 == labels, || {
                        format!("pass {pass} of {} changed its partition", truth.name)
                    });
                }
            }
            passes.push(t.elapsed().as_secs_f64());
            let _ = std::fs::remove_dir_all(&ctx.work);
        }
        let resolve = median(&passes).unwrap_or(0.0);

        let f1 = layers::mean_f1(
            dataset
                .truths
                .iter()
                .zip(&results)
                .map(|(truth, (refs, labels))| (truth, refs.as_slice(), labels.as_slice())),
        );
        ops.check(f1.is_some(), || {
            "a resolved name does not cover its true references".into()
        });
        m.set("pairwise_f1", "ratio", f1.unwrap_or(0.0));
        m.set("setup_s", "s", setup.as_secs_f64());
        m.set("resolve_s", "s", resolve);
        m.set("total_s", "s", setup.as_secs_f64() + resolve);
        if ctx.trace {
            let refs: usize = results.iter().map(|(r, _)| r.len()).sum();
            layers::finish_exec(m);
            layers::add_vfs(m, &timed.stats);
            m.set(
                "profiles.cached_end",
                "count",
                engine.cached_profiles() as f64,
            );
            m.set("runmgr.durable_ms", "ms", durable);
            m.set(
                "runmgr.bytes_per_ref",
                "bytes/ref",
                timed.stats.write_bytes as f64 / refs.max(1) as f64,
            );
            m.set(
                "runmgr.residual_ms",
                "ms",
                durable - stages - ms(timed.stats.total()),
            );
        }
        Ok(())
    })
}
