//! `laptop_dedupe`: the standard world (2,000 authors, about 21K
//! references, the Table 1 names planted), `prepare` + `train`, then one
//! whole-catalog `resolve_all` on two threads.
//!
//! `prepare` is negligible here and nothing is durable, so the SVM fit,
//! similarity, clustering, the profile cache and the exec pool carry the
//! load. It bypasses `core::update` and the durable run manager.

use crate::layers::{self, THREADS};
use crate::metrics::{Metrics, Ops};
use crate::Ctx;
use distinct::{DedupeOptions, Distinct, ResolveRequest};
use distinct_bench::AllocSnapshot;
use relstore::{FxHashMap, TupleRef, Value};
use std::time::Instant;

/// Worlds per run, one per round.
const WORLDS: usize = 2;

pub fn run(ctx: &Ctx, ops: &mut Ops) -> Result<Vec<Metrics>, String> {
    let opts = DedupeOptions {
        threads: THREADS,
        ..Default::default()
    };
    ctx.rounds(WORLDS, |_, seed, m| {
        let world = datagen::World::generate(distinct_bench::standard_world_config(seed));
        let dataset = datagen::to_catalog(&world).map_err(|e| format!("generate: {e}"))?;
        let publish = dataset.catalog.relation(dataset.publish);
        eprintln!("laptop_dedupe: {} references", publish.len());
        let (mut engine, prepare) = layers::prepare(&dataset.catalog, ctx.trace, m)?;
        let train = layers::train(&mut engine, ctx.trace, m)?;
        let setup = prepare + train;

        let t = Instant::now();
        let entity_of: FxHashMap<TupleRef, usize> = if ctx.trace {
            resolve_all_traced(&engine, &opts, m, ops)
        } else {
            let assignment = engine.resolve_all(&opts);
            let resolve = t.elapsed();
            ops.check(assignment.skipped.is_empty(), || {
                format!("resolve_all skipped {:?}", assignment.skipped)
            });
            let mut entity_of = FxHashMap::default();
            for (entity, group) in assignment.groups().into_iter().enumerate() {
                for r in group {
                    if entity_of.insert(r, entity).is_some() {
                        ops.check(false, || format!("{r:?} is in two entities"));
                    }
                }
            }
            m.set("resolve_s", "s", resolve.as_secs_f64());
            entity_of
        };
        if ctx.trace {
            m.set("resolve_s", "s", t.elapsed().as_secs_f64());
        }
        let resolve = m.get("resolve_s");

        // Every reference is assigned exactly once.
        let all: Vec<TupleRef> = publish
            .iter()
            .map(|(tid, _)| TupleRef::new(dataset.publish, tid))
            .collect();
        let assigned = all.iter().filter(|r| entity_of.contains_key(r)).count();
        ops.check(
            assigned == all.len() && entity_of.len() == all.len(),
            || {
                format!(
                    "{assigned} of {} references assigned, {} assignments",
                    all.len(),
                    entity_of.len()
                )
            },
        );

        let preds: Vec<(Vec<TupleRef>, Vec<usize>)> = dataset
            .truths
            .iter()
            .map(|t| {
                let labels = t
                    .refs
                    .iter()
                    .map(|r| entity_of.get(r).copied().unwrap_or(usize::MAX));
                (t.refs.clone(), labels.collect())
            })
            .collect();
        let f1 = layers::mean_f1(
            dataset
                .truths
                .iter()
                .zip(&preds)
                .map(|(truth, (refs, labels))| (truth, refs.as_slice(), labels.as_slice())),
        );
        ops.check(f1.is_some(), || "no Table 1 name was scored".into());
        m.set("pairwise_f1", "ratio", f1.unwrap_or(0.0));
        m.set("setup_s", "s", setup.as_secs_f64());
        m.set("total_s", "s", setup.as_secs_f64() + resolve);
        Ok(())
    })
}

/// `resolve_all` as the public calls it makes: group the references by
/// name in first-appearance order, `precompute_profiles` over every name
/// that will be clustered, then one `resolve` per name.
fn resolve_all_traced(
    engine: &Distinct,
    opts: &DedupeOptions,
    m: &mut Metrics,
    ops: &mut Ops,
) -> FxHashMap<TupleRef, usize> {
    let t = Instant::now();
    let rel = engine.catalog().relation(engine.paths().start);
    let attr = engine.ref_attr_index();
    let mut order: Vec<&Value> = Vec::new();
    let mut by_name: FxHashMap<&Value, Vec<TupleRef>> = FxHashMap::default();
    for (tid, tuple) in rel.iter() {
        let v = tuple.get(attr);
        if v.is_null() {
            continue;
        }
        let refs = by_name.entry(v).or_default();
        if refs.is_empty() {
            order.push(v);
        }
        refs.push(TupleRef::new(engine.paths().start, tid));
    }
    let clusterable = |refs: &[TupleRef]| {
        refs.len() >= opts.min_refs_to_cluster && refs.len() <= opts.max_refs_per_name
    };
    let work: Vec<TupleRef> = order
        .iter()
        .filter(|v| clusterable(&by_name[*v]))
        .flat_map(|v| by_name[v].iter().copied())
        .collect();
    let group = t.elapsed();

    let a = AllocSnapshot::now();
    let t1 = Instant::now();
    engine.precompute_profiles(&work, opts.threads);
    let precompute = t1.elapsed();
    m.set("profiles.allocs", "count", a.delta().allocs as f64);
    m.add_ms("profiles.ms", precompute);
    m.set("profiles.computed", "count", work.len() as f64);
    m.set("dedupe.precompute_ms", "ms", precompute.as_secs_f64() * 1e3);

    let a = AllocSnapshot::now();
    let t2 = Instant::now();
    let mut entity_of: FxHashMap<TupleRef, usize> = FxHashMap::default();
    let mut next = 0usize;
    let (mut names, mut clustered) = (0usize, 0usize);
    for v in &order {
        let refs = &by_name[*v];
        names += 1;
        if refs.len() > opts.max_refs_per_name {
            ops.check(false, || format!("name {v} skipped"));
            continue;
        }
        let labels = if refs.len() < opts.min_refs_to_cluster {
            vec![0; refs.len()]
        } else {
            clustered += 1;
            let out = engine.resolve(&ResolveRequest::new(refs).threads(opts.threads));
            let e = &out.exec;
            // The profiles are warm: resolve's own profile stage is a
            // cache lookup, so only similarity and clustering are added.
            m.add_ms("similarity.ms", e.similarity.wall);
            m.add("similarity.pairs_total", "count", e.pairs_total as f64);
            m.add("similarity.pairs_pruned", "count", e.pairs_pruned as f64);
            m.add("similarity.pairs_exact", "count", e.pairs_exact as f64);
            m.add_ms("clustering.ms", e.clustering.wall);
            m.max("exec.threads", "count", e.max_threads() as f64);
            out.clustering.labels
        };
        let k = labels.iter().max().map_or(0, |&l| l + 1);
        for (&r, &l) in refs.iter().zip(&labels) {
            if entity_of.insert(r, next + l).is_some() {
                ops.check(false, || format!("{r:?} assigned twice"));
            }
        }
        next += k;
    }
    m.set("similarity.allocs", "count", a.delta().allocs as f64);
    m.set("dedupe.names", "count", names as f64);
    m.set("dedupe.names_clustered", "count", clustered as f64);
    m.set("dedupe.resolve_ms", "ms", t2.elapsed().as_secs_f64() * 1e3);
    m.set("dedupe.group_ms", "ms", group.as_secs_f64() * 1e3);
    m.set(
        "profiles.cached_end",
        "count",
        engine.cached_profiles() as f64,
    );
    layers::finish_exec(m);
    m.set(
        "dedupe.residual_ms",
        "ms",
        t.elapsed().as_secs_f64() * 1e3
            - m.get("dedupe.precompute_ms")
            - m.get("dedupe.resolve_ms")
            - m.get("dedupe.group_ms"),
    );
    entity_of
}
