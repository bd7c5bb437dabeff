//! Metamorphic invariants of the resolution pipeline.
//!
//! Each property transforms an input in a way that must not change the
//! answer (or must change it in a predictable direction) and asserts the
//! pipeline honors the relation:
//!
//! 1. **Reference-order permutation invariance** — permuting the `refs`
//!    slice permutes labels and pairwise tables, nothing else.
//! 2. **Tuple-order permutation invariance** — physically reordering a
//!    relation's rows leaves every propagation probability unchanged
//!    (modulo the key-preserving tuple-id relabeling) within `1e-9`.
//! 3. **Duplicate-constraint idempotence** — repeating `must_link` /
//!    `cannot_link` pairs changes nothing: constraints are a set.
//! 4. **Similarity symmetry** — `sim(a, b) = sim(b, a)` at every stage,
//!    on both the production probe and the oracle.
//! 5. **Min-sim monotonicity** — raising the threshold only splits
//!    clusters: the higher-threshold clustering refines the lower one.
//! 6. **Resume-after-kill equivalence** — crashing a durable run at an
//!    arbitrary write and resuming it on a cold engine yields exactly the
//!    partition of an uninterrupted resolve: durability is invisible in
//!    the answer.
//! 7. **Streaming ≡ batch convergence** — streaming a tuple log into a
//!    base engine one update at a time, in *any* block order, under 1 or
//!    4 worker threads, converges to exactly the partition a cold batch
//!    engine computes on the union catalog (labels bit-identical within
//!    an order, similarities within `1e-9`, partitions canonically equal
//!    across orders). Corollaries: re-applying an absorbed log is a
//!    no-op, and the chunking of the stream (1-tuple chunks vs. k-tuple
//!    chunks vs. one shot) is unobservable.
//!
//! Property tests run on the vendored `proptest` (deterministic per-test
//! seeding, no shrinking); the worlds are small so each case is cheap.

use datagen::{AmbiguousSpec, DblpDataset, UpdateStream, World, WorldConfig};
use distinct::{
    Distinct, DistinctConfig, DistinctError, ResolveRequest, RunOptions, TrainingConfig,
    UpdateTuple, WeightingMode,
};
use oracle::{Composite, Measure, OracleEngine};
use proptest::prelude::*;
use relgraph::LinkGraph;
use relstore::{
    AttrType, Catalog, FaultKind, FaultPlan, FaultyVfs, JoinPath, JoinStep, SchemaBuilder, StdVfs,
    Tuple, TupleRef, Value,
};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Shared fixture
// ---------------------------------------------------------------------------

fn fixture() -> &'static DblpDataset {
    static DATA: OnceLock<DblpDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        let mut config = WorldConfig::tiny(47);
        config.n_authors = 120;
        config.n_venues = 12;
        config.n_communities = 5;
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![5, 4])];
        datagen::to_catalog(&World::generate(config)).unwrap()
    })
}

fn engine() -> Distinct {
    let config = DistinctConfig {
        max_path_len: 3,
        min_sim: 1e-4,
        weighting: WeightingMode::Uniform,
        training: TrainingConfig {
            positives: 60,
            negatives: 60,
            ..Default::default()
        },
        ..Default::default()
    };
    Distinct::prepare(&fixture().catalog, "Publish", "author", config).unwrap()
}

/// Deterministic Fisher–Yates permutation of `0..n` from a seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// `true` iff `fine` refines `coarse`: items sharing a `fine` cluster
/// always share a `coarse` cluster.
fn refines(fine: &[usize], coarse: &[usize]) -> bool {
    for i in 0..fine.len() {
        for j in i + 1..fine.len() {
            if fine[i] == fine[j] && coarse[i] != coarse[j] {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Invariant 2's two-relation catalog (row order is the variable)
// ---------------------------------------------------------------------------

/// `Child(key, parent -> Parent)` with children inserted in `order`;
/// returns the catalog and each logical child's [`TupleRef`] indexed by
/// its key.
fn ordered_catalog(
    parents: usize,
    assignment: &[usize],
    order: &[usize],
) -> (Catalog, Vec<TupleRef>) {
    let mut c = Catalog::new();
    c.add_relation(
        SchemaBuilder::new("Parent")
            .key("key", AttrType::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    c.add_relation(
        SchemaBuilder::new("Child")
            .key("key", AttrType::Int)
            .fk("parent", AttrType::Int, "Parent")
            .build()
            .unwrap(),
    )
    .unwrap();
    for p in 0..parents {
        c.insert("Parent", Tuple::new(vec![Value::Int(p as i64)]))
            .unwrap();
    }
    let child_rel = c.relation_id("Child").unwrap();
    let mut by_key = vec![TupleRef::new(child_rel, relstore::TupleId(0)); assignment.len()];
    for &k in order {
        by_key[k] = c
            .insert(
                "Child",
                Tuple::new(vec![
                    Value::Int(k as i64),
                    Value::Int((assignment[k] % parents) as i64),
                ]),
            )
            .unwrap();
    }
    c.finalize(false).unwrap();
    (c, by_key)
}

/// The `Child → Parent → Child` round-trip path.
fn round_trip_path(c: &Catalog) -> JoinPath {
    let fk = c.fk_edges()[0].clone();
    JoinPath::new(
        fk.from,
        vec![JoinStep::forward(fk.id), JoinStep::backward(fk.id)],
        c,
    )
    .unwrap()
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // 1. Permuting the reference slice permutes the output, nothing else.
    #[test]
    fn reference_order_permutation_invariance(seed in 1u64..1_000_000) {
        let engine = engine();
        let refs = &fixture().truths[0].refs;
        let n = refs.len();
        let perm = permutation(n, seed);
        let permuted: Vec<TupleRef> = perm.iter().map(|&i| refs[i]).collect();

        let base = engine.resolve(&ResolveRequest::new(refs));
        let shuffled = engine.resolve(&ResolveRequest::new(&permuted));
        let lb = &base.clustering.labels;
        let ls = &shuffled.clustering.labels;
        for a in 0..n {
            for b in 0..n {
                // permuted[a] is refs[perm[a]]: co-membership must carry over.
                prop_assert_eq!(ls[a] == ls[b], lb[perm[a]] == lb[perm[b]]);
            }
        }

        let probe = engine.stage_probe(refs);
        let probe_shuffled = engine.stage_probe(&permuted);
        for a in 0..n {
            for b in 0..n {
                let d = (probe_shuffled.similarity[a][b]
                    - probe.similarity[perm[a]][perm[b]])
                    .abs();
                prop_assert!(d <= 1e-9, "similarity moved by {} under permutation", d);
            }
        }
    }

    // 2. Physical row order of a relation never changes propagation.
    #[test]
    fn tuple_order_permutation_invariance(
        seed in 1u64..1_000_000,
        parents in 2usize..6,
        children in 4usize..12,
    ) {
        let assignment: Vec<usize> = (0..children)
            .map(|i| (i.wrapping_mul(7).wrapping_add(seed as usize)) % parents)
            .collect();
        let identity: Vec<usize> = (0..children).collect();
        let shuffled = permutation(children, seed);

        let (cat_a, refs_a) = ordered_catalog(parents, &assignment, &identity);
        let (cat_b, refs_b) = ordered_catalog(parents, &assignment, &shuffled);
        let graph_a = LinkGraph::build(&cat_a);
        let graph_b = LinkGraph::build(&cat_b);
        let path_a = round_trip_path(&cat_a);
        let path_b = round_trip_path(&cat_b);

        for k in 0..children {
            let prop_a = relgraph::propagate(&graph_a, &cat_a, &path_a, refs_a[k]);
            let prop_b = relgraph::propagate(&graph_b, &cat_b, &path_b, refs_b[k]);
            prop_assert_eq!(prop_a.forward.len(), prop_b.forward.len());
            for (&node, &mass) in &prop_a.forward {
                // Identify end tuples by their logical key, not tuple id.
                let t = graph_a.tuple(node);
                let key = cat_a.relation(t.rel).tuple(t.tid).values()[0].clone();
                let matched = prop_b.forward.iter().find(|(&nb, _)| {
                    let tb = graph_b.tuple(nb);
                    cat_b.relation(tb.rel).tuple(tb.tid).values()[0] == key
                });
                let (_, &mass_b) = matched.expect("same support under row permutation");
                prop_assert!((mass - mass_b).abs() <= 1e-9);
            }
        }
    }

    // 3. Constraints are a set: duplicating them changes nothing.
    #[test]
    fn duplicate_constraint_idempotence(
        a in 0usize..9,
        b in 0usize..9,
        c in 0usize..9,
        d in 0usize..9,
    ) {
        prop_assume!(a != b && c != d && (a, b) != (c, d) && (a, b) != (d, c));
        let engine = engine();
        let refs = &fixture().truths[0].refs;
        let must = [(a, b)];
        let cannot = [(c, d)];
        let once = engine.resolve(
            &ResolveRequest::new(refs).must_link(&must).cannot_link(&cannot),
        );
        let twice = engine.resolve(
            &ResolveRequest::new(refs)
                .must_link(&must)
                .must_link(&must)
                .cannot_link(&cannot)
                .cannot_link(&cannot),
        );
        prop_assert_eq!(&once.clustering.labels, &twice.clustering.labels);
        prop_assert_eq!(
            once.clustering.dendrogram.merges(),
            twice.clustering.dendrogram.merges()
        );
    }

    // 4. Similarity is symmetric at every stage, on both implementations.
    #[test]
    fn similarity_symmetry(seed in 1u64..1_000_000) {
        let engine = engine();
        let refs = &fixture().truths[0].refs;
        let n = refs.len();
        // Probe a permuted slice so symmetry is not an artifact of one
        // fixed pair orientation.
        let perm = permutation(n, seed);
        let permuted: Vec<TupleRef> = perm.iter().map(|&i| refs[i]).collect();
        let probe = engine.stage_probe(&permuted);

        let (paths, ref_fk) =
            oracle::select_paths(engine.catalog(), "Publish", "author", 3).unwrap();
        let uniform = vec![1.0 / paths.len() as f64; paths.len()];
        let orc = OracleEngine::new(
            engine.catalog(),
            paths,
            ref_fk,
            uniform.clone(),
            uniform,
            Measure::Combined,
            Composite::Geometric,
        );
        let tables = orc.pairwise(&permuted);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(probe.resemblance[i][j], probe.resemblance[j][i]);
                prop_assert_eq!(probe.walk[i][j], probe.walk[j][i]);
                prop_assert_eq!(probe.similarity[i][j], probe.similarity[j][i]);
                prop_assert_eq!(tables.resemblance[i][j], tables.resemblance[j][i]);
                prop_assert_eq!(tables.walk[i][j], tables.walk[j][i]);
                prop_assert_eq!(tables.similarity[i][j], tables.similarity[j][i]);
            }
        }
    }

    // 5. Raising min-sim only splits clusters, never re-mixes them.
    #[test]
    fn min_sim_monotonicity(lo_bits in 1u32..500, hi_bits in 1u32..500) {
        let lo = f64::from(lo_bits.min(hi_bits)) * 1e-5;
        let hi = f64::from(lo_bits.max(hi_bits)) * 1e-5;
        let engine = engine();
        let refs = &fixture().truths[0].refs;
        let coarse = engine.resolve(&ResolveRequest::new(refs).min_sim(lo));
        let fine = engine.resolve(&ResolveRequest::new(refs).min_sim(hi));
        prop_assert!(
            refines(&fine.clustering.labels, &coarse.clustering.labels),
            "threshold {} does not refine {}: {:?} vs {:?}",
            hi,
            lo,
            fine.clustering.labels,
            coarse.clustering.labels
        );
        // And the merge sequence at `hi` is a prefix of the one at `lo`.
        let fm = fine.clustering.dendrogram.merges();
        let cm = coarse.clustering.dendrogram.merges();
        prop_assert!(fm.len() <= cm.len());
        prop_assert_eq!(fm, &cm[..fm.len()]);
    }

    // 6. Durability is invisible: kill anywhere, resume cold, same answer.
    #[test]
    fn resume_after_kill_equals_cold_resolve(
        kill_point in 1u64..=3,
        torn in proptest::bool::ANY,
    ) {
        let eng = engine();
        let refs = &fixture().truths[0].refs;
        let cold = eng.resolve(&ResolveRequest::new(refs)).clustering;

        let dir = std::env::temp_dir().join(format!(
            "distinct_meta_resume_{}_{kill_point}_{torn}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions::default();
        let req = ResolveRequest::new(refs).resume(&dir);

        // Crash the durable run at the swept write (manifest, similarity,
        // clustering — 3 writes).
        let kind = if torn { FaultKind::Torn } else { FaultKind::Fail };
        let mut vfs = FaultyVfs::new(
            FaultPlan::new(kill_point.wrapping_mul(0x9e37)).with_fault(kill_point, kind),
        );
        let fatal = RunOptions { max_retries: 0, ..opts.clone() };
        let err = eng
            .resolve_durable_with(&req, &mut vfs, &fatal)
            .expect_err("the injected crash must surface");
        prop_assert!(matches!(err, DistinctError::Store(_)), "{}", err);

        // A cold engine resumes to the identical partition.
        let resumed = engine().resolve_durable_with(&req, &mut StdVfs, &opts);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(resumed.is_ok(), "resume failed: {:?}", resumed.err());
        let resumed = resumed.unwrap();
        prop_assert!(resumed.outcome.is_complete());
        prop_assert_eq!(&resumed.outcome.clustering.labels, &cold.labels);
        prop_assert_eq!(
            resumed.outcome.clustering.dendrogram.merges(),
            cold.dendrogram.merges()
        );
    }
}

// ---------------------------------------------------------------------------
// Invariant 7: streaming ≡ batch convergence
// ---------------------------------------------------------------------------

/// A small world with one planted two-entity name, split into a base
/// catalog plus an update log holding out ~15% of the papers.
fn convergence_stream(world_seed: u64) -> UpdateStream {
    let mut config = WorldConfig::tiny(world_seed);
    config.n_authors = 80;
    config.n_venues = 10;
    config.n_communities = 4;
    config.mean_papers_per_author = 4.0;
    config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![6, 5])];
    datagen::update_stream(&config, 0.15, world_seed ^ 0xA5A5).unwrap()
}

fn prepare(catalog: &Catalog) -> Distinct {
    Distinct::prepare(catalog, "Publish", "author", DistinctConfig::default()).unwrap()
}

fn as_updates(log: &[datagen::LogTuple]) -> Vec<UpdateTuple> {
    log.iter()
        .map(|(rel, values)| UpdateTuple::new(rel.clone(), values.clone()))
        .collect()
}

/// Clusters as sorted multisets of `(author, paper_key)` value keys —
/// the partition quotient that is invariant under catalog row order, so
/// streams applied in different orders become comparable.
fn canonical_partition(
    catalog: &Catalog,
    refs: &[TupleRef],
    labels: &[usize],
) -> Vec<Vec<(String, String)>> {
    let clusters = labels.iter().max().map_or(0, |&m| m + 1);
    let mut out = vec![Vec::new(); clusters];
    for (i, r) in refs.iter().enumerate() {
        let values = catalog.relation(r.rel).tuple(r.tid).values();
        out[labels[i]].push((format!("{:?}", values[0]), format!("{:?}", values[1])));
    }
    for cluster in &mut out {
        cluster.sort();
    }
    out.sort();
    out
}

/// Invariant 7 proper: one-tuple-at-a-time streaming over every block
/// order and thread count lands on the cold batch partition.
#[test]
fn streaming_updates_converge_to_cold_batch() {
    for world_seed in [3u64, 7, 21, 33, 47] {
        let stream = convergence_stream(world_seed);
        assert!(stream.held_out_papers > 0, "world {world_seed}: empty log");

        // The orders: the natural dependency order plus two block shuffles.
        let orders = [
            stream.log.clone(),
            datagen::shuffle_log(&stream.log, world_seed ^ 1),
            datagen::shuffle_log(&stream.log, world_seed ^ 2),
        ];

        let mut canonical: Option<Vec<Vec<(String, String)>>> = None;
        for (oi, log) in orders.iter().enumerate() {
            let updates = as_updates(log);
            for threads in [1usize, 4] {
                // Stream one tuple at a time into an engine prepared on
                // the base catalog.
                let mut streamed = prepare(&stream.base.catalog);
                for update in &updates {
                    streamed
                        .apply_updates(std::slice::from_ref(update))
                        .unwrap();
                }
                let refs = streamed.references_of("Wei Wang");
                assert_eq!(refs.len(), 11, "world {world_seed}: planted 6+5 refs");
                let inc = streamed.resolve(&ResolveRequest::new(&refs).threads(threads));

                // Within an order the streamed catalog *is* the union
                // catalog, so the cold batch comparison is exact. Checked
                // on the natural order; shuffles are covered by the
                // canonical cross-order comparison below.
                if oi == 0 {
                    let cold = prepare(streamed.catalog());
                    let batch = cold.resolve(&ResolveRequest::new(&refs).threads(threads));
                    assert_eq!(
                        inc.clustering.labels, batch.clustering.labels,
                        "world {world_seed} threads {threads}: streamed labels != batch"
                    );
                    assert_eq!(
                        inc.clustering.dendrogram.merges(),
                        batch.clustering.dendrogram.merges(),
                        "world {world_seed} threads {threads}: streamed merges != batch"
                    );
                    if threads == 1 {
                        // Stage-level agreement within 1e-9 (bit-identity
                        // is asserted above; the tolerance is the contract).
                        let ps = streamed.stage_probe(&refs);
                        let pc = cold.stage_probe(&refs);
                        for i in 0..refs.len() {
                            for j in 0..refs.len() {
                                let d = (ps.similarity[i][j] - pc.similarity[i][j]).abs();
                                assert!(d <= 1e-9, "world {world_seed}: sim[{i}][{j}] off by {d}");
                            }
                        }
                    }
                }

                // Across orders and thread counts: identical partition of
                // the same logical references.
                let canon = canonical_partition(streamed.catalog(), &refs, &inc.clustering.labels);
                match &canonical {
                    None => canonical = Some(canon),
                    Some(expected) => assert_eq!(
                        expected, &canon,
                        "world {world_seed} order {oi} threads {threads}: partition moved"
                    ),
                }
            }
        }
    }
}

/// Corollary: a log the engine has already absorbed is a no-op to
/// re-apply, and the answer does not move.
#[test]
fn re_streaming_an_absorbed_log_is_idempotent() {
    let stream = convergence_stream(21);
    let updates = as_updates(&stream.log);
    let mut e = prepare(&stream.base.catalog);

    let first = e.apply_updates(&updates).unwrap();
    assert_eq!(first.applied, updates.len());
    let refs = e.references_of("Wei Wang");
    let before = e.resolve(&ResolveRequest::new(&refs));

    let again = e.apply_updates(&updates).unwrap();
    assert_eq!(again.applied, 0, "absorbed tuples must be skipped");
    assert_eq!(again.skipped, updates.len());
    assert_eq!(again.refs_added, 0);
    assert_eq!(again.refs_dirtied, 0, "a no-op update dirties nothing");
    assert!(again.names.is_empty());

    let after = e.resolve(&ResolveRequest::new(&refs));
    assert_eq!(before.clustering.labels, after.clustering.labels);
    assert_eq!(
        before.clustering.dendrogram.merges(),
        after.clustering.dendrogram.merges()
    );
}

/// Corollary: the chunking of the stream is unobservable — 1-tuple
/// chunks, k-tuple chunks, and a single batch land on the same engine
/// state and partition.
#[test]
fn stream_chunking_is_unobservable() {
    let stream = convergence_stream(7);
    let updates = as_updates(&stream.log);

    let chunkings: [&[usize]; 3] = [&[1], &[3, 5], &[usize::MAX]];
    let mut results: Vec<(usize, Vec<usize>, Vec<cluster::Merge>)> = Vec::new();
    for sizes in chunkings {
        let mut e = prepare(&stream.base.catalog);
        let mut applied = 0;
        let mut cursor = 0;
        let mut pick = 0;
        while cursor < updates.len() {
            let take = sizes[pick % sizes.len()].min(updates.len() - cursor);
            pick += 1;
            let report = e.apply_updates(&updates[cursor..cursor + take]).unwrap();
            applied += report.applied;
            cursor += take;
        }
        let refs = e.references_of("Wei Wang");
        let out = e.resolve(&ResolveRequest::new(&refs));
        results.push((
            applied,
            out.clustering.labels.clone(),
            out.clustering.dendrogram.merges().to_vec(),
        ));
    }

    let (applied, labels, merges) = &results[0];
    for (other_applied, other_labels, other_merges) in &results[1..] {
        assert_eq!(applied, other_applied, "chunking changed the applied count");
        assert_eq!(labels, other_labels, "chunking changed the partition");
        assert_eq!(merges, other_merges, "chunking changed the dendrogram");
    }
}
