//! Replayable update streams: a base catalog plus a tuple log whose
//! replay grows the base into the full world.
//!
//! Incremental resolution needs worlds that *arrive over time*. An
//! [`UpdateStream`] splits a generated [`World`] at paper granularity: the
//! **base** catalog holds the full prelude (every author, conference, and
//! proceedings — the venue universe is fixed up front, matching how a
//! bibliography's publication records trickle in long after its venues
//! are known) plus the kept papers; the **log** holds the held-out
//! papers as plain `(relation, values)` tuples, each paper's
//! `Publications` row followed by its `Publish` rows, in original paper
//! order. Replaying the whole log over the base yields a catalog with
//! exactly the union's tuples, and [`UpdateStream::truths`] carries the
//! ground truth in the replayed catalog's reference order.
//!
//! Held-out papers are chosen by a deterministic per-paper hash, so the
//! same `(config, holdout, seed)` triple always produces the same split —
//! shrinkable and replayable like everything else in this crate.
//! [`shuffle_log`] reorders a log at paper-block granularity (each
//! `Publications` row travels with its `Publish` rows), preserving the
//! within-batch dependency order that appends require while exercising
//! "tuples arrive in any order" in the convergence oracle.

use crate::config::WorldConfig;
use crate::dblp::{emit_with_proceedings, DblpDataset, NameGroundTruth};
use crate::world::World;
use relstore::{StoreError, TupleId, TupleRef, Value};
use std::collections::HashMap;

/// One logged tuple: relation name plus attribute values in schema order.
pub type LogTuple = (String, Vec<Value>);

/// A base catalog plus the replayable tuple log that grows it into the
/// full world.
#[derive(Debug, Clone)]
pub struct UpdateStream {
    /// The world minus the held-out papers (prelude complete). Its
    /// `truths` cover only the references present in the base.
    pub base: DblpDataset,
    /// Held-out papers as appendable tuples, dependency-ordered: each
    /// paper's `Publications` row, then its `Publish` rows.
    pub log: Vec<LogTuple>,
    /// Ground truth for the catalog *after* the full log is replayed over
    /// the base in log order, refs in that catalog's tuple order.
    pub truths: Vec<NameGroundTruth>,
    /// Number of papers in the log.
    pub held_out_papers: usize,
}

/// splitmix64 finalizer — the crate's standard deterministic hash.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generate a world and split it into a base dataset plus an update log.
///
/// `holdout` is the approximate fraction of papers withheld into the log
/// (clamped to `[0, 1]`); `seed` drives the per-paper selection hash. At
/// least one paper is always kept in the base (an empty catalog cannot be
/// prepared) and, whenever `holdout > 0`, at least one paper authored by
/// a planted ambiguous entity is withheld — streams exist to exercise
/// updates that touch the interesting names.
pub fn update_stream(
    config: &WorldConfig,
    holdout: f64,
    seed: u64,
) -> Result<UpdateStream, StoreError> {
    let world = World::generate(config.clone());
    let holdout = holdout.clamp(0.0, 1.0);
    let threshold = (holdout * (1u64 << 32) as f64) as u64;
    // entity id -> (group index, entity index within group)
    let planted: HashMap<usize, (usize, usize)> = world
        .ambiguous_groups
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| {
            g.entity_ids
                .iter()
                .enumerate()
                .map(move |(k, &eid)| (eid, (gi, k)))
        })
        .collect();

    let mut held: Vec<bool> = world
        .papers
        .iter()
        .map(|p| {
            mix(seed ^ (p.id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) & 0xffff_ffff < threshold
        })
        .collect();
    if held.iter().all(|&h| h) {
        // Keep at least one paper so the base catalog is preparable.
        if let Some(first) = held.first_mut() {
            *first = false;
        }
    }
    if holdout > 0.0
        && !world
            .papers
            .iter()
            .any(|p| held[p.id] && p.authors.iter().any(|a| planted.contains_key(a)))
    {
        // Force one ambiguous paper into the log.
        if let Some(p) = world
            .papers
            .iter()
            .rev()
            .find(|p| p.authors.iter().any(|a| planted.contains_key(a)))
        {
            held[p.id] = true;
        }
    }

    // The base: `to_catalog`'s emission minus the held-out papers, with
    // the proceedings pass over *all* papers so proc_key numbering
    // matches a union build and every logged paper's proceedings exists.
    let mut filtered = world.clone();
    filtered.papers = world
        .papers
        .iter()
        .filter(|p| !held[p.id])
        .cloned()
        .collect();
    let base = emit_with_proceedings(&filtered, &world)?;

    // The log, in original paper order — and the final ground truth with
    // the tuple ids the replay will assign (Publish ids are per-relation
    // and sequential, so the i-th logged Publish row lands at
    // base_publish_len + i).
    let mut proc_keys: HashMap<(usize, i64), i64> = HashMap::new();
    let mut pairs: Vec<(usize, i64)> = world.papers.iter().map(|p| (p.venue, p.year)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    for (i, &pair) in pairs.iter().enumerate() {
        proc_keys.insert(pair, i as i64 + 1);
    }
    let mut log: Vec<LogTuple> = Vec::new();
    let mut truths: Vec<NameGroundTruth> = base.truths.clone();
    let mut next_publish = base.catalog.relation(base.publish).len() as u32;
    let mut held_out_papers = 0usize;
    for p in world.papers.iter().filter(|p| held[p.id]) {
        held_out_papers += 1;
        let paper_key = Value::Int(p.id as i64 + 1);
        log.push((
            "Publications".to_string(),
            vec![
                paper_key.clone(),
                Value::str(&p.title),
                Value::Int(proc_keys[&(p.venue, p.year)]),
            ],
        ));
        // Two same-named entities co-authoring one paper would emit
        // value-identical Publish rows; update application is idempotent
        // by value and would skip the second, so the log dedups the same
        // way (the first occurrence keeps the row and its ground truth).
        let mut row_names: Vec<&str> = Vec::new();
        for &a in &p.authors {
            let author_name = world.entities[a].name.as_str();
            if row_names.contains(&author_name) {
                continue;
            }
            row_names.push(author_name);
            log.push((
                "Publish".to_string(),
                vec![Value::str(author_name), paper_key.clone()],
            ));
            let t = TupleRef::new(base.publish, TupleId(next_publish));
            next_publish += 1;
            if let Some(&(gi, k)) = planted.get(&a) {
                truths[gi].refs.push(t);
                truths[gi].labels.push(k);
            }
        }
    }

    Ok(UpdateStream {
        base,
        log,
        truths,
        held_out_papers,
    })
}

/// Reorder a log at paper-block granularity with a seeded Fisher–Yates
/// shuffle: each `Publications` row keeps its following `Publish` rows
/// (the within-batch dependency appends need), but papers arrive in a
/// different order. `seed` fully determines the permutation.
pub fn shuffle_log(log: &[LogTuple], seed: u64) -> Vec<LogTuple> {
    // Split into blocks: a block starts at each Publications row. A log
    // produced by `update_stream` always starts with one; be lenient and
    // treat any leading Publish rows as their own block.
    let mut blocks: Vec<Vec<LogTuple>> = Vec::new();
    for t in log {
        if t.0 == "Publications" || blocks.is_empty() {
            blocks.push(Vec::new());
        }
        blocks.last_mut().expect("block exists").push(t.clone());
    }
    let mut state = seed | 1;
    let mut rand = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    for i in (1..blocks.len()).rev() {
        let j = rand(i + 1);
        blocks.swap(i, j);
    }
    blocks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmbiguousSpec;
    use crate::dblp::to_catalog;

    fn config() -> WorldConfig {
        let mut c = WorldConfig::tiny(21);
        c.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![10, 8, 5])];
        c
    }

    #[test]
    fn split_is_deterministic_and_covers_the_world() {
        let a = update_stream(&config(), 0.2, 7).unwrap();
        let b = update_stream(&config(), 0.2, 7).unwrap();
        assert_eq!(a.log, b.log);
        assert_eq!(a.held_out_papers, b.held_out_papers);
        assert!(a.held_out_papers > 0);
        let union = to_catalog(&World::generate(config())).unwrap();
        let pubs = |d: &DblpDataset| {
            d.catalog
                .relation(d.catalog.relation_id("Publications").unwrap())
                .len()
        };
        assert_eq!(
            pubs(&a.base) + a.held_out_papers,
            pubs(&union),
            "base + log papers == union papers"
        );
        // Full prelude: the base knows every proceedings and author.
        for rel in ["Authors", "Conferences", "Proceedings"] {
            let r = a.base.catalog.relation_id(rel).unwrap();
            let ru = union.catalog.relation_id(rel).unwrap();
            assert_eq!(
                a.base.catalog.relation(r).len(),
                union.catalog.relation(ru).len(),
                "{rel} prelude complete"
            );
        }
    }

    #[test]
    fn log_blocks_are_dependency_ordered() {
        let s = update_stream(&config(), 0.25, 11).unwrap();
        assert!(!s.log.is_empty());
        let mut current_paper: Option<Value> = None;
        for (rel, values) in &s.log {
            match rel.as_str() {
                "Publications" => current_paper = Some(values[0].clone()),
                "Publish" => {
                    let owner = current_paper.as_ref().expect("Publish before Publications");
                    assert_eq!(&values[1], owner, "Publish row outside its paper block");
                }
                other => panic!("unexpected relation {other} in log"),
            }
        }
    }

    #[test]
    fn final_truths_extend_base_truths_with_log_references() {
        let s = update_stream(&config(), 0.3, 3).unwrap();
        let union = to_catalog(&World::generate(config())).unwrap();
        for ((base_t, final_t), union_t) in s.base.truths.iter().zip(&s.truths).zip(&union.truths) {
            assert_eq!(base_t.name, final_t.name);
            assert!(final_t.refs.len() >= base_t.refs.len());
            assert_eq!(final_t.refs[..base_t.refs.len()], base_t.refs[..]);
            // Same references in total as a union build — only the order
            // (hence the tuple ids) differs.
            assert_eq!(final_t.refs.len(), union_t.refs.len());
            // And the per-entity histogram is preserved.
            let hist = |labels: &[usize]| {
                let mut h = std::collections::BTreeMap::new();
                for &l in labels {
                    *h.entry(l).or_insert(0usize) += 1;
                }
                h
            };
            assert_eq!(hist(&final_t.labels), hist(&union_t.labels));
        }
        // The stream always withholds at least one ambiguous paper.
        assert!(s.truths[0].refs.len() > s.base.truths[0].refs.len());
    }

    #[test]
    fn shuffle_preserves_blocks_and_multiset() {
        let s = update_stream(&config(), 0.3, 5).unwrap();
        let shuffled = shuffle_log(&s.log, 99);
        assert_eq!(shuffled.len(), s.log.len());
        let sorted = |log: &[LogTuple]| {
            let mut v: Vec<String> = log.iter().map(|t| format!("{t:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(sorted(&shuffled), sorted(&s.log));
        assert_ne!(shuffled, s.log, "a 99-seeded shuffle must move something");
        // Blocks stay dependency-ordered after shuffling.
        let mut current_paper: Option<Value> = None;
        for (rel, values) in &shuffled {
            match rel.as_str() {
                "Publications" => current_paper = Some(values[0].clone()),
                "Publish" => {
                    assert_eq!(values[1], *current_paper.as_ref().unwrap());
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn zero_holdout_is_an_empty_log() {
        let s = update_stream(&config(), 0.0, 1).unwrap();
        assert!(s.log.is_empty());
        assert_eq!(s.held_out_papers, 0);
        assert_eq!(s.truths[0].refs, s.base.truths[0].refs);
    }
}
