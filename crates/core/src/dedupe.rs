//! Whole-database object distinction: resolve *every* name at once.
//!
//! The paper evaluates DISTINCT name-by-name; a production deployment
//! wants the closure of that process — one pass over the reference
//! relation that assigns every reference a global entity id, splitting
//! each shared name into as many entities as the linkage evidence
//! supports. Names are independent (references with different names can
//! never corefer in this problem setting), so the pass fans the names out
//! as independent work items and commits their clusterings in order. The
//! durable update stream re-resolves the names each chunk affected
//! through the same fan-out.

use crate::control::RunControl;
use crate::pipeline::Distinct;
use crate::request::ResolveRequest;
use cluster::Clustering;
use relstore::{FxHashMap, TupleRef, Value};
use serde::{Deserialize, Serialize};

/// Options for a whole-database resolution pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DedupeOptions {
    /// Names with fewer references than this are assigned one entity
    /// without clustering (a single reference cannot be split; the paper
    /// likewise drops sparsely-referenced authors from evaluation).
    pub min_refs_to_cluster: usize,
    /// Skip names with more references than this (safety valve: pairwise
    /// profile comparison is quadratic per name).
    pub max_refs_per_name: usize,
    /// Worker threads for the per-name fan-out: each clusterable name is
    /// one work item (0 or 1 resolves the names in order on the calling
    /// thread; results are identical either way).
    pub threads: usize,
}

impl Default for DedupeOptions {
    fn default() -> Self {
        DedupeOptions {
            min_refs_to_cluster: 2,
            max_refs_per_name: 2_000,
            threads: 1,
        }
    }
}

/// Result of resolving one name within a pass.
#[derive(Debug, Clone)]
pub struct NameResolution {
    /// The shared name.
    pub name: String,
    /// Number of references.
    pub refs: usize,
    /// Number of entities the references were split into.
    pub entities: usize,
}

/// A global entity assignment over the reference relation.
#[derive(Debug, Clone, Default)]
pub struct EntityAssignment {
    /// Entity id per reference.
    entity_of: FxHashMap<TupleRef, usize>,
    /// Per-name resolution summaries, in processing order.
    pub resolutions: Vec<NameResolution>,
    /// Names skipped because they exceeded `max_refs_per_name` (or,
    /// never under the pass's own unlimited control, because a tripped
    /// control refused their work item).
    pub skipped: Vec<String>,
    next_entity: usize,
}

impl EntityAssignment {
    /// The entity id of a reference, if it was assigned.
    pub fn entity(&self, r: TupleRef) -> Option<usize> {
        self.entity_of.get(&r).copied()
    }

    /// Number of assigned references.
    pub fn assigned_refs(&self) -> usize {
        self.entity_of.len()
    }

    /// Total number of entities.
    pub fn entity_count(&self) -> usize {
        self.next_entity
    }

    /// Names whose references were split into more than one entity.
    pub fn split_names(&self) -> Vec<&NameResolution> {
        self.resolutions.iter().filter(|r| r.entities > 1).collect()
    }

    /// References grouped by entity id.
    pub fn groups(&self) -> Vec<Vec<TupleRef>> {
        let mut out = vec![Vec::new(); self.next_entity];
        let mut items: Vec<(&TupleRef, &usize)> = self.entity_of.iter().collect();
        items.sort();
        for (&r, &e) in items {
            out[e].push(r);
        }
        out
    }
}

impl Distinct {
    /// Resolve every name in the reference relation, producing a global
    /// [`EntityAssignment`]. Deterministic: names are committed in the
    /// order of their first appearance in the relation.
    ///
    /// Each clusterable name is one work item of the name fan-out that
    /// the durable update stream also uses, on [`DedupeOptions::threads`]
    /// workers (the calling thread among them): one [`Distinct::resolve`]
    /// at `.threads(1)`, charged per name against the pass's
    /// [`RunControl`]. Names share the engine's profile cache and arena
    /// pool, and every resolve is a pure function of its references, so
    /// the assignment is identical at any thread count.
    pub fn resolve_all(&self, opts: &DedupeOptions) -> EntityAssignment {
        // Collect references per name in first-appearance order.
        let rel = self.catalog().relation(self.paths().start);
        let attr = self.ref_attr_index();
        // distinct-lint: allow(D110, reason="one entry per distinct name, grown once by the single grouping scan; the names are the pass's work list, so there is nothing to reuse")
        let mut order: Vec<Value> = Vec::new();
        let mut by_name: FxHashMap<Value, Vec<TupleRef>> = FxHashMap::default();
        for (tid, t) in rel.iter() {
            let v = t.get(attr);
            if v.is_null() {
                continue;
            }
            let entry = by_name.entry(v.clone()).or_default();
            if entry.is_empty() {
                order.push(v.clone());
            }
            entry.push(TupleRef::new(self.paths().start, tid));
        }

        let clusterable: Vec<&[TupleRef]> = order
            .iter()
            .map(|name| by_name[name].as_slice())
            .filter(|refs| {
                refs.len() >= opts.min_refs_to_cluster && refs.len() <= opts.max_refs_per_name
            })
            .collect();
        let executor = if opts.threads <= 1 {
            exec::Executor::sequential()
        } else {
            exec::Executor::with_threads(opts.threads)
        };
        let ctl = RunControl::new();
        let mut resolved = self
            .resolve_names(&clusterable, &executor, &ctl, &ctl.shared_guard())
            .into_iter();

        let mut assignment = EntityAssignment::default();
        for name in order {
            let refs = &by_name[&name];
            // distinct-lint: allow(D110, reason="each name's display string moves into the assignment (a resolution or a skipped entry)")
            let display = name.to_string();
            if refs.len() > opts.max_refs_per_name {
                assignment.skipped.push(display);
                continue;
            }
            let base = assignment.next_entity;
            let entities = if refs.len() < opts.min_refs_to_cluster {
                for &r in refs {
                    assignment.entity_of.insert(r, base);
                }
                1
            } else if let Some(clustering) = resolved.next().flatten() {
                for (&r, &label) in refs.iter().zip(&clustering.labels) {
                    assignment.entity_of.insert(r, base + label);
                }
                clustering.cluster_count()
            } else {
                assignment.skipped.push(display);
                continue;
            };
            assignment.next_entity += entities;
            assignment.resolutions.push(NameResolution {
                name: display,
                refs: refs.len(),
                entities,
            });
        }
        assignment
    }

    /// The one name fan-out, behind [`Distinct::resolve_all`] and the live
    /// chunks of [`Distinct::apply_update_stream_with`]: each name's
    /// references are one work item on `executor`, charged their count
    /// against `guard` and resolved by one [`Distinct::resolve`] at
    /// `.threads(1)`, so a small name never fans out over a pool of its
    /// own. Clusterings come back in input order; an item refused by a
    /// tripped `ctl` (or by `guard`) comes back `None`. References with
    /// different names never co-refer, and every resolve is a pure
    /// function of its references, so the result is identical at any
    /// thread count.
    pub(crate) fn resolve_names(
        &self,
        names: &[&[TupleRef]],
        executor: &exec::Executor,
        ctl: &RunControl,
        guard: &(dyn Fn(u64) -> bool + Sync),
    ) -> Vec<Option<Clustering>> {
        let (resolved, _) = executor.par_map_guarded(
            names,
            |_, refs| {
                guard(refs.len() as u64).then(|| {
                    self.resolve(&ResolveRequest::new(refs).threads(1))
                        .clustering
                })
            },
            || ctl.status().is_some(),
        );
        resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DistinctConfig, TrainingConfig};
    use datagen::{to_catalog, AmbiguousSpec, World, WorldConfig};

    fn engine_and_truth() -> (Distinct, datagen::DblpDataset) {
        let mut config = WorldConfig::tiny(7);
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![8, 6])];
        let d = to_catalog(&World::generate(config)).unwrap();
        let cfg = DistinctConfig {
            training: TrainingConfig {
                positives: 60,
                negatives: 60,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = Distinct::prepare(&d.catalog, "Publish", "author", cfg).unwrap();
        engine.train().unwrap();
        (engine, d)
    }

    #[test]
    fn every_reference_is_assigned_exactly_once() {
        let (engine, d) = engine_and_truth();
        let assignment = engine.resolve_all(&DedupeOptions::default());
        let publish = d.catalog.relation(d.publish);
        assert_eq!(assignment.assigned_refs(), publish.len());
        // Groups partition the reference set.
        let total: usize = assignment.groups().iter().map(Vec::len).sum();
        assert_eq!(total, publish.len());
        assert!(assignment.skipped.is_empty());
    }

    #[test]
    fn same_name_refs_share_name_and_entities_respect_names() {
        // References with different names can never share an entity.
        let (engine, d) = engine_and_truth();
        let assignment = engine.resolve_all(&DedupeOptions::default());
        for group in assignment.groups() {
            let names: std::collections::HashSet<String> = group
                .iter()
                .map(|&r| d.catalog.value(r, 0).to_string())
                .collect();
            assert!(names.len() <= 1, "entity spans names: {names:?}");
        }
    }

    #[test]
    fn planted_name_is_split() {
        let (engine, _d) = engine_and_truth();
        let assignment = engine.resolve_all(&DedupeOptions::default());
        let wei = assignment
            .resolutions
            .iter()
            .find(|r| r.name == "Wei Wang")
            .expect("Wei Wang resolved");
        assert_eq!(wei.refs, 14);
        assert!(wei.entities >= 2, "planted ambiguity not split");
        assert!(!assignment.split_names().is_empty());
    }

    #[test]
    fn entity_count_bounds() {
        let (engine, d) = engine_and_truth();
        let assignment = engine.resolve_all(&DedupeOptions::default());
        let names = d.catalog.relation(d.authors).len();
        // At least one entity per name, at most one per reference.
        assert!(assignment.entity_count() >= names);
        assert!(assignment.entity_count() <= assignment.assigned_refs());
    }

    #[test]
    fn max_refs_safety_valve() {
        let (engine, _) = engine_and_truth();
        let opts = DedupeOptions {
            max_refs_per_name: 5,
            ..Default::default()
        };
        let assignment = engine.resolve_all(&opts);
        assert!(assignment.skipped.contains(&"Wei Wang".to_string()));
        // Skipped references are not assigned.
        for r in &assignment.resolutions {
            assert!(r.refs <= 5);
        }
    }

    #[test]
    fn deterministic() {
        let (engine, _) = engine_and_truth();
        let a = engine.resolve_all(&DedupeOptions::default());
        let b = engine.resolve_all(&DedupeOptions::default());
        assert_eq!(a.entity_count(), b.entity_count());
        assert_eq!(a.groups(), b.groups());
    }

    /// Every observable field of an assignment: each reference's entity
    /// (in relation order), the resolutions in order, the skipped names
    /// and the entity count.
    #[allow(clippy::type_complexity)]
    fn fields(
        a: &EntityAssignment,
        d: &datagen::DblpDataset,
    ) -> (
        Vec<Option<usize>>,
        Vec<(String, usize, usize)>,
        Vec<String>,
        usize,
    ) {
        let entities = d
            .catalog
            .relation(d.publish)
            .iter()
            .map(|(tid, _)| a.entity(TupleRef::new(d.publish, tid)))
            .collect();
        let resolutions = a
            .resolutions
            .iter()
            .map(|r| (r.name.clone(), r.refs, r.entities))
            .collect();
        (entities, resolutions, a.skipped.clone(), a.entity_count())
    }

    #[test]
    fn name_fan_out_is_identical_at_1_2_and_8_threads() {
        const MAX: usize = 20;
        let opts = |threads| DedupeOptions {
            max_refs_per_name: MAX,
            threads,
            ..Default::default()
        };
        let (engine, d) = engine_and_truth();
        let serial = engine.resolve_all(&opts(1));

        // Names in first-appearance order: a skipped one must sit between
        // clustered ones, so the in-order commit has a gap to respect.
        let mut names: Vec<String> = Vec::new();
        let mut refs_of: FxHashMap<String, Vec<TupleRef>> = FxHashMap::default();
        for (tid, _) in d.catalog.relation(d.publish).iter() {
            let r = TupleRef::new(d.publish, tid);
            let refs = refs_of
                .entry(d.catalog.value(r, 0).to_string())
                .or_default();
            if refs.is_empty() {
                names.push(d.catalog.value(r, 0).to_string());
            }
            refs.push(r);
        }
        let clustered = |name: &String| (2..=MAX).contains(&refs_of[name].len());
        let skip_between_clustered = (0..names.len()).any(|g| {
            serial.skipped.contains(&names[g])
                && names[..g].iter().any(clustered)
                && names[g + 1..].iter().any(clustered)
        });
        assert!(
            skip_between_clustered,
            "no skipped name between clustered ones"
        );

        // The pass equals an independent per-name replay, committed in
        // first-appearance order.
        let mut next = 0;
        for name in &names {
            let refs = &refs_of[name];
            if refs.len() > MAX {
                continue;
            }
            let clustering = engine.resolve(&ResolveRequest::new(refs)).clustering;
            for (&r, &label) in refs.iter().zip(&clustering.labels) {
                assert_eq!(serial.entity(r), Some(next + label), "{name}");
            }
            next += clustering.cluster_count();
        }
        assert_eq!(serial.entity_count(), next);
        let over: Vec<&String> = names.iter().filter(|n| refs_of[*n].len() > MAX).collect();
        assert_eq!(serial.skipped.iter().collect::<Vec<_>>(), over);

        for threads in [1, 2, 8] {
            let (fresh, _) = engine_and_truth();
            let got = fresh.resolve_all(&opts(threads));
            assert_eq!(fields(&got, &d), fields(&serial, &d), "threads = {threads}");
        }
    }
}
