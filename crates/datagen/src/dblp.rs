//! Emission of the generated world as a relational catalog in the paper's
//! DBLP schema (Fig. 2), plus ground truth for the planted names.
//!
//! ```text
//! Authors(author KEY)
//! Publish(author -> Authors, paper_key -> Publications)
//! Publications(paper_key KEY, title, proc_key -> Proceedings)
//! Proceedings(proc_key KEY, conference -> Conferences, year, location)
//! Conferences(conference KEY, publisher)
//! ```
//!
//! Proceedings are one per (conference, year) pair that actually occurs.
//! Tuples are inserted in deterministic order; [`relstore::expand_values`]
//! (`relstore::expand`) preserves relation ids and tuple order, so the
//! ground-truth [`TupleRef`]s remain valid in an expanded catalog.

use crate::config::WorldConfig;
use crate::world::{World, WorldStream};
use relstore::{AttrType, Catalog, RelId, SchemaBuilder, StoreError, Tuple, TupleRef, Value};
use std::collections::{BTreeSet, HashMap};

/// Ground truth for one ambiguous name.
#[derive(Debug, Clone)]
pub struct NameGroundTruth {
    /// The shared author name.
    pub name: String,
    /// The Publish tuples that carry this name, in insertion order.
    pub refs: Vec<TupleRef>,
    /// Parallel to `refs`: the entity index *within the group* (0-based)
    /// each reference truly belongs to.
    pub labels: Vec<usize>,
}

impl NameGroundTruth {
    /// Number of distinct entities behind the name.
    pub fn entity_count(&self) -> usize {
        self.labels.iter().copied().max().map_or(0, |m| m + 1)
    }
}

/// The relational dataset: catalog + ground truth + landmark relation ids.
#[derive(Debug, Clone)]
pub struct DblpDataset {
    /// Finalized catalog in the Fig. 2 schema.
    pub catalog: Catalog,
    /// Ground truth per planted name, in config order.
    pub truths: Vec<NameGroundTruth>,
    /// The relation holding references (Publish).
    pub publish: RelId,
    /// The Authors relation.
    pub authors: RelId,
    /// True entity id per Publish tuple (parallel to tuple ids) — covers
    /// *every* reference, not just the planted names, so whole-database
    /// resolutions can be scored (ordinary names can collide too, via the
    /// Zipf name pools).
    pub publish_entities: Vec<usize>,
}

/// Conference locations, assigned deterministically per (venue, year).
const LOCATIONS: &[&str] = &[
    "Athens",
    "Beijing",
    "Chicago",
    "Dublin",
    "Edinburgh",
    "Florence",
    "Geneva",
    "Hanoi",
    "Istanbul",
    "Jakarta",
    "Kyoto",
    "Lisbon",
];

/// Location for a proceedings (venue, year) pair.
fn location_for(venue: usize, year: i64) -> &'static str {
    LOCATIONS[(venue * 31 + year as usize) % LOCATIONS.len()]
}

/// Register the five Fig. 2 relations on a fresh catalog.
fn build_schema() -> Result<Catalog, StoreError> {
    let mut c = Catalog::new();
    c.add_relation(
        SchemaBuilder::new("Authors")
            .key("author", AttrType::Str)
            .build()?,
    )?;
    c.add_relation(
        SchemaBuilder::new("Conferences")
            .key("conference", AttrType::Str)
            .data("publisher", AttrType::Str)
            .build()?,
    )?;
    c.add_relation(
        SchemaBuilder::new("Proceedings")
            .key("proc_key", AttrType::Int)
            .fk("conference", AttrType::Str, "Conferences")
            .data("year", AttrType::Int)
            .data("location", AttrType::Str)
            .build()?,
    )?;
    c.add_relation(
        SchemaBuilder::new("Publications")
            .key("paper_key", AttrType::Int)
            .data("title", AttrType::Str)
            .fk("proc_key", AttrType::Int, "Proceedings")
            .build()?,
    )?;
    c.add_relation(
        SchemaBuilder::new("Publish")
            .fk("author", AttrType::Str, "Authors")
            .fk("paper_key", AttrType::Int, "Publications")
            .build()?,
    )?;
    Ok(c)
}

/// Build the DBLP-schema catalog from a world.
pub fn to_catalog(world: &World) -> Result<DblpDataset, StoreError> {
    emit_with_proceedings(world, world)
}

/// [`to_catalog`], generalized for update-stream bases: papers come from
/// `world`, but the proceedings pass covers every (venue, year) pair of
/// `proceedings_from` — so a base catalog emitted from a paper subset
/// still numbers its proc_keys exactly like a full-world build, and
/// held-out papers replayed later always reference an existing
/// proceedings.
pub(crate) fn emit_with_proceedings(
    world: &World,
    proceedings_from: &World,
) -> Result<DblpDataset, StoreError> {
    let mut c = build_schema()?;

    // Authors: one tuple per distinct display name.
    let mut seen_names: HashMap<&str, ()> = HashMap::new();
    for e in &world.entities {
        if seen_names.insert(e.name.as_str(), ()).is_none() {
            c.insert("Authors", Tuple::new(vec![Value::str(&e.name)]))?;
        }
    }

    // Conferences.
    for v in &world.venues {
        c.insert(
            "Conferences",
            Tuple::new(vec![Value::str(&v.name), Value::str(&v.publisher)]),
        )?;
    }

    // Proceedings: one per (venue, year) occurring in the papers.
    let mut proc_keys: HashMap<(usize, i64), i64> = HashMap::new();
    let mut pairs: Vec<(usize, i64)> = proceedings_from
        .papers
        .iter()
        .map(|p| (p.venue, p.year))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    for (i, &(venue, year)) in pairs.iter().enumerate() {
        let key = i as i64 + 1;
        proc_keys.insert((venue, year), key);
        c.insert(
            "Proceedings",
            Tuple::new(vec![
                Value::Int(key),
                Value::str(&world.venues[venue].name),
                Value::Int(year),
                Value::str(location_for(venue, year)),
            ]),
        )?;
    }

    // Publications.
    for p in &world.papers {
        let proc_key = proc_keys[&(p.venue, p.year)];
        c.insert(
            "Publications",
            Tuple::new(vec![
                Value::Int(p.id as i64 + 1),
                Value::str(&p.title),
                Value::Int(proc_key),
            ]),
        )?;
    }

    // Publish (authorship records), tracking planted references.
    // entity id -> (group index, entity index within group)
    let mut planted: HashMap<usize, (usize, usize)> = HashMap::new();
    for (gi, g) in world.ambiguous_groups.iter().enumerate() {
        for (k, &eid) in g.entity_ids.iter().enumerate() {
            planted.insert(eid, (gi, k));
        }
    }
    let mut truths: Vec<NameGroundTruth> = world
        .ambiguous_groups
        .iter()
        .map(|g| NameGroundTruth {
            name: g.name.clone(),
            refs: Vec::new(),
            labels: Vec::new(),
        })
        .collect();
    let mut publish_entities = Vec::new();
    for p in &world.papers {
        for &a in &p.authors {
            let t = c.insert(
                "Publish",
                Tuple::new(vec![
                    Value::str(&world.entities[a].name),
                    Value::Int(p.id as i64 + 1),
                ]),
            )?;
            publish_entities.push(a);
            if let Some(&(gi, k)) = planted.get(&a) {
                truths[gi].refs.push(t);
                truths[gi].labels.push(k);
            }
        }
    }

    c.finalize(true)?;
    let publish = c.relation_id("Publish").expect("Publish registered");
    let authors = c.relation_id("Authors").expect("Authors registered");
    Ok(DblpDataset {
        catalog: c,
        truths,
        publish,
        authors,
        publish_entities,
    })
}

/// Build the DBLP-schema catalog by streaming papers instead of
/// materializing a [`World`].
///
/// Two deterministic passes over a [`WorldStream`]: pass one discovers
/// the (venue, year) pairs that need Proceedings tuples while discarding
/// each paper as soon as it is seen; pass two replays the stream and
/// emits the Publications row and Publish rows of each paper before
/// dropping it. Peak memory is the prelude (entities, venues) plus the
/// catalog under construction plus one paper — never the full paper list
/// — which is what makes [`WorldConfig::paper_scale`] worlds emittable.
///
/// The output is bit-identical to [`to_catalog`] on
/// [`World::generate`] of the same config: both consume the same stream,
/// and tuple ids are per-relation, so interleaving Publications and
/// Publish inserts does not change any [`TupleRef`].
pub fn stream_to_catalog(config: &WorldConfig) -> Result<DblpDataset, StoreError> {
    // --- Pass 1: proceedings discovery --------------------------------
    let mut pairs: BTreeSet<(usize, i64)> = BTreeSet::new();
    for p in WorldStream::new(config.clone()) {
        pairs.insert((p.venue, p.year));
    }

    // --- Prelude tuples ------------------------------------------------
    let stream = WorldStream::new(config.clone());
    let mut c = build_schema()?;
    let mut seen_names: HashMap<String, ()> = HashMap::new();
    for e in stream.entities() {
        if seen_names.insert(e.name.clone(), ()).is_none() {
            c.insert("Authors", Tuple::new(vec![Value::str(&e.name)]))?;
        }
    }
    for v in stream.venues() {
        c.insert(
            "Conferences",
            Tuple::new(vec![Value::str(&v.name), Value::str(&v.publisher)]),
        )?;
    }
    let venue_names: Vec<String> = stream.venues().iter().map(|v| v.name.clone()).collect();
    let mut proc_keys: HashMap<(usize, i64), i64> = HashMap::new();
    for (i, &(venue, year)) in pairs.iter().enumerate() {
        let key = i as i64 + 1;
        proc_keys.insert((venue, year), key);
        c.insert(
            "Proceedings",
            Tuple::new(vec![
                Value::Int(key),
                Value::str(&venue_names[venue]),
                Value::Int(year),
                Value::str(location_for(venue, year)),
            ]),
        )?;
    }

    // --- Pass 2: papers, one at a time ---------------------------------
    // entity id -> (group index, entity index within group)
    let mut planted: HashMap<usize, (usize, usize)> = HashMap::new();
    for (gi, g) in stream.ambiguous_groups().iter().enumerate() {
        for (k, &eid) in g.entity_ids.iter().enumerate() {
            planted.insert(eid, (gi, k));
        }
    }
    let mut truths: Vec<NameGroundTruth> = stream
        .ambiguous_groups()
        .iter()
        .map(|g| NameGroundTruth {
            name: g.name.clone(),
            refs: Vec::new(),
            labels: Vec::new(),
        })
        .collect();
    let entity_names: Vec<String> = stream.entities().iter().map(|e| e.name.clone()).collect();
    let mut publish_entities = Vec::new();
    for p in stream {
        let proc_key = proc_keys[&(p.venue, p.year)];
        c.insert(
            "Publications",
            Tuple::new(vec![
                Value::Int(p.id as i64 + 1),
                Value::str(&p.title),
                Value::Int(proc_key),
            ]),
        )?;
        for &a in &p.authors {
            let t = c.insert(
                "Publish",
                Tuple::new(vec![
                    Value::str(&entity_names[a]),
                    Value::Int(p.id as i64 + 1),
                ]),
            )?;
            publish_entities.push(a);
            if let Some(&(gi, k)) = planted.get(&a) {
                truths[gi].refs.push(t);
                truths[gi].labels.push(k);
            }
        }
    }

    c.finalize(true)?;
    let publish = c.relation_id("Publish").expect("Publish registered");
    let authors = c.relation_id("Authors").expect("Authors registered");
    Ok(DblpDataset {
        catalog: c,
        truths,
        publish,
        authors,
        publish_entities,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AmbiguousSpec, WorldConfig};

    fn dataset() -> DblpDataset {
        let mut config = WorldConfig::tiny(11);
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![12, 8, 4])];
        to_catalog(&World::generate(config)).unwrap()
    }

    #[test]
    fn schema_matches_fig2() {
        let d = dataset();
        for rel in [
            "Authors",
            "Publish",
            "Publications",
            "Proceedings",
            "Conferences",
        ] {
            assert!(d.catalog.relation_id(rel).is_some(), "missing {rel}");
        }
        let labels: Vec<&str> = d
            .catalog
            .fk_edges()
            .iter()
            .map(|e| e.label.as_str())
            .collect();
        assert!(labels.contains(&"Publish.author->Authors"));
        assert!(labels.contains(&"Publish.paper_key->Publications"));
        assert!(labels.contains(&"Publications.proc_key->Proceedings"));
        assert!(labels.contains(&"Proceedings.conference->Conferences"));
    }

    #[test]
    fn integrity_holds() {
        let d = dataset();
        assert!(d.catalog.is_finalized());
    }

    #[test]
    fn ground_truth_counts_match_spec() {
        let d = dataset();
        assert_eq!(d.truths.len(), 1);
        let t = &d.truths[0];
        assert_eq!(t.name, "Wei Wang");
        assert_eq!(t.refs.len(), 24);
        assert_eq!(t.labels.len(), 24);
        assert_eq!(t.entity_count(), 3);
        // Label histogram matches refs_per_entity.
        let mut hist = vec![0usize; 3];
        for &l in &t.labels {
            hist[l] += 1;
        }
        assert_eq!(hist, vec![12, 8, 4]);
    }

    #[test]
    fn ground_truth_refs_point_at_the_name() {
        let d = dataset();
        let t = &d.truths[0];
        for &r in &t.refs {
            assert_eq!(r.rel, d.publish);
            let name = d.catalog.value(r, 0);
            assert_eq!(name.as_str(), Some("Wei Wang"));
        }
    }

    #[test]
    fn all_name_references_are_in_ground_truth() {
        // Every Publish row with the planted name must appear in refs —
        // no stray "Wei Wang" from the ordinary population (the planted
        // name uses title-case words outside the synthetic pools).
        let d = dataset();
        let t = &d.truths[0];
        let publish = d.catalog.relation(d.publish);
        let count = publish
            .iter()
            .filter(|(_, tup)| tup.get(0).as_str() == Some("Wei Wang"))
            .count();
        assert_eq!(count, t.refs.len());
    }

    #[test]
    fn shared_name_is_one_author_tuple() {
        let d = dataset();
        let authors = d.catalog.relation(d.authors);
        let hits = authors
            .iter()
            .filter(|(_, tup)| tup.get(0).as_str() == Some("Wei Wang"))
            .count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn proceedings_unique_per_venue_year() {
        let d = dataset();
        let procs = d.catalog.relation_id("Proceedings").unwrap();
        let rel = d.catalog.relation(procs);
        let mut seen = std::collections::HashSet::new();
        for (_, tup) in rel.iter() {
            let venue = tup.get(1).as_str().unwrap().to_string();
            let year = tup.get(2).as_int().unwrap();
            assert!(seen.insert((venue, year)), "duplicate proceedings");
        }
    }

    #[test]
    fn expansion_preserves_ground_truth_refs() {
        let d = dataset();
        let ex = relstore::expand_values(&d.catalog).unwrap();
        let t = &d.truths[0];
        for &r in &t.refs {
            // Same tuple, same name, in the expanded catalog.
            let name = ex.catalog.value(r, 0);
            assert_eq!(name.as_str(), Some("Wei Wang"));
        }
        // Publisher, year, location, title expanded.
        let names: Vec<String> = ex
            .expanded
            .iter()
            .map(|e| e.pseudo_relation.clone())
            .collect();
        assert!(names.contains(&"Conferences#publisher".to_string()));
        assert!(names.contains(&"Proceedings#year".to_string()));
        assert!(names.contains(&"Proceedings#location".to_string()));
        assert!(names.contains(&"Publications#title".to_string()));
    }

    #[test]
    fn publish_entities_cover_every_reference() {
        let d = dataset();
        let publish = d.catalog.relation(d.publish);
        assert_eq!(d.publish_entities.len(), publish.len());
        // The entity's name matches the tuple's author value everywhere.
        let config = {
            let mut c = WorldConfig::tiny(11);
            c.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![12, 8, 4])];
            c
        };
        let world = World::generate(config);
        for ((_, tup), &eid) in publish.iter().zip(&d.publish_entities) {
            assert_eq!(tup.get(0).as_str().unwrap(), world.entities[eid].name);
        }
    }

    #[test]
    fn streaming_catalog_is_bit_identical_to_monolithic() {
        let config = {
            let mut c = WorldConfig::tiny(13);
            c.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![9, 6, 3])];
            c
        };
        let mono = to_catalog(&World::generate(config.clone())).unwrap();
        let streamed = stream_to_catalog(&config).unwrap();
        for rel in [
            "Authors",
            "Conferences",
            "Proceedings",
            "Publications",
            "Publish",
        ] {
            let ra = mono.catalog.relation_id(rel).unwrap();
            let rb = streamed.catalog.relation_id(rel).unwrap();
            assert_eq!(ra, rb, "{rel} relation id");
            let a = mono.catalog.relation(ra);
            let b = streamed.catalog.relation(rb);
            assert_eq!(a.len(), b.len(), "{rel} cardinality");
            for ((ia, ta), (ib, tb)) in a.iter().zip(b.iter()) {
                assert_eq!(ia, ib, "{rel} tuple id");
                assert_eq!(ta, tb, "{rel} tuple {ia:?}");
            }
        }
        assert_eq!(mono.publish_entities, streamed.publish_entities);
        assert_eq!(mono.truths.len(), streamed.truths.len());
        for (x, y) in mono.truths.iter().zip(&streamed.truths) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.refs, y.refs);
            assert_eq!(x.labels, y.labels);
        }
        assert!(streamed.catalog.is_finalized());
    }

    #[test]
    fn catalog_scale_is_sane() {
        let d = dataset();
        let papers = d.catalog.relation_id("Publications").unwrap();
        let publish = d.catalog.relation(d.publish);
        assert!(d.catalog.relation(papers).len() > 100);
        assert!(publish.len() > d.catalog.relation(papers).len());
    }
}
