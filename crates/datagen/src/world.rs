//! The synthetic bibliographic world: entities, communities, venues, and
//! papers with community-structured coauthorship.
//!
//! Structural properties (the ones DISTINCT exploits, per §1–2 of the
//! paper):
//!
//! * every real author (entity) belongs to a research community; coauthors
//!   come overwhelmingly from that community, with sticky repeat
//!   collaborations — so references to one entity share coauthor context;
//! * each community prefers a small set of venues — so references to one
//!   entity share conference context;
//! * a configurable fraction of papers pull a coauthor from a foreign
//!   community — the cross-linkage noise that produces realistic errors;
//! * planted ambiguous entities share one author string but live in
//!   different communities (two may share a community when the spec packs
//!   more entities than communities, mirroring the genuinely hard cases).

use crate::config::{AmbiguousSpec, WorldConfig};
use crate::names::NamePool;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Identifier of an entity (a real author).
pub type EntityId = usize;

/// One real author.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Dense id.
    pub id: EntityId,
    /// Display name ("First Last") — shared across entities for planted
    /// ambiguous names.
    pub name: String,
    /// Home community.
    pub community: usize,
    /// Number of authorship records this entity must produce.
    pub target_refs: usize,
    /// True if this entity belongs to a planted ambiguous group.
    pub planted: bool,
    /// Active publication years, inclusive (real authors publish within a
    /// career window, which makes the year attribute genuinely
    /// informative — namesakes from different eras rarely overlap).
    pub active_years: (i64, i64),
}

/// One venue (conference series).
#[derive(Debug, Clone)]
pub struct Venue {
    /// Dense id.
    pub id: usize,
    /// Conference name, unique.
    pub name: String,
    /// Publisher name.
    pub publisher: String,
}

/// One paper.
#[derive(Debug, Clone)]
pub struct Paper {
    /// Dense id.
    pub id: usize,
    /// Title (unique).
    pub title: String,
    /// Venue id.
    pub venue: usize,
    /// Publication year.
    pub year: i64,
    /// Author entities, in byline order (no duplicates).
    pub authors: Vec<EntityId>,
}

/// A planted ambiguous group: which entities share the name.
#[derive(Debug, Clone)]
pub struct AmbiguousGroup {
    /// The shared name.
    pub name: String,
    /// Entity ids sharing it (index = entity number within the group).
    pub entity_ids: Vec<EntityId>,
}

/// The generated world.
#[derive(Debug, Clone)]
pub struct World {
    /// Configuration it was generated from.
    pub config: WorldConfig,
    /// All entities; planted ones come after the ordinary ones.
    pub entities: Vec<Entity>,
    /// All venues.
    pub venues: Vec<Venue>,
    /// All papers.
    pub papers: Vec<Paper>,
    /// Planted groups with ground truth entity ids.
    pub ambiguous_groups: Vec<AmbiguousGroup>,
    /// Per-community preferred venue ids.
    pub community_venues: Vec<Vec<usize>>,
}

/// Venue name for an index (deterministic, acronym-like).
fn venue_name(i: usize) -> String {
    const STEMS: &[&str] = &[
        "VLDB", "SIGMOD", "ICDE", "KDD", "ICDM", "SDM", "CIKM", "WWW", "EDBT", "PODS", "DASFAA",
        "PAKDD", "SSDBM", "WSDM", "ECML", "ICML", "AAAI", "IJCAI", "SIGIR", "WISE",
    ];
    if i < STEMS.len() {
        STEMS[i].to_string()
    } else {
        format!("{}-{}", STEMS[i % STEMS.len()], i / STEMS.len() + 1)
    }
}

/// Publisher name for an index.
fn publisher_name(i: usize) -> String {
    const NAMES: &[&str] = &[
        "ACM",
        "IEEE",
        "Springer",
        "Elsevier",
        "Morgan Kaufmann",
        "USENIX",
    ];
    if i < NAMES.len() {
        NAMES[i].to_string()
    } else {
        format!("Press-{i}")
    }
}

impl World {
    /// Generate a world from a configuration.
    ///
    /// Implemented by draining a [`WorldStream`], so a chunked consumer of
    /// the stream sees bit-for-bit the papers this returns.
    ///
    /// # Panics
    /// Panics if the configuration fails [`WorldConfig::validate`].
    pub fn generate(config: WorldConfig) -> World {
        let mut stream = WorldStream::new(config);
        let papers: Vec<Paper> = stream.by_ref().collect();
        stream.into_world(papers)
    }

    /// Entities in a community.
    pub fn community_members(&self, community: usize) -> Vec<EntityId> {
        self.entities
            .iter()
            .filter(|e| e.community == community)
            .map(|e| e.id)
            .collect()
    }

    /// Total number of authorship records across all papers.
    pub fn reference_count(&self) -> usize {
        self.papers.iter().map(|p| p.authors.len()).sum()
    }

    /// Number of references produced for an entity.
    pub fn refs_of(&self, entity: EntityId) -> usize {
        self.papers
            .iter()
            .map(|p| p.authors.iter().filter(|&&a| a == entity).count())
            .sum()
    }
}

/// Create the entities for one ambiguous spec, assigning communities
/// round-robin so entities sharing the name differ in context wherever
/// the community budget allows.
///
/// Also plants *namesake* ordinary authors sharing the first or last token
/// of the ambiguous name ("Wei Xu", "Jing Wang"). Real ambiguous names are
/// ambiguous precisely because their parts are common; without namesakes
/// the automatic training-set builder would judge the planted name rare —
/// hence unique — and feed cross-entity pairs to the SVM as positives.
fn plant_group(
    spec: &AmbiguousSpec,
    entities: &mut Vec<Entity>,
    n_communities: usize,
    year_range: (i64, i64),
    first_pool: &NamePool,
    last_pool: &NamePool,
    rng: &mut StdRng,
) -> AmbiguousGroup {
    let start_comm = rng.gen_range(0..n_communities);
    let mut entity_ids = Vec::with_capacity(spec.refs_per_entity.len());
    for (k, &refs) in spec.refs_per_entity.iter().enumerate() {
        let id = entities.len();
        entities.push(Entity {
            id,
            name: spec.name.clone(),
            community: (start_comm + k) % n_communities,
            target_refs: refs,
            planted: true,
            active_years: career_window(year_range, rng),
        });
        entity_ids.push(id);
    }
    // Namesakes: 6 sharing the first token, 6 sharing the last token.
    let tokens: Vec<&str> = spec.name.split_whitespace().collect();
    if let (Some(&first_tok), Some(&last_tok)) = (tokens.first(), tokens.last()) {
        for _ in 0..6 {
            let id = entities.len();
            entities.push(Entity {
                id,
                name: format!("{first_tok} {}", last_pool.sample(rng)),
                community: rng.gen_range(0..n_communities),
                target_refs: 3 + rng.gen_range(0..4),
                planted: false,
                active_years: career_window(year_range, rng),
            });
            let id = id + 1;
            entities.push(Entity {
                id,
                name: format!("{} {last_tok}", first_pool.sample(rng)),
                community: rng.gen_range(0..n_communities),
                target_refs: 3 + rng.gen_range(0..4),
                planted: false,
                active_years: career_window(year_range, rng),
            });
        }
    }
    AmbiguousGroup {
        name: spec.name.clone(),
        entity_ids,
    }
}

/// Draw a career window: a 5–10 year active span inside the global range
/// (clamped to it).
fn career_window(range: (i64, i64), rng: &mut StdRng) -> (i64, i64) {
    let (lo, hi) = range;
    let span = (hi - lo).max(0);
    let duration = rng.gen_range(5..=10).min(span + 1);
    let start = lo + rng.gen_range(0..=(span + 1 - duration).max(0));
    (start, (start + duration - 1).min(hi))
}

/// Streaming world generator: the prelude (venues, communities, entities,
/// planted groups) is materialized eagerly — it stays small even at paper
/// scale — while papers are produced one at a time on demand, so a
/// paper-scale world (~127K authors, ~616K papers, ~1.29M references; see
/// [`WorldConfig::paper_scale`]) can be emitted into a catalog chunk by
/// chunk without ever holding the full paper list in memory.
///
/// The stream is bit-identical to [`World::generate`]: `generate` is
/// itself implemented by draining a `WorldStream`, so every paper id,
/// byline, venue, year, and RNG draw matches the monolithic path.
pub struct WorldStream {
    config: WorldConfig,
    entities: Vec<Entity>,
    venues: Vec<Venue>,
    ambiguous_groups: Vec<AmbiguousGroup>,
    community_venues: Vec<Vec<usize>>,
    rng: StdRng,
    /// Community membership lists for fresh-coauthor draws.
    members: Vec<Vec<EntityId>>,
    /// Remaining reference budget per entity.
    budget: Vec<usize>,
    /// Past same-community collaborators per entity.
    collaborators: Vec<Vec<EntityId>>,
    /// Lead authors in shuffled order, revisited while they have budget.
    leads: Vec<EntityId>,
    lead_pos: usize,
    progressed: bool,
    emitted: usize,
    title_counter: usize,
    done: bool,
}

impl WorldStream {
    /// Build the world prelude and position the stream at the first paper.
    ///
    /// # Panics
    /// Panics if the configuration fails [`WorldConfig::validate`].
    pub fn new(config: WorldConfig) -> WorldStream {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid WorldConfig: {e}"));
        let mut rng = StdRng::seed_from_u64(config.seed);

        // --- Venues & publishers -----------------------------------------
        let venues: Vec<Venue> = (0..config.n_venues)
            .map(|i| Venue {
                id: i,
                name: venue_name(i),
                publisher: publisher_name(rng.gen_range(0..config.n_publishers)),
            })
            .collect();

        // Preferred venues per community.
        let mut community_venues = Vec::with_capacity(config.n_communities);
        let mut venue_ids: Vec<usize> = (0..config.n_venues).collect();
        for _ in 0..config.n_communities {
            venue_ids.shuffle(&mut rng);
            community_venues.push(venue_ids[..config.venues_per_community].to_vec());
        }

        // --- Ordinary entities -------------------------------------------
        // distinct-lint: scratch(built once per generated world and dropped with it; sampled read-only while entities are drawn)
        let first = NamePool::first_names(config.first_name_pool, config.zipf_exponent);
        // distinct-lint: scratch(built once per generated world and dropped with it; sampled read-only while entities are drawn)
        let last = NamePool::last_names(config.last_name_pool, config.zipf_exponent);
        let career = |rng: &mut StdRng| career_window(config.year_range, rng);
        let mut entities: Vec<Entity> = Vec::with_capacity(config.n_authors);
        for id in 0..config.n_authors {
            let name = format!("{} {}", first.sample(&mut rng), last.sample(&mut rng));
            // Geometric-ish paper count with mean ≈ mean_papers_per_author,
            // floored at 3 (the paper drops authors with ≤ 2 papers).
            let extra_mean = (config.mean_papers_per_author - 3.0).max(0.0);
            let mut refs = 3usize;
            if extra_mean > 0.0 {
                let p = 1.0 / (1.0 + extra_mean);
                while rng.gen::<f64>() > p {
                    refs += 1;
                    if refs > 200 {
                        break;
                    }
                }
            }
            let active_years = career(&mut rng);
            entities.push(Entity {
                id,
                name,
                community: rng.gen_range(0..config.n_communities),
                target_refs: refs,
                planted: false,
                active_years,
            });
        }

        // --- Planted ambiguous entities ----------------------------------
        let mut ambiguous_groups = Vec::with_capacity(config.ambiguous.len());
        for spec in &config.ambiguous {
            let group = plant_group(
                spec,
                &mut entities,
                config.n_communities,
                config.year_range,
                &first,
                &last,
                &mut rng,
            );
            ambiguous_groups.push(group);
        }

        // --- Paper-generation state --------------------------------------
        let mut members: Vec<Vec<EntityId>> = vec![Vec::new(); config.n_communities];
        for e in &entities {
            members[e.community].push(e.id);
        }
        let budget: Vec<usize> = entities.iter().map(|e| e.target_refs).collect();
        let collaborators: Vec<Vec<EntityId>> = vec![Vec::new(); entities.len()];
        let mut leads: Vec<EntityId> = (0..entities.len()).collect();
        leads.shuffle(&mut rng);

        WorldStream {
            config,
            entities,
            venues,
            ambiguous_groups,
            community_venues,
            rng,
            members,
            budget,
            collaborators,
            leads,
            lead_pos: 0,
            progressed: false,
            emitted: 0,
            title_counter: 0,
            done: false,
        }
    }

    /// The entities (prelude; fixed before any paper is drawn).
    pub fn entities(&self) -> &[Entity] {
        &self.entities
    }

    /// The venues.
    pub fn venues(&self) -> &[Venue] {
        &self.venues
    }

    /// Planted groups with ground-truth entity ids.
    pub fn ambiguous_groups(&self) -> &[AmbiguousGroup] {
        &self.ambiguous_groups
    }

    /// Per-community preferred venue ids.
    pub fn community_venues(&self) -> &[Vec<usize>] {
        &self.community_venues
    }

    /// The configuration the stream was built from.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Number of papers emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Drain up to `n` papers into a chunk; an empty chunk means the
    /// stream is exhausted.
    pub fn next_chunk(&mut self, n: usize) -> Vec<Paper> {
        let mut chunk = Vec::with_capacity(n.min(1024));
        while chunk.len() < n {
            match self.next() {
                Some(p) => chunk.push(p),
                None => break,
            }
        }
        chunk
    }

    /// Reassemble a [`World`] from the prelude plus externally collected
    /// papers (the monolithic [`World::generate`] path).
    fn into_world(self, papers: Vec<Paper>) -> World {
        World {
            config: self.config,
            entities: self.entities,
            venues: self.venues,
            papers,
            ambiguous_groups: self.ambiguous_groups,
            community_venues: self.community_venues,
        }
    }

    /// Emit one paper led by `lead` (which must have budget left).
    fn emit_paper(&mut self, lead: EntityId) -> Paper {
        // --- Assemble the byline -----------------------------------------
        let n_co = self
            .rng
            .gen_range(self.config.coauthors_per_paper.0..=self.config.coauthors_per_paper.1);
        let mut authors = vec![lead];
        let home = self.entities[lead].community;
        for _ in 0..n_co {
            let candidate = if !self.collaborators[lead].is_empty()
                && self.rng.gen::<f64>() < self.config.repeat_collaborator_prob
            {
                self.collaborators[lead][self.rng.gen_range(0..self.collaborators[lead].len())]
            } else if self.rng.gen::<f64>() < self.config.cross_community_prob {
                // Cross-community noise coauthor.
                self.rng.gen_range(0..self.entities.len())
            } else {
                let pool = &self.members[home];
                pool[self.rng.gen_range(0..pool.len())]
            };
            // Planted entities must hit their Table-1 reference counts
            // exactly, so they stop appearing once their budget is spent.
            if self.entities[candidate].planted && self.budget[candidate] == 0 {
                continue;
            }
            if !authors.contains(&candidate) {
                authors.push(candidate);
            }
        }
        // --- Venue & year -------------------------------------------------
        let venue = if self.rng.gen::<f64>() < self.config.venue_affinity {
            let pref = &self.community_venues[home];
            pref[self.rng.gen_range(0..pref.len())]
        } else {
            self.rng.gen_range(0..self.config.n_venues)
        };
        // Years come from the lead author's career window.
        let (y0, y1) = self.entities[lead].active_years;
        let year = self.rng.gen_range(y0..=y1);
        // --- Record -------------------------------------------------------
        for &a in &authors {
            self.budget[a] = self.budget[a].saturating_sub(1);
        }
        // Sticky collaboration only forms inside a community: real
        // cross-community coauthorships are one-off, and letting them
        // into the repeat-collaborator pool would amplify a single
        // noise edge into a bridge between communities.
        for i in 0..authors.len() {
            for j in 0..authors.len() {
                if i != j
                    && self.entities[authors[i]].community == self.entities[authors[j]].community
                    && !self.collaborators[authors[i]].contains(&authors[j])
                {
                    self.collaborators[authors[i]].push(authors[j]);
                }
            }
        }
        self.title_counter += 1;
        let paper = Paper {
            id: self.emitted,
            title: format!("On Topic {}", self.title_counter),
            venue,
            year,
            authors,
        };
        self.emitted += 1;
        paper
    }
}

impl Iterator for WorldStream {
    type Item = Paper;

    /// Produce the next paper, revisiting leads in shuffled order until a
    /// full pass makes no progress (every budget spent).
    fn next(&mut self) -> Option<Paper> {
        if self.done {
            return None;
        }
        loop {
            if self.lead_pos == self.leads.len() {
                if !self.progressed {
                    self.done = true;
                    return None;
                }
                self.progressed = false;
                self.lead_pos = 0;
            }
            let lead = self.leads[self.lead_pos];
            self.lead_pos += 1;
            if self.budget[lead] == 0 {
                continue;
            }
            self.progressed = true;
            return Some(self.emit_paper(lead));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        let mut config = WorldConfig::tiny(7);
        config.ambiguous = vec![
            AmbiguousSpec::new("Wei Wang", vec![20, 10, 5]),
            AmbiguousSpec::new("Hui Fang", vec![4, 3]),
        ];
        World::generate(config)
    }

    #[test]
    fn world_has_expected_shape() {
        let w = tiny_world();
        // 250 ordinary + (3 + 2) planted + 12 namesakes per planted group.
        assert_eq!(w.entities.len(), 250 + 3 + 2 + 24);
        assert_eq!(w.venues.len(), 24);
        assert_eq!(w.ambiguous_groups.len(), 2);
        assert!(!w.papers.is_empty());
        assert_eq!(w.community_venues.len(), 10);
        for cv in &w.community_venues {
            assert_eq!(cv.len(), w.config.venues_per_community);
        }
    }

    #[test]
    fn stream_is_bit_identical_to_generate() {
        let config = {
            let mut c = WorldConfig::tiny(7);
            c.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![20, 10, 5])];
            c
        };
        let w = World::generate(config.clone());
        let mut stream = WorldStream::new(config);
        // Chunked draining (odd chunk size on purpose) must replay the
        // monolithic world paper for paper.
        let mut papers = Vec::new();
        loop {
            let chunk = stream.next_chunk(17);
            if chunk.is_empty() {
                break;
            }
            papers.extend(chunk);
        }
        assert_eq!(papers.len(), w.papers.len());
        assert_eq!(stream.emitted(), w.papers.len());
        for (a, b) in papers.iter().zip(&w.papers) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.title, b.title);
            assert_eq!(a.venue, b.venue);
            assert_eq!(a.year, b.year);
            assert_eq!(a.authors, b.authors);
        }
        // The prelude matches too.
        assert_eq!(stream.entities().len(), w.entities.len());
        assert_eq!(stream.venues().len(), w.venues.len());
        assert_eq!(stream.ambiguous_groups().len(), w.ambiguous_groups.len());
        assert_eq!(stream.community_venues(), &w.community_venues[..]);
        // Exhausted stream stays exhausted.
        assert!(stream.next().is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_world();
        let b = tiny_world();
        assert_eq!(a.papers.len(), b.papers.len());
        for (pa, pb) in a.papers.iter().zip(&b.papers) {
            assert_eq!(pa.authors, pb.authors);
            assert_eq!(pa.venue, pb.venue);
            assert_eq!(pa.year, pb.year);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(WorldConfig::tiny(1));
        let b = World::generate(WorldConfig::tiny(2));
        let same = a.papers.len() == b.papers.len()
            && a.papers
                .iter()
                .zip(&b.papers)
                .all(|(x, y)| x.authors == y.authors);
        assert!(!same);
    }

    #[test]
    fn planted_entities_share_name_and_meet_ref_targets() {
        let w = tiny_world();
        let group = &w.ambiguous_groups[0];
        assert_eq!(group.name, "Wei Wang");
        assert_eq!(group.entity_ids.len(), 3);
        for &eid in &group.entity_ids {
            assert_eq!(w.entities[eid].name, "Wei Wang");
            assert!(w.entities[eid].planted);
        }
        // Planted reference counts are exact (Table 1 fidelity).
        for (k, &eid) in group.entity_ids.iter().enumerate() {
            let want = w.config.ambiguous[0].refs_per_entity[k];
            let got = w.refs_of(eid);
            assert_eq!(got, want, "entity {eid}");
        }
    }

    #[test]
    fn planted_entities_get_distinct_communities() {
        let w = tiny_world();
        let group = &w.ambiguous_groups[0];
        let comms: std::collections::HashSet<usize> = group
            .entity_ids
            .iter()
            .map(|&e| w.entities[e].community)
            .collect();
        // 3 entities, 6 communities -> all distinct.
        assert_eq!(comms.len(), 3);
    }

    #[test]
    fn every_entity_reaches_its_budget() {
        let w = tiny_world();
        for e in &w.entities {
            let got = w.refs_of(e.id);
            assert!(
                got >= e.target_refs,
                "entity {} got {got} < {}",
                e.id,
                e.target_refs
            );
        }
    }

    #[test]
    fn bylines_have_no_duplicates() {
        let w = tiny_world();
        for p in &w.papers {
            let set: std::collections::HashSet<_> = p.authors.iter().collect();
            assert_eq!(
                set.len(),
                p.authors.len(),
                "paper {} byline {:?}",
                p.id,
                p.authors
            );
            assert!(!p.authors.is_empty());
        }
    }

    #[test]
    fn coauthorship_is_community_dominated() {
        let w = tiny_world();
        let mut same = 0usize;
        let mut cross = 0usize;
        for p in &w.papers {
            let lead_comm = w.entities[p.authors[0]].community;
            for &a in &p.authors[1..] {
                if w.entities[a].community == lead_comm {
                    same += 1;
                } else {
                    cross += 1;
                }
            }
        }
        assert!(same > 3 * cross, "same {same}, cross {cross}");
    }

    #[test]
    fn venues_are_community_dominated() {
        let w = tiny_world();
        let mut preferred = 0usize;
        let mut other = 0usize;
        for p in &w.papers {
            let lead_comm = w.entities[p.authors[0]].community;
            if w.community_venues[lead_comm].contains(&p.venue) {
                preferred += 1;
            } else {
                other += 1;
            }
        }
        assert!(
            preferred > 2 * other,
            "preferred {preferred}, other {other}"
        );
    }

    #[test]
    fn years_within_range() {
        let w = tiny_world();
        let (lo, hi) = w.config.year_range;
        assert!(w.papers.iter().all(|p| (lo..=hi).contains(&p.year)));
    }

    #[test]
    fn titles_are_unique() {
        let w = tiny_world();
        let set: std::collections::HashSet<&str> =
            w.papers.iter().map(|p| p.title.as_str()).collect();
        assert_eq!(set.len(), w.papers.len());
    }

    #[test]
    fn community_members_listing() {
        let w = tiny_world();
        let all: usize = (0..w.config.n_communities)
            .map(|c| w.community_members(c).len())
            .sum();
        assert_eq!(all, w.entities.len());
    }

    #[test]
    fn reference_count_sums_bylines() {
        let w = tiny_world();
        let total: usize = w.papers.iter().map(|p| p.authors.len()).sum();
        assert_eq!(w.reference_count(), total);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Small random-but-valid configurations.
        fn arbitrary_config() -> impl Strategy<Value = WorldConfig> {
            (
                any::<u64>(),
                20usize..80,                                   // authors
                2usize..8,                                     // communities
                1usize..3,                                     // venues per community
                0.0f64..0.9,                                   // repeat collaborator
                0.0f64..0.4,                                   // cross community
                0.3f64..1.0,                                   // venue affinity
                proptest::option::of((2usize..5, 3usize..12)), // ambiguous spec
            )
                .prop_map(
                    |(seed, authors, comms, vpc, repeat, cross, affinity, amb)| WorldConfig {
                        seed,
                        n_authors: authors,
                        n_venues: (comms * vpc).max(4) + 4,
                        n_communities: comms,
                        venues_per_community: vpc,
                        repeat_collaborator_prob: repeat,
                        cross_community_prob: cross,
                        venue_affinity: affinity,
                        mean_papers_per_author: 4.0,
                        first_name_pool: 30,
                        last_name_pool: 60,
                        ambiguous: amb
                            .map(|(entities, per)| {
                                vec![AmbiguousSpec::new("Test Name", vec![per; entities])]
                            })
                            .unwrap_or_default(),
                        ..Default::default()
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn generated_worlds_satisfy_invariants(config in arbitrary_config()) {
                config.validate().unwrap();
                let w = World::generate(config.clone());
                // Every entity reaches its reference budget; planted ones
                // exactly.
                for e in &w.entities {
                    let got = w.refs_of(e.id);
                    if e.planted {
                        prop_assert_eq!(got, e.target_refs, "planted entity {}", e.id);
                    } else {
                        prop_assert!(got >= e.target_refs);
                    }
                }
                // Bylines are duplicate-free and non-empty; years in the
                // lead author's window.
                for p in &w.papers {
                    prop_assert!(!p.authors.is_empty());
                    let set: std::collections::HashSet<_> = p.authors.iter().collect();
                    prop_assert_eq!(set.len(), p.authors.len());
                    let (lo, hi) = w.entities[p.authors[0]].active_years;
                    prop_assert!((lo..=hi).contains(&p.year));
                    prop_assert!(p.venue < w.venues.len());
                }
                // The catalog emits with referential integrity.
                let d = crate::dblp::to_catalog(&w).unwrap();
                prop_assert!(d.catalog.is_finalized());
                prop_assert_eq!(
                    d.publish_entities.len(),
                    d.catalog.relation(d.publish).len()
                );
            }

            #[test]
            fn generation_is_deterministic_for_any_config(config in arbitrary_config()) {
                let a = World::generate(config.clone());
                let b = World::generate(config);
                prop_assert_eq!(a.papers.len(), b.papers.len());
                for (x, y) in a.papers.iter().zip(&b.papers) {
                    prop_assert_eq!(&x.authors, &y.authors);
                    prop_assert_eq!(x.venue, y.venue);
                }
            }
        }
    }
}
