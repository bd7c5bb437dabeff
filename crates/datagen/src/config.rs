//! Generator configuration.

use serde::{Deserialize, Serialize};

/// Specification of one planted ambiguous name (a "Wei Wang"): several
/// distinct real entities that share one author string.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmbiguousSpec {
    /// The shared author name.
    pub name: String,
    /// Number of references (authorship records) for each entity sharing
    /// the name; the vector length is the number of entities.
    pub refs_per_entity: Vec<usize>,
}

impl AmbiguousSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, refs_per_entity: Vec<usize>) -> Self {
        AmbiguousSpec {
            name: name.into(),
            refs_per_entity,
        }
    }

    /// Number of entities sharing the name.
    pub fn entities(&self) -> usize {
        self.refs_per_entity.len()
    }

    /// Total number of references.
    pub fn total_refs(&self) -> usize {
        self.refs_per_entity.iter().sum()
    }
}

/// Full configuration of the synthetic bibliographic world.
///
/// The defaults produce a laptop-scale world with the structural properties
/// DISTINCT relies on: community-structured coauthorship, venue affinity,
/// and Zipf-distributed name parts (so rare names exist for automatic
/// training-set construction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// RNG seed — the whole world is deterministic given the config.
    pub seed: u64,
    /// Number of ordinary (non-planted) authors.
    pub n_authors: usize,
    /// Number of venues (conferences).
    pub n_venues: usize,
    /// Number of research communities.
    pub n_communities: usize,
    /// Mean papers per ordinary author (geometric-ish; min 3, matching the
    /// paper's removal of authors with ≤ 2 papers).
    pub mean_papers_per_author: f64,
    /// Range of coauthors per paper, inclusive (total authors = this + 0/1).
    pub coauthors_per_paper: (usize, usize),
    /// Probability that a coauthor is drawn from the author's past
    /// collaborators rather than fresh from the community (collaboration
    /// stickiness; higher = tighter coauthor cliques).
    pub repeat_collaborator_prob: f64,
    /// Probability that a paper picks one coauthor from a *different*
    /// community — the cross-linkage noise that causes DISTINCT's mistakes
    /// in Fig. 5.
    pub cross_community_prob: f64,
    /// Probability a paper appears in one of its community's preferred
    /// venues (vs a uniformly random venue).
    pub venue_affinity: f64,
    /// Preferred venues per community.
    pub venues_per_community: usize,
    /// Publication year range, inclusive.
    pub year_range: (i64, i64),
    /// Size of the first-name pool (Zipf-distributed usage).
    pub first_name_pool: usize,
    /// Size of the last-name pool (Zipf-distributed usage).
    pub last_name_pool: usize,
    /// Zipf exponent for name pools (≈ 1.0 mimics real name frequencies).
    pub zipf_exponent: f64,
    /// Number of distinct publishers for the Conferences.publisher attribute.
    pub n_publishers: usize,
    /// Planted ambiguous names with ground truth.
    pub ambiguous: Vec<AmbiguousSpec>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 42,
            n_authors: 2000,
            n_venues: 80,
            n_communities: 32,
            mean_papers_per_author: 6.0,
            coauthors_per_paper: (1, 4),
            repeat_collaborator_prob: 0.7,
            cross_community_prob: 0.08,
            venue_affinity: 0.85,
            venues_per_community: 3,
            year_range: (1990, 2006),
            first_name_pool: 400,
            last_name_pool: 900,
            zipf_exponent: 1.0,
            n_publishers: 6,
            ambiguous: Vec::new(),
        }
    }
}

impl WorldConfig {
    /// A small configuration for fast unit tests: scaled down from the
    /// default but with the venue/community sparsity that keeps entities
    /// distinguishable.
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_authors: 250,
            n_venues: 24,
            n_communities: 10,
            mean_papers_per_author: 5.0,
            first_name_pool: 50,
            last_name_pool: 100,
            ..Default::default()
        }
    }

    /// Paper-scale DBLP: approximately the snapshot the paper evaluates on
    /// (§5 — 127,023 authors after dropping those with ≤ 2 papers, ~616K
    /// papers, ~1.29M authorship records; ≈ 2.1 authors per byline and
    /// ≈ 10.2 records per author), with the Table 1 ambiguous names
    /// planted. Communities are sized so each holds ~160 authors,
    /// mirroring research-group granularity. Generate in release builds
    /// only; prefer [`crate::WorldStream`] + [`crate::stream_to_catalog`]
    /// to avoid materializing the paper list.
    pub fn paper_scale(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_authors: 127_000,
            n_venues: 600,
            n_communities: 800,
            mean_papers_per_author: 10.2,
            coauthors_per_paper: (0, 2),
            venues_per_community: 4,
            year_range: (1970, 2006),
            first_name_pool: 6_000,
            last_name_pool: 30_000,
            ambiguous: Self::table1_ambiguous(),
            ..Default::default()
        }
    }

    /// The ten ambiguous names of the paper's Table 1 with their
    /// (#authors, #references) profile, distributed across entities with a
    /// realistic skew (one dominant entity per name, like the UNC Wei Wang
    /// holding 57 of 141 references).
    pub fn table1_ambiguous() -> Vec<AmbiguousSpec> {
        fn split(total: usize, entities: usize) -> Vec<usize> {
            // Deterministic skewed split: entity k gets a share ∝ 1/(k+1),
            // with a minimum of 2 references, remainder to the largest.
            assert!(entities >= 1 && total >= 2 * entities);
            let weights: Vec<f64> = (0..entities).map(|k| 1.0 / (k as f64 + 1.0)).collect();
            let wsum: f64 = weights.iter().sum();
            let mut out: Vec<usize> = weights
                .iter()
                .map(|w| ((total as f64) * w / wsum).floor().max(2.0) as usize)
                .collect();
            let assigned: usize = out.iter().sum();
            // Push any remainder (or deficit) onto the largest entity.
            if assigned <= total {
                out[0] += total - assigned;
            } else {
                out[0] -= assigned - total;
            }
            out
        }
        vec![
            AmbiguousSpec::new("Hui Fang", split(9, 3)),
            AmbiguousSpec::new("Ajay Gupta", split(16, 4)),
            AmbiguousSpec::new("Joseph Hellerstein", split(151, 2)),
            AmbiguousSpec::new("Rakesh Kumar", split(36, 2)),
            AmbiguousSpec::new("Michael Wagner", split(29, 5)),
            AmbiguousSpec::new("Bing Liu", split(89, 6)),
            AmbiguousSpec::new("Jim Smith", split(19, 3)),
            AmbiguousSpec::new("Lei Wang", split(55, 13)),
            AmbiguousSpec::new("Wei Wang", split(141, 14)),
            AmbiguousSpec::new("Bin Yu", split(44, 5)),
        ]
    }

    /// Validate structural constraints; returns a description of the first
    /// violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_communities == 0 {
            return Err("need at least one community".into());
        }
        if self.n_venues < self.venues_per_community {
            return Err("venues_per_community exceeds n_venues".into());
        }
        if self.coauthors_per_paper.0 > self.coauthors_per_paper.1 {
            return Err("coauthors_per_paper range is inverted".into());
        }
        if self.year_range.0 > self.year_range.1 {
            return Err("year_range is inverted".into());
        }
        for p in [
            ("repeat_collaborator_prob", self.repeat_collaborator_prob),
            ("cross_community_prob", self.cross_community_prob),
            ("venue_affinity", self.venue_affinity),
        ] {
            if !(0.0..=1.0).contains(&p.1) {
                return Err(format!("{} must be in [0, 1]", p.0));
            }
        }
        for a in &self.ambiguous {
            if a.refs_per_entity.is_empty() {
                return Err(format!("ambiguous name `{}` has no entities", a.name));
            }
            if a.refs_per_entity.contains(&0) {
                return Err(format!("ambiguous name `{}` has a zero-ref entity", a.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        WorldConfig::default().validate().unwrap();
        WorldConfig::tiny(1).validate().unwrap();
        WorldConfig::paper_scale(1).validate().unwrap();
    }

    #[test]
    fn paper_scale_targets_the_dblp_snapshot() {
        let c = WorldConfig::paper_scale(2007);
        assert_eq!(c.n_authors, 127_000);
        // Mean records per author and byline width land near the paper's
        // 1.29M records over ~616K papers.
        assert!((c.mean_papers_per_author - 10.2).abs() < 1e-9);
        assert_eq!(c.coauthors_per_paper, (0, 2));
        // Table 1 names ride along with ground truth.
        assert_eq!(c.ambiguous.len(), 10);
        let total: usize = c.ambiguous.iter().map(|a| a.total_refs()).sum();
        assert_eq!(total, 9 + 16 + 151 + 36 + 29 + 89 + 19 + 55 + 141 + 44);
    }

    #[test]
    fn table1_profile_matches_paper() {
        let specs = WorldConfig::table1_ambiguous();
        assert_eq!(specs.len(), 10);
        let by_name: std::collections::HashMap<&str, &AmbiguousSpec> =
            specs.iter().map(|s| (s.name.as_str(), s)).collect();
        // (#authors, #refs) pairs from Table 1.
        for (name, authors, refs) in [
            ("Hui Fang", 3, 9),
            ("Ajay Gupta", 4, 16),
            ("Joseph Hellerstein", 2, 151),
            ("Rakesh Kumar", 2, 36),
            ("Michael Wagner", 5, 29),
            ("Bing Liu", 6, 89),
            ("Jim Smith", 3, 19),
            ("Lei Wang", 13, 55),
            ("Wei Wang", 14, 141),
            ("Bin Yu", 5, 44),
        ] {
            let s = by_name[name];
            assert_eq!(s.entities(), authors, "{name}");
            assert_eq!(s.total_refs(), refs, "{name}");
            assert!(s.refs_per_entity.iter().all(|&r| r >= 2), "{name}");
        }
    }

    #[test]
    fn table1_split_is_skewed() {
        let specs = WorldConfig::table1_ambiguous();
        let wei = specs.iter().find(|s| s.name == "Wei Wang").unwrap();
        // Dominant entity holds far more than the smallest.
        let max = *wei.refs_per_entity.iter().max().unwrap();
        let min = *wei.refs_per_entity.iter().min().unwrap();
        assert!(max >= 10 * min / 2, "max {max}, min {min}");
        assert!(
            max >= 40,
            "dominant Wei Wang should hold a large share, got {max}"
        );
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = WorldConfig::default();
        c.n_communities = 0;
        assert!(c.validate().is_err());

        let mut c = WorldConfig::default();
        c.venue_affinity = 1.5;
        assert!(c.validate().is_err());

        let mut c = WorldConfig::default();
        c.coauthors_per_paper = (4, 1);
        assert!(c.validate().is_err());

        let mut c = WorldConfig::default();
        c.ambiguous.push(AmbiguousSpec::new("X", vec![]));
        assert!(c.validate().is_err());

        let mut c = WorldConfig::default();
        c.ambiguous.push(AmbiguousSpec::new("X", vec![3, 0]));
        assert!(c.validate().is_err());
    }

    #[test]
    fn spec_accessors() {
        let s = AmbiguousSpec::new("A B", vec![5, 3]);
        assert_eq!(s.entities(), 2);
        assert_eq!(s.total_refs(), 8);
    }

    #[test]
    fn config_serializes() {
        let c = WorldConfig::default();
        let j = serde_json::to_string(&c).unwrap();
        let back: WorldConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(c, back);
    }
}
