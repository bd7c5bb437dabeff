//! Naive agglomerative clustering with from-scratch cluster similarities
//! (paper §4).
//!
//! Every round rescans **all** live cluster pairs, recomputing each
//! pair's composite similarity from scratch over the explicit member
//! lists — the O(n³)-and-worse textbook algorithm, with none of the
//! production engine's incremental pair-sum maintenance or lazy max-heap.
//!
//! The merge *decisions* replicate the production engine's deterministic
//! tie-breaking exactly, so that dendrograms can be compared merge by
//! merge:
//!
//! * a pair is a merge candidate iff its similarity is non-NaN and
//!   `>= min_sim`;
//! * the best candidate maximizes similarity under `f64::total_cmp`;
//! * ties go to the smallest *candidate key*, where a pair of leaf
//!   clusters `x < y < n` has key `(x, y)` but any pair involving a
//!   merged cluster has key `(max, min)` — the production heap stores
//!   seeded pairs as `(a, b)` with `a < b` and merge-generated pairs as
//!   `(into, other)` with `other < into`, and compares those tuples
//!   lexicographically;
//! * cluster ids follow the dendrogram convention: leaves `0..n`, the
//!   k-th merge creates id `n + k`;
//! * labels are dense, in order of first appearance over items `0..n`.

use crate::engine::{Composite, Measure};

/// One merge event, mirroring the production dendrogram record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleMerge {
    /// First merged cluster id, as the production candidate stores it.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Similarity at which the merge happened.
    pub similarity: f64,
    /// Id of the created cluster (`n + merge index`).
    pub into: usize,
    /// Size of the created cluster.
    pub size: usize,
}

/// Result of a naive clustering run.
#[derive(Debug, Clone)]
pub struct OracleClustering {
    /// Label per item (dense, in order of first appearance).
    pub labels: Vec<usize>,
    /// Full merge history, in merge order.
    pub merges: Vec<OracleMerge>,
}

impl OracleClustering {
    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.labels.iter().copied().max().map_or(0, |m| m + 1)
    }
}

/// The candidate key the production heap would order this pair by.
fn candidate_key(n_leaves: usize, x: usize, y: usize) -> (usize, usize) {
    let (lo, hi) = if x < y { (x, y) } else { (y, x) };
    if hi >= n_leaves {
        (hi, lo)
    } else {
        (lo, hi)
    }
}

/// Composite similarity between two clusters, recomputed from scratch
/// over the member lists (§4): Average-Link resemblance and collective
/// random walk probability, combined per the configured measure.
fn cluster_similarity(
    members_a: &[usize],
    members_b: &[usize],
    resem: &[Vec<f64>],
    dwalk: &[Vec<f64>],
    measure: Measure,
    composite: Composite,
) -> f64 {
    let (na, nb) = (members_a.len() as f64, members_b.len() as f64);
    let mut r_sum = 0.0;
    let mut a_to_b = 0.0;
    let mut b_to_a = 0.0;
    for &x in members_a {
        for &y in members_b {
            r_sum += resem[x][y];
            a_to_b += dwalk[x][y];
            b_to_a += dwalk[y][x];
        }
    }
    let avg_resem = r_sum / (na * nb);
    let collective_walk = 0.5 * (a_to_b / na + b_to_a / nb);
    match measure {
        Measure::SetResemblance => avg_resem,
        Measure::RandomWalk => collective_walk,
        Measure::Combined => match composite {
            Composite::Geometric => (avg_resem * collective_walk).sqrt(),
            Composite::Arithmetic => 0.5 * (avg_resem + collective_walk),
        },
    }
}

/// Agglomerate `n` leaf items given their pairwise leaf tables.
///
/// `resem[i][j]` is the weighted leaf resemblance (symmetric) and
/// `dwalk[i][j]` the weighted *directed* walk probability `i → j`; both
/// are `n × n` with irrelevant diagonals. Merging stops when no live pair
/// reaches `min_sim`.
pub fn naive_agglomerate(
    n: usize,
    resem: &[Vec<f64>],
    dwalk: &[Vec<f64>],
    measure: Measure,
    composite: Composite,
    min_sim: f64,
) -> OracleClustering {
    // clusters[id] = Some(member list) while alive; merges push new ids.
    let mut clusters: Vec<Option<Vec<usize>>> = (0..n).map(|i| Some(vec![i])).collect();
    let mut merges: Vec<OracleMerge> = Vec::new();
    loop {
        let live: Vec<usize> = (0..clusters.len())
            .filter(|&id| clusters[id].is_some())
            .collect();
        // Full rescan: best (similarity, then smallest candidate key) pair.
        let mut best: Option<(f64, (usize, usize))> = None;
        for (i, &x) in live.iter().enumerate() {
            for &y in &live[i + 1..] {
                let sim = cluster_similarity(
                    clusters[x].as_ref().unwrap(),
                    clusters[y].as_ref().unwrap(),
                    resem,
                    dwalk,
                    measure,
                    composite,
                );
                if sim.is_nan() || sim < min_sim {
                    continue;
                }
                let key = candidate_key(n, x, y);
                let better = match &best {
                    None => true,
                    Some((bs, bk)) => match sim.total_cmp(bs) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Less => false,
                        std::cmp::Ordering::Equal => key < *bk,
                    },
                };
                if better {
                    best = Some((sim, key));
                }
            }
        }
        let Some((sim, (a, b))) = best else { break };
        let mut members = clusters[a].take().unwrap();
        members.extend(clusters[b].take().unwrap());
        let into = clusters.len();
        merges.push(OracleMerge {
            a,
            b,
            similarity: sim,
            into,
            size: members.len(),
        });
        clusters.push(Some(members));
    }

    // Dense labels in item order of first appearance (the production
    // dendrogram-cut convention).
    let mut root_of = vec![usize::MAX; n];
    for (id, c) in clusters.iter().enumerate() {
        if let Some(members) = c {
            for &i in members {
                root_of[i] = id;
            }
        }
    }
    let mut labels = vec![usize::MAX; n];
    let mut seen: Vec<usize> = Vec::new();
    for i in 0..n {
        let root = root_of[i];
        let label = match seen.iter().position(|&r| r == root) {
            Some(l) => l,
            None => {
                seen.push(root);
                seen.len() - 1
            }
        };
        labels[i] = label;
    }
    OracleClustering { labels, merges }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: usize, entries: &[(usize, usize, f64)]) -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; n]; n];
        for &(i, j, v) in entries {
            m[i][j] = v;
            m[j][i] = v;
        }
        m
    }

    #[test]
    fn two_tight_pairs_cluster_and_ids_follow_convention() {
        // Resemblance-only: pairs (0,1) at 0.9 and (2,3) at 0.8.
        let resem = sym(4, &[(0, 1, 0.9), (2, 3, 0.8)]);
        let dwalk = vec![vec![0.0; 4]; 4];
        let c = naive_agglomerate(
            4,
            &resem,
            &dwalk,
            Measure::SetResemblance,
            Composite::Geometric,
            0.5,
        );
        assert_eq!(c.labels, vec![0, 0, 1, 1]);
        assert_eq!(c.merges.len(), 2);
        assert_eq!((c.merges[0].a, c.merges[0].b, c.merges[0].into), (0, 1, 4));
        assert_eq!((c.merges[1].a, c.merges[1].b, c.merges[1].into), (2, 3, 5));
        assert!((c.merges[0].similarity - 0.9).abs() < 1e-15);
        assert_eq!(c.merges[1].size, 2);
    }

    #[test]
    fn ties_break_toward_the_smallest_pair() {
        // (0,1) and (2,3) tie at 0.7: (0,1) must merge first.
        let resem = sym(4, &[(0, 1, 0.7), (2, 3, 0.7)]);
        let dwalk = vec![vec![0.0; 4]; 4];
        let c = naive_agglomerate(
            4,
            &resem,
            &dwalk,
            Measure::SetResemblance,
            Composite::Geometric,
            0.5,
        );
        assert_eq!((c.merges[0].a, c.merges[0].b), (0, 1));
        assert_eq!((c.merges[1].a, c.merges[1].b), (2, 3));
    }

    #[test]
    fn average_link_is_recomputed_over_members() {
        // 0-1 merge first (0.9); cluster {0,1} vs 2 averages 0.6 and 0.2.
        let resem = sym(3, &[(0, 1, 0.9), (0, 2, 0.6), (1, 2, 0.2)]);
        let dwalk = vec![vec![0.0; 3]; 3];
        let c = naive_agglomerate(
            3,
            &resem,
            &dwalk,
            Measure::SetResemblance,
            Composite::Geometric,
            0.3,
        );
        assert_eq!(c.merges.len(), 2);
        assert!((c.merges[1].similarity - 0.4).abs() < 1e-15);
        assert_eq!((c.merges[1].a, c.merges[1].b), (3, 2));
        assert_eq!(c.labels, vec![0, 0, 0]);
    }

    #[test]
    fn geometric_composite_vetoes_on_zero_walk() {
        // Positive resemblance but zero walk: geometric mean is 0, so no
        // merge happens under a positive threshold.
        let resem = sym(2, &[(0, 1, 0.9)]);
        let dwalk = vec![vec![0.0; 2]; 2];
        let c = naive_agglomerate(
            2,
            &resem,
            &dwalk,
            Measure::Combined,
            Composite::Geometric,
            0.01,
        );
        assert_eq!(c.cluster_count(), 2);
        // Arithmetic composite still merges: 0.5 · 0.9 = 0.45.
        let c = naive_agglomerate(
            2,
            &resem,
            &dwalk,
            Measure::Combined,
            Composite::Arithmetic,
            0.01,
        );
        assert_eq!(c.cluster_count(), 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let c = naive_agglomerate(0, &[], &[], Measure::Combined, Composite::Geometric, 0.5);
        assert!(c.labels.is_empty());
        assert_eq!(c.cluster_count(), 0);
        let c = naive_agglomerate(
            1,
            &[vec![0.0]],
            &[vec![0.0]],
            Measure::Combined,
            Composite::Geometric,
            0.5,
        );
        assert_eq!(c.labels, vec![0]);
    }
}
