//! Dendrogram capture and flat-clustering extraction.
//!
//! Cluster ids follow the scipy convention: items `0..n` are the leaf
//! clusters; the `k`-th merge creates cluster id `n + k`.

/// One merge event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged cluster id.
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

/// A full agglomeration history over `n` items.
#[derive(Debug, Clone, Default)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// A dendrogram over `n` leaves with no merges yet.
    pub fn new(n: usize) -> Self {
        Dendrogram {
            n,
            merges: Vec::new(),
        }
    }

    /// Number of leaf items.
    pub fn leaves(&self) -> usize {
        self.n
    }

    /// Recorded merges, in order.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Record a merge, returning the created cluster id.
    pub fn record(&mut self, a: usize, b: usize, similarity: f64, size: usize) -> usize {
        let into = self.n + self.merges.len();
        self.merges.push(Merge {
            a,
            b,
            similarity,
            into,
            size,
        });
        into
    }

    /// Flat clustering obtained by applying only merges with
    /// `similarity >= threshold` (merges are recorded in non-increasing
    /// similarity order by the engine, so this is a prefix).
    ///
    /// Returns a label per item in `0..n`; labels are dense, in order of
    /// first appearance.
    pub fn cut(&self, threshold: f64) -> Vec<usize> {
        // Union-find over item + merge ids.
        let total = self.n + self.merges.len();
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for m in &self.merges {
            if m.similarity >= threshold {
                let ra = find(&mut parent, m.a);
                let rb = find(&mut parent, m.b);
                parent[ra] = m.into;
                parent[rb] = m.into;
            }
        }
        let mut labels = vec![usize::MAX; self.n];
        let mut next = 0usize;
        let mut map: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for i in 0..self.n {
            let root = find(&mut parent, i);
            let label = *map.entry(root).or_insert_with(|| {
                let l = next;
                next += 1;
                l
            });
            labels[i] = label;
        }
        labels
    }

    /// Number of clusters after cutting at `threshold`.
    pub fn cluster_count(&self, threshold: f64) -> usize {
        self.cut(threshold)
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m + 1)
    }
}

/// Group items by label: `groups(labels)[c]` lists the items with label `c`.
pub fn groups(labels: &[usize]) -> Vec<Vec<usize>> {
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut out = vec![Vec::new(); k];
    for (i, &l) in labels.iter().enumerate() {
        out[l].push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_assigns_sequential_ids() {
        let mut d = Dendrogram::new(4);
        assert_eq!(d.record(0, 1, 0.9, 2), 4);
        assert_eq!(d.record(4, 2, 0.5, 3), 5);
        assert_eq!(d.leaves(), 4);
        assert_eq!(d.merges().len(), 2);
    }

    #[test]
    fn cut_above_all_merges_gives_singletons() {
        let mut d = Dendrogram::new(3);
        d.record(0, 1, 0.9, 2);
        let labels = d.cut(1.5);
        assert_eq!(labels, vec![0, 1, 2]);
        assert_eq!(d.cluster_count(1.5), 3);
    }

    #[test]
    fn cut_below_all_merges_gives_one_cluster_when_fully_merged() {
        let mut d = Dendrogram::new(3);
        d.record(0, 1, 0.9, 2);
        d.record(3, 2, 0.4, 3);
        let labels = d.cut(0.0);
        assert!(labels.iter().all(|&l| l == labels[0]));
        assert_eq!(d.cluster_count(0.0), 1);
    }

    #[test]
    fn cut_at_intermediate_threshold() {
        let mut d = Dendrogram::new(4);
        d.record(0, 1, 0.9, 2); // cluster 4
        d.record(2, 3, 0.8, 2); // cluster 5
        d.record(4, 5, 0.2, 4); // cluster 6
        let labels = d.cut(0.5);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_eq!(d.cluster_count(0.5), 2);
    }

    #[test]
    fn groups_inverts_labels() {
        let g = groups(&[0, 1, 0, 2, 1]);
        assert_eq!(g, vec![vec![0, 2], vec![1, 4], vec![3]]);
        assert!(groups(&[]).is_empty());
    }

    #[test]
    fn empty_dendrogram() {
        let d = Dendrogram::new(0);
        assert!(d.cut(0.5).is_empty());
        assert_eq!(d.cluster_count(0.5), 0);
    }
}
