//! Component-scoped cluster repair.
//!
//! Incremental resolution re-clusters only the connected components of the
//! similarity graph that an update touched, then composes the per-component
//! results back into one global [`Clustering`]. This is lossless whenever
//! the merge threshold is positive: two items in different components have
//! zero similarity under every composite measure (child-sum arithmetic
//! keeps cross-component cluster sums at exactly zero), so the batch
//! engine could never have merged across a component boundary.

use crate::dendrogram::Dendrogram;
use crate::engine::Clustering;

/// Connected components of an `n`-item similarity graph, probing
/// `adjacent(i, j)` for every pair (`i < j`).
///
/// Components are returned with members ascending, ordered by smallest
/// member — a canonical form independent of probe order.
pub fn connected_components(n: usize, adjacent: &dyn Fn(usize, usize) -> bool) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if adjacent(i, j) {
                let ri = find(&mut parent, i);
                let rj = find(&mut parent, j);
                if ri != rj {
                    let (lo, hi) = if ri < rj { (ri, rj) } else { (rj, ri) };
                    parent[hi] = lo;
                }
            }
        }
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let root = find(&mut parent, i);
        members[root].push(i);
    }
    members.retain(|m| !m.is_empty());
    members
}

/// One component's clustering, expressed in that component's local item
/// space (`0..members.len()`), tagged with the global indices it covers.
#[derive(Debug, Clone)]
pub struct ComponentClustering {
    /// Global item indices, ascending; local item `l` is `members[l]`.
    pub members: Vec<usize>,
    /// Merge history over the local items.
    pub dendrogram: Dendrogram,
}

/// Compose per-component clusterings into one global [`Clustering`] over
/// `n` items, equal (labels and partition) to what a batch run over the
/// full similarity matrix would produce when no merge crosses a component
/// boundary.
///
/// Every item in `0..n` must appear in exactly one component. Merges are
/// replayed by repeatedly taking the pending merge with the highest
/// similarity whose part-internal predecessors have all been replayed
/// (ties broken by part index) — each part's internal merge order, and
/// thereby every local id dependency, is always respected, even when a
/// non-monotone measure produced similarity inversions inside a part.
/// When every part's similarities are non-increasing this is exactly the
/// global non-increasing order. Labels are dense in order of first
/// appearance, exactly like [`Dendrogram::cut`] — and since
/// [`Dendrogram::cut`] applies merges order-independently, the labels
/// match a batch run regardless of inversions.
pub fn compose(n: usize, parts: &[ComponentClustering]) -> Clustering {
    debug_assert_eq!(
        parts.iter().map(|p| p.members.len()).sum::<usize>(),
        n,
        "components must partition the item set"
    );
    let mut dendrogram = Dendrogram::new(n);
    // Per part: local cluster id -> global cluster id. Local leaves map
    // through `members`; local merge ids are filled in as we replay.
    let mut global_id: Vec<Vec<usize>> = parts
        .iter()
        .map(|part| {
            let local_n = part.members.len();
            let mut ids = part.members.clone();
            ids.resize(local_n + part.dendrogram.merges().len(), usize::MAX);
            ids
        })
        .collect();
    // K-way head pick over the parts' merge sequences.
    let mut next: Vec<usize> = vec![0; parts.len()];
    let total: usize = parts.iter().map(|p| p.dendrogram.merges().len()).sum();
    for _ in 0..total {
        let mut best: Option<(f64, usize)> = None;
        for (p, part) in parts.iter().enumerate() {
            if let Some(m) = part.dendrogram.merges().get(next[p]) {
                let better = match best {
                    Some((sim, _)) => m.similarity > sim,
                    None => true,
                };
                if better {
                    best = Some((m.similarity, p));
                }
            }
        }
        let Some((_, p)) = best else { break };
        let part = &parts[p];
        let m = part.dendrogram.merges()[next[p]];
        next[p] += 1;
        let a = global_id[p][m.a];
        let b = global_id[p][m.b];
        debug_assert!(a != usize::MAX && b != usize::MAX, "merge replay order");
        let into = dendrogram.record(a, b, m.similarity, m.size);
        global_id[p][m.into] = into;
    }
    let labels = dendrogram.cut(f64::NEG_INFINITY);
    Clustering { labels, dendrogram }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{agglomerate, MatrixMerger};
    use crate::linkage::Linkage;

    /// A block-diagonal similarity matrix: items within one block connect,
    /// blocks never do.
    fn block_matrix(blocks: &[&[usize]], sims: &dyn Fn(usize, usize) -> f64) -> Vec<Vec<f64>> {
        let n: usize = blocks.iter().map(|b| b.len()).sum();
        let mut m = vec![vec![0.0; n]; n];
        for block in blocks {
            for &i in *block {
                for &j in *block {
                    if i != j {
                        m[i][j] = sims(i, j);
                    }
                }
            }
        }
        m
    }

    #[test]
    fn components_of_block_matrix() {
        let blocks: &[&[usize]] = &[&[0, 2, 4], &[1, 3], &[5]];
        let m = block_matrix(blocks, &|i, j| 0.1 + 0.01 * (i + j) as f64);
        let comps = connected_components(6, &|i, j| m[i][j] != 0.0);
        assert_eq!(comps, vec![vec![0, 2, 4], vec![1, 3], vec![5]]);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        assert!(connected_components(0, &|_, _| true).is_empty());
        assert_eq!(connected_components(1, &|_, _| true), vec![vec![0]]);
        assert_eq!(
            connected_components(3, &|_, _| false),
            vec![vec![0], vec![1], vec![2]]
        );
    }

    #[test]
    fn compose_equals_batch_on_block_diagonal_matrices() {
        // Several interleavings of three blocks, including equal
        // similarities across blocks to exercise the tie-break.
        let blocks: &[&[usize]] = &[&[0, 3, 5, 6], &[1, 4], &[2, 7, 8]];
        let sims = |i: usize, j: usize| 0.2 + ((i * 7 + j * 13) % 5) as f64 * 0.15;
        let sym = |i: usize, j: usize| if i < j { sims(i, j) } else { sims(j, i) };
        let m = block_matrix(blocks, &sym);
        let n = m.len();
        let min_sim = 0.25;

        let mut batch = MatrixMerger::new(m.clone(), Linkage::Average);
        let batch = agglomerate(n, &mut batch, min_sim);

        let comps = connected_components(n, &|i, j| m[i][j] != 0.0);
        let parts: Vec<ComponentClustering> = comps
            .into_iter()
            .map(|members| {
                let local: Vec<Vec<f64>> = members
                    .iter()
                    .map(|&i| members.iter().map(|&j| m[i][j]).collect())
                    .collect();
                let mut merger = MatrixMerger::new(local, Linkage::Average);
                let c = agglomerate(members.len(), &mut merger, min_sim);
                ComponentClustering {
                    members,
                    dendrogram: c.dendrogram,
                }
            })
            .collect();
        let composed = compose(n, &parts);
        assert_eq!(composed.labels, batch.labels);
        // The composed dendrogram keeps the non-increasing similarity
        // prefix property.
        let sims: Vec<f64> = composed
            .dendrogram
            .merges()
            .iter()
            .map(|m| m.similarity)
            .collect();
        assert!(sims.windows(2).all(|w| w[0] >= w[1]), "{sims:?}");
    }

    #[test]
    fn compose_of_single_component_is_identity() {
        let m = vec![
            vec![0.0, 0.9, 0.1],
            vec![0.9, 0.0, 0.2],
            vec![0.1, 0.2, 0.0],
        ];
        let mut merger = MatrixMerger::new(m, Linkage::Average);
        let batch = agglomerate(3, &mut merger, 0.05);
        let parts = vec![ComponentClustering {
            members: vec![0, 1, 2],
            dendrogram: batch.dendrogram.clone(),
        }];
        let composed = compose(3, &parts);
        assert_eq!(composed.labels, batch.labels);
        assert_eq!(composed.dendrogram.merges(), batch.dendrogram.merges());
    }
}
