//! Experiment A1 — ablations of the design choices DESIGN.md calls out:
//!
//! 1. geometric vs arithmetic composition of the two cluster measures;
//! 2. DISTINCT's Average-Link + collective-walk cluster similarity vs the
//!    classic single / complete / average linkages over the same leaf
//!    similarities (the §4.1 argument);
//! 3. connection-strength-weighted Jaccard (Definition 2) vs unweighted
//!    Jaccard over the same neighbor sets.
//!
//! Every arm gets its best `min-sim` from the grid so differences reflect
//! the design choice, not a threshold.
//!
//! Run: `cargo run --release -p distinct-bench --bin exp_ablation`

use cluster::{agglomerate, Linkage, MatrixMerger};
use distinct::{min_sim_grid, weighted_sum, CompositeMode, Distinct, DistinctConfig, Profile};
use distinct_bench::{build_dataset, sweep_best_min_sim, STANDARD_SEED};
use eval::{f3, f4, Align, PairCounts, Table};
use relgraph::NodeId;

/// Unweighted Jaccard `|A ∩ B| / |A ∪ B|` of two strictly ascending node
/// lists — the ablation baseline that ignores connection strengths. It is
/// the resemblance of Definition 2 with every weight 1: Σ min over the
/// intersection is `|A ∩ B|` and the totals are the list lengths, all
/// exact in f64. `ones` holds at least `max(|A|, |B|)` unit weights; 0
/// when either list is empty.
fn jaccard_unweighted(a: &[NodeId], b: &[NodeId], ones: &[f64]) -> f64 {
    relgraph::resemblance(
        (a, &ones[..a.len()]),
        a.len() as f64,
        (b, &ones[..b.len()]),
        b.len() as f64,
    )
}

/// Mean accuracy and f-measure of a matrix-linkage clustering over all
/// names, sweeping min-sim.
fn sweep_matrix(
    per_name: &[(Vec<Vec<f64>>, Vec<usize>)],
    linkage: Linkage,
    grid: &[f64],
) -> (f64, f64, f64) {
    let mut best: Option<(f64, f64, f64)> = None;
    for &min_sim in grid {
        let mut acc_sum = 0.0;
        let mut f_sum = 0.0;
        for (matrix, gold) in per_name {
            let mut merger = MatrixMerger::new(matrix.clone(), linkage);
            let c = agglomerate(gold.len(), &mut merger, min_sim);
            let counts = PairCounts::from_labels(gold, &c.labels);
            acc_sum += counts.accuracy();
            f_sum += counts.scores().f_measure;
        }
        let acc = acc_sum / per_name.len() as f64;
        let f = f_sum / per_name.len() as f64;
        if best.is_none_or(|(_, ba, _)| acc > ba) {
            best = Some((min_sim, acc, f));
        }
    }
    best.expect("non-empty grid")
}

fn main() {
    let dataset = build_dataset(STANDARD_SEED);
    let grid = min_sim_grid();
    let mut table = Table::new(
        &["Arm", "best min-sim", "accuracy", "f-measure"],
        &[Align::Left, Align::Right, Align::Right, Align::Right],
    )
    .with_title("A1. Ablations of DISTINCT's design choices (standard world)");

    // --- 1. Composite mode --------------------------------------------------
    for (label, composite) in [
        (
            "composite: geometric mean (paper)",
            CompositeMode::Geometric,
        ),
        ("composite: arithmetic mean", CompositeMode::Arithmetic),
    ] {
        let config = DistinctConfig {
            composite,
            ..Default::default()
        };
        let mut engine =
            Distinct::prepare(&dataset.catalog, "Publish", "author", config).expect("prepare");
        engine.train().expect("train");
        let (min_sim, results) = sweep_best_min_sim(&engine, &dataset.truths, &grid);
        table.row(vec![
            label.to_string(),
            f4(min_sim),
            f3(distinct_bench::mean_accuracy(&results)),
            f3(distinct_bench::mean_f(&results)),
        ]);
        eprintln!("done: {label}");
    }

    // One trained engine supplies profiles for the matrix-based arms.
    let mut engine = Distinct::prepare(
        &dataset.catalog,
        "Publish",
        "author",
        DistinctConfig::default(),
    )
    .expect("prepare");
    engine.train().expect("train");
    let weights = engine.weights().clone();

    // Leaf matrices per name: composite similarity, weighted resemblance,
    // unweighted resemblance.
    let mut composite_mats = Vec::new();
    let mut weighted_mats = Vec::new();
    let mut unweighted_mats = Vec::new();
    for truth in &dataset.truths {
        let profiles: Vec<Profile> = truth
            .refs
            .iter()
            .map(|&r| (*engine.profile(r)).clone())
            .collect();
        let n = profiles.len();
        let longest = profiles
            .iter()
            .flat_map(|p| (0..p.path_count()).map(|k| p.path(k).len()));
        let ones = vec![1.0; longest.max().unwrap_or(0)];
        let mut comp = vec![vec![0.0; n]; n];
        let mut wj = vec![vec![0.0; n]; n];
        let mut uj = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let r = weighted_sum(
                    &distinct::resemblance_features(&profiles[i], &profiles[j]),
                    &weights.resem,
                );
                let w = weighted_sum(
                    &distinct::walk_features(&profiles[i], &profiles[j]),
                    &weights.walk,
                );
                let u: f64 = (0..profiles[i].path_count())
                    .zip(&weights.resem)
                    .map(|(k, &wt)| {
                        wt * jaccard_unweighted(
                            profiles[i].path(k).nodes,
                            profiles[j].path(k).nodes,
                            &ones,
                        )
                    })
                    .sum();
                comp[i][j] = (r * w).sqrt();
                comp[j][i] = comp[i][j];
                wj[i][j] = r;
                wj[j][i] = r;
                uj[i][j] = u;
                uj[j][i] = u;
            }
        }
        composite_mats.push((comp, truth.labels.clone()));
        weighted_mats.push((wj, truth.labels.clone()));
        unweighted_mats.push((uj, truth.labels.clone()));
    }
    eprintln!("leaf matrices built");

    // --- 2. Cluster-similarity definition ----------------------------------
    let (min_sim, results) = sweep_best_min_sim(&engine, &dataset.truths, &grid);
    table.row(vec![
        "cluster sim: Average-Link x collective walk (paper)".to_string(),
        f4(min_sim),
        f3(distinct_bench::mean_accuracy(&results)),
        f3(distinct_bench::mean_f(&results)),
    ]);
    for (label, linkage) in [
        (
            "cluster sim: Single-Link on composite leaves",
            Linkage::Single,
        ),
        (
            "cluster sim: Complete-Link on composite leaves",
            Linkage::Complete,
        ),
        (
            "cluster sim: Average-Link on composite leaves",
            Linkage::Average,
        ),
    ] {
        let (min_sim, acc, f) = sweep_matrix(&composite_mats, linkage, &grid);
        table.row(vec![label.to_string(), f4(min_sim), f3(acc), f3(f)]);
        eprintln!("done: {label}");
    }

    // --- 3. Weighted vs unweighted Jaccard (resemblance-only, avg link) ----
    for (label, mats) in [
        (
            "resemblance: strength-weighted Jaccard (paper)",
            &weighted_mats,
        ),
        ("resemblance: unweighted Jaccard", &unweighted_mats),
    ] {
        let (min_sim, acc, f) = sweep_matrix(mats, Linkage::Average, &grid);
        table.row(vec![label.to_string(), f4(min_sim), f3(acc), f3(f)]);
        eprintln!("done: {label}");
    }

    println!("{}", table.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = ids.iter().map(|&n| NodeId(n)).collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn unweighted_jaccard_hand_computed() {
        let (a, b) = (nodes(&[1, 2]), nodes(&[2, 3]));
        let ones = [1.0; 2];
        assert!((jaccard_unweighted(&a, &b, &ones) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard_unweighted(&[], &b, &ones), 0.0);
    }

    proptest! {
        #[test]
        fn unweighted_bounded_and_symmetric(
            xs in proptest::collection::vec(0u32..20, 0..15),
            ys in proptest::collection::vec(0u32..20, 0..15),
        ) {
            let (a, b) = (nodes(&xs), nodes(&ys));
            let ones = [1.0; 20];
            let j = jaccard_unweighted(&a, &b, &ones);
            prop_assert_eq!(j.to_bits(), jaccard_unweighted(&b, &a, &ones).to_bits());
            prop_assert!((0.0..=1.0).contains(&j));
            // Bit for bit the set-count ratio |A ∩ B| / |A ∪ B|.
            if !a.is_empty() && !b.is_empty() {
                let inter = a.iter().filter(|n| b.binary_search(n).is_ok()).count();
                let count = inter as f64 / (a.len() + b.len() - inter) as f64;
                prop_assert_eq!(j.to_bits(), count.to_bits());
            }
        }
    }
}
