//! Supervised path weighting (paper §3).
//!
//! Each training pair becomes a feature vector of per-path similarities; a
//! linear-kernel SVM learns one weight per path, separately for the set
//! resemblance features and for the random walk features. The learned
//! hyperplane weights are then clamped at zero (unimportant paths "have
//! weights close to zero and can be ignored") and normalized to sum to 1,
//! so weighted similarities keep the scale the `min-sim` threshold is
//! calibrated against.

use exec::Executor;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use svm::{train_smo_guarded, Dataset, Kernel, LinearModel, PlattScaler, SmoConfig, SvmError};

/// Per-path weights for both similarity measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathWeights {
    /// Weights applied to per-path set resemblances.
    pub resem: Vec<f64>,
    /// Weights applied to per-path random walk probabilities.
    pub walk: Vec<f64>,
}

impl PathWeights {
    /// Uniform weights over `n` paths (the unsupervised baselines).
    pub fn uniform(n: usize) -> Self {
        let w = if n == 0 {
            Vec::new()
        } else {
            vec![1.0 / n as f64; n]
        };
        PathWeights {
            resem: w.clone(),
            walk: w,
        }
    }

    /// Number of paths.
    pub fn path_count(&self) -> usize {
        self.resem.len()
    }
}

/// Clamp negatives to zero and normalize to sum 1; uniform fallback if
/// everything clamps away.
fn clamp_normalize(weights: &[f64]) -> Vec<f64> {
    let clamped: Vec<f64> = weights.iter().map(|&w| w.max(0.0)).collect();
    let sum: f64 = clamped.iter().sum();
    if sum > 0.0 {
        clamped.into_iter().map(|w| w / sum).collect()
    } else if weights.is_empty() {
        Vec::new()
    } else {
        vec![1.0 / weights.len() as f64; weights.len()]
    }
}

/// A trained weighting model with diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearnedModel {
    /// The final per-path weights used by the pipeline.
    pub weights: PathWeights,
    /// Raw (unscaled-space) resemblance hyperplane, for inspection.
    pub resem_model: LinearModel,
    /// Raw (unscaled-space) walk hyperplane, for inspection.
    pub walk_model: LinearModel,
    /// Training accuracy of the resemblance model.
    pub resem_train_accuracy: f64,
    /// Training accuracy of the walk model.
    pub walk_train_accuracy: f64,
    /// Platt calibration of the resemblance model's decision values:
    /// turns `resem_model.decision(features)` into P(same entity).
    pub resem_platt: PlattScaler,
    /// Platt calibration of the walk model's decision values.
    pub walk_platt: PlattScaler,
}

impl LearnedModel {
    /// Calibrated probability that a pair of references with the given
    /// per-path feature vectors refers to the same entity, combining both
    /// models' calibrated probabilities by geometric mean (consistent with
    /// the clustering composite).
    pub fn pair_probability(&self, resem_features: &[f64], walk_features: &[f64]) -> f64 {
        let pr = self
            .resem_platt
            .probability(self.resem_model.decision(resem_features));
        let pw = self
            .walk_platt
            .probability(self.walk_model.decision(walk_features));
        (pr * pw).sqrt()
    }
}

/// Assemble the two aligned SVM datasets (resemblance rows, walk rows)
/// from featurized training pairs. Rows are pushed **in pair order**, so
/// the datasets — and everything the SMO optimizer derives from them — are
/// independent of how many threads featurized the pairs.
pub fn assemble_datasets(
    features: &[crate::training::PairFeatures],
) -> Result<(Dataset, Dataset), SvmError> {
    let mut resem_data = Dataset::new();
    let mut walk_data = Dataset::new();
    for f in features {
        resem_data.push(f.resem.clone(), f.label)?;
        walk_data.push(f.walk.clone(), f.label)?;
    }
    Ok((resem_data, walk_data))
}

/// Train one linear SVM on a (pair-features, label) dataset and return the
/// hyperplane in original feature space plus its training accuracy.
///
/// Features are scaled by a single **global** factor (the largest feature
/// magnitude in the dataset) rather than per-path standardization:
/// per-path scaling would divide each learned weight by that path's
/// standard deviation, handing near-constant, uninformative paths (a
/// publisher shared by everybody) enormously inflated weights. A global
/// factor preserves the paths' relative scales — exactly what the learned
/// weights must rank — while keeping the optimizer well-conditioned for
/// tiny-magnitude features like walk probabilities.
fn train_one(
    data: &Dataset,
    svm_c: f64,
    seed: u64,
    guard: &mut dyn FnMut(u64) -> bool,
) -> Result<(LinearModel, f64), SvmError> {
    // Scale by the 95th percentile of nonzero magnitudes (not the max): a
    // single outlier pair — e.g. two references on the same paper, walk
    // probability near 1 — would otherwise squash every ordinary feature
    // value toward zero and starve the optimizer.
    let mut magnitudes: Vec<f64> = data
        .iter()
        .flat_map(|(x, _)| x.iter().copied())
        .map(f64::abs)
        .filter(|&v| v > 0.0)
        .collect();
    if magnitudes.is_empty() {
        return Err(SvmError::Degenerate("all pair features are zero".into()));
    }
    magnitudes.sort_by(f64::total_cmp);
    let p95 = magnitudes[(magnitudes.len() - 1) * 95 / 100];
    let scale = 1.0 / p95;
    // Winsorize: when the p95 is many orders of magnitude below the max
    // (walk probabilities can span 1e-30..1), unbounded scaled outliers
    // would overflow the kernel matrix; capping them keeps the optimizer
    // finite and barely moves the hyperplane (only the top tail saturates).
    const CAP: f64 = 100.0;
    let mut scaled = Dataset::new();
    for (x, y) in data.iter() {
        // distinct-lint: allow(D110, reason="each scaled row is an exact-sized buffer moved into the new dataset; winsorizing in place would mutate the caller's training data")
        scaled.push(x.iter().map(|&v| (v * scale).clamp(-CAP, CAP)).collect(), y)?;
    }
    let cfg = SmoConfig {
        c: svm_c,
        seed,
        ..Default::default()
    };
    let kernel_model = train_smo_guarded(&scaled, Kernel::Linear, &cfg, guard)?;
    let accuracy = kernel_model.accuracy(&scaled);
    // distinct-lint: allow(D101, reason="kernel is Kernel::Linear two lines up, and to_linear is total for linear kernels")
    let linear = kernel_model.to_linear().expect("linear kernel collapses");
    // Undo the global scale (a uniform rescaling: relative weights are
    // unchanged, and they are normalized downstream anyway).
    let w: Vec<f64> = linear.weights.iter().map(|&wi| wi * scale).collect();
    Ok((
        LinearModel {
            weights: w,
            bias: linear.bias,
        },
        accuracy,
    ))
}

/// Learn path weights from the two feature datasets (rows aligned:
/// resemblance features and walk features of the same training pairs).
/// The two fits run on the [`Executor::default`] pool.
pub fn learn_weights(
    resem_data: &Dataset,
    walk_data: &Dataset,
    svm_c: f64,
    seed: u64,
) -> Result<LearnedModel, SvmError> {
    learn_weights_guarded(
        resem_data,
        walk_data,
        svm_c,
        seed,
        &Executor::default(),
        &|_| true,
    )
}

/// Like [`learn_weights`], but on `executor` and cooperatively
/// interruptible: `guard` is charged per SMO optimization pass (see
/// [`svm::train_smo_guarded`]); tripping it surfaces as
/// [`SvmError::Interrupted`].
///
/// The resemblance fit and the walk fit are independent, seeded SMO
/// problems, so they run concurrently, one per worker, and share `guard`:
/// a limit tripped by either stops both at their next pass. On a
/// one-thread executor they run inline in that order, and the walk fit is
/// skipped once the resemblance fit has failed, exactly as a sequential
/// run does. Either way the model is the same bits, and when both fits
/// fail the resemblance fit's error is the one returned.
pub fn learn_weights_guarded(
    resem_data: &Dataset,
    walk_data: &Dataset,
    svm_c: f64,
    seed: u64,
    executor: &Executor,
    guard: &(dyn Fn(u64) -> bool + Sync),
) -> Result<LearnedModel, SvmError> {
    let fits = [(resem_data, seed), (walk_data, seed.wrapping_add(1))];
    let resem_failed = AtomicBool::new(false);
    let (results, _) = executor.par_map_guarded(
        &fits,
        |i, &(data, seed)| {
            let fit = train_one(data, svm_c, seed, &mut |units| guard(units));
            if i == 0 && fit.is_err() {
                resem_failed.store(true, Ordering::Relaxed);
            }
            Some(fit)
        },
        || resem_failed.load(Ordering::Relaxed),
    );
    // Only the walk fit can be skipped, and only after the resemblance
    // fit failed, whose error returns first.
    let mut results = results.into_iter();
    let skipped = || SvmError::Interrupted { passes_done: 0 };
    let (resem_model, resem_acc) = results.next().flatten().ok_or_else(skipped)??;
    let (walk_model, walk_acc) = results.next().flatten().ok_or_else(skipped)??;
    let resem_platt = PlattScaler::fit_model(resem_data, |x| resem_model.decision(x))?;
    let walk_platt = PlattScaler::fit_model(walk_data, |x| walk_model.decision(x))?;
    let weights = PathWeights {
        resem: clamp_normalize(&resem_model.weights),
        walk: clamp_normalize(&walk_model.weights),
    };
    Ok(LearnedModel {
        weights,
        resem_model,
        walk_model,
        resem_train_accuracy: resem_acc,
        walk_train_accuracy: walk_acc,
        resem_platt,
        walk_platt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic pair features: path 0 is informative (high for positives),
    /// path 1 is noise, path 2 is anti-informative (high for negatives).
    fn synthetic(n_per: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n_per {
            d.push(
                vec![
                    0.6 + rng.gen_range(-0.2..0.2),
                    rng.gen_range(0.0..1.0),
                    0.1 + rng.gen_range(-0.1..0.1),
                ],
                1.0,
            )
            .unwrap();
            d.push(
                vec![
                    0.1 + rng.gen_range(-0.1..0.1),
                    rng.gen_range(0.0..1.0),
                    0.6 + rng.gen_range(-0.2..0.2),
                ],
                -1.0,
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn uniform_weights() {
        let w = PathWeights::uniform(4);
        assert_eq!(w.path_count(), 4);
        assert!(w.resem.iter().all(|&x| (x - 0.25).abs() < 1e-12));
        assert_eq!(w.resem, w.walk);
        assert!(PathWeights::uniform(0).resem.is_empty());
    }

    #[test]
    fn clamp_normalize_behaviour() {
        let w = clamp_normalize(&[2.0, -1.0, 2.0]);
        assert_eq!(w, vec![0.5, 0.0, 0.5]);
        // All-negative falls back to uniform.
        let w = clamp_normalize(&[-1.0, -2.0]);
        assert_eq!(w, vec![0.5, 0.5]);
        assert!(clamp_normalize(&[]).is_empty());
    }

    #[test]
    fn informative_path_gets_the_weight() {
        let resem = synthetic(120, 1);
        let walk = synthetic(120, 2);
        let m = learn_weights(&resem, &walk, 1.0, 7).unwrap();
        for w in [&m.weights.resem, &m.weights.walk] {
            assert!(w[0] > 0.8, "informative path should dominate: {w:?}");
            assert!(w[1] < 0.15, "noise path should be ignored: {w:?}");
            assert_eq!(w[2], 0.0, "anti-informative path must clamp to zero: {w:?}");
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        assert!(m.resem_train_accuracy > 0.95);
        assert!(m.walk_train_accuracy > 0.95);
    }

    #[test]
    fn learned_model_serializes() {
        let m = learn_weights(&synthetic(40, 3), &synthetic(40, 4), 1.0, 7).unwrap();
        let j = serde_json::to_string(&m).unwrap();
        let back: LearnedModel = serde_json::from_str(&j).unwrap();
        assert_eq!(m.weights, back.weights);
    }

    #[test]
    fn nan_row_is_refused_before_learning() {
        // The training path: featurized pairs become the two datasets, and
        // a non-finite feature is a typed error naming its row and column.
        let mut features: Vec<crate::training::PairFeatures> = (0..4)
            .map(|i| crate::training::PairFeatures {
                resem: vec![0.5, 0.25],
                walk: vec![0.125, 0.0625],
                label: if i % 2 == 0 { 1.0 } else { -1.0 },
            })
            .collect();
        features[2].walk[1] = f64::NAN;
        assert_eq!(
            assemble_datasets(&features).unwrap_err(),
            SvmError::NonFiniteFeature { row: 2, col: 1 }
        );
        // Nor can a hand-built dataset smuggle one into `learn_weights`:
        // the row is refused, and what was accepted learns finite weights.
        let mut d = synthetic(40, 5);
        let rows = d.len();
        assert_eq!(
            d.push(vec![f64::NAN, 0.5, 0.5], 1.0),
            Err(SvmError::NonFiniteFeature { row: rows, col: 0 })
        );
        let m = learn_weights(&d, &d, 1.0, 7).unwrap();
        assert!(m.resem_model.bias.is_finite() && m.resem_platt.a != 0.0);
        assert!(m.resem_model.weights.iter().all(|w| w.is_finite()));
    }

    #[test]
    fn concurrent_fits_equal_sequential_fits_and_report_the_resem_error_first() {
        let (resem, walk) = (synthetic(60, 8), synthetic(60, 9));
        let at = |threads: usize| {
            learn_weights_guarded(
                &resem,
                &walk,
                1.0,
                7,
                &Executor::with_threads(threads),
                &|_| true,
            )
            .unwrap()
        };
        let (one, two) = (at(1), at(2));
        let json = |m: &LearnedModel| serde_json::to_string(m).unwrap();
        assert_eq!(json(&one), json(&two));
        // Both fits fail: the resemblance fit's error wins at any count.
        let mut one_class = Dataset::new();
        one_class.push(vec![1.0, 0.0, 0.0], 1.0).unwrap();
        let mut zeros = Dataset::new();
        zeros.push(vec![0.0, 0.0, 0.0], 1.0).unwrap();
        zeros.push(vec![0.0, 0.0, 0.0], -1.0).unwrap();
        for threads in [1, 2] {
            let err = learn_weights_guarded(
                &zeros,
                &one_class,
                1.0,
                7,
                &Executor::with_threads(threads),
                &|_| true,
            )
            .unwrap_err();
            assert_eq!(
                err,
                SvmError::Degenerate("all pair features are zero".into()),
                "{threads} threads"
            );
        }
        // A guard that refuses every pass interrupts before any pass.
        let err = learn_weights_guarded(&resem, &walk, 1.0, 7, &Executor::with_threads(2), &|_| {
            false
        })
        .unwrap_err();
        assert_eq!(err, SvmError::Interrupted { passes_done: 0 });
    }

    #[test]
    fn degenerate_data_errors() {
        // Single-class data cannot train.
        let mut d = Dataset::new();
        d.push(vec![1.0], 1.0).unwrap();
        d.push(vec![0.9], 1.0).unwrap();
        assert!(learn_weights(&d, &d, 1.0, 7).is_err());
    }
}
