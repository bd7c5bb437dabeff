//! Sequential Minimal Optimization (Platt's SMO) for the dual soft-margin
//! SVM — the same algorithm family as LIBSVM, hand-rolled.
//!
//! Solves
//! `max_α Σα_i − ½ ΣΣ α_i α_j y_i y_j K(x_i, x_j)` subject to
//! `0 ≤ α_i ≤ C` and `Σ α_i y_i = 0`, by repeatedly optimizing one pair of
//! multipliers analytically (the "simplified SMO" variant with randomized
//! second choice, run to KKT convergence).
//!
//! The kernel matrix is cached whole, and an error `f(x_m) − y_m` is
//! summed afresh from row `m` every time it is needed — there is no error
//! cache, so every error is the same floating-point sum of the same terms
//! in the same order, whatever happened before. Only the multipliers with
//! `α_i > 0` contribute a term, so the solver keeps them in an ascending
//! active list and sweeps that list instead of all `n` multipliers; one
//! sweep sums the errors of four consecutive rows at once. A pass is
//! therefore `O(n·|active|)` row work, read contiguously.

use crate::data::{Dataset, Result, SvmError};
use crate::kernel::Kernel;
use crate::model::KernelModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows whose errors one sweep of the active list computes together. The
/// block is dropped whenever a pair update changes `α` or `b`, so its
/// errors always equal the ones a single-row sweep would compute.
const BLOCK: usize = 4;

/// Hyperparameters for the SMO solver.
#[derive(Debug, Clone)]
pub struct SmoConfig {
    /// Soft-margin penalty (finite and > 0). Larger C fits the training
    /// set harder.
    pub c: f64,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Number of consecutive full passes without any update before
    /// declaring convergence.
    pub max_passes: usize,
    /// Hard cap on full passes (guards against cycling on noisy data).
    pub max_iters: usize,
    /// RNG seed for the randomized second-multiplier choice.
    pub seed: u64,
}

impl Default for SmoConfig {
    fn default() -> Self {
        SmoConfig {
            c: 1.0,
            tol: 1e-3,
            max_passes: 5,
            max_iters: 200,
            seed: 7,
        }
    }
}

/// Train a kernel SVM with SMO.
///
/// ```
/// use svm::{train_smo, Dataset, Kernel, SmoConfig};
/// let data = Dataset::from_parts(
///     vec![vec![2.0], vec![1.5], vec![-2.0], vec![-1.5]],
///     vec![1.0, 1.0, -1.0, -1.0],
/// ).unwrap();
/// let model = train_smo(&data, Kernel::Linear, &SmoConfig::default()).unwrap();
/// assert_eq!(model.accuracy(&data), 1.0);
/// ```
pub fn train_smo(data: &Dataset, kernel: Kernel, cfg: &SmoConfig) -> Result<KernelModel> {
    train_smo_guarded(data, kernel, cfg, &mut |_| true)
}

/// Like [`train_smo`], but cooperatively interruptible.
///
/// `guard` is called once per full pass over the multipliers and charged
/// `n`, the number of examples the pass visits. The pass itself is
/// `O(n·|active|)` row work, where `|active|` counts the multipliers with
/// `α_i > 0`; the charge stays `n` so that a budget trips at the same pass
/// whatever the active set holds. Returning `false` aborts the
/// optimization with [`SvmError::Interrupted`] — a half-converged
/// hyperplane is not returned, because its weights can be arbitrarily far
/// from the optimum and the caller could not tell.
pub fn train_smo_guarded(
    data: &Dataset,
    kernel: Kernel,
    cfg: &SmoConfig,
    guard: &mut dyn FnMut(u64) -> bool,
) -> Result<KernelModel> {
    if !(cfg.c.is_finite() && cfg.c > 0.0) {
        return Err(SvmError::BadParameter {
            name: "c",
            reason: format!("must be finite and > 0, got {}", cfg.c),
        });
    }
    data.require_both_classes()?;
    let n = data.len();
    let y = data.labels();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Cache the kernel matrix: the training sets here are small (the paper
    // uses 1000+1000 examples), so O(n²) memory is the right trade. Both
    // triangles hold the same value, so row m is column m bit for bit.
    let mut k = vec![0.0f64; n * n];
    for i in 0..n {
        for j in i..n {
            let v = kernel.eval(data.x(i), data.x(j));
            k[i * n + j] = v;
            k[j * n + i] = v;
        }
    }
    let kij = |i: usize, j: usize| k[i * n + j];
    let row = |m: usize| &k[m * n..(m + 1) * n];

    // f(x_m) − y_m: the bias plus `α_i·y_i·K(x_i, x_m)` over the active
    // list, in ascending `i`, read from kernel row `m`.
    let err = |active: &[(usize, f64)], b: f64, m: usize| -> f64 {
        let row = row(m);
        let mut f = b;
        for &(i, ay) in active {
            f += ay * row[i];
        }
        f - y[m]
    };
    // `err` for rows `lo..lo + BLOCK` in one sweep of the active list: one
    // accumulator per row, each adding the same terms in the same order.
    let block_err = |active: &[(usize, f64)], b: f64, lo: usize| -> [f64; BLOCK] {
        let rows: [&[f64]; BLOCK] = std::array::from_fn(|q| row(lo + q));
        let mut f = [b; BLOCK];
        for &(i, ay) in active {
            for q in 0..BLOCK {
                f[q] += ay * rows[q][i];
            }
        }
        std::array::from_fn(|q| f[q] - y[lo + q])
    };

    let mut alpha = vec![0.0f64; n];
    let mut b = 0.0f64;
    // `(i, α_i·y_i)` for every `α_i > 0`, ascending in `i`.
    let mut active: Vec<(usize, f64)> = Vec::with_capacity(n);
    // Errors of rows `lo..lo + BLOCK` under the current `α` and `b`.
    let mut block: Option<(usize, [f64; BLOCK])> = None;

    let mut passes = 0usize;
    let mut iters = 0usize;
    while passes < cfg.max_passes && iters < cfg.max_iters {
        if !guard(n as u64) {
            return Err(SvmError::Interrupted { passes_done: iters });
        }
        let mut changed = 0usize;
        for i in 0..n {
            let cached = block.and_then(|(lo, errs)| errs.get(i.wrapping_sub(lo)).copied());
            let ei = match cached {
                Some(e) => e,
                None if i + BLOCK <= n => {
                    let errs = block_err(&active, b, i);
                    block = Some((i, errs));
                    let [first, ..] = errs;
                    first
                }
                None => err(&active, b, i),
            };
            let yi = y[i];
            let ri = yi * ei;
            if (ri < -cfg.tol && alpha[i] < cfg.c) || (ri > cfg.tol && alpha[i] > 0.0) {
                // Second multiplier: random j != i.
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = err(&active, b, j);
                let yj = y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if yi != yj {
                    (
                        (aj_old - ai_old).max(0.0),
                        (cfg.c + aj_old - ai_old).min(cfg.c),
                    )
                } else {
                    (
                        (ai_old + aj_old - cfg.c).max(0.0),
                        (ai_old + aj_old).min(cfg.c),
                    )
                };
                // Degenerate (or floating-point-inverted) box: nothing to
                // optimize for this pair.
                if hi - lo < 1e-12 {
                    continue;
                }
                let eta = 2.0 * kij(i, j) - kij(i, i) - kij(j, j);
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - yj * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-5 {
                    continue;
                }
                let ai = ai_old + yi * yj * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                set_active(&mut active, i, ai, yi);
                set_active(&mut active, j, aj, yj);
                let b1 = b - ei - yi * (ai - ai_old) * kij(i, i) - yj * (aj - aj_old) * kij(i, j);
                let b2 = b - ej - yi * (ai - ai_old) * kij(i, j) - yj * (aj - aj_old) * kij(j, j);
                b = if ai > 0.0 && ai < cfg.c {
                    b1
                } else if aj > 0.0 && aj < cfg.c {
                    b2
                } else {
                    0.5 * (b1 + b2)
                };
                block = None;
                changed += 1;
            }
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
        iters += 1;
    }

    // Keep only support vectors.
    let kept = alpha.iter().filter(|&&a| a > 1e-12).count();
    let mut svs = Vec::with_capacity(kept);
    let mut coefs = Vec::with_capacity(kept);
    for i in 0..n {
        if alpha[i] > 1e-12 {
            // distinct-lint: allow(D110, reason="each support-vector row is copied exactly once into the returned model, which owns its vectors by contract")
            svs.push(data.x(i).to_vec());
            coefs.push(alpha[i] * data.y(i));
        }
    }
    if svs.is_empty() {
        return Err(SvmError::Degenerate(
            "SMO produced no support vectors".into(),
        ));
    }
    Ok(KernelModel {
        kernel,
        support_vectors: svs,
        coefficients: coefs,
        bias: b,
    })
}

/// Record multiplier `i`'s new value `a` in the active list: present with
/// coefficient `a·y_i` exactly when `a > 0`.
fn set_active(active: &mut Vec<(usize, f64)>, i: usize, a: f64, yi: f64) {
    match (active.binary_search_by_key(&i, |&(m, _)| m), a > 0.0) {
        (Ok(p), true) => active[p].1 = a * yi,
        (Ok(p), false) => {
            active.remove(p);
        }
        (Err(p), true) => active.insert(p, (i, a * yi)),
        (Err(_), false) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The solver as it was before the active list and the blocked error
    /// sums, its code kept verbatim as the oracle the current one must
    /// match bit for bit: it scans all `n` multipliers per error and reads
    /// the kernel matrix by column.
    fn reference_smo(
        data: &Dataset,
        kernel: Kernel,
        cfg: &SmoConfig,
        guard: &mut dyn FnMut(u64) -> bool,
    ) -> Result<KernelModel> {
        if cfg.c <= 0.0 {
            return Err(SvmError::BadParameter {
                name: "c",
                reason: "must be > 0".into(),
            });
        }
        data.require_both_classes()?;
        let n = data.len();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Cache the kernel matrix: the training sets here are small (the paper
        // uses 1000+1000 examples), so O(n²) memory is the right trade.
        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let v = kernel.eval(data.x(i), data.x(j));
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }
        let kij = |i: usize, j: usize| k[i * n + j];

        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;

        // f(x_m) − y_m under the current multipliers.
        let err = |alpha: &[f64], b: f64, m: usize| -> f64 {
            let mut f = b;
            for i in 0..n {
                if alpha[i] > 0.0 {
                    f += alpha[i] * data.y(i) * kij(i, m);
                }
            }
            f - data.y(m)
        };

        let mut passes = 0usize;
        let mut iters = 0usize;
        while passes < cfg.max_passes && iters < cfg.max_iters {
            if !guard(n as u64) {
                return Err(SvmError::Interrupted { passes_done: iters });
            }
            let mut changed = 0usize;
            for i in 0..n {
                let ei = err(&alpha, b, i);
                let yi = data.y(i);
                let ri = yi * ei;
                if (ri < -cfg.tol && alpha[i] < cfg.c) || (ri > cfg.tol && alpha[i] > 0.0) {
                    // Second multiplier: random j != i.
                    let mut j = rng.gen_range(0..n - 1);
                    if j >= i {
                        j += 1;
                    }
                    let ej = err(&alpha, b, j);
                    let yj = data.y(j);
                    let (ai_old, aj_old) = (alpha[i], alpha[j]);
                    let (lo, hi) = if yi != yj {
                        (
                            (aj_old - ai_old).max(0.0),
                            (cfg.c + aj_old - ai_old).min(cfg.c),
                        )
                    } else {
                        (
                            (ai_old + aj_old - cfg.c).max(0.0),
                            (ai_old + aj_old).min(cfg.c),
                        )
                    };
                    // Degenerate (or floating-point-inverted) box: nothing to
                    // optimize for this pair.
                    if hi - lo < 1e-12 {
                        continue;
                    }
                    let eta = 2.0 * kij(i, j) - kij(i, i) - kij(j, j);
                    if eta >= 0.0 {
                        continue;
                    }
                    let mut aj = aj_old - yj * (ei - ej) / eta;
                    aj = aj.clamp(lo, hi);
                    if (aj - aj_old).abs() < 1e-5 {
                        continue;
                    }
                    let ai = ai_old + yi * yj * (aj_old - aj);
                    alpha[i] = ai;
                    alpha[j] = aj;
                    let b1 =
                        b - ei - yi * (ai - ai_old) * kij(i, i) - yj * (aj - aj_old) * kij(i, j);
                    let b2 =
                        b - ej - yi * (ai - ai_old) * kij(i, j) - yj * (aj - aj_old) * kij(j, j);
                    b = if ai > 0.0 && ai < cfg.c {
                        b1
                    } else if aj > 0.0 && aj < cfg.c {
                        b2
                    } else {
                        0.5 * (b1 + b2)
                    };
                    changed += 1;
                }
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
            iters += 1;
        }

        // Keep only support vectors.
        let kept = alpha.iter().filter(|&&a| a > 1e-12).count();
        let mut svs = Vec::with_capacity(kept);
        let mut coefs = Vec::with_capacity(kept);
        for i in 0..n {
            if alpha[i] > 1e-12 {
                svs.push(data.x(i).to_vec());
                coefs.push(alpha[i] * data.y(i));
            }
        }
        if svs.is_empty() {
            return Err(SvmError::Degenerate(
                "SMO produced no support vectors".into(),
            ));
        }
        Ok(KernelModel {
            kernel,
            support_vectors: svs,
            coefficients: coefs,
            bias: b,
        })
    }

    /// Linearly separable 2-D blobs.
    fn blobs(n_per: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n_per {
            d.push(
                vec![
                    2.0 + rng.gen_range(-0.5..0.5),
                    2.0 + rng.gen_range(-0.5..0.5),
                ],
                1.0,
            )
            .unwrap();
            d.push(
                vec![
                    -2.0 + rng.gen_range(-0.5..0.5),
                    -2.0 + rng.gen_range(-0.5..0.5),
                ],
                -1.0,
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn separable_blobs_reach_full_accuracy() {
        let d = blobs(40, 1);
        let m = train_smo(&d, Kernel::Linear, &SmoConfig::default()).unwrap();
        assert_eq!(m.accuracy(&d), 1.0);
        // Margin is large, so few support vectors.
        assert!(m.sv_count() < d.len() / 2, "sv_count = {}", m.sv_count());
    }

    #[test]
    fn linear_collapse_agrees_with_dual() {
        let d = blobs(30, 2);
        let m = train_smo(&d, Kernel::Linear, &SmoConfig::default()).unwrap();
        let lm = m.to_linear().unwrap();
        for (x, _) in d.iter() {
            assert!((m.decision(x) - lm.decision(x)).abs() < 1e-9);
        }
        assert_eq!(lm.accuracy(&d), 1.0);
    }

    #[test]
    fn xor_needs_nonlinear_kernel() {
        // XOR: not linearly separable.
        let d = Dataset::from_parts(
            vec![
                vec![0.0, 0.0],
                vec![1.0, 1.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
            ],
            vec![1.0, 1.0, -1.0, -1.0],
        )
        .unwrap();
        let rbf = train_smo(
            &d,
            Kernel::Rbf { gamma: 2.0 },
            &SmoConfig {
                c: 10.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(rbf.accuracy(&d), 1.0, "RBF kernel must solve XOR");
        let poly = train_smo(
            &d,
            Kernel::Polynomial {
                degree: 2,
                gamma: 1.0,
                coef0: 1.0,
            },
            &SmoConfig {
                c: 10.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(poly.accuracy(&d), 1.0, "quadratic kernel must solve XOR");
    }

    #[test]
    fn weight_direction_reflects_informative_feature() {
        // Feature 0 carries the class; feature 1 is noise.
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dataset::new();
        for _ in 0..60 {
            let noise = rng.gen_range(-1.0..1.0);
            d.push(vec![1.0 + rng.gen_range(-0.2..0.2), noise], 1.0)
                .unwrap();
            let noise = rng.gen_range(-1.0..1.0);
            d.push(vec![-1.0 + rng.gen_range(-0.2..0.2), noise], -1.0)
                .unwrap();
        }
        let m = train_smo(&d, Kernel::Linear, &SmoConfig::default()).unwrap();
        let lm = m.to_linear().unwrap();
        assert!(
            lm.weights[0] > 5.0 * lm.weights[1].abs(),
            "informative weight should dominate: {:?}",
            lm.weights
        );
    }

    #[test]
    fn noisy_overlap_still_trains() {
        // Overlapping classes: soft margin must tolerate misclassification.
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Dataset::new();
        for _ in 0..50 {
            d.push(vec![0.5 + rng.gen_range(-1.0..1.0)], 1.0).unwrap();
            d.push(vec![-0.5 + rng.gen_range(-1.0..1.0)], -1.0).unwrap();
        }
        let m = train_smo(
            &d,
            Kernel::Linear,
            &SmoConfig {
                c: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        let acc = m.accuracy(&d);
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn bad_c_rejected() {
        let d = blobs(5, 5);
        for c in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    train_smo(
                        &d,
                        Kernel::Linear,
                        &SmoConfig {
                            c,
                            ..Default::default()
                        }
                    ),
                    Err(SvmError::BadParameter { name: "c", .. })
                ),
                "c = {c} accepted"
            );
        }
    }

    #[test]
    fn nan_row_is_refused_before_it_reaches_the_solver() {
        let mut d = blobs(10, 5);
        let rows = d.len();
        assert_eq!(
            d.push(vec![f64::NAN, 1.0], 1.0),
            Err(SvmError::NonFiniteFeature { row: rows, col: 0 })
        );
        assert_eq!(d.len(), rows);
        let m = train_smo(&d, Kernel::Linear, &SmoConfig::default()).unwrap();
        assert!(m.bias.is_finite());
        assert!(m.coefficients.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn single_class_rejected() {
        let d = Dataset::from_parts(vec![vec![1.0], vec![2.0]], vec![1.0, 1.0]).unwrap();
        assert!(train_smo(&d, Kernel::Linear, &SmoConfig::default()).is_err());
    }

    #[test]
    fn guarded_training_matches_unguarded_and_interrupts_cleanly() {
        let d = blobs(20, 6);
        let full = train_smo(&d, Kernel::Linear, &SmoConfig::default()).unwrap();
        let mut charged = 0u64;
        let guarded = train_smo_guarded(&d, Kernel::Linear, &SmoConfig::default(), &mut |u| {
            charged += u;
            true
        })
        .unwrap();
        assert_eq!(
            full.to_linear().unwrap().weights,
            guarded.to_linear().unwrap().weights
        );
        assert!(charged >= d.len() as u64, "at least one pass charged");
        // Guard tripping on the second pass: typed error, pass count = 1.
        let mut passes = 0u32;
        let err = train_smo_guarded(&d, Kernel::Linear, &SmoConfig::default(), &mut |_| {
            passes += 1;
            passes <= 1
        })
        .unwrap_err();
        assert!(matches!(err, SvmError::Interrupted { passes_done: 1 }));
    }

    #[test]
    fn deterministic_given_seed() {
        let d = blobs(20, 6);
        let m1 = train_smo(&d, Kernel::Linear, &SmoConfig::default()).unwrap();
        let m2 = train_smo(&d, Kernel::Linear, &SmoConfig::default()).unwrap();
        assert_eq!(
            m1.to_linear().unwrap().weights,
            m2.to_linear().unwrap().weights
        );
    }

    #[test]
    fn dual_constraint_holds() {
        // Σ α_i y_i = 0 — equivalently Σ coefficients = 0.
        let d = blobs(25, 8);
        let m = train_smo(&d, Kernel::Linear, &SmoConfig::default()).unwrap();
        let s: f64 = m.coefficients.iter().sum();
        assert!(s.abs() < 1e-9, "Σ α y = {s}");
    }

    #[test]
    fn alphas_bounded_by_c() {
        let c = 0.7;
        let d = blobs(25, 9);
        let m = train_smo(
            &d,
            Kernel::Linear,
            &SmoConfig {
                c,
                ..Default::default()
            },
        )
        .unwrap();
        for (coef, sv) in m.coefficients.iter().zip(&m.support_vectors) {
            assert!(
                coef.abs() <= c + 1e-9,
                "|α y| = {} for sv {:?}",
                coef.abs(),
                sv
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random binary datasets: arbitrary points in a box, arbitrary
        /// labels (not necessarily separable).
        fn arbitrary_dataset() -> impl Strategy<Value = Dataset> {
            proptest::collection::vec(
                (
                    proptest::collection::vec(-5.0f64..5.0, 2),
                    proptest::bool::ANY,
                ),
                4..30,
            )
            .prop_filter_map("need both classes", |rows| {
                let mut d = Dataset::new();
                for (x, pos) in &rows {
                    d.push(x.clone(), if *pos { 1.0 } else { -1.0 }).ok()?;
                }
                d.require_both_classes().ok()?;
                Some(d)
            })
        }

        /// A random training problem: 2–300 rows of 1–19 dimensions with
        /// both classes (rows 0 and 1 fix one of each), mostly separated by
        /// a random direction with some labels flipped, one of the three
        /// kernels, and `c` in [0.1, 5].
        fn arbitrary_problem() -> impl Strategy<Value = (Dataset, Kernel, f64)> {
            (
                2usize..301,
                1usize..20,
                any::<u64>(),
                0usize..3,
                0.1f64..5.0,
            )
                .prop_map(|(rows, dim, seed, kernel, c)| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let dir: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let mut d = Dataset::new();
                    for r in 0..rows {
                        let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
                        let side = crate::data::dot(&dir, &x) >= 0.0;
                        let label = match r {
                            0 => true,
                            1 => false,
                            _ => side != rng.gen_bool(0.1),
                        };
                        d.push(x, if label { 1.0 } else { -1.0 }).unwrap();
                    }
                    let kernel = match kernel {
                        0 => Kernel::Linear,
                        1 => Kernel::Polynomial {
                            degree: rng.gen_range(1..4),
                            gamma: rng.gen_range(0.05..0.5),
                            coef0: rng.gen_range(0.0..1.0),
                        },
                        _ => Kernel::Rbf {
                            gamma: rng.gen_range(0.01..1.0),
                        },
                    };
                    (d, kernel, c)
                })
        }

        /// Exact equality of two solver results: the same error, or the
        /// same kernel, support vectors, coefficients and bias down to the
        /// last bit.
        fn same_bits(a: &Result<KernelModel>, b: &Result<KernelModel>) -> bool {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    a.kernel == b.kernel
                        && a.bias.to_bits() == b.bias.to_bits()
                        && bits(&a.coefficients) == bits(&b.coefficients)
                        && a.support_vectors.len() == b.support_vectors.len()
                        && a.support_vectors
                            .iter()
                            .zip(&b.support_vectors)
                            .all(|(x, z)| bits(x) == bits(z))
                }
                (Err(a), Err(b)) => a == b,
                _ => false,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn solver_is_bit_identical_to_the_reference(
                (d, kernel, c) in arbitrary_problem(),
                seed in any::<u64>(),
            ) {
                let cfg = SmoConfig { c, seed, ..Default::default() };
                let (mut fast_units, mut ref_units) = (0u64, 0u64);
                let fast = train_smo_guarded(&d, kernel, &cfg, &mut |u| {
                    fast_units += u;
                    true
                });
                let reference = reference_smo(&d, kernel, &cfg, &mut |u| {
                    ref_units += u;
                    true
                });
                prop_assert!(
                    same_bits(&fast, &reference),
                    "{} rows, {:?}, c = {c}: {:?} vs {:?}",
                    d.len(),
                    kernel,
                    fast.as_ref().map(|m| m.bias),
                    reference.as_ref().map(|m| m.bias)
                );
                prop_assert_eq!(fast_units, ref_units);
            }

            #[test]
            fn interruption_at_pass_k_matches_the_reference(
                (d, kernel, c) in arbitrary_problem(),
                k in 0usize..8,
            ) {
                let cfg = SmoConfig { c, ..Default::default() };
                let trip_at = |k: usize| {
                    let mut calls = 0usize;
                    move |_: u64| {
                        calls += 1;
                        calls <= k
                    }
                };
                let fast = train_smo_guarded(&d, kernel, &cfg, &mut trip_at(k));
                let reference = reference_smo(&d, kernel, &cfg, &mut trip_at(k));
                prop_assert!(same_bits(&fast, &reference), "k = {k}: {:?} vs {:?}",
                    fast.as_ref().err(), reference.as_ref().err());
                if let Err(SvmError::Interrupted { passes_done }) = fast {
                    prop_assert_eq!(passes_done, k);
                }
            }

            #[test]
            fn smo_invariants_hold_on_arbitrary_data(
                d in arbitrary_dataset(),
                c in 0.1f64..5.0,
            ) {
                let cfg = SmoConfig { c, max_iters: 40, ..Default::default() };
                let Ok(m) = train_smo(&d, Kernel::Linear, &cfg) else {
                    // Degenerate optimizations (no support vectors) are a
                    // legal outcome on adversarial data.
                    return Ok(());
                };
                // Dual feasibility: 0 < α ≤ C and Σ α y = 0.
                for &coef in &m.coefficients {
                    prop_assert!(coef.is_finite());
                    prop_assert!(coef.abs() <= c + 1e-6, "|α y| = {}", coef.abs());
                    prop_assert!(coef != 0.0);
                }
                let balance: f64 = m.coefficients.iter().sum();
                prop_assert!(balance.abs() < 1e-6, "Σ α y = {balance}");
                // The model classifies at least as well as the majority class.
                let (pos, neg) = d.class_counts();
                let majority = pos.max(neg) as f64 / d.len() as f64;
                prop_assert!(m.accuracy(&d) >= majority - 0.35);
            }

            #[test]
            fn pegasos_never_produces_non_finite_models(
                d in arbitrary_dataset(),
                lambda in 1e-5f64..1.0,
            ) {
                let cfg = crate::pegasos::PegasosConfig {
                    lambda,
                    iterations: 2_000,
                    ..Default::default()
                };
                let m = crate::pegasos::train_pegasos(&d, &cfg).unwrap();
                prop_assert!(m.bias.is_finite());
                prop_assert!(m.weights.iter().all(|w| w.is_finite()));
            }
        }
    }
}
