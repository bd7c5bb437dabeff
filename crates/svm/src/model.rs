//! Trained models: the primal linear model and the dual (kernel) model.

use crate::data::{dot, Dataset};
use crate::kernel::Kernel;
use serde::{Deserialize, Serialize};

/// A linear decision function `f(x) = w · x + b`, predicting `sign(f(x))`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    /// Weight vector.
    pub weights: Vec<f64>,
    /// Bias term.
    pub bias: f64,
}

impl LinearModel {
    /// Raw decision value `w · x + b`.
    pub fn decision(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.bias
    }

    /// Predicted label (+1 / −1). Ties break positive.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Fraction of `data` classified correctly.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data.iter().filter(|(x, y)| self.predict(x) == *y).count();
        correct as f64 / data.len() as f64
    }

    /// Weights with negative components clamped to zero.
    ///
    /// DISTINCT uses the learned weights as per-join-path importances in a
    /// similarity aggregation, where a negative weight would make a
    /// similarity *reduce* overall similarity; the paper observes that
    /// unimportant paths get weights "close to zero and can be ignored".
    pub fn clamped_nonnegative(&self) -> LinearModel {
        LinearModel {
            weights: self.weights.iter().map(|&w| w.max(0.0)).collect(),
            bias: self.bias,
        }
    }

    /// L2 norm of the weight vector.
    pub fn weight_norm(&self) -> f64 {
        dot(&self.weights, &self.weights).sqrt()
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("LinearModel serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Option<LinearModel> {
        serde_json::from_str(s).ok()
    }
}

/// A dual-form kernel model: support vectors with their coefficients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelModel {
    /// Kernel used at training time.
    pub kernel: Kernel,
    /// Support vectors.
    pub support_vectors: Vec<Vec<f64>>,
    /// `alpha_i * y_i` per support vector.
    pub coefficients: Vec<f64>,
    /// Bias term.
    pub bias: f64,
}

impl KernelModel {
    /// Raw decision value `Σ coef_i K(sv_i, x) + b`.
    pub fn decision(&self, x: &[f64]) -> f64 {
        self.support_vectors
            .iter()
            .zip(&self.coefficients)
            .map(|(sv, &c)| c * self.kernel.eval(sv, x))
            .sum::<f64>()
            + self.bias
    }

    /// Predicted label (+1 / −1).
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Fraction of `data` classified correctly.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data.iter().filter(|(x, y)| self.predict(x) == *y).count();
        correct as f64 / data.len() as f64
    }

    /// Number of support vectors.
    pub fn sv_count(&self) -> usize {
        self.support_vectors.len()
    }

    /// For a linear kernel, collapse the dual form into a [`LinearModel`]
    /// (`w = Σ coef_i · sv_i`). Returns `None` for nonlinear kernels.
    pub fn to_linear(&self) -> Option<LinearModel> {
        if !self.kernel.is_linear() {
            return None;
        }
        let dim = self.support_vectors.first().map_or(0, Vec::len);
        let mut w = vec![0.0; dim];
        for (sv, &c) in self.support_vectors.iter().zip(&self.coefficients) {
            for (wi, &xi) in w.iter_mut().zip(sv) {
                *wi += c * xi;
            }
        }
        Some(LinearModel {
            weights: w,
            bias: self.bias,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LinearModel {
        LinearModel {
            weights: vec![1.0, -2.0],
            bias: 0.5,
        }
    }

    #[test]
    fn decision_and_predict() {
        let m = model();
        assert_eq!(m.decision(&[1.0, 1.0]), -0.5);
        assert_eq!(m.predict(&[1.0, 1.0]), -1.0);
        assert_eq!(m.predict(&[1.0, 0.0]), 1.0);
        // Tie breaks positive.
        assert_eq!(m.predict(&[-0.5, 0.0]), 1.0);
    }

    #[test]
    fn accuracy_counts() {
        let m = model();
        let d = Dataset::from_parts(
            vec![vec![1.0, 0.0], vec![1.0, 1.0], vec![0.0, 1.0]],
            vec![1.0, -1.0, 1.0],
        )
        .unwrap();
        // predictions: +1, -1, -1 -> 2/3 correct.
        assert!((m.accuracy(&d) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.accuracy(&Dataset::new()), 0.0);
    }

    #[test]
    fn clamping() {
        let m = model().clamped_nonnegative();
        assert_eq!(m.weights, vec![1.0, 0.0]);
    }

    #[test]
    fn norm() {
        assert!((model().weight_norm() - 5.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip() {
        let m = model();
        let s = m.to_json();
        let back = LinearModel::from_json(&s).unwrap();
        assert_eq!(m, back);
        assert!(LinearModel::from_json("not json").is_none());
    }

    #[test]
    fn kernel_model_linear_collapse() {
        let km = KernelModel {
            kernel: Kernel::Linear,
            support_vectors: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            coefficients: vec![2.0, -1.0],
            bias: 0.25,
        };
        let lm = km.to_linear().unwrap();
        assert_eq!(lm.weights, vec![2.0, -1.0]);
        assert_eq!(lm.bias, 0.25);
        // Decisions agree everywhere.
        for x in [[0.3, -0.7], [1.5, 2.0], [0.0, 0.0]] {
            assert!((km.decision(&x) - lm.decision(&x)).abs() < 1e-12);
        }
        assert_eq!(km.sv_count(), 2);
    }

    #[test]
    fn nonlinear_does_not_collapse() {
        let km = KernelModel {
            kernel: Kernel::Rbf { gamma: 1.0 },
            support_vectors: vec![vec![1.0]],
            coefficients: vec![1.0],
            bias: 0.0,
        };
        assert!(km.to_linear().is_none());
    }

    #[test]
    fn kernel_model_accuracy() {
        let km = KernelModel {
            kernel: Kernel::Linear,
            support_vectors: vec![vec![1.0]],
            coefficients: vec![1.0],
            bias: -0.5,
        };
        let d = Dataset::from_parts(vec![vec![1.0], vec![0.0]], vec![1.0, -1.0]).unwrap();
        assert_eq!(km.accuracy(&d), 1.0);
    }
}
