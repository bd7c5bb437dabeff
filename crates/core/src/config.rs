//! Configuration of the DISTINCT pipeline.

use serde::{Deserialize, Serialize};

/// Which similarity measure(s) drive clustering (Fig. 4's axis 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MeasureMode {
    /// Geometric combination of set resemblance and random walk (DISTINCT).
    Combined,
    /// Set resemblance only (the approach of Bhattacharya & Getoor \[1\]).
    SetResemblance,
    /// Random walk probability only (the approach of Kalashnikov et al. \[9\]).
    RandomWalk,
}

/// How join paths are weighted (Fig. 4's axis 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WeightingMode {
    /// SVM-learned weights from the automatically constructed training set.
    Supervised,
    /// Every join path weighted equally (the unsupervised baselines).
    Uniform,
}

/// How the two cluster-level measures are composed (ablation A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompositeMode {
    /// Geometric mean — the paper's choice: neither measure's scale can
    /// drown the other.
    Geometric,
    /// Arithmetic mean — the ablation alternative.
    Arithmetic,
}

/// Configuration of automatic training-set construction (paper §3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Target number of positive example pairs (paper: 1000).
    pub positives: usize,
    /// Target number of negative example pairs (paper: 1000).
    pub negatives: usize,
    /// A first name is "rare" if at most this many authors carry it.
    pub max_first_name_freq: usize,
    /// A last name is "rare" if at most this many authors carry it.
    pub max_last_name_freq: usize,
    /// Sampling seed.
    pub seed: u64,
    /// Soft-margin penalty for the SVM.
    pub svm_c: f64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            positives: 1000,
            negatives: 1000,
            max_first_name_freq: 3,
            max_last_name_freq: 3,
            seed: 17,
            svm_c: 1.0,
        }
    }
}

/// Full DISTINCT configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistinctConfig {
    /// Maximum join-path length enumerated from the reference relation
    /// (4 covers every semantic path of the DBLP schema: coauthors,
    /// conferences, publishers, years).
    pub max_path_len: usize,
    /// Clustering stops when the best cluster-pair similarity drops below
    /// this.
    ///
    /// The paper fixes min-sim = 0.0005 under its (unnormalized) SVM
    /// weight scale. This implementation normalizes the learned path
    /// weights to sum to 1, which changes the similarity scale; the
    /// equivalent calibrated default here is 0.005 (see EXPERIMENTS.md).
    pub min_sim: f64,
    /// Similarity measure(s) in use.
    pub measure: MeasureMode,
    /// Path weighting in use.
    pub weighting: WeightingMode,
    /// Cluster-level composition of the two measures.
    pub composite: CompositeMode,
    /// Treat attribute values as pseudo-tuples before analysis (§2.1).
    pub expand_attributes: bool,
    /// Worker threads for the parallel stages (profile fan-out, pairwise
    /// similarity matrix, training-pair featurization). `0` means "auto":
    /// the `DISTINCT_THREADS` environment variable if set, else one worker
    /// per available core. `1` forces sequential execution. Output is
    /// identical for every value; only wall-clock time changes. A
    /// per-request override (`ResolveRequest::threads`) takes precedence.
    pub threads: usize,
    /// Training-set construction parameters.
    pub training: TrainingConfig,
}

impl Default for DistinctConfig {
    fn default() -> Self {
        DistinctConfig {
            max_path_len: 4,
            min_sim: 0.005,
            measure: MeasureMode::Combined,
            weighting: WeightingMode::Supervised,
            composite: CompositeMode::Geometric,
            expand_attributes: true,
            threads: 0,
            training: TrainingConfig::default(),
        }
    }
}

/// Why `min_sim` is not a usable clustering threshold, if it is not.
pub(crate) fn check_min_sim(min_sim: f64) -> Result<(), String> {
    if min_sim.is_finite() && min_sim >= 0.0 {
        Ok(())
    } else {
        Err(format!("min_sim must be finite and >= 0, got {min_sim}"))
    }
}

impl DistinctConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_path_len == 0 {
            return Err("max_path_len must be >= 1".into());
        }
        check_min_sim(self.min_sim)?;
        if !(self.training.svm_c.is_finite() && self.training.svm_c > 0.0) {
            return Err("svm_c must be finite and > 0".into());
        }
        if self.training.positives == 0 || self.training.negatives == 0 {
            return Err("training set needs both positives and negatives".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DistinctConfig::default();
        assert_eq!(c.min_sim, 0.005); // paper's 0.0005, recalibrated (see docs)
        assert_eq!(c.training.positives, 1000);
        assert_eq!(c.training.negatives, 1000);
        assert_eq!(c.measure, MeasureMode::Combined);
        assert_eq!(c.weighting, WeightingMode::Supervised);
        assert_eq!(c.composite, CompositeMode::Geometric);
        assert!(c.expand_attributes);
        assert_eq!(c.threads, 0, "auto-sized parallelism by default");
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = DistinctConfig::default();
        c.max_path_len = 0;
        assert!(c.validate().is_err());

        let mut c = DistinctConfig::default();
        c.min_sim = -0.1;
        assert!(c.validate().is_err());

        let mut c = DistinctConfig::default();
        c.min_sim = f64::NAN;
        assert!(c.validate().is_err());

        for svm_c in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = DistinctConfig::default();
            c.training.svm_c = svm_c;
            assert!(c.validate().is_err(), "svm_c = {svm_c} validated");
        }

        let mut c = DistinctConfig::default();
        c.training.positives = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_round_trips_through_json() {
        let c = DistinctConfig::default();
        let j = serde_json::to_string(&c).unwrap();
        let back: DistinctConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(c, back);
    }
}
