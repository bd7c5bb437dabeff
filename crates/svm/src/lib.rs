//! # svm — from-scratch Support Vector Machine library
//!
//! DISTINCT learns one weight per join path with a linear-kernel SVM
//! (paper §3). Rust has no canonical SVM crate, so this one implements the
//! whole stack from scratch:
//!
//! * [`Dataset`] — binary-labeled dense feature vectors;
//! * [`Kernel`] — linear, polynomial, and RBF kernels;
//! * [`train_smo`] — Platt's Sequential Minimal Optimization for the dual
//!   soft-margin problem (the LIBSVM algorithm family);
//! * [`train_pegasos`] — primal stochastic sub-gradient descent, used both
//!   as a fast solver and as an independent cross-check of SMO;
//! * [`LinearModel`] / [`KernelModel`] — decision functions, with dual→
//!   primal collapse for the linear kernel;
//! * [`PlattScaler`] — probability calibration of decision values.

#![warn(missing_docs)]

pub mod data;
pub mod kernel;
pub mod model;
pub mod pegasos;
pub mod platt;
pub mod smo;

pub use data::{dot, Dataset, Result, SvmError};
pub use kernel::Kernel;
pub use model::{KernelModel, LinearModel};
pub use pegasos::{train_pegasos, PegasosConfig};
pub use platt::PlattScaler;
pub use smo::{train_smo, train_smo_guarded, SmoConfig};
