//! # cluster — agglomerative hierarchical clustering framework
//!
//! DISTINCT clusters references bottom-up: every reference starts as a
//! singleton and the most similar pair of clusters merges until no pair
//! reaches `min-sim` (paper §4). This crate provides that engine in a
//! reusable form:
//!
//! * [`agglomerate`] — the merge loop, driven by a lazy max-heap of
//!   candidate pairs, with deterministic tie-breaking;
//! * [`Merger`] — the extension point: supplies cluster-pair similarities
//!   and maintains them *incrementally* across merges (§4.2). DISTINCT's
//!   composite resemblance × random-walk measure implements this trait in
//!   the `distinct` crate;
//! * [`MatrixMerger`] + [`Linkage`] — the textbook matrix algorithm
//!   (single / complete / average link) used by baselines and ablations;
//! * [`Dendrogram`] — merge history with threshold cuts;
//! * [`ConstrainedMerger`] — must-link / cannot-link enforcement around
//!   any merger (user-feedback loops in entity resolution).

#![warn(missing_docs)]

pub mod constraints;
pub mod dendrogram;
pub mod engine;
pub mod linkage;

pub use constraints::ConstrainedMerger;
pub use dendrogram::{groups, Dendrogram, Merge};
pub use engine::{
    agglomerate, agglomerate_exec, agglomerate_guarded, Clustering, MatrixMerger, Merger,
    PartialClustering,
};
pub use linkage::Linkage;
