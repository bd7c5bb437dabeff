//! # relgraph — probabilistic linkage machinery over a relational store
//!
//! Implements §2 of the DISTINCT paper on top of [`relstore`]:
//!
//! * [`LinkGraph`] — a compact CSR view of every foreign-key edge for fast
//!   repeated traversal;
//! * [`propagate()`] — uniform probability propagation along a join path,
//!   producing both `Prob_P(r → t)` (connection strength of each neighbor
//!   tuple) and `Prob_P(t → r)` in a single pass (paper §2.2, Fig. 3),
//!   written as sorted [`Propagation`] columns;
//! * [`resemblance`] and [`directed_walk`] — the connection-strength-weighted
//!   Jaccard of Definition 2 and the random-walk probability of §2.4, each
//!   one merge-join over sorted rows;
//! * [`SetArena`] — the similarity stage's lossless pruned kernel:
//!   streamed, deduplicated columnar rows and one exact support-overlap
//!   certificate over CSR postings.

#![warn(missing_docs)]

pub mod arena;
pub mod graph;
pub mod kernel;
pub mod propagate;

pub use arena::{ArenaPool, IntersectionMatrix, SetArena};
pub use graph::{LinkGraph, NodeId};
pub use kernel::{directed_walk, resemblance, Row};
pub use propagate::{
    propagate, propagate_blocked, propagate_blocked_guarded, PathColumns, Propagation,
};
