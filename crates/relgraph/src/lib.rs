//! # relgraph — probabilistic linkage machinery over a relational store
//!
//! Implements §2 of the DISTINCT paper on top of [`relstore`]:
//!
//! * [`LinkGraph`] — a compact CSR view of every foreign-key edge for fast
//!   repeated traversal;
//! * [`propagate()`] — uniform probability propagation along a join path,
//!   producing both `Prob_P(r → t)` (connection strength of each neighbor
//!   tuple) and `Prob_P(t → r)` in a single pass (paper §2.2, Fig. 3);
//! * [`WeightedSet`] — weighted neighbor-tuple sets with the
//!   connection-strength-weighted Jaccard of Definition 2;
//! * [`walk_probability`] — random-walk probability between two references
//!   along a path and its reverse (paper §2.4);
//! * [`SetArena`] — the similarity stage's lossless pruned kernel:
//!   streamed, deduplicated columnar rows and one exact support-overlap
//!   certificate over CSR postings.

#![warn(missing_docs)]

pub mod arena;
pub mod graph;
pub mod neighbors;
pub mod propagate;
pub mod walk;

pub use arena::{ArenaPool, IntersectionMatrix, SetArena};
pub use graph::{LinkGraph, NodeId};
pub use neighbors::WeightedSet;
pub use propagate::{propagate, propagate_blocked, propagate_blocked_guarded, Propagation};
pub use walk::{directed_walk, walk_probability};
