//! # oracle — reference implementations for differential testing
//!
//! Slow, dependency-free, transparently-literal implementations of the
//! four numeric pillars of DISTINCT (Yin, Han, Yu, *Object Distinction*,
//! ICDE 2007), written straight from the paper's formulas with no
//! caching, no parallelism, no incremental maintenance, and no hash-map
//! iteration order anywhere near a floating-point sum:
//!
//! 1. **Connection-strength propagation** (§2.2) — [`propagate`]
//!    enumerates every individual walk along a join path and sums
//!    `Π 1/fanout` per end tuple, instead of the production level-by-level
//!    frontier propagation.
//! 2. **Weighted set resemblance** (Definition 2) — [`resemblance`]
//!    computes `Σ min / Σ max` over the explicit union of both supports,
//!    instead of the production `Σmin / (totalA + totalB − Σmin)`
//!    rearrangement.
//! 3. **Random-walk probability** (§2.4) — [`walk`] computes
//!    `Walk_P(a→b) = Σ_t Prob_P(a→t) · Prob_P(t→b)` term by term in
//!    deterministic key order.
//! 4. **Composite agglomerative clustering** (§4) — [`cluster`] rescans
//!    every live cluster pair each round and recomputes cluster
//!    similarities from scratch over the member lists (O(n³) and worse),
//!    instead of the production lazy max-heap over incrementally
//!    maintained pair sums.
//!
//! The only crates this one touches are `relstore` (the data substrate
//! under test is relational, so the oracle must read the same tuples),
//! `datagen` (to regenerate the golden corpus), and the vendored `serde`
//! pair (to serialize it). None of the production analysis crates
//! (`relgraph`, `cluster`, `distinct`) appear, so a bug there cannot
//! cancel itself out here.
//!
//! All maps are `BTreeMap<TupleRef, f64>`: every summation happens in
//! tuple order, making each oracle value a deterministic function of the
//! catalog alone. The production engine agrees with the oracle to within
//! `1e-9` per pair (see DESIGN.md §11 for the tolerance argument), and
//! the differential suite in `tests/oracle_differential.rs` holds it
//! there.

#![warn(missing_docs)]

pub mod cluster;
pub mod engine;
pub mod golden;
pub mod paths;
pub mod profile;
pub mod propagate;
pub mod resemblance;
pub mod walk;

pub use cluster::{naive_agglomerate, OracleClustering, OracleMerge};
pub use engine::{Composite, Measure, OracleEngine, OraclePairwise};
pub use golden::{compute_case, golden_cases, GoldenCase, GoldenGroup, GoldenMerge};
pub use paths::select_paths;
pub use profile::{build_profile, OracleProfile};
pub use propagate::{enumerate_propagation, Adjacency, Mass, OraclePropagation};
pub use resemblance::weighted_jaccard;
pub use walk::directed_walk;
