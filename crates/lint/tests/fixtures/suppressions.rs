//@ crate: cluster
//@ path: crates/cluster/src/suppressed.rs
//@ role: library

/// A proven-safe clock read, allowed with its invariant as the reason:
/// the finding is consumed and nothing surfaces.
pub fn covered() -> std::time::Instant {
    // distinct-lint: allow(D004, reason="reporting only: feeds a stage wall time")
    std::time::Instant::now()
}

/// Trailing-comment form covers its own line.
pub fn covered_inline() -> std::time::Instant {
    std::time::Instant::now() // distinct-lint: allow(D004, reason="reporting only: feeds a stage wall time")
}

/// An allow that matches nothing must surface as D000 so dead
/// suppressions cannot accumulate.
pub fn stale_allow() -> u32 {
    // distinct-lint: allow(D004, reason="left behind after a refactor") //~ D000
    7
}

/// An allow without a reason is rejected as D000 at the comment, and the
/// finding it meant to cover surfaces.
pub fn lazy_allow() -> std::time::Instant {
    // distinct-lint: allow(D004) //~ D000
    std::time::Instant::now() //~ D004
}

/// An allow that is not `allow(...)` at all is malformed: D000.
pub fn malformed_allow() -> std::time::Instant {
    // distinct-lint: allow D004, reason="missing parentheses" //~ D000
    std::time::Instant::now() //~ D004
}

/// A retired ID is an unknown ID, so an allow naming one is a D000 and
/// cannot come back into use.
pub fn retired_allow(xs: &[f64]) -> f64 {
    // distinct-lint: allow(D002, reason="caller guarantees xs is non-empty") //~ D000
    xs[0]
}
