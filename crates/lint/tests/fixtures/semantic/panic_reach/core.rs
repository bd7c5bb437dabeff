//@ path: crates/core/src/pipeline.rs
//@ crate: core
//@ deps: cluster
//@ package: distinct
//! Fixture: public functions in crates/core that reach panic sites two
//! crates away, and a private one that reaches another. The panics
//! themselves live in `cluster.rs`.

/// The resolver facade.
pub struct Distinct;

impl Distinct {
    /// Entry point: D101 roots the reachability walk here.
    pub fn resolve(&self) -> usize {
        cluster::engine::run(1)
    }

    /// Public but not named resolve*/train*: D101 roots its walk here too.
    pub fn describe(&self) -> usize {
        cluster::engine::summarize(2)
    }
}

/// Private: nothing public calls it, so the panic it reaches is no finding.
fn self_audit() -> usize {
    cluster::engine::audit(Some(3))
}
