//! The similarity kernel's unit accounting through the public crate
//! surface: every (reference pair, join path) unit is either pruned under
//! the support-overlap zero certificate or evaluated exactly (DESIGN.md
//! §15).

use datagen::{AmbiguousSpec, World, WorldConfig};
use distinct::{Distinct, DistinctConfig, ResolveRequest};

fn main() {
    let mut config = WorldConfig::tiny(3);
    config.n_authors = 120;
    config.n_venues = 12;
    config.n_communities = 5;
    config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![6, 4])];
    let d = datagen::to_catalog(&World::generate(config)).expect("world");
    let engine = Distinct::prepare(&d.catalog, "Publish", "author", DistinctConfig::default())
        .expect("prepare");
    let refs = &d.truths[0].refs;

    let outcome = engine.resolve(&ResolveRequest::new(refs).threads(8));
    assert!(outcome.degraded.is_none());
    let exec = outcome.exec;
    let units = refs.len() * (refs.len() - 1) / 2 * engine.paths().len();
    assert_eq!(exec.pairs_total, units as u64);
    assert_eq!(exec.pairs_pruned + exec.pairs_exact, exec.pairs_total);
    assert!(exec.pairs_pruned > 0 && exec.pairs_exact > 0);

    println!(
        "pruned kernel: {} / {} units pruned ({:.1}%), {} evaluated, across {} refs",
        exec.pairs_pruned,
        exec.pairs_total,
        100.0 * exec.pairs_pruned as f64 / exec.pairs_total as f64,
        exec.pairs_exact,
        refs.len()
    );
}
