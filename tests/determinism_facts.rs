//! Cross-check between the static shared-state registry (lint D108) and
//! the dynamic determinism suite.
//!
//! The analyzer proves, file by file, which interior-mutability cells are
//! reachable from the resolve/train spine and requires each to declare a
//! merge discipline. This suite closes the loop from the other side:
//! the production caches must actually be in the registry, every
//! reachable cell must live in a crate the 1/2/8-thread bit-identity
//! runs exercise, and a fanout over those very cells must stay
//! bit-identical — so a cell that the static analysis missed or a
//! discipline that stopped holding both show up as a failure here.

use datagen::{to_catalog, AmbiguousSpec, World, WorldConfig};
use distinct::{Distinct, DistinctConfig, ResolveRequest, TrainRequest, TrainingConfig};
use lint::concur::{self, ConcurFacts};
use std::path::Path;

fn registry() -> ConcurFacts {
    let root =
        lint::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let (ctxs, graph) = lint::load(&root).expect("load workspace call graph");
    concur::collect_facts(&graph, &ctxs)
}

/// The production profile cache the resolve spine leans on must be in
/// the registry, reachable, and carrying the discipline its concurrency
/// story depends on.
#[test]
fn production_caches_are_registered_with_their_disciplines() {
    let facts = registry();
    assert!(!facts.cells.is_empty(), "registry must not be empty");

    let shards = facts
        .cells
        .iter()
        .find(|c| c.owner == "ProfileCache" && c.field.as_deref() == Some("shards"))
        .unwrap_or_else(|| panic!("ProfileCache.shards missing from the registry"));
    assert!(shards.reachable, "ProfileCache.shards must be on the spine");
    assert!(
        shards
            .discipline
            .as_deref()
            .unwrap_or("")
            .contains("first-insert-wins"),
        "ProfileCache relies on racing builders inserting bit-identical \
         profiles; its declared discipline says otherwise: {:?}",
        shards.discipline
    );
}

/// Every cell the analyzer proves reachable must (a) declare a merge
/// discipline — the D108 invariant restated against the live tree — and
/// (b) live in a crate the multi-thread determinism runs exercise, so
/// the bit-identity suite is actually testing the declared disciplines.
#[test]
fn reachable_cells_are_declared_and_covered_by_the_determinism_suite() {
    let facts = registry();
    for c in facts.cells.iter().filter(|c| c.reachable) {
        assert!(
            c.discipline.is_some(),
            "reachable cell {}.{} ({}) has no shared(...) declaration",
            c.owner,
            c.field.as_deref().unwrap_or("<static>"),
            c.file
        );
        assert!(
            c.file.starts_with("crates/core/")
                || c.file.starts_with("crates/exec/")
                || c.file.starts_with("crates/relgraph/"),
            "reachable cell {}.{} lives in {}, outside the crates the \
             1/2/8-thread suite drives; extend the suite before shipping it",
            c.owner,
            c.field.as_deref().unwrap_or("<static>"),
            c.file
        );
    }
    // The guard-site half of the registry feeds D106; an empty list would
    // mean lock tracking silently stopped seeing the cache shards.
    assert!(
        facts
            .guards
            .iter()
            .any(|g| g.file.ends_with("core/src/cache.rs")),
        "no guard sites recorded for the profile cache: {:?}",
        facts.guards
    );
}

/// The dynamic half of the cross-check: drive the resolve/train spine —
/// the code paths touching every registered reachable cell — at 1, 2,
/// and 8 threads and require bit-identical output.
#[test]
fn fanout_over_registered_cells_is_bit_identical() {
    let mut config = WorldConfig::tiny(11);
    config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![7, 5])];
    let d = to_catalog(&World::generate(config)).expect("valid world");

    let engine = || {
        let config = DistinctConfig {
            training: TrainingConfig {
                positives: 40,
                negatives: 40,
                ..Default::default()
            },
            ..Default::default()
        };
        Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap()
    };

    let mut reference = engine();
    let ref_report = reference
        .train_with(&TrainRequest::new().threads(1))
        .unwrap();
    let refs = reference.references_of("Wei Wang");
    let ref_outcome = reference.resolve(&ResolveRequest::new(&refs).threads(1));
    assert!(ref_outcome.is_complete());

    for threads in [2, 8] {
        let mut e = engine();
        let report = e.train_with(&TrainRequest::new().threads(threads)).unwrap();
        assert_eq!(
            report.path_weights, ref_report.path_weights,
            "weights differ at {threads} threads — a registered cell's \
             declared merge discipline does not hold"
        );
        let outcome = e.resolve(&ResolveRequest::new(&refs).threads(threads));
        assert!(outcome.is_complete());
        assert_eq!(
            outcome.clustering.labels, ref_outcome.clustering.labels,
            "clustering differs at {threads} threads"
        );
    }
}
