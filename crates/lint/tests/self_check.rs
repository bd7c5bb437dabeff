//! The analyzer turned on itself: the real workspace must be exactly as
//! clean as `lint.toml` says it is, the crate graph must stay acyclic,
//! and the shipped binary must fail loudly on seeded violations.

use lint::graph::CrateGraph;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    lint::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace")
}

/// The CI gate in library form: no new findings, no stale baseline
/// entries, no suppression-hygiene (D000) debt. An exact match — if a
/// finding was fixed, the baseline must be ratcheted down too.
#[test]
fn workspace_is_exactly_as_clean_as_the_baseline() {
    let outcome = lint::check(&workspace_root()).expect("check runs");
    assert!(
        outcome.diff.is_clean(),
        "workspace drifted from lint.toml\n  new debt: {:#?}\n  stale: {:?}",
        outcome.diff.new_debt,
        outcome.diff.stale
    );
}

/// The same gate in semantic mode: the interprocedural lints D101–D113
/// (plus the shared per-file passes) must also match the baseline exactly
/// against the live workspace.
#[test]
fn workspace_is_semantically_clean() {
    let outcome =
        lint::check_mode(&workspace_root(), lint::Mode::Semantic).expect("semantic check runs");
    assert!(
        outcome.diff.is_clean(),
        "workspace drifted from lint.toml under --semantic\n  new debt: {:#?}\n  stale: {:?}",
        outcome.diff.new_debt,
        outcome.diff.stale
    );
}

#[test]
fn crate_graph_is_acyclic_with_exec_below_core() {
    let g = CrateGraph::load(&workspace_root()).expect("graph loads");
    let order = g.topo_order().expect("workspace crate graph is acyclic");
    let pos = |dir: &str| {
        order
            .iter()
            .position(|c| c == dir)
            .unwrap_or_else(|| panic!("crate `{dir}` missing from topo order"))
    };
    // The layering D003 enforces textually, structurally: the exec pool
    // underlies core, which underlies nothing below it.
    assert!(pos("exec") < pos("core"));
    assert!(pos("relstore") < pos("relgraph"));
}

/// Drive the real `lint` binary over a scratch workspace seeded with
/// D001/D002/D003/D105 violations: check fails with each ID reported, the
/// baseline ratchet accepts the debt, new debt fails again, and removing
/// a baselined finding without ratcheting down is itself an error.
#[test]
fn binary_fails_on_seeded_violations_and_ratchets() {
    let scratch =
        std::env::temp_dir().join(format!("distinct-lint-selfcheck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let src_dir = scratch.join("crates/app/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir scratch workspace");
    std::fs::write(scratch.join("Cargo.toml"), "[workspace]\n").expect("write manifest");

    let seeded = "\
use rustc_hash::FxHashMap;

pub fn total(weights: &FxHashMap<u32, f64>) -> f64 {
    weights.values().sum()
}

pub fn head(xs: &[f64]) -> f64 {
    xs.first().unwrap()
}

pub fn go() {
    std::thread::spawn(|| {});
}

pub fn persist(p: &std::path::Path) {
    let _ = std::fs::write(p, b\"state\");
}
";
    let lib = src_dir.join("lib.rs");
    std::fs::write(&lib, seeded).expect("write seeded lib");

    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_lint"))
            .args(args)
            .arg("--root")
            .arg(&scratch)
            .output()
            .expect("spawn lint binary");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        (out.status.code(), text)
    };

    // 1. No baseline: every seeded violation is new debt, exit 1.
    let (code, text) = run(&["check"]);
    assert_eq!(code, Some(1), "seeded workspace must fail check:\n{text}");
    for id in ["D001", "D002", "D003", "D105"] {
        assert!(text.contains(id), "missing {id} in:\n{text}");
    }

    // 2. Ratchet the debt in, then check is clean.
    let (code, text) = run(&["check", "--fix-baseline"]);
    assert_eq!(code, Some(0), "fix-baseline failed:\n{text}");
    let (code, text) = run(&["check"]);
    assert_eq!(code, Some(0), "baselined workspace must pass:\n{text}");

    // 3. New debt on top of the baseline still fails.
    std::fs::write(
        &lib,
        format!("{seeded}\npub fn more(xs: &[f64]) -> f64 {{\n    xs.last().unwrap()\n}}\n"),
    )
    .expect("append new debt");
    let (code, text) = run(&["check"]);
    assert_eq!(code, Some(1), "new debt must fail:\n{text}");
    assert!(text.contains("D002"), "new unwrap not reported:\n{text}");

    // 4. Fixing a finding without ratcheting the baseline down is stale.
    std::fs::write(&lib, seeded.replace("xs.first().unwrap()", "42.0")).expect("fix a finding");
    let (code, text) = run(&["check"]);
    assert_eq!(code, Some(1), "stale baseline must fail:\n{text}");
    assert!(
        text.contains("[stale]"),
        "stale entry not reported:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}

/// Recursively copy the source parts of a workspace: every file under
/// `crates/` and `src/` plus the root `Cargo.toml` and `lint.toml`.
fn copy_workspace(from: &Path, to: &Path) {
    fn copy_tree(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).expect("mkdir copy target");
        for entry in std::fs::read_dir(from).expect("read copy source") {
            let entry = entry.expect("dir entry");
            let (src, dst) = (entry.path(), to.join(entry.file_name()));
            if src.is_dir() {
                copy_tree(&src, &dst);
            } else {
                std::fs::copy(&src, &dst).expect("copy file");
            }
        }
    }
    std::fs::create_dir_all(to).expect("mkdir scratch root");
    for top in ["Cargo.toml", "lint.toml"] {
        if from.join(top).exists() {
            std::fs::copy(from.join(top), to.join(top)).expect("copy root file");
        }
    }
    for dir in ["crates", "src"] {
        if from.join(dir).is_dir() {
            copy_tree(&from.join(dir), &to.join(dir));
        }
    }
}

fn run_lint(args: &[&str], root: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("spawn lint binary");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

/// The PR's acceptance scenario, end to end: copy the real workspace,
/// confirm `check --semantic` passes on the copy, then seed a panic site
/// into crates/cluster reachable from a new `resolve*` entry point and
/// assert the binary fails with a D101 finding naming the call chain.
#[test]
fn binary_reports_seeded_panic_reachable_from_resolve() {
    let scratch =
        std::env::temp_dir().join(format!("distinct-lint-semcheck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_workspace(&workspace_root(), &scratch);

    // The pristine copy is exactly as clean as the real workspace.
    let (code, text) = run_lint(&["check", "--semantic"], &scratch);
    assert_eq!(code, Some(0), "pristine copy must pass --semantic:\n{text}");

    // Seed: an unwrap in crates/cluster plus a core entry point that
    // reaches it. Lexing does not require the files to be `mod`-declared.
    std::fs::write(
        scratch.join("crates/cluster/src/seeded.rs"),
        "pub fn seeded_stage(x: Option<f64>) -> f64 {\n    x.unwrap()\n}\n",
    )
    .expect("seed cluster panic site");
    std::fs::write(
        scratch.join("crates/core/src/seeded_entry.rs"),
        "/// Seeded entry point for the self-check.\n\
         pub fn resolve_seeded() -> f64 {\n    cluster::seeded::seeded_stage(None)\n}\n",
    )
    .expect("seed core entry point");

    let (code, text) = run_lint(&["check", "--semantic"], &scratch);
    assert_eq!(code, Some(1), "seeded copy must fail --semantic:\n{text}");
    assert!(text.contains("D101"), "no D101 reported:\n{text}");
    assert!(
        text.contains("crates/cluster/src/seeded.rs"),
        "finding not at the seeded site:\n{text}"
    );
    assert!(
        text.contains("resolve_seeded") && text.contains(" → "),
        "finding does not name the call chain from the entry point:\n{text}"
    );

    // Syntactic mode is indifferent to reachability: the same workspace
    // fails there too, but as a plain per-file D002.
    let (code, text) = run_lint(&["check"], &scratch);
    assert_eq!(
        code,
        Some(1),
        "seeded copy must fail syntactic check:\n{text}"
    );
    assert!(text.contains("D002"), "no D002 reported:\n{text}");

    let _ = std::fs::remove_dir_all(&scratch);
}

/// Seed a guard held across an exec pool submit into crates/core and
/// assert `check --semantic` fails with a D106 finding that names the
/// guard binding and the blocking call.
#[test]
fn binary_reports_seeded_guard_across_pool_boundary() {
    let scratch = std::env::temp_dir().join(format!("distinct-lint-d106-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_workspace(&workspace_root(), &scratch);

    std::fs::write(
        scratch.join("crates/core/src/seeded_guard.rs"),
        "struct SeededGuard;\n\n\
         impl SeededGuard {\n    fn fan(&self) {\n        let g = self.names.lock();\n        \
         self.pool.par_map_guarded(g.len());\n    }\n}\n",
    )
    .expect("seed guard-liveness violation");

    let (code, text) = run_lint(&["check", "--semantic"], &scratch);
    assert_eq!(code, Some(1), "seeded copy must fail --semantic:\n{text}");
    assert!(text.contains("D106"), "no D106 reported:\n{text}");
    assert!(
        text.contains("`g`") && text.contains("par_map_guarded"),
        "finding does not name the guard and the blocking call:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}

/// Seed an unordered hash fold into crates/core and assert semantic mode
/// reports it as D107 (the flow-sensitive subsumption of syntactic D001).
#[test]
fn binary_reports_seeded_hash_fold_as_determinism_taint() {
    let scratch = std::env::temp_dir().join(format!("distinct-lint-d107-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_workspace(&workspace_root(), &scratch);

    std::fs::write(
        scratch.join("crates/core/src/seeded_fold.rs"),
        "use rustc_hash::FxHashMap;\n\n\
         fn seeded_total(weights: &FxHashMap<u32, f64>) -> f64 {\n    \
         weights.values().sum()\n}\n",
    )
    .expect("seed determinism-taint violation");

    let (code, text) = run_lint(&["check", "--semantic"], &scratch);
    assert_eq!(code, Some(1), "seeded copy must fail --semantic:\n{text}");
    assert!(text.contains("D107"), "no D107 reported:\n{text}");
    assert!(
        text.contains("seeded_total"),
        "finding does not name the folding function:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}

/// Strip the `shared(...)` declaration off a real registered cell
/// (ProfileCache's shard array) and assert semantic mode fails with D108
/// — and that `--fix-baseline` refuses to absorb it as debt.
#[test]
fn binary_reports_stripped_shared_declaration_and_refuses_to_baseline_it() {
    let scratch = std::env::temp_dir().join(format!("distinct-lint-d108-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_workspace(&workspace_root(), &scratch);

    let cache = scratch.join("crates/core/src/cache.rs");
    let src = std::fs::read_to_string(&cache).expect("read cache.rs");
    let stripped: String = src
        .lines()
        .filter(|l| !l.contains("distinct-lint: shared("))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(src, stripped, "cache.rs must carry a shared() declaration");
    std::fs::write(&cache, stripped).expect("strip declaration");

    let (code, text) = run_lint(&["check", "--semantic"], &scratch);
    assert_eq!(code, Some(1), "stripped copy must fail --semantic:\n{text}");
    assert!(text.contains("D108"), "no D108 reported:\n{text}");
    assert!(
        text.contains("ProfileCache") && text.contains("crates/core/src/cache.rs"),
        "finding does not name the owner and file:\n{text}"
    );

    let (code, text) = run_lint(&["check", "--semantic", "--fix-baseline"], &scratch);
    assert_eq!(code, Some(2), "fix-baseline must refuse D108 debt:\n{text}");
    assert!(
        text.contains("shared(") && text.contains("declaration"),
        "refusal does not point at the fix:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}

/// Seed a pool closure that mutates a captured buffer and assert
/// semantic mode reports it as D109 with the return-per-task guidance.
#[test]
fn binary_reports_seeded_closure_capture_mutation() {
    let scratch = std::env::temp_dir().join(format!("distinct-lint-d109-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_workspace(&workspace_root(), &scratch);

    std::fs::write(
        scratch.join("crates/core/src/seeded_commit.rs"),
        "struct SeededCommit;\n\n\
         impl SeededCommit {\n    fn collect(&self, items: &[u32]) {\n        \
         let mut out = Vec::new();\n        \
         self.pool.par_map_indexed(items, |i, item| {\n            \
         out.push(item + i);\n        });\n    }\n}\n",
    )
    .expect("seed commit-mutation violation");

    let (code, text) = run_lint(&["check", "--semantic"], &scratch);
    assert_eq!(code, Some(1), "seeded copy must fail --semantic:\n{text}");
    assert!(text.contains("D109"), "no D109 reported:\n{text}");
    assert!(
        text.contains("`out`") && text.contains("ordered-commit"),
        "finding does not name the capture and the protocol:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}

/// Seed a charge-guarded function that allocates on every loop iteration
/// into crates/core and assert semantic mode reports it as D110.
#[test]
fn binary_reports_seeded_hot_loop_allocation() {
    let scratch = std::env::temp_dir().join(format!("distinct-lint-d110-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_workspace(&workspace_root(), &scratch);

    std::fs::write(
        scratch.join("crates/core/src/seeded_churn.rs"),
        "fn seeded_features(ctl: &Ctl, rows: &[Vec<u32>]) -> usize {\n    \
         ctl.charge(rows.len() as u64);\n    let mut n = 0;\n    \
         for row in rows {\n        \
         let owned: Vec<u32> = row.iter().copied().collect();\n        \
         n += owned.len();\n    }\n    n\n}\n",
    )
    .expect("seed hot-loop allocation violation");

    let (code, text) = run_lint(&["check", "--semantic"], &scratch);
    assert_eq!(code, Some(1), "seeded copy must fail --semantic:\n{text}");
    assert!(text.contains("D110"), "no D110 reported:\n{text}");
    assert!(
        text.contains("seeded_features"),
        "finding does not name the charged function:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}

/// Seed a clone that is only ever read afterwards into crates/core and
/// assert semantic mode reports it as D111 with the borrow guidance.
#[test]
fn binary_reports_seeded_read_only_clone() {
    let scratch = std::env::temp_dir().join(format!("distinct-lint-d111-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_workspace(&workspace_root(), &scratch);

    std::fs::write(
        scratch.join("crates/core/src/seeded_copy.rs"),
        "struct SeededCfg;\n\n\
         impl SeededCfg {\n    fn label_len(&self) -> usize {\n        \
         let copy = self.name.clone();\n        copy.len()\n    }\n}\n",
    )
    .expect("seed read-only clone violation");

    let (code, text) = run_lint(&["check", "--semantic"], &scratch);
    assert_eq!(code, Some(1), "seeded copy must fail --semantic:\n{text}");
    assert!(text.contains("D111"), "no D111 reported:\n{text}");
    assert!(
        text.contains("`copy`") && text.contains("borrow"),
        "finding does not name the binding and the fix:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}

/// Strip the `scratch(...)` declaration off a real registered scratch
/// structure (the pooled `SetArena` minted in `ArenaPool::take`) and
/// assert semantic mode fails with D112 — and that `--fix-baseline`
/// refuses to absorb it as debt, mirroring the D108 refusal.
#[test]
fn binary_reports_stripped_scratch_declaration_and_refuses_to_baseline_it() {
    let scratch = std::env::temp_dir().join(format!("distinct-lint-d112-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_workspace(&workspace_root(), &scratch);

    let arena = scratch.join("crates/relgraph/src/arena.rs");
    let src = std::fs::read_to_string(&arena).expect("read arena.rs");
    let stripped: String = src
        .lines()
        .filter(|l| !l.contains("distinct-lint: scratch("))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(src, stripped, "arena.rs must carry a scratch() declaration");
    std::fs::write(&arena, stripped).expect("strip declaration");

    let (code, text) = run_lint(&["check", "--semantic"], &scratch);
    assert_eq!(code, Some(1), "stripped copy must fail --semantic:\n{text}");
    assert!(text.contains("D112"), "no D112 reported:\n{text}");
    assert!(
        text.contains("SetArena") && text.contains("crates/relgraph/src/arena.rs"),
        "finding does not name the scratch type and file:\n{text}"
    );

    let (code, text) = run_lint(&["check", "--semantic", "--fix-baseline"], &scratch);
    assert_eq!(code, Some(2), "fix-baseline must refuse D112 debt:\n{text}");
    assert!(
        text.contains("scratch(") && text.contains("declaration"),
        "refusal does not point at the fix:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}

/// Seed a spine-reachable struct field that only ever grows into
/// crates/core and assert semantic mode reports it as D113.
#[test]
fn binary_reports_seeded_unbounded_growth() {
    let scratch = std::env::temp_dir().join(format!("distinct-lint-d113-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_workspace(&workspace_root(), &scratch);

    std::fs::write(
        scratch.join("crates/core/src/seeded_growth.rs"),
        "struct SeededLog;\n\n\
         impl SeededLog {\n    \
         /// Seeded spine entry point for the self-check.\n    \
         pub fn resolve_seeded_log(&mut self, key: u64) -> usize {\n        \
         self.events.push(key);\n        self.events.len()\n    }\n}\n",
    )
    .expect("seed unbounded-growth violation");

    let (code, text) = run_lint(&["check", "--semantic"], &scratch);
    assert_eq!(code, Some(1), "seeded copy must fail --semantic:\n{text}");
    assert!(text.contains("D113"), "no D113 reported:\n{text}");
    assert!(
        text.contains("SeededLog") && text.contains("events"),
        "finding does not name the owner and field:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}

/// `facts --emit json` over the real workspace: the registry must list
/// the production cells CI greps for, and every emitted cell must carry
/// a declaration (the D108 gate keeps the two in lockstep).
#[test]
fn facts_export_lists_the_production_cells() {
    let (code, text) = run_lint(&["facts", "--emit", "json"], &workspace_root());
    assert_eq!(code, Some(0), "facts export failed:\n{text}");
    for marker in ["\"cells\"", "\"guards\"", "ProfileCache", "\"shards\""] {
        assert!(text.contains(marker), "missing {marker} in:\n{text}");
    }
    // D108 keeps the registry and the declarations in lockstep, so no
    // emitted cell may be missing its merge discipline.
    assert!(
        !text.contains("\"discipline\": null"),
        "a registered cell is missing its merge discipline:\n{text}"
    );
}

/// Doc-drift gate: every lint in the catalog must have a working
/// `--explain` (a real rationale, not a stub) and a LINTS.md section —
/// both the index-table row and the full `## Dxxx — ...` entry. A new
/// pass cannot ship half-documented.
#[test]
fn every_catalog_id_has_explain_and_a_lints_md_section() {
    let lints_md = std::fs::read_to_string(workspace_root().join("LINTS.md"))
        .expect("LINTS.md at the workspace root");
    for id in lint::catalog::LintId::ALL {
        assert!(
            id.rationale().len() >= 80,
            "{id}: rationale is missing or a stub; `explain {id}` would be useless"
        );
        // `explain` takes exactly one argument, so it cannot go through
        // run_lint (which appends `--root`).
        let out = Command::new(env!("CARGO_BIN_EXE_lint"))
            .args(["explain", id.name()])
            .output()
            .expect("spawn lint binary");
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert_eq!(out.status.code(), Some(0), "`explain {id}` failed:\n{text}");
        assert!(
            text.contains(id.rationale()),
            "`explain {id}` does not print the catalog rationale:\n{text}"
        );
        assert!(
            lints_md.contains(&format!("## {id} — ")),
            "LINTS.md has no `## {id} — ...` section"
        );
        assert!(
            lints_md.contains(&format!("[{id}](#")),
            "LINTS.md index table has no row linking to {id}"
        );
    }
}

/// A directory under `crates/` without a manifest must be a loud, typed
/// error from `graph` (it used to exit 0 with partial output).
#[test]
fn graph_fails_loudly_on_missing_manifest() {
    let scratch =
        std::env::temp_dir().join(format!("distinct-lint-graphcheck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(scratch.join("crates/ghost/src")).expect("mkdir scratch");
    std::fs::write(scratch.join("Cargo.toml"), "[workspace]\n").expect("write root manifest");
    std::fs::write(scratch.join("crates/ghost/src/lib.rs"), "").expect("write stray lib");

    let (code, text) = run_lint(&["graph"], &scratch);
    assert_eq!(
        code,
        Some(2),
        "graph must fail on a stray crate dir:\n{text}"
    );
    assert!(
        text.contains("ghost") && text.contains("no Cargo.toml"),
        "error does not name the stray directory:\n{text}"
    );

    // The semantic check depends on the same crate topology, so it fails
    // with the same typed error instead of silently under-resolving.
    let (code, text) = run_lint(&["check", "--semantic"], &scratch);
    assert_eq!(code, Some(2), "semantic check must fail too:\n{text}");
    assert!(text.contains("no Cargo.toml"), "{text}");

    let _ = std::fs::remove_dir_all(&scratch);
}

/// `call-graph --reach` over the real workspace: the production resolve
/// spine (core → cluster → relgraph) must stay reachable, and a query
/// matching nothing must fail. CI runs the same smoke via the binary.
#[test]
fn reach_query_covers_the_resolve_spine() {
    let root = workspace_root();
    let (code, text) = run_lint(&["call-graph", "--reach", "distinct::resolve"], &root);
    assert_eq!(code, Some(0), "reach query failed:\n{text}");
    for marker in ["[core]", "[cluster]", "[relgraph]"] {
        assert!(
            text.contains(marker),
            "resolve no longer reaches {marker}:\n{text}"
        );
    }
    let (code, text) = run_lint(&["call-graph", "--reach", "zzz_no_such_fn"], &root);
    assert_eq!(code, Some(1), "vanished root must exit 1:\n{text}");
    assert!(text.contains("no function matches"), "{text}");
}
