//! Fixture-based self-tests for the lint passes.
//!
//! Each `tests/fixtures/*.rs` file is a per-file fixture, run through the
//! per-file passes alone. Each subdirectory of `tests/fixtures/semantic/`
//! is one virtual workspace, run through the whole pipeline: the per-file
//! passes plus the call-graph passes over the group's own call graph.
//! Every fixture file declares its virtual location with `//@ path:` and
//! `//@ crate:` headers. A per-file fixture may add `//@ role:`; a
//! semantic file may declare its crate's *normal* dependencies with
//! `//@ deps:` (comma-separated crate directory names) and a
//! `//@ package:` display name, the explicit-topology stand-in for
//! `Cargo.toml` parsing. Expected findings are `//~ Dxxx` markers on the
//! offending lines. Suppressions are applied by `suppress::filter`, the
//! rule `check` uses, and each file's (lint, line) multiset must match
//! its markers — no more, no less. The fixtures directory itself is
//! excluded from real workspace scans by `model::classify`.

use lint::callgraph::CallGraph;
use lint::catalog::{Finding, LintId};
use lint::model::{FileCtx, Role};
use lint::symbols::Workspace;
use lint::{passes, suppress};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

struct Fixture {
    /// File name (prefixed with its group, for semantic fixtures), for
    /// messages.
    name: String,
    /// Declared virtual workspace path.
    path: String,
    crate_name: String,
    role: Role,
    /// Declared direct normal dependencies of `crate_name`.
    deps: Vec<String>,
    /// Declared `[package] name` of `crate_name`, if any.
    package: Option<String>,
    src: String,
    /// Expected (lint, 1-based line) pairs, from the `//~` markers.
    expected: Vec<(LintId, u32)>,
}

impl Fixture {
    fn ctx(&self) -> FileCtx {
        FileCtx::new(&self.path, &self.crate_name, self.role, &self.src)
    }

    /// Assert that `findings` (this file's) match the markers exactly.
    fn assert_matches(&self, findings: &[Finding]) {
        let mut got: Vec<(LintId, u32)> = findings.iter().map(|f| (f.id, f.line)).collect();
        got.sort_by_key(|&(id, line)| (line, id));
        let mut expected = self.expected.clone();
        expected.sort_by_key(|&(id, line)| (line, id));
        assert_eq!(
            got, expected,
            "{}: findings disagree with //~ markers\n  got:      {:?}\n  expected: {:?}",
            self.name, got, expected
        );
    }
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn parse_fixture(name: &str, src: &str) -> Fixture {
    let mut path = None;
    let mut crate_name = None;
    let mut role = Role::Library;
    let mut deps = Vec::new();
    let mut package = None;
    let mut expected = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        if let Some(rest) = line.trim().strip_prefix("//@") {
            let (key, value) = rest
                .split_once(':')
                .unwrap_or_else(|| panic!("{name}:{lineno}: malformed `//@` header"));
            let value = value.trim().to_string();
            match key.trim() {
                "path" => path = Some(value),
                "crate" => crate_name = Some(value),
                "role" => {
                    role = match value.as_str() {
                        "library" => Role::Library,
                        "test" => Role::Test,
                        "example" => Role::Example,
                        "bench" => Role::Bench,
                        "bin" => Role::Bin,
                        other => panic!("{name}:{lineno}: unknown role `{other}`"),
                    }
                }
                "deps" => deps.extend(
                    value
                        .split(',')
                        .map(|d| d.trim().to_string())
                        .filter(|d| !d.is_empty()),
                ),
                "package" => package = Some(value),
                other => panic!("{name}:{lineno}: unknown header `{other}`"),
            }
        }
        if let Some(pos) = line.find("//~") {
            for word in line[pos + 3..].split_whitespace() {
                let id = LintId::parse(word)
                    .unwrap_or_else(|| panic!("{name}:{lineno}: bad marker id `{word}`"));
                expected.push((id, lineno));
            }
        }
    }
    Fixture {
        name: name.to_string(),
        path: path.unwrap_or_else(|| panic!("{name}: missing `//@ path:` header")),
        crate_name: crate_name.unwrap_or_else(|| panic!("{name}: missing `//@ crate:` header")),
        role,
        deps,
        package,
        src: src.to_string(),
        expected,
    }
}

/// Names of the entries of `dir` that pass `keep`, sorted.
fn entries(dir: &Path, keep: impl Fn(&Path) -> bool) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| keep(p))
        .map(|p| {
            p.file_name()
                .expect("entry name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// The `.rs` fixtures directly under `dir`, their names prefixed with
/// `prefix`.
fn load_dir(dir: &Path, prefix: &str) -> Vec<Fixture> {
    entries(dir, |p| p.extension().is_some_and(|e| e == "rs"))
        .iter()
        .map(|n| {
            let src = std::fs::read_to_string(dir.join(n)).expect("read fixture");
            parse_fixture(&format!("{prefix}{n}"), &src)
        })
        .collect()
}

/// The semantic groups, one virtual workspace per subdirectory.
fn load_groups() -> Vec<(String, Vec<Fixture>)> {
    let dir = fixtures_dir().join("semantic");
    entries(&dir, Path::is_dir)
        .into_iter()
        .map(|g| {
            let files = load_dir(&dir.join(&g), &format!("{g}/"));
            (g, files)
        })
        .collect()
}

/// Transitive normal-dependency closures (including self) from the
/// group's declared direct deps — the explicit-topology stand-in for
/// `CrateGraph::normal_closure`.
fn closures_of(files: &[Fixture]) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in files {
        let entry = direct.entry(f.crate_name.clone()).or_default();
        entry.extend(f.deps.iter().cloned());
    }
    let mut closures = BTreeMap::new();
    for c in direct.keys() {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack = vec![c.clone()];
        while let Some(d) = stack.pop() {
            if seen.insert(d.clone()) {
                if let Some(next) = direct.get(&d) {
                    stack.extend(next.iter().cloned());
                }
            }
        }
        closures.insert(c.clone(), seen);
    }
    closures
}

/// The call graph over one group, built the way `lint::load` builds the
/// workspace's, with the group's declared topology.
fn graph_of(files: &[Fixture], ctxs: &[FileCtx]) -> CallGraph {
    let refs: Vec<&FileCtx> = ctxs.iter().collect();
    let packages: BTreeMap<String, String> = files
        .iter()
        .filter_map(|f| f.package.clone().map(|p| (f.crate_name.clone(), p)))
        .collect();
    CallGraph::build(Workspace::build(&refs, packages, closures_of(files)))
}

#[test]
fn every_fixture_matches_its_markers() {
    let fixtures = load_dir(&fixtures_dir(), "");
    assert!(
        fixtures.len() >= 7,
        "expected the full fixture set, found {}",
        fixtures.len()
    );
    for f in &fixtures {
        let ctx = f.ctx();
        let (findings, _) = suppress::filter(&ctx, passes::run_file(&ctx));
        f.assert_matches(&findings);
    }
}

#[test]
fn every_semantic_fixture_matches_its_markers() {
    let groups = load_groups();
    assert!(
        groups.len() >= 4,
        "expected the full semantic fixture set, found {}",
        groups.len()
    );
    for (_, files) in &groups {
        let ctxs: Vec<FileCtx> = files.iter().map(Fixture::ctx).collect();
        let (findings, _) = lint::lint_files(&graph_of(files, &ctxs), &ctxs);
        for f in files {
            let mine: Vec<Finding> = findings
                .iter()
                .filter(|x| x.file == f.path)
                .cloned()
                .collect();
            f.assert_matches(&mine);
        }
    }
}

#[test]
fn fixtures_cover_every_lint() {
    let per_file = load_dir(&fixtures_dir(), "");
    let semantic: Vec<Fixture> = load_groups().into_iter().flat_map(|(_, fs)| fs).collect();
    let seen: BTreeSet<LintId> = per_file
        .iter()
        .chain(&semantic)
        .flat_map(|f| f.expected.iter().map(|&(id, _)| id))
        .collect();
    for id in LintId::ALL {
        assert!(
            seen.contains(&id),
            "no fixture exercises {id}; add a `//~ {id}` case to a per-file \
             fixture or a semantic group"
        );
    }
}

#[test]
fn cross_file_panic_chain_names_the_entry_point() {
    let (_, files) = load_groups()
        .into_iter()
        .find(|(g, _)| g == "panic_reach")
        .expect("panic_reach group exists");
    let ctxs: Vec<FileCtx> = files.iter().map(Fixture::ctx).collect();
    let d101 = graph_of(&files, &ctxs).d101_panic_reach();
    // `run`'s unwrap, `proven`'s suppressed one and `summarize`'s are
    // reachable; `not_reached`'s and `audit`'s are not.
    assert_eq!(d101.len(), 3, "{d101:?}");
    let chain_to = |line: u32| {
        &d101
            .iter()
            .find(|f| f.message.contains("can panic") && f.line == line)
            .unwrap_or_else(|| panic!("no finding on line {line}: {d101:?}"))
            .message
    };
    // The chain is rendered with package-qualified hops from the root.
    let on_run = chain_to(12);
    assert!(on_run.contains("distinct::Distinct::resolve"), "{on_run}");
    assert!(on_run.contains(" → "), "{on_run}");
    assert!(on_run.contains("cluster::run"), "{on_run}");
    // Any public core function is a root, not only resolve*/train*.
    let on_summarize = chain_to(26);
    assert!(
        on_summarize.contains("distinct::Distinct::describe"),
        "{on_summarize}"
    );
}

#[test]
fn fixture_paths_are_invisible_to_real_scans() {
    // The known-bad fixtures live under the one directory `classify`
    // blinds itself to; if that exclusion regresses, every fixture
    // violation becomes workspace debt.
    for path in [
        "crates/lint/tests/fixtures/d003_raw_threads.rs",
        "crates/lint/tests/fixtures/semantic/panic_reach/core.rs",
    ] {
        assert_eq!(lint::model::classify(path), None, "{path}");
    }
}
