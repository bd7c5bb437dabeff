//! distinct-lint: dependency-free static analysis for this workspace's
//! project invariants (determinism, graceful degradation, budget
//! coverage, exec-pool ownership of parallelism, f64 numerics, core API
//! docs).
//!
//! `check` runs one pipeline: discover files ([`workspace`]), lex them
//! ([`lexer`]), build per-file context ([`model`]), recover function
//! items from the token stream ([`parse`]), resolve call sites across
//! crates ([`symbols`]) into a call graph ([`callgraph`]), run the
//! per-file passes ([`passes`]) and the call-graph passes, apply inline
//! suppressions ([`suppress`]), then resolve what is left against the
//! checked-in debt baseline ([`baseline`]). The call-graph passes are
//! reachability (D101/D104), probability-range (D102, [`taint`]) and
//! lock-order (D103, [`locks`]) analyses, the determinism/concurrency
//! dataflow passes (D106–D109, [`concur`]) on statement-level CFGs
//! ([`cfg`]) with a forward may/must framework ([`dataflow`]), and the
//! allocation/copy-discipline passes (D110–D113, [`alloc`]) on the same
//! substrate. The [`graph`] module maps the crate topology for the
//! `graph` subcommand, the call resolver and the layering self-checks.

pub mod alloc;
pub mod baseline;
pub mod callgraph;
pub mod catalog;
pub mod cfg;
pub mod concur;
pub mod dataflow;
pub mod graph;
pub mod lexer;
pub mod locks;
pub mod model;
pub mod parse;
pub mod passes;
pub mod suppress;
pub mod symbols;
pub mod taint;
pub mod workspace;

use baseline::{Baseline, Diff};
use callgraph::CallGraph;
use catalog::{Finding, LintId};
use model::FileCtx;
use std::collections::BTreeMap;
use std::path::Path;

/// Result of analyzing the whole workspace (before baseline resolution).
#[derive(Debug)]
pub struct Analysis {
    /// Findings that survived inline suppressions, plus D000s for
    /// malformed or unused suppressions. Sorted by (file, line, id).
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files: usize,
    /// Number of suppressions that matched a finding.
    pub suppressions_used: usize,
}

/// Every analyzable file under `root` and the call graph resolved over
/// them: what `check`, `call-graph` and `facts` all start from.
pub fn load(root: &Path) -> Result<(Vec<FileCtx>, CallGraph), String> {
    let ctxs = workspace::collect_files(root)?;
    let ws = symbols::Workspace::from_workspace(root, &ctxs).map_err(|e| e.to_string())?;
    Ok((ctxs, CallGraph::build(ws)))
}

/// Run the per-file and call-graph passes over `ctxs` and apply each
/// file's suppressions. Returns the findings sorted by (file, line, id)
/// and the number of suppressions that matched.
pub fn lint_files(graph: &CallGraph, ctxs: &[FileCtx]) -> (Vec<Finding>, usize) {
    // Call-graph findings land on concrete files and lines, so they flow
    // through the same per-file suppressions as everything else.
    let mut by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in callgraph::run_semantic(graph, ctxs) {
        by_file.entry(f.file.clone()).or_default().push(f);
    }
    let mut findings = Vec::new();
    let mut suppressions_used = 0;
    for ctx in ctxs {
        let mut raw = passes::run_file(ctx);
        raw.extend(by_file.remove(&ctx.path).unwrap_or_default());
        let (kept, used) = suppress::filter(ctx, raw);
        findings.extend(kept);
        suppressions_used += used;
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.id).cmp(&(&b.file, b.line, b.id)));
    (findings, suppressions_used)
}

/// Lex, model, lint, and suppress every analyzable file under `root`.
pub fn analyze(root: &Path) -> Result<Analysis, String> {
    let (ctxs, graph) = load(root)?;
    let (findings, suppressions_used) = lint_files(&graph, &ctxs);
    Ok(Analysis {
        findings,
        files: ctxs.len(),
        suppressions_used,
    })
}

/// Outcome of a `check` run, ready for reporting and exit-code mapping.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The underlying analysis.
    pub analysis: Analysis,
    /// The baseline that was applied (empty if `lint.toml` is absent).
    pub baseline: Baseline,
    /// Exact-count comparison result; clean means exit 0.
    pub diff: Diff,
}

/// Run the full check: analyze, load `lint.toml` (missing file means an
/// empty baseline), and diff.
pub fn check(root: &Path) -> Result<CheckOutcome, String> {
    let analysis = analyze(root)?;
    let baseline = load_baseline(root)?;
    let diff = baseline.diff(&analysis.findings);
    Ok(CheckOutcome {
        analysis,
        baseline,
        diff,
    })
}

/// Rewrite `lint.toml` to exactly cover the current findings. Returns the
/// number of baselined findings. D000s are never baselined and make this
/// fail, so a broken suppression cannot be ratcheted in; likewise D108
/// and D112 — an undeclared shared-state cell or scratch structure must
/// get its `shared(...)`/`scratch(...)` declaration, not a debt entry.
pub fn fix_baseline(root: &Path) -> Result<usize, String> {
    let analysis = analyze(root)?;
    if let Some(d0) = analysis.findings.iter().find(|f| f.id == LintId::D000) {
        return Err(format!(
            "cannot baseline suppression-hygiene findings; fix them first: {d0}"
        ));
    }
    if let Some(d8) = analysis.findings.iter().find(|f| f.id == LintId::D108) {
        return Err(format!(
            "cannot baseline an undeclared shared-state cell; write its shared(...) declaration: {d8}"
        ));
    }
    if let Some(d12) = analysis.findings.iter().find(|f| f.id == LintId::D112) {
        return Err(format!(
            "cannot baseline an undeclared scratch structure; write its scratch(...) declaration: {d12}"
        ));
    }
    let baseline = Baseline::from_findings(&analysis.findings);
    // distinct-lint: allow(D105, reason="lint.toml is a dev-tool config, not a durable run artifact; a torn baseline is re-ratcheted, never resumed")
    std::fs::write(root.join("lint.toml"), baseline.render())
        .map_err(|e| format!("write lint.toml: {e}"))?;
    Ok(analysis.findings.len())
}

fn load_baseline(root: &Path) -> Result<Baseline, String> {
    let path = root.join("lint.toml");
    if !path.exists() {
        return Ok(Baseline::default());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read lint.toml: {e}"))?;
    Baseline::parse(&text)
}
