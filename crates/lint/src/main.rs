//! CLI driver: `cargo run -p lint -- <command>`.
//!
//! Commands:
//!   check                 lint the workspace against lint.toml (exit 1 on debt)
//!   check --fix-baseline  rewrite lint.toml to match current findings
//!   call-graph            print the resolved call graph as GraphViz DOT
//!   call-graph --reach F  list everything reachable from functions matching F
//!   facts --emit json     export the shared-state registry (cells + guards
//!                         + scratch structures)
//!   --explain <ID>        print the rationale behind a lint
//!   graph                 print the workspace crate/module graph
//!
//! Exit codes: 0 clean, 1 findings (or an empty --reach match), 2 usage
//! or internal error.

use lint::catalog::{LintId, Severity};
use lint::graph::CrateGraph;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.split_first() {
        Some((&"check", rest)) => match parse_check_flags(rest) {
            Ok((fix, root)) => run_check(fix, root.as_deref()),
            Err(e) => usage_error(&e),
        },
        Some((&"call-graph", rest)) => match parse_callgraph_flags(rest) {
            Ok((reach, root)) => run_callgraph(reach.as_deref(), root.as_deref()),
            Err(e) => usage_error(&e),
        },
        Some((&"facts", rest)) => match parse_facts_flags(rest) {
            Ok(root) => run_facts(root.as_deref()),
            Err(e) => usage_error(&e),
        },
        Some((&"graph", rest)) => match parse_root_only(rest) {
            Ok(root) => graph(root.as_deref()),
            Err(e) => usage_error(&e),
        },
        Some((&("--explain" | "explain"), [id])) => explain(id),
        None | Some((&("--help" | "-h" | "help"), [])) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => usage_error(&format!("unrecognized arguments: {}", strs.join(" "))),
    }
}

const USAGE: &str = "\
distinct-lint: workspace invariant checks (D003..D007 and D105 per-file, D101..D113 call-graph)

usage: cargo run -p lint -- <command>

  check                 lint the workspace, resolve against lint.toml
  check --fix-baseline  regenerate lint.toml from current findings
  check --root <dir>    lint a different workspace root (used by self-tests)
  call-graph            print the resolved call graph as GraphViz DOT
  call-graph --reach <fn>  list functions reachable from <fn> (substring match)
  facts --emit json     export shared-state cells, guard sites, and scratch structures
  --explain <Dxxx>      print a lint's rationale and sanctioned fixes
  graph                 print the crate/module dependency graph
";

fn parse_facts_flags(rest: &[&str]) -> Result<Option<String>, String> {
    let mut root = None;
    let mut emit = None;
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "--emit" => match it.next() {
                Some(&"json") => emit = Some("json"),
                Some(&other) => return Err(format!("unsupported facts format `{other}`")),
                None => return Err("--emit needs a format (json)".into()),
            },
            "--root" => match it.next() {
                Some(&r) => root = Some(r.to_string()),
                None => return Err("--root needs a directory".into()),
            },
            other => return Err(format!("unrecognized facts flag `{other}`")),
        }
    }
    if emit.is_none() {
        return Err("facts requires `--emit json`".into());
    }
    Ok(root)
}

fn run_facts(root_override: Option<&str>) -> ExitCode {
    let root = match resolve_root(root_override) {
        Ok(r) => r,
        Err(e) => return internal(&e),
    };
    let (ctxs, graph) = match lint::load(&root) {
        Ok(l) => l,
        Err(e) => return internal(&e),
    };
    let facts = lint::concur::collect_facts(&graph, &ctxs);
    print!("{}", lint::concur::facts_json(&facts));
    ExitCode::SUCCESS
}

fn parse_check_flags(rest: &[&str]) -> Result<(bool, Option<String>), String> {
    let mut fix = false;
    let mut root = None;
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "--fix-baseline" => fix = true,
            "--root" => match it.next() {
                Some(&r) => root = Some(r.to_string()),
                None => return Err("--root needs a directory".into()),
            },
            other => return Err(format!("unrecognized check flag `{other}`")),
        }
    }
    Ok((fix, root))
}

fn parse_callgraph_flags(rest: &[&str]) -> Result<(Option<String>, Option<String>), String> {
    let mut reach = None;
    let mut root = None;
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "--reach" => match it.next() {
                Some(&q) => reach = Some(q.to_string()),
                None => return Err("--reach needs a function name".into()),
            },
            "--root" => match it.next() {
                Some(&r) => root = Some(r.to_string()),
                None => return Err("--root needs a directory".into()),
            },
            other => return Err(format!("unrecognized call-graph flag `{other}`")),
        }
    }
    Ok((reach, root))
}

fn parse_root_only(rest: &[&str]) -> Result<Option<String>, String> {
    match rest {
        [] => Ok(None),
        ["--root", r] => Ok(Some((*r).to_string())),
        other => Err(format!("unrecognized arguments: {}", other.join(" "))),
    }
}

fn workspace_root() -> Result<PathBuf, String> {
    // Prefer the compile-time manifest location (correct under
    // `cargo run -p lint` from anywhere), fall back to the cwd.
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if let Some(root) = lint::workspace::find_root(&here) {
        return Ok(root);
    }
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    lint::workspace::find_root(&cwd).ok_or_else(|| "no workspace root found".into())
}

fn resolve_root(root_override: Option<&str>) -> Result<PathBuf, String> {
    match root_override {
        Some(r) => Ok(PathBuf::from(r)),
        None => workspace_root(),
    }
}

fn run_check(fix: bool, root_override: Option<&str>) -> ExitCode {
    let root = match resolve_root(root_override) {
        Ok(r) => r,
        Err(e) => return internal(&e),
    };
    if fix {
        return match lint::fix_baseline(&root) {
            Ok(n) => {
                println!("lint: wrote lint.toml covering {n} finding(s)");
                ExitCode::SUCCESS
            }
            Err(e) => internal(&e),
        };
    }
    let outcome = match lint::check(&root) {
        Ok(o) => o,
        Err(e) => return internal(&e),
    };
    let baselined = outcome.analysis.findings.len() - outcome.diff.new_debt.len();
    if outcome.diff.is_clean() {
        println!(
            "lint: clean — {} files, {} finding(s) baselined, {} suppression(s) in use",
            outcome.analysis.files, baselined, outcome.analysis.suppressions_used
        );
        return ExitCode::SUCCESS;
    }
    for f in &outcome.diff.new_debt {
        let sev = match f.id.severity() {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        };
        println!("[{sev}] {f}");
    }
    for (id, file, allowed, have) in &outcome.diff.stale {
        println!(
            "[stale] {id}: {file}: baseline says {allowed} finding(s) but only {have} remain — \
             run `cargo run -p lint -- check --fix-baseline` to ratchet down"
        );
    }
    println!(
        "lint: FAILED — {} new finding(s), {} stale baseline entr(y/ies) \
         ({} files scanned; use `--explain <ID>` for rationale)",
        outcome.diff.new_debt.len(),
        outcome.diff.stale.len(),
        outcome.analysis.files
    );
    ExitCode::FAILURE
}

fn run_callgraph(reach: Option<&str>, root_override: Option<&str>) -> ExitCode {
    let root = match resolve_root(root_override) {
        Ok(r) => r,
        Err(e) => return internal(&e),
    };
    let graph = match lint::load(&root) {
        Ok((_, graph)) => graph,
        Err(e) => return internal(&e),
    };
    match reach {
        Some(query) => {
            print!("{}", graph.reach_report(query));
            if graph.find_fns(query).is_empty() {
                // A vanished root is a failure (CI uses this to assert the
                // resolve spine still exists).
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        None => {
            print!("{}", graph.to_dot());
            ExitCode::SUCCESS
        }
    }
}

fn explain(id: &str) -> ExitCode {
    match LintId::parse(id) {
        Some(id) => {
            let sev = match id.severity() {
                Severity::Deny => "deny",
                Severity::Warn => "warn",
            };
            println!("{id} [{sev}]: {}\n", id.title());
            println!("{}", id.rationale());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "lint: unknown lint `{id}`; known: {}",
                LintId::ALL.map(|i| i.name()).join(", ")
            );
            ExitCode::from(2)
        }
    }
}

fn graph(root_override: Option<&str>) -> ExitCode {
    let root = match resolve_root(root_override) {
        Ok(r) => r,
        Err(e) => return internal(&e),
    };
    match CrateGraph::load(&root) {
        Ok(g) => {
            print!("{}", g.render());
            ExitCode::SUCCESS
        }
        Err(e) => internal(&e.to_string()),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn internal(msg: &str) -> ExitCode {
    eprintln!("lint: error: {msg}");
    ExitCode::from(2)
}
