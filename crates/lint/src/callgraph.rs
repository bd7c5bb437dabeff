//! The workspace call graph and the reachability lints built on it:
//! D101 (panic paths reachable from any public `crates/core` function)
//! and D104 (loops on charge-free call paths from the pipeline entry
//! points). Also serves the `call-graph` subcommand (DOT export,
//! `--reach` queries).

use crate::catalog::{Finding, LintId};
use crate::symbols::Workspace;
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;

/// The resolved call graph over a [`Workspace`]'s functions.
pub struct CallGraph {
    /// The symbol table the graph was built from.
    pub ws: Workspace,
    /// `edges[i]` — indices of functions `fns[i]` may call, sorted,
    /// deduplicated.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Resolve every call site of every non-test function.
    pub fn build(ws: Workspace) -> CallGraph {
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); ws.fns.len()];
        for i in 0..ws.fns.len() {
            if ws.fns[i].is_test {
                continue;
            }
            let mut out = BTreeSet::new();
            for call in &ws.fns[i].facts.calls {
                for t in ws.resolve(i, call) {
                    if t != i {
                        out.insert(t);
                    }
                }
            }
            edges[i] = out.into_iter().collect();
        }
        CallGraph { ws, edges }
    }

    /// The library's API surface, D101's roots: every public non-test
    /// function defined in `crates/core`.
    pub fn public_core_fns(&self) -> Vec<usize> {
        self.ws
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.crate_dir == "core" && f.is_pub && !f.is_test)
            .map(|(i, _)| i)
            .collect()
    }

    /// The pipeline entry points, where D104 and the spine passes root
    /// their walks: the public core `resolve*`/`train*` functions.
    pub fn entry_points(&self) -> Vec<usize> {
        let mut roots = self.public_core_fns();
        roots.retain(|&i| {
            let name = &self.ws.fns[i].name;
            name.starts_with("resolve") || name.starts_with("train")
        });
        roots
    }

    /// BFS from `roots`; `parent[i] = Some(p)` records the tree edge used
    /// to reach `i` (roots point to themselves). Unreached nodes are
    /// `None`. `pass(i)` gates which nodes the walk may enter.
    pub fn reach(&self, roots: &[usize], pass: impl Fn(usize) -> bool) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.ws.fns.len()];
        let mut queue = VecDeque::new();
        for &r in roots {
            if parent[r].is_none() && pass(r) {
                parent[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                if parent[v].is_none() && pass(v) {
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        parent
    }

    /// Render the BFS-tree call chain from the root down to `target` as
    /// `a → b → c`, eliding the middle of very long chains.
    pub fn chain(&self, parent: &[Option<usize>], target: usize) -> String {
        let mut hops = vec![target];
        let mut cur = target;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            hops.push(p);
            cur = p;
        }
        hops.reverse();
        let names: Vec<String> = hops.iter().map(|&i| self.ws.qual(i)).collect();
        if names.len() > 7 {
            let head = names[..3].join(" → ");
            let tail = names[names.len() - 3..].join(" → ");
            format!("{head} → … → {tail} ({} hops)", names.len() - 1)
        } else {
            names.join(" → ")
        }
    }

    /// D101: every panic site in a function reachable from a public core
    /// function is a finding naming one concrete call chain.
    pub fn d101_panic_reach(&self) -> Vec<Finding> {
        let roots = self.public_core_fns();
        let parent = self.reach(&roots, |_| true);
        let mut out = Vec::new();
        for (i, f) in self.ws.fns.iter().enumerate() {
            if parent[i].is_none() || f.facts.panics.is_empty() {
                continue;
            }
            let chain = self.chain(&parent, i);
            for (line, what) in &f.facts.panics {
                out.push(Finding {
                    id: LintId::D101,
                    file: f.file.clone(),
                    line: *line,
                    message: format!("{what}; reachable via {chain}"),
                });
            }
        }
        out
    }

    /// D104: a looping function reachable from an entry point along a path
    /// where no hop charges the budget (neither a guard/charge call nor a
    /// guard parameter). The charging hop discharges everything below it.
    pub fn d104_unguarded_loops(&self) -> Vec<Finding> {
        let charges = |i: usize| {
            let f = &self.ws.fns[i];
            f.facts.charges || f.has_guard_param
        };
        let roots = self.entry_points();
        let parent = self.reach(&roots, |i| !charges(i));
        let mut out = Vec::new();
        for (i, f) in self.ws.fns.iter().enumerate() {
            let Some(&first_loop) = f.facts.loops.first() else {
                continue;
            };
            if parent[i].is_none() {
                continue;
            }
            let chain = self.chain(&parent, i);
            out.push(Finding {
                id: LintId::D104,
                file: f.file.clone(),
                line: first_loop,
                message: format!(
                    "fn `{}` loops but no hop charges the budget on {chain}",
                    f.name
                ),
            });
        }
        out
    }

    /// Indices of functions whose qualified name contains `query`
    /// (case-insensitive; `::` segments all participate).
    pub fn find_fns(&self, query: &str) -> Vec<usize> {
        let q = query.to_ascii_lowercase();
        (0..self.ws.fns.len())
            .filter(|&i| self.ws.qual(i).to_ascii_lowercase().contains(&q))
            .collect()
    }

    /// Report every function reachable *from* the ones matching `query`,
    /// grouped by crate — the `call-graph --reach` output.
    pub fn reach_report(&self, query: &str) -> String {
        let roots = self.find_fns(query);
        let mut s = String::new();
        if roots.is_empty() {
            let _ = writeln!(s, "no function matches `{query}`");
            return s;
        }
        let _ = writeln!(
            s,
            "roots matching `{query}`: {}",
            roots
                .iter()
                .map(|&i| self.ws.qual(i))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let parent = self.reach(&roots, |_| true);
        let mut by_crate: Vec<(String, String)> = Vec::new();
        for (i, f) in self.ws.fns.iter().enumerate() {
            if parent[i].is_some() {
                by_crate.push((f.crate_dir.clone(), self.ws.qual(i)));
            }
        }
        by_crate.sort();
        by_crate.dedup();
        let crates: BTreeSet<&str> = by_crate.iter().map(|(c, _)| c.as_str()).collect();
        let _ = writeln!(
            s,
            "reachable: {} fns across {} crates ({})",
            by_crate.len(),
            crates.len(),
            crates.into_iter().collect::<Vec<_>>().join(", ")
        );
        for (c, q) in &by_crate {
            let _ = writeln!(s, "  [{c}] {q}");
        }
        s
    }

    /// GraphViz DOT export of the whole call graph (nodes grouped by
    /// crate as subgraph clusters).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph calls {\n  rankdir=LR;\n  node [shape=box];\n");
        let crates: BTreeSet<String> = self.ws.fns.iter().map(|f| f.crate_dir.clone()).collect();
        for (ci, c) in crates.iter().enumerate() {
            let _ = writeln!(s, "  subgraph cluster_{ci} {{\n    label=\"{c}\";");
            for (i, f) in self.ws.fns.iter().enumerate() {
                if &f.crate_dir == c && !f.is_test {
                    let _ = writeln!(s, "    n{i} [label=\"{}\"];", self.ws.qual(i));
                }
            }
            let _ = writeln!(s, "  }}");
        }
        for (i, outs) in self.edges.iter().enumerate() {
            for &j in outs {
                let _ = writeln!(s, "  n{i} -> n{j};");
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Run every interprocedural pass over one built graph.
pub fn run_semantic(graph: &CallGraph, ctxs: &[crate::model::FileCtx]) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(graph.d101_panic_reach());
    out.extend(crate::taint::d102_probability_taint(graph));
    out.extend(crate::locks::d103_lock_order(graph));
    out.extend(graph.d104_unguarded_loops());
    out.extend(crate::concur::run(graph, ctxs));
    out.extend(crate::alloc::run(graph, ctxs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FileCtx, Role};
    use std::collections::{BTreeMap, BTreeSet};

    fn ws(files: &[(&str, &str, &str)]) -> Workspace {
        let ctxs: Vec<FileCtx> = files
            .iter()
            .map(|(path, krate, src)| FileCtx::new(path, krate, Role::Library, src))
            .collect();
        let refs: Vec<&FileCtx> = ctxs.iter().collect();
        let dirs: BTreeSet<String> = files.iter().map(|(_, k, _)| k.to_string()).collect();
        let mut closures = BTreeMap::new();
        for d in &dirs {
            // Fully connected topology: every crate sees every crate.
            closures.insert(d.clone(), dirs.clone());
        }
        Workspace::build(&refs, BTreeMap::new(), closures)
    }

    #[test]
    fn d101_reports_reachable_panic_with_chain() {
        let g = CallGraph::build(ws(&[
            (
                "crates/core/src/pipeline.rs",
                "core",
                "impl Distinct { pub fn resolve(&self) { stage(); } }\nfn stage() { cluster::engine::run(); }",
            ),
            (
                "crates/cluster/src/engine.rs",
                "cluster",
                "pub fn run() { x.unwrap(); }\npub fn unreached() { y.unwrap(); }",
            ),
        ]));
        let findings = g.d101_panic_reach();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, "crates/cluster/src/engine.rs");
        assert!(findings[0].message.contains("resolve"));
        assert!(findings[0].message.contains("run"));
    }

    #[test]
    fn d104_charge_on_path_discharges_loop() {
        let g = CallGraph::build(ws(&[
            (
                "crates/core/src/pipeline.rs",
                "core",
                "impl Distinct {\n pub fn resolve(&self, ctl: &C) { ctl.charge(1); hot(); }\n pub fn train(&self) { hot(); }\n}\nfn hot() { for i in 0..9 { work(i); } }\nfn work(_i: u32) {}",
            ),
        ]));
        // `resolve` charges, but `train` reaches `hot` charge-free.
        let findings = g.d104_unguarded_loops();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("train"), "{findings:?}");
        assert!(findings[0].message.contains("hot"));
    }

    #[test]
    fn d104_clean_when_every_path_charges() {
        let g = CallGraph::build(ws(&[(
            "crates/core/src/pipeline.rs",
            "core",
            "impl Distinct { pub fn resolve(&self, ctl: &C) { ctl.charge(1); hot(); } }\nfn hot() { for i in 0..9 {} }",
        )]));
        assert!(g.d104_unguarded_loops().is_empty());
    }

    #[test]
    fn dot_and_reach_report_render() {
        let g = CallGraph::build(ws(&[(
            "crates/core/src/pipeline.rs",
            "core",
            "impl Distinct { pub fn resolve(&self) { stage(); } }\nfn stage() {}",
        )]));
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        let report = g.reach_report("resolve");
        assert!(report.contains("stage"), "{report}");
        assert!(g.reach_report("zzz_nothing").contains("no function"));
    }
}
