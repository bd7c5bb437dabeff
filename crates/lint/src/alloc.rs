//! Allocation & copy-discipline dataflow passes (D110–D113) plus the
//! scratch-structure registry exported by `distinct-lint facts`.
//!
//! These run on the same substrate as the D106–D109 passes — statement
//! CFGs ([`crate::cfg`]), the forward framework ([`crate::dataflow`]'s
//! join semantics, applied here as whole-body universal-use scans whose
//! verdicts hold on every CFG path by construction), and the workspace
//! call graph — but reason about the *memory* discipline of the resolve
//! and update hot paths rather than their ordering discipline:
//!
//! - **D110 hot-loop allocation** — inside a loop of a charge-guarded
//!   function (one that charges the budget or carries a guard parameter),
//!   a fresh heap buffer per iteration (`collect`/`to_vec`/`to_owned`/
//!   `to_string`, a `format!`/`vec!` macro, or a `Vec::new()`-born
//!   growth-by-push buffer) is churn the budget already paid to avoid.
//!   Kills: `with_capacity` at the allocation site, or a hoisted buffer
//!   that is `.clear()`ed instead of rebuilt.
//! - **D111 read-only clone** — a `let x = place.clone()` whose binding
//!   is only ever *read* afterwards (borrowed, compared, or handed to a
//!   non-mutating method on every CFG path) should be a borrow. Any
//!   write, move, or mutating call on any path justifies the clone, so
//!   the pass never fires on a clone that earns its keep.
//! - **D112 scratch registry** — à la D108: every reusable arena/cache/
//!   pool/scratch structure *constructed* in a function reachable from
//!   the resolve/train/apply_updates spine must carry a
//!   `// distinct-lint: scratch(<reuse-discipline>)` declaration naming
//!   how the structure is reused across calls and why reuse preserves
//!   bit-identical output. Findings are unbaselineable
//!   ([`crate::fix_baseline`] refuses them) and the registry is
//!   exported by `distinct-lint facts --emit json`.
//! - **D113 unbounded growth** — a `self.<field>` collection grown
//!   (`push`/`insert`/`extend`/...) on the spine while *no* library code
//!   path ever clears, evicts, drains, or replaces that field is a slow
//!   leak the planned serving layer would turn into sustained memory
//!   growth. One shrink site anywhere in library code discharges the
//!   field.

use crate::callgraph::CallGraph;
use crate::catalog::{Finding, LintId};
use crate::cfg::Cfg;
use crate::concur::{bound_vars, receiver_chain, site, spine_roots, MUTATORS};
use crate::lexer::TokKind;
use crate::model::{FileCtx, FnSpan};
use crate::parse::is_keyword;
use crate::suppress;
use std::collections::{BTreeMap, BTreeSet};

/// Methods that hand back a freshly allocated buffer on every call.
const ALLOC_METHODS: [&str; 4] = ["collect", "to_vec", "to_owned", "to_string"];

/// Growing mutators for D110/D113 (the subset of [`MUTATORS`] that adds
/// elements rather than removing them).
const GROWERS: [&str; 5] = ["push", "insert", "extend", "append", "push_str"];

/// Methods that shrink, drain, or recycle a collection — any one of
/// these on a field anywhere in library code discharges D113.
const SHRINKERS: [&str; 10] = [
    "clear",
    "remove",
    "swap_remove",
    "truncate",
    "drain",
    "pop",
    "retain",
    "take",
    "replace",
    "remove_entry",
];

/// Run every allocation pass. Called from [`crate::callgraph::run_semantic`].
pub fn run(graph: &CallGraph, ctxs: &[FileCtx]) -> Vec<Finding> {
    let by_path: BTreeMap<&str, &FileCtx> = ctxs.iter().map(|c| (c.path.as_str(), c)).collect();
    let mut out = Vec::new();
    out.extend(d110_hot_loop_alloc(graph, &by_path));
    out.extend(d111_read_only_clone(graph, &by_path));
    out.extend(d112_scratch_registry(graph, ctxs));
    out.extend(d113_unbounded_growth(graph, &by_path));
    out
}

// ------------------------------------------------------------ D110 --

/// Token ranges `(open+1, close)` of every loop body in the function.
/// Nested loops each contribute their own range; membership tests treat
/// the union as "inside some loop".
fn loop_bodies(ctx: &FileCtx, span: &FnSpan) -> Vec<(usize, usize)> {
    let hi = span.end.min(ctx.toks.len());
    let mut out = Vec::new();
    let mut k = span.body_start;
    while k < hi {
        let t = &ctx.toks[k];
        let header = t.kind == TokKind::Ident
            && (t.is_ident("for") || t.is_ident("while") || {
                t.is_ident("loop") && {
                    let nx = ctx.next_code(k);
                    nx < hi && ctx.toks[nx].is_punct('{')
                }
            });
        if header {
            // The body `{` sits at bracket depth 0 relative to the header.
            let mut depth = 0i32;
            let mut j = ctx.next_code(k);
            let mut open = None;
            while j < hi {
                let u = &ctx.toks[j];
                if u.is_punct('(') || u.is_punct('[') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && u.is_punct('{') {
                    open = Some(j);
                    break;
                } else if depth == 0 && u.is_punct(';') {
                    break;
                }
                j = ctx.next_code(j);
            }
            if let Some(open) = open {
                out.push((open + 1, crate::cfg::match_brace_from(ctx, open, hi)));
            }
        }
        k += 1;
    }
    out
}

fn d110_hot_loop_alloc(graph: &CallGraph, by_path: &BTreeMap<&str, &FileCtx>) -> Vec<Finding> {
    let ws = &graph.ws;
    let mut out = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test || !(f.facts.charges || f.has_guard_param) {
            continue;
        }
        let Some((ctx, span)) = site(by_path, f) else {
            continue;
        };
        if !ctx.is_library() {
            continue;
        }
        let loops = loop_bodies(ctx, span);
        if loops.is_empty() {
            continue;
        }
        let in_loop = |idx: usize| loops.iter().any(|&(lo, hi)| lo <= idx && idx < hi);
        let cfg = Cfg::build(ctx, span);
        let stmt_has = |idx: usize, what: &str| {
            cfg.stmt_of(idx)
                .map(|s| {
                    ctx.toks[cfg.stmts[s].lo..cfg.stmts[s].hi.min(ctx.toks.len())]
                        .iter()
                        .any(|t| t.is_ident(what))
                })
                .unwrap_or(false)
        };
        // A `return`/`break` statement runs at most once per function
        // call, so an allocation inside one is never per-iteration churn
        // (typically an error-path message being built on the way out).
        let cold_exit = |idx: usize| {
            cfg.stmt_of(idx)
                .and_then(|s| {
                    let lo = cfg.stmts[s].lo;
                    let hi = cfg.stmts[s].hi.min(ctx.toks.len());
                    ctx.toks[lo..hi]
                        .iter()
                        .find(|t| !matches!(t.kind, TokKind::Comment | TokKind::DocComment))
                        .map(|t| t.is_ident("return") || t.is_ident("break"))
                })
                .unwrap_or(false)
        };
        // (a) Fresh-buffer method calls inside a loop body.
        for c in &f.facts.calls {
            if c.is_method
                && ALLOC_METHODS.contains(&c.name.as_str())
                && in_loop(c.idx)
                && !stmt_has(c.idx, "with_capacity")
                && !cold_exit(c.idx)
            {
                out.push(Finding {
                    id: LintId::D110,
                    file: f.file.clone(),
                    line: c.line,
                    message: format!(
                        "`.{}()` allocates a fresh buffer on every iteration of a \
                         charge-guarded loop in `{}`; hoist the buffer and `.clear()` it, \
                         or size it once with `with_capacity`",
                        c.name,
                        ws.qual(i)
                    ),
                });
            }
        }
        // (b) Allocating macros inside a loop body.
        let hi = span.end.min(ctx.toks.len());
        for k in span.body_start..hi {
            let t = &ctx.toks[k];
            if t.kind == TokKind::Ident
                && (t.text == "format" || t.text == "vec")
                && in_loop(k)
                && !cold_exit(k)
                && {
                    let nx = ctx.next_code(k);
                    nx < hi && ctx.toks[nx].is_punct('!')
                }
            {
                out.push(Finding {
                    id: LintId::D110,
                    file: f.file.clone(),
                    line: t.line,
                    message: format!(
                        "`{}!` allocates on every iteration of a charge-guarded loop in \
                         `{}`; build the buffer once outside the loop and reuse it",
                        t.text,
                        ws.qual(i)
                    ),
                });
            }
        }
        // (c) Growth-by-push: a `Vec::new()`/`String::new()` binding grown
        // inside a loop with no capacity hint and no hoisted `.clear()`.
        for c in &f.facts.calls {
            if c.is_method || c.name != "new" {
                continue;
            }
            if !matches!(
                c.path.last().map(String::as_str),
                Some("Vec") | Some("String")
            ) {
                continue;
            }
            let Some(s) = cfg.stmt_of(c.idx) else {
                continue;
            };
            let st = (cfg.stmts[s].lo, cfg.stmts[s].hi, cfg.stmts[s].line);
            let vars = bound_vars(ctx, st.0, st.1);
            let [var] = vars.as_slice() else {
                continue;
            };
            let on_binding = |idx: usize| {
                let glo = cfg
                    .stmt_of(idx)
                    .map(|gs| cfg.stmts[gs].lo)
                    .unwrap_or(span.body_start);
                let chain = receiver_chain(ctx, idx, glo);
                chain.len() == 1 && chain.first() == Some(var)
            };
            let cleared = f
                .facts
                .calls
                .iter()
                .any(|g| g.is_method && g.name == "clear" && on_binding(g.idx));
            if cleared {
                continue; // hoisted-buffer discipline
            }
            let grown = f.facts.calls.iter().any(|g| {
                g.is_method
                    && GROWERS.contains(&g.name.as_str())
                    && g.idx > c.idx
                    && in_loop(g.idx)
                    && on_binding(g.idx)
            });
            if grown {
                out.push(Finding {
                    id: LintId::D110,
                    file: f.file.clone(),
                    line: st.2,
                    message: format!(
                        "`{var}` starts at `{}::new()` but grows by push inside a \
                         charge-guarded loop in `{}`; pre-size it with `with_capacity` \
                         or hoist and `.clear()` it",
                        c.path.last().map(String::as_str).unwrap_or("Vec"),
                        ws.qual(i)
                    ),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    out
}

// ------------------------------------------------------------ D111 --

fn d111_read_only_clone(graph: &CallGraph, by_path: &BTreeMap<&str, &FileCtx>) -> Vec<Finding> {
    let ws = &graph.ws;
    let mut out = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let Some((ctx, span)) = site(by_path, f) else {
            continue;
        };
        if !ctx.is_library() {
            continue;
        }
        let cfg = Cfg::build(ctx, span);
        let hi = span.end.min(ctx.toks.len());
        for c in &f.facts.calls {
            if !c.is_method || c.name != "clone" {
                continue;
            }
            let Some(s) = cfg.stmt_of(c.idx) else {
                continue;
            };
            let st = &cfg.stmts[s];
            // Only `let x = place.clone();` — one immutable binding.
            let mut k = st.lo;
            while k < st.hi && matches!(ctx.toks[k].kind, TokKind::Comment | TokKind::DocComment) {
                k += 1;
            }
            if k >= st.hi || !ctx.toks[k].is_ident("let") {
                continue;
            }
            let after = ctx.next_code(k);
            if after < st.hi && ctx.toks[after].is_ident("mut") {
                continue;
            }
            let vars = bound_vars(ctx, st.lo, st.hi);
            let [var] = vars.as_slice() else {
                continue;
            };
            // The clone must be the statement's own value — `let x =
            // place.clone();` with the `;` right after the call. A clone
            // nested inside another call's arguments or a closure body
            // (`map(|v| v.f.clone()).collect()`) is not this binding.
            let open = ctx.next_code(c.idx);
            if open >= hi || !ctx.toks[open].is_punct('(') {
                continue;
            }
            let close = crate::concur::match_paren(ctx, open, hi);
            let after = ctx.next_code(close);
            if after >= hi || !ctx.toks[after].is_punct(';') {
                continue;
            }
            let Some(place) = place_receiver(ctx, c.idx, st.lo) else {
                continue; // receiver is a temporary; a borrow cannot name it
            };
            let mut any_use = false;
            let mut all_reads = true;
            for j in st.hi..hi {
                let t = &ctx.toks[j];
                if t.kind != TokKind::Ident || t.text != *var {
                    continue;
                }
                // `foo.var` is a field of something else, not this binding.
                if ctx
                    .prev_code(j)
                    .map(|p| ctx.toks[p].is_punct('.'))
                    .unwrap_or(false)
                {
                    continue;
                }
                any_use = true;
                if !use_is_read(ctx, j, hi) {
                    all_reads = false;
                    break;
                }
            }
            if any_use && all_reads {
                out.push(Finding {
                    id: LintId::D111,
                    file: f.file.clone(),
                    line: st.line,
                    message: format!(
                        "`{var}` is only ever read after `let {var} = {place}.clone()` in \
                         `{}`; borrow `{place}` instead of cloning it",
                        ws.qual(i)
                    ),
                });
            }
        }
    }
    out
}

/// Whether the use of the binding at token `k` is a pure read. Only
/// explicitly recognized read shapes count; anything ambiguous (a move,
/// an assignment, indexing that might be a store) justifies the clone.
fn use_is_read(ctx: &FileCtx, k: usize, hi: usize) -> bool {
    if let Some(p) = ctx.prev_code(k) {
        // `&mut var` and `let mut var` shadows are writes.
        if ctx.toks[p].is_ident("mut") {
            return false;
        }
        if ctx.toks[p].is_punct('&') {
            return true; // shared borrow
        }
    }
    let nx = ctx.next_code(k);
    if nx >= hi {
        return false; // trailing expression: the value is moved out
    }
    let n = &ctx.toks[nx];
    if n.is_punct('.') {
        let m = ctx.next_code(nx);
        if m < hi && ctx.toks[m].kind == TokKind::Ident {
            let name = ctx.toks[m].text.as_str();
            let mutating = MUTATORS.contains(&name)
                || name.starts_with("sort")
                || name.starts_with("into_")
                || name.ends_with("_mut")
                || matches!(
                    name,
                    "drain" | "take" | "pop" | "retain" | "dedup" | "split_off" | "reserve"
                );
            return !mutating;
        }
        return false;
    }
    // Comparisons read; `var = ...` writes; `var ==` reads.
    if n.is_punct('=') {
        return nx + 1 < hi && ctx.toks[nx + 1].is_punct('=');
    }
    if n.is_punct('<') || n.is_punct('>') {
        return true;
    }
    if n.is_punct('!') {
        return nx + 1 < hi && ctx.toks[nx + 1].is_punct('=');
    }
    false
}

/// The dotted place expression receiving `.clone()` at `idx`, rendered
/// for the message — `None` when the receiver crosses a call group (a
/// temporary no borrow could name).
fn place_receiver(ctx: &FileCtx, idx: usize, lo: usize) -> Option<String> {
    let j = ctx.prev_code(idx)?;
    if !ctx.toks[j].is_punct('.') {
        return None;
    }
    let mut names: Vec<String> = Vec::new();
    let mut j = j;
    while let Some(p) = ctx.prev_code(j) {
        if p < lo {
            break;
        }
        let t = &ctx.toks[p];
        if t.is_punct(')') {
            return None; // method-call receiver: a temporary
        }
        if t.is_punct(']') {
            // Step over the index group — indexing still names a place.
            let mut depth = 0i32;
            let mut q = p;
            loop {
                let u = &ctx.toks[q];
                if u.is_punct(']') {
                    depth += 1;
                } else if u.is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if q == 0 {
                    break;
                }
                q -= 1;
            }
            if q <= lo {
                break;
            }
            j = q;
            continue;
        }
        if t.kind == TokKind::Ident && (!is_keyword(&t.text) || t.is_ident("self")) {
            names.push(t.text.clone());
            match ctx.prev_code(p) {
                Some(pp) if pp >= lo && ctx.toks[pp].is_punct('.') => {
                    j = pp;
                    continue;
                }
                _ => break,
            }
        }
        break;
    }
    if names.is_empty() {
        None
    } else {
        names.reverse();
        Some(names.join("."))
    }
}

// ------------------------------------------------------------ D112 --

/// One scratch-structure construction site discovered in library code.
#[derive(Debug, Clone)]
pub struct ScratchSite {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the construction call.
    pub line: u32,
    /// The scratch type (`SetArena`, `ArenaPool`, ...).
    pub owner: String,
    /// The associated function constructing it (`new`, `build`, ...).
    pub ctor: String,
    /// Qualified function containing the construction.
    pub func: String,
    /// The `scratch(...)` reuse discipline, if declared.
    pub discipline: Option<String>,
    /// Whether the constructing function is reachable from the
    /// resolve/train/apply_updates spine.
    pub reachable: bool,
}

/// Type names that read as reusable scratch structures: arenas, pools,
/// caches, sweepers, and anything self-describing as scratch.
fn is_scratch_type(s: &str) -> bool {
    s.contains("Arena")
        || s.contains("Sweeper")
        || s.contains("Scratch")
        || s.ends_with("Pool")
        || s.ends_with("Cache")
}

/// All `scratch(...)` declarations in the file as `(line, discipline)`.
fn scratch_decls(ctx: &FileCtx) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for t in &ctx.toks {
        if t.kind != TokKind::Comment {
            continue;
        }
        let Some(pos) = t.text.find("distinct-lint:") else {
            continue;
        };
        let body = t.text[pos + "distinct-lint:".len()..].trim();
        if !body.starts_with("scratch") {
            continue;
        }
        if let Ok(d) = suppress::parse_scratch(body) {
            out.push((t.line, d));
        }
    }
    out
}

/// Scan library functions for scratch-structure constructions, pair them
/// with `scratch(...)` declarations, and mark spine reachability.
pub fn collect_scratch(graph: &CallGraph, ctxs: &[FileCtx]) -> Vec<ScratchSite> {
    let by_path: BTreeMap<&str, &FileCtx> = ctxs.iter().map(|c| (c.path.as_str(), c)).collect();
    let ws = &graph.ws;
    let parent = graph.reach(&spine_roots(graph), |_| true);
    let mut sites = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let Some((ctx, _span)) = site(&by_path, f) else {
            continue;
        };
        if !ctx.is_library() {
            continue;
        }
        let decls = scratch_decls(ctx);
        for c in &f.facts.calls {
            let Some(ty) = c.path.last() else { continue };
            if !is_scratch_type(ty) {
                continue;
            }
            let discipline = decls
                .iter()
                .find(|(dl, _)| *dl == c.line || *dl + 1 == c.line)
                .map(|(_, d)| d.clone());
            sites.push(ScratchSite {
                file: f.file.clone(),
                line: c.line,
                owner: ty.clone(),
                ctor: c.name.clone(),
                func: ws.qual(i),
                discipline,
                reachable: parent[i].is_some(),
            });
        }
    }
    sites.sort_by(|a, b| (&a.file, a.line, &a.owner).cmp(&(&b.file, b.line, &b.owner)));
    sites.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.owner == b.owner && a.ctor == b.ctor
    });
    sites
}

fn d112_scratch_registry(graph: &CallGraph, ctxs: &[FileCtx]) -> Vec<Finding> {
    let sites = collect_scratch(graph, ctxs);
    let mut out = Vec::new();
    for s in &sites {
        if s.reachable && s.discipline.is_none() {
            out.push(Finding {
                id: LintId::D112,
                file: s.file.clone(),
                line: s.line,
                message: format!(
                    "scratch structure `{}::{}(...)` constructed in `{}` on the \
                     resolve/update spine has no `// distinct-lint: \
                     scratch(<reuse-discipline>)` declaration",
                    s.owner, s.ctor, s.func
                ),
            });
        }
    }
    // Hygiene: a scratch(...) declaration adjacent to no construction is
    // as dead as an unused allow().
    for ctx in ctxs {
        if !ctx.is_library() {
            continue;
        }
        for (dl, _) in scratch_decls(ctx) {
            let covers = sites
                .iter()
                .any(|s| s.file == ctx.path && (s.line == dl || s.line == dl + 1));
            if !covers {
                out.push(Finding {
                    id: LintId::D000,
                    file: ctx.path.clone(),
                    line: dl,
                    message: "scratch(...) declaration matches no scratch-structure \
                              construction on this or the next line"
                        .into(),
                });
            }
        }
    }
    out
}

// ------------------------------------------------------------ D113 --

/// Capitalized identifiers appearing in each struct's field list,
/// per struct name — the "may hold a value of this type" relation used
/// to close over engine-held state. Generic parameters and std wrappers
/// ride along harmlessly: they only matter if a workspace struct shares
/// the name.
fn struct_field_types(by_path: &BTreeMap<&str, &FileCtx>) -> BTreeMap<String, BTreeSet<String>> {
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for ctx in by_path.values() {
        if !ctx.is_library() {
            continue;
        }
        let n = ctx.toks.len();
        for k in 0..n {
            if !ctx.toks[k].is_ident("struct") {
                continue;
            }
            let name_idx = ctx.next_code(k);
            if name_idx >= n || ctx.toks[name_idx].kind != TokKind::Ident {
                continue;
            }
            let name = ctx.toks[name_idx].text.clone();
            // Field list: the first `{...}` or `(...)` group before a
            // `;` (a unit struct has neither).
            let mut j = ctx.next_code(name_idx);
            let mut open = None;
            while j < n {
                let t = &ctx.toks[j];
                if t.is_punct('{') || t.is_punct('(') {
                    open = Some((j, if t.is_punct('{') { '}' } else { ')' }));
                    break;
                }
                if t.is_punct(';') {
                    break;
                }
                j = ctx.next_code(j);
            }
            let Some((open, close_ch)) = open else {
                continue;
            };
            let close = if close_ch == '}' {
                crate::cfg::match_brace_from(ctx, open, n)
            } else {
                crate::concur::match_paren(ctx, open, n)
            };
            let entry = out.entry(name).or_default();
            for t in &ctx.toks[open..close.min(n)] {
                if t.kind == TokKind::Ident && t.text.chars().next().is_some_and(char::is_uppercase)
                {
                    entry.insert(t.text.clone());
                }
            }
        }
    }
    out
}

/// Types the engine holds, transitively: the `impl` types of the spine
/// root functions, closed over the struct-field relation. A collection
/// inside one of these lives as long as the engine; a collection in a
/// per-call builder dies with its call and cannot leak.
fn held_types(graph: &CallGraph, by_path: &BTreeMap<&str, &FileCtx>) -> BTreeSet<String> {
    let fields = struct_field_types(by_path);
    let mut held: BTreeSet<String> = BTreeSet::new();
    let mut queue: Vec<String> = Vec::new();
    for &r in &spine_roots(graph) {
        if let Some(t) = &graph.ws.fns[r].impl_type {
            if held.insert(t.clone()) {
                queue.push(t.clone());
            }
        }
    }
    while let Some(t) = queue.pop() {
        let Some(inner) = fields.get(&t) else {
            continue;
        };
        for ty in inner {
            if fields.contains_key(ty) && held.insert(ty.clone()) {
                queue.push(ty.clone());
            }
        }
    }
    held
}

fn d113_unbounded_growth(graph: &CallGraph, by_path: &BTreeMap<&str, &FileCtx>) -> Vec<Finding> {
    let ws = &graph.ws;
    let parent = graph.reach(&spine_roots(graph), |_| true);
    let held = held_types(graph, by_path);
    // Pass 1: field names that some non-test code path shrinks, drains,
    // evicts, or replaces — anywhere in the workspace.
    let mut shrunk: BTreeSet<String> = BTreeSet::new();
    for f in ws.fns.iter() {
        if f.is_test {
            continue;
        }
        let Some((ctx, span)) = site(by_path, f) else {
            continue;
        };
        for c in &f.facts.calls {
            if c.is_method && (SHRINKERS.contains(&c.name.as_str()) || c.name.starts_with("evict"))
            {
                for r in receiver_chain(ctx, c.idx, span.body_start) {
                    shrunk.insert(r);
                }
            }
            // `mem::take(&mut self.field)` and friends: every identifier
            // in the argument list counts as replaced.
            if !c.is_method && matches!(c.name.as_str(), "take" | "replace" | "swap") {
                let open = ctx.next_code(c.idx);
                if open < ctx.toks.len() && ctx.toks[open].is_punct('(') {
                    let close = crate::concur::match_paren(ctx, open, span.end.min(ctx.toks.len()));
                    for t in &ctx.toks[open..close] {
                        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
                            shrunk.insert(t.text.clone());
                        }
                    }
                }
            }
        }
        // Plain reassignment `self.field = ...` replaces the collection.
        let hi = span.end.min(ctx.toks.len());
        let mut k = span.body_start;
        while k < hi {
            if ctx.toks[k].is_ident("self") {
                let d = ctx.next_code(k);
                if d < hi && ctx.toks[d].is_punct('.') {
                    let fld = ctx.next_code(d);
                    if fld < hi && ctx.toks[fld].kind == TokKind::Ident {
                        let eq = ctx.next_code(fld);
                        if eq < hi
                            && ctx.toks[eq].is_punct('=')
                            && !(eq + 1 < hi && ctx.toks[eq + 1].is_punct('='))
                        {
                            shrunk.insert(ctx.toks[fld].text.clone());
                        }
                    }
                }
            }
            k += 1;
        }
    }
    // Pass 2: growth on the spine against the shrink registry.
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut out = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test || parent[i].is_none() {
            continue;
        }
        let Some((ctx, span)) = site(by_path, f) else {
            continue;
        };
        if !ctx.is_library() {
            continue;
        }
        for c in &f.facts.calls {
            if !c.is_method || !GROWERS.contains(&c.name.as_str()) {
                continue;
            }
            let chain = receiver_chain(ctx, c.idx, span.body_start);
            if chain.len() < 2 || chain.last().map(String::as_str) != Some("self") {
                continue;
            }
            let field = &chain[chain.len() - 2];
            if shrunk.contains(field) {
                continue;
            }
            // Only state the engine holds across calls can leak; a
            // per-call builder's collections die with the call.
            let Some(owner) = &f.impl_type else { continue };
            if !held.contains(owner) {
                continue;
            }
            if !seen.insert((owner.clone(), field.clone())) {
                continue;
            }
            out.push(Finding {
                id: LintId::D113,
                file: f.file.clone(),
                line: c.line,
                message: format!(
                    "collection `{owner}.{field}` grows via `.{}()` on the update/resolve \
                     spine but no library code path ever clears, evicts, or replaces it",
                    c.name
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Role;
    use crate::symbols::Workspace;

    fn graph_of(files: &[(&str, &str, &str)]) -> (Vec<FileCtx>, CallGraph) {
        let ctxs: Vec<FileCtx> = files
            .iter()
            .map(|(path, krate, src)| FileCtx::new(path, krate, Role::Library, src))
            .collect();
        let refs: Vec<&FileCtx> = ctxs.iter().collect();
        let dirs: BTreeSet<String> = files.iter().map(|(_, k, _)| k.to_string()).collect();
        let mut closures = BTreeMap::new();
        for d in &dirs {
            closures.insert(d.clone(), dirs.clone());
        }
        let ws = Workspace::build(&refs, BTreeMap::new(), closures);
        (ctxs, CallGraph::build(ws))
    }

    fn run_ids(files: &[(&str, &str, &str)]) -> Vec<(LintId, u32)> {
        let (ctxs, graph) = graph_of(files);
        run(&graph, &ctxs)
            .into_iter()
            .map(|f| (f.id, f.line))
            .collect()
    }

    #[test]
    fn d110_format_macro_in_charged_loop_fires() {
        let found = run_ids(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn resolve_all(ctl: &C, items: &[u32]) {\n\
             ctl.charge(1);\n\
             for i in items {\n\
             let label = format!(\"n{i}\");\n\
             use_it(&label);\n\
             }\n\
             }\n\
             fn use_it(_s: &str) {}\n",
        )]);
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D110 && line == 4),
            "{found:?}"
        );
    }

    #[test]
    fn d110_collect_in_charged_loop_fires_but_uncharged_fn_is_clean() {
        let src = "pub fn resolve_all(ctl: &C, items: &[Vec<u32>]) {\n\
             ctl.charge(1);\n\
             for v in items {\n\
             let doubled: Vec<u32> = v.iter().map(|x| x * 2).collect();\n\
             use_it(&doubled);\n\
             }\n\
             }\n\
             pub fn cold(items: &[Vec<u32>]) {\n\
             for v in items {\n\
             let doubled: Vec<u32> = v.iter().map(|x| x * 2).collect();\n\
             use_it(&doubled);\n\
             }\n\
             }\n\
             fn use_it(_v: &[u32]) {}\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D110 && line == 4),
            "{found:?}"
        );
        assert!(
            !found
                .iter()
                .any(|&(id, line)| id == LintId::D110 && line == 10),
            "{found:?}"
        );
    }

    #[test]
    fn d110_growth_by_push_fires_and_with_capacity_kills() {
        let src = "pub fn resolve_all(ctl: &C, items: &[u32]) {\n\
             ctl.charge(1);\n\
             let mut out = Vec::new();\n\
             let mut sized = Vec::with_capacity(items.len());\n\
             for i in items {\n\
             out.push(*i);\n\
             sized.push(*i);\n\
             }\n\
             use_it(&out, &sized);\n\
             }\n\
             fn use_it(_a: &[u32], _b: &[u32]) {}\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D110 && line == 3),
            "{found:?}"
        );
        assert!(
            !found
                .iter()
                .any(|&(id, line)| id == LintId::D110 && line == 4),
            "{found:?}"
        );
    }

    #[test]
    fn d110_hoisted_cleared_buffer_is_clean() {
        let src = "pub fn resolve_all(ctl: &C, items: &[u32]) {\n\
             ctl.charge(1);\n\
             let mut buf = Vec::new();\n\
             for i in items {\n\
             buf.clear();\n\
             buf.push(*i);\n\
             use_it(&buf);\n\
             }\n\
             }\n\
             fn use_it(_v: &[u32]) {}\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        assert!(
            !found.iter().any(|&(id, _)| id == LintId::D110),
            "{found:?}"
        );
    }

    #[test]
    fn d111_read_only_clone_fires() {
        let src = "pub fn resolve_all(m: &M) -> usize {\n\
             let names = m.names.clone();\n\
             let mut n = 0;\n\
             for v in &names {\n\
             n += score(v);\n\
             }\n\
             n\n\
             }\n\
             fn score(_v: &u32) -> usize { 1 }\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D111 && line == 2),
            "{found:?}"
        );
    }

    #[test]
    fn d110_allocation_in_return_statement_is_cold() {
        let src = "pub fn resolve_all(ctl: &C, items: &[u32]) -> Result<u32, String> {\n\
             ctl.charge(1);\n\
             for i in items {\n\
             if *i > 9 {\n\
             return Err(format!(\"bad {i}\"));\n\
             }\n\
             }\n\
             Ok(0)\n\
             }\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        assert!(
            !found.iter().any(|&(id, _)| id == LintId::D110),
            "{found:?}"
        );
    }

    #[test]
    fn d111_clone_nested_in_call_args_is_not_the_binding() {
        // The binding's value is the `collect()`, not the closure's clone —
        // borrowing the receiver would not remove the per-item clones.
        let src = "pub fn resolve_all(items: &[M]) -> usize {\n\
             let names: Vec<String> = items.iter().map(|v| v.name.clone()).collect();\n\
             names.len()\n\
             }\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        assert!(
            !found.iter().any(|&(id, _)| id == LintId::D111),
            "{found:?}"
        );
    }

    #[test]
    fn d111_mutated_or_moved_clone_is_clean() {
        let src = "pub fn resolve_all(m: &M) -> Vec<u32> {\n\
             let mut grown = m.names.clone();\n\
             grown.push(1);\n\
             let moved = m.names.clone();\n\
             consume(moved);\n\
             grown\n\
             }\n\
             fn consume(_v: Vec<u32>) {}\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        assert!(
            !found.iter().any(|&(id, _)| id == LintId::D111),
            "{found:?}"
        );
    }

    #[test]
    fn d112_undeclared_spine_scratch_fires_and_declared_is_clean() {
        let src = "pub fn resolve_all(sets: &[S]) -> u32 {\n\
             let arena = SetArena::build(sets);\n\
             // distinct-lint: scratch(pooled per worker: rebuilt in place with identical inputs)\n\
             let pool = ArenaPool::new();\n\
             arena.rows() + pool.len()\n\
             }\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D112 && line == 2),
            "{found:?}"
        );
        assert!(
            !found
                .iter()
                .any(|&(id, line)| id == LintId::D112 && line == 4),
            "{found:?}"
        );
    }

    #[test]
    fn d112_off_spine_construction_is_registered_but_not_flagged() {
        let src = "pub fn setup() -> u32 {\n\
             let arena = SetArena::build(&[]);\n\
             arena.rows()\n\
             }\n";
        let (ctxs, graph) = graph_of(&[("crates/core/src/a.rs", "core", src)]);
        let findings = run(&graph, &ctxs);
        assert!(
            !findings.iter().any(|f| f.id == LintId::D112),
            "{findings:?}"
        );
        let sites = collect_scratch(&graph, &ctxs);
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].reachable);
        assert_eq!(sites[0].owner, "SetArena");
    }

    #[test]
    fn d112_dangling_scratch_declaration_is_d000() {
        let src = "// distinct-lint: scratch(no construction here)\n\
             pub fn resolve_all() -> u32 { 0 }\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D000 && line == 1),
            "{found:?}"
        );
    }

    #[test]
    fn d113_spine_growth_without_shrink_fires() {
        let src = "impl Engine {\n\
             pub fn resolve_all(&mut self, k: u32) {\n\
             self.log.push(k);\n\
             }\n\
             }\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D113 && line == 3),
            "{found:?}"
        );
    }

    #[test]
    fn d113_shrink_anywhere_discharges_the_field() {
        let src = "impl Engine {\n\
             pub fn resolve_all(&mut self, k: u32) {\n\
             self.log.push(k);\n\
             }\n\
             pub fn evict(&mut self) {\n\
             self.log.clear();\n\
             }\n\
             }\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        assert!(
            !found.iter().any(|&(id, _)| id == LintId::D113),
            "{found:?}"
        );
    }

    #[test]
    fn d113_per_call_builder_is_not_engine_state() {
        let src = "pub struct Engine { catalog: Catalog }\n\
             impl Engine {\n\
             pub fn resolve_all(&mut self, k: u32) {\n\
             let mut b = RowBuilder::new();\n\
             b.add(k);\n\
             self.catalog.log(k);\n\
             }\n\
             }\n\
             pub struct Catalog { items: Vec<u32> }\n\
             impl Catalog {\n\
             pub fn log(&mut self, k: u32) {\n\
             self.items.push(k);\n\
             }\n\
             }\n\
             pub struct RowBuilder { rows: Vec<u32> }\n\
             impl RowBuilder {\n\
             pub fn new() -> Self {\n\
             RowBuilder { rows: Vec::new() }\n\
             }\n\
             pub fn add(&mut self, k: u32) {\n\
             self.rows.push(k);\n\
             }\n\
             }\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        // `Catalog` is held (a field of the spine root's `Engine`), so its
        // growth fires; `RowBuilder` is per-call state, so its growth
        // cannot outlive the resolve and stays clean.
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D113 && line == 12),
            "{found:?}"
        );
        assert!(
            !found
                .iter()
                .any(|&(id, line)| id == LintId::D113 && line == 21),
            "{found:?}"
        );
    }

    #[test]
    fn facts_json_renders_scratch_sites() {
        let (ctxs, graph) = graph_of(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn resolve_all(sets: &[S]) -> u32 {\n\
             // distinct-lint: scratch(rebuilt in place per call)\n\
             let arena = SetArena::build(sets);\n\
             arena.rows()\n\
             }\n",
        )]);
        let facts = crate::concur::collect_facts(&graph, &ctxs);
        let json = crate::concur::facts_json(&facts);
        assert!(json.contains("\"scratch\""), "{json}");
        assert!(json.contains("\"owner\": \"SetArena\""), "{json}");
        assert!(json.contains("rebuilt in place per call"), "{json}");
    }
}
