//! Determinism & concurrency dataflow passes (D106–D109) plus the
//! shared-state facts registry behind `distinct-lint facts`.
//!
//! All four passes run on statement-level CFGs ([`crate::cfg`]) with the
//! forward may/must framework ([`crate::dataflow`]), against the same
//! call graph the D101–D104 passes use:
//!
//! - **D106 guard liveness** — a lock guard must not be *may-live* at any
//!   statement that submits to the exec pool, touches a channel, or calls
//!   a function that transitively does. Gen at the acquiring statement,
//!   kill at `drop(binding)`; the guard's lexical scope bounds the walk.
//! - **D107 determinism taint** — values born from unordered hash
//!   iteration, thread-count reads, or channel-arrival order must not
//!   reach f64 accumulation, `ExecReport`/`ParStats` counters, checkpoint
//!   writes, or clustering inputs. A `.sort*()` on the carrying binding
//!   kills the taint (the ordered-commit discipline).
//! - **D108 shared-state registry** — every interior-mutability cell
//!   (Mutex/RwLock/atomics/Cell/RefCell) declared as a field or static
//!   and reachable from the resolve/train/apply_updates spine must carry
//!   a `// distinct-lint: shared(<merge-discipline>)` declaration.
//! - **D109 send-across-commit** — closures handed to the exec pool must
//!   not mutate captured state; results travel through return values or
//!   channel sends and are committed in input order by the pool.

use crate::callgraph::CallGraph;
use crate::catalog::{Finding, LintId};
use crate::cfg::Cfg;
use crate::dataflow::{forward, GenKill, Join};
use crate::lexer::TokKind;
use crate::model::{FileCtx, FnSpan};
use crate::parse::{is_keyword, FnDef};
use crate::suppress;
use std::collections::{BTreeMap, BTreeSet};

/// Calls that hand work (and captured state) to another thread: the exec
/// pool primitives plus raw `spawn` (already fenced by D003, but a guard
/// held across one is a D106 regardless of who spawned).
const POOL_SUBMITS: [&str; 4] = ["par_map_guarded", "par_map_indexed", "par_chunks", "spawn"];

/// Run every concurrency pass. Called from [`crate::callgraph::run_semantic`].
pub fn run(graph: &CallGraph, ctxs: &[FileCtx]) -> Vec<Finding> {
    let by_path: BTreeMap<&str, &FileCtx> = ctxs.iter().map(|c| (c.path.as_str(), c)).collect();
    let b = boundaries(graph);
    let mut out = Vec::new();
    out.extend(d106_guard_liveness(graph, &by_path, &b));
    out.extend(d107_determinism_taint(graph, &by_path));
    out.extend(d108_shared_registry(graph, ctxs));
    out.extend(d109_send_across_commit(graph, &by_path));
    out
}

/// The (ctx, span) pair backing a symbol-table function, matched by file
/// path plus the `fn` keyword's line.
pub(crate) fn site<'a>(
    by_path: &BTreeMap<&str, &'a FileCtx>,
    f: &FnDef,
) -> Option<(&'a FileCtx, &'a FnSpan)> {
    let ctx = by_path.get(f.file.as_str())?;
    let span = ctx
        .fns
        .iter()
        .find(|s| s.line == f.line && s.name == f.name)?;
    Some((*ctx, span))
}

// ----------------------------------------------------- pool boundaries --

/// Which functions (transitively) hit a pool/channel boundary, what makes
/// each a boundary directly, and a witness callee for transitive ones.
struct Boundaries {
    reaches: Vec<bool>,
    direct: Vec<Option<String>>,
    via: Vec<Option<usize>>,
}

fn boundaries(graph: &CallGraph) -> Boundaries {
    let ws = &graph.ws;
    let n = ws.fns.len();
    let mut direct: Vec<Option<String>> = vec![None; n];
    for (i, f) in ws.fns.iter().enumerate() {
        if let Some(c) = f
            .facts
            .calls
            .iter()
            .find(|c| POOL_SUBMITS.contains(&c.name.as_str()))
        {
            direct[i] = Some(format!("`{}`", c.name));
        } else if !f.facts.sends.is_empty() {
            direct[i] = Some("a channel send".into());
        } else if !f.facts.recvs.is_empty() {
            direct[i] = Some("a channel recv".into());
        }
    }
    let mut reaches: Vec<bool> = direct.iter().map(|d| d.is_some()).collect();
    let mut via: Vec<Option<usize>> = vec![None; n];
    // Callee→caller fixpoint; flags only flip false→true, so it terminates.
    loop {
        let mut changed = false;
        for i in 0..n {
            if reaches[i] {
                continue;
            }
            if let Some(&j) = graph.edges[i].iter().find(|&&j| reaches[j]) {
                reaches[i] = true;
                via[i] = Some(j);
                changed = true;
            }
        }
        if !changed {
            return Boundaries {
                reaches,
                direct,
                via,
            };
        }
    }
}

/// Human-readable call chain from `j` down to the concrete boundary.
fn boundary_trail(graph: &CallGraph, b: &Boundaries, j: usize) -> String {
    let mut names = Vec::new();
    let mut cur = j;
    for _ in 0..8 {
        names.push(graph.ws.qual(cur));
        match (&b.direct[cur], b.via[cur]) {
            (Some(what), _) => return format!("{} ({what})", names.join(" → ")),
            (None, Some(next)) => cur = next,
            (None, None) => break,
        }
    }
    format!("{} (a pool boundary)", names.join(" → "))
}

// ------------------------------------------------------------ D106 --

fn d106_guard_liveness(
    graph: &CallGraph,
    by_path: &BTreeMap<&str, &FileCtx>,
    b: &Boundaries,
) -> Vec<Finding> {
    let ws = &graph.ws;
    let mut out = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test || f.facts.locks.is_empty() {
            continue;
        }
        let Some((ctx, span)) = site(by_path, f) else {
            continue;
        };
        let cfg = Cfg::build(ctx, span);
        for lock in &f.facts.locks {
            match &lock.binding {
                None => {
                    // Inline guard: the temporary lives to the end of its
                    // full statement, so the whole statement is suspect.
                    let (lo, hi) = match cfg.stmt_of(lock.idx) {
                        Some(s) => (cfg.stmts[s].lo, cfg.stmts[s].hi),
                        None => (lock.idx, lock.hold_end + 1),
                    };
                    if let Some(hit) = boundary_in_range(graph, b, i, f, lo, hi) {
                        out.push(Finding {
                            id: LintId::D106,
                            file: f.file.clone(),
                            line: lock.line,
                            message: format!(
                                "temporary guard on `{}` in `{}` is live across {hit}; \
                                 bind and drop it before the pool boundary",
                                lock.label,
                                ws.qual(i)
                            ),
                        });
                    }
                }
                Some(binding) => {
                    let Some(gen_stmt) = cfg.stmt_of(lock.idx) else {
                        continue;
                    };
                    let scope_end = enclosing_block_end(ctx, span, lock.idx);
                    let n = cfg.stmts.len();
                    let mut gk = GenKill::new(n);
                    gk.gen[gen_stmt].insert(binding.clone());
                    for c in &f.facts.calls {
                        if c.name == "drop" && !c.is_method && drops_binding(ctx, c.idx, binding) {
                            if let Some(s) = cfg.stmt_of(c.idx) {
                                gk.kill[s].insert(binding.clone());
                            }
                        }
                    }
                    let flow = forward(&cfg, &gk, Join::May);
                    for s in 0..n {
                        let st = &cfg.stmts[s];
                        if st.lo >= scope_end || !flow.during(s).contains(binding) {
                            continue;
                        }
                        // The guard dies inside a killing statement; don't
                        // charge the drop itself.
                        if gk.kill[s].contains(binding) && !gk.gen[s].contains(binding) {
                            continue;
                        }
                        if let Some(hit) = boundary_in_range(graph, b, i, f, st.lo, st.hi) {
                            out.push(Finding {
                                id: LintId::D106,
                                file: f.file.clone(),
                                line: st.line,
                                message: format!(
                                    "guard `{binding}` on `{}` (acquired line {}) in `{}` is \
                                     live across {hit}; drop it before the pool boundary",
                                    lock.label,
                                    lock.line,
                                    ws.qual(i)
                                ),
                            });
                            break; // one finding per guard
                        }
                    }
                }
            }
        }
    }
    out
}

/// Whether `drop(` at call index `idx` names exactly `binding`.
fn drops_binding(ctx: &FileCtx, idx: usize, binding: &str) -> bool {
    let open = ctx.next_code(idx);
    if open >= ctx.toks.len() || !ctx.toks[open].is_punct('(') {
        return false;
    }
    let arg = ctx.next_code(open);
    arg < ctx.toks.len() && ctx.toks[arg].is_ident(binding)
}

/// First pool/channel boundary inside token range `[lo, hi)` of `fns[i]`:
/// a direct send/recv, a direct pool-primitive call, or a call whose
/// callee transitively reaches one. Returns the message fragment.
fn boundary_in_range(
    graph: &CallGraph,
    b: &Boundaries,
    i: usize,
    f: &FnDef,
    lo: usize,
    hi: usize,
) -> Option<String> {
    if f.facts.sends.iter().any(|&(_, idx)| lo <= idx && idx < hi) {
        return Some("a channel send".into());
    }
    if f.facts.recvs.iter().any(|&(_, idx)| lo <= idx && idx < hi) {
        return Some("a channel recv".into());
    }
    for c in &f.facts.calls {
        if c.idx < lo || c.idx >= hi {
            continue;
        }
        if POOL_SUBMITS.contains(&c.name.as_str()) {
            return Some(format!("a `{}` pool submit", c.name));
        }
        for j in graph.ws.resolve(i, c) {
            if b.reaches[j] {
                return Some(format!(
                    "a call to `{}`, which reaches {}",
                    c.name,
                    boundary_trail(graph, b, j)
                ));
            }
        }
    }
    None
}

/// Token index of the `}` closing the innermost block containing `idx`.
fn enclosing_block_end(ctx: &FileCtx, f: &FnSpan, idx: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    let hi = f.end.min(ctx.toks.len());
    let mut k = f.body_start;
    while k < hi {
        let t = &ctx.toks[k];
        if matches!(t.kind, TokKind::Comment | TokKind::DocComment) {
            k += 1;
            continue;
        }
        if t.is_punct('{') {
            stack.push(k);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                // Scanning forward, the first close whose open precedes
                // `idx` is the innermost enclosing block.
                if open <= idx && idx < k {
                    return k;
                }
            }
        }
        k += 1;
    }
    f.end
}

// ------------------------------------------------------------ D107 --

fn d107_determinism_taint(graph: &CallGraph, by_path: &BTreeMap<&str, &FileCtx>) -> Vec<Finding> {
    let ws = &graph.ws;
    let mut out = Vec::new();
    let mut hash_cache: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in ws.fns.iter() {
        if f.is_test {
            continue;
        }
        let Some((ctx, span)) = site(by_path, f) else {
            continue;
        };
        let hashes = hash_cache
            .entry(ctx.path.clone())
            .or_insert_with(|| file_hash_bindings(ctx))
            .clone();
        taint_fn(ctx, span, f, &hashes, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    out
}

/// Per-function taint: seed sources, propagate through `let`s and `for`
/// headers to a fixpoint, then test each statement's sinks.
fn taint_fn(
    ctx: &FileCtx,
    span: &FnSpan,
    f: &FnDef,
    hashes: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    let cfg = Cfg::build(ctx, span);
    let n = cfg.stmts.len();
    if n == 0 {
        return;
    }
    let chans = channel_bindings(ctx, span);
    let mut gk = GenKill::new(n);
    // Where each tainted binding came from, for the finding message.
    let mut origin: BTreeMap<String, String> = BTreeMap::new();
    // Static kills: `.sort*()` on a binding re-orders it deterministically.
    for s in 0..n {
        let st = &cfg.stmts[s];
        for c in &f.facts.calls {
            if c.idx >= st.lo && c.idx < st.hi && c.is_method && c.name.starts_with("sort") {
                for r in receiver_chain(ctx, c.idx, st.lo) {
                    gk.kill[s].insert(r);
                }
            }
        }
    }
    // Seed direct sources.
    for s in 0..n {
        let st = &cfg.stmts[s];
        if stmt_has_orderer(ctx, st.lo, st.hi) {
            continue;
        }
        let mut src: Option<(u32, String)> = None;
        for c in &f.facts.calls {
            if c.idx < st.lo || c.idx >= st.hi {
                continue;
            }
            if c.is_method && is_unordered_iter(&c.name) {
                let recv = receiver_chain(ctx, c.idx, st.lo);
                if recv.iter().any(|r| hashes.contains(r)) {
                    src = Some((c.line, "unordered hash-map iteration".into()));
                } else if recv.iter().any(|r| chans.contains(r)) {
                    src = Some((c.line, "channel arrival order".into()));
                }
            } else if c.name == "available_parallelism" || c.name == "auto_threads" {
                src = Some((c.line, "the thread count".into()));
            } else if c.name == "var" && names_threads_env(ctx, c.idx) {
                src = Some((c.line, "the thread-count environment override".into()));
            }
        }
        if let Some(&(line, _)) = f
            .facts
            .recvs
            .iter()
            .find(|&&(_, idx)| idx >= st.lo && idx < st.hi)
        {
            src = Some((line, "channel arrival order".into()));
        }
        let Some((src_line, src)) = src else { continue };
        for var in bound_vars(ctx, st.lo, st.hi) {
            origin.entry(var.clone()).or_insert_with(|| src.clone());
            gk.gen[s].insert(var);
        }
        // Single-statement source → sink chains have no binding to track.
        if let Some(sink) = immediate_sink(ctx, f, st.lo, st.hi) {
            out.push(Finding {
                id: LintId::D107,
                file: f.file.clone(),
                line: src_line,
                message: format!(
                    "{src} flows straight into {sink} in `{}`; sort or commit in input order first",
                    f.name
                ),
            });
        }
    }
    // Propagate through assignments until the gen sets stop growing.
    loop {
        let flow = forward(&cfg, &gk, Join::May);
        let mut changed = false;
        for s in 0..n {
            let st = &cfg.stmts[s];
            if stmt_has_orderer(ctx, st.lo, st.hi) {
                continue;
            }
            let live = flow.during(s);
            if live.is_empty() {
                continue;
            }
            let Some(used) = stmt_idents(ctx, st.lo, st.hi)
                .into_iter()
                .find(|t| live.contains(t))
            else {
                continue;
            };
            for var in bound_vars(ctx, st.lo, st.hi) {
                if !gk.gen[s].contains(&var) {
                    let via = format!("`{used}` (from {})", origin_of(&origin, &used));
                    origin.entry(var.clone()).or_insert(via);
                    gk.gen[s].insert(var);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Sinks.
    let flow = forward(&cfg, &gk, Join::May);
    for s in 0..n {
        let st = &cfg.stmts[s];
        let live = flow.during(s);
        if live.is_empty() {
            continue;
        }
        let tainted: Vec<String> = stmt_idents(ctx, st.lo, st.hi)
            .into_iter()
            .filter(|t| live.contains(t))
            .collect();
        let Some(first) = tainted.first().cloned() else {
            continue;
        };
        if let Some(sink) = stmt_sink(ctx, span, f, st.lo, st.hi, &tainted) {
            out.push(Finding {
                id: LintId::D107,
                file: f.file.clone(),
                line: st.line,
                message: format!(
                    "`{first}` carries {} and reaches {sink} in `{}`; \
                     sort or commit in input order before folding",
                    origin_of(&origin, &first),
                    f.name
                ),
            });
        }
    }
    // Counter-struct sink: an ExecReport/ParStats literal built from a
    // tainted part. Checked over the literal's brace span because the CFG
    // splits statements at depth-0 braces.
    let len = ctx.toks.len();
    for k in span.body_start..span.end.min(len) {
        let t = &ctx.toks[k];
        if !(t.is_ident("ExecReport") || t.is_ident("ParStats")) {
            continue;
        }
        let open = ctx.next_code(k);
        if open >= len || !ctx.toks[open].is_punct('{') {
            continue;
        }
        let close = crate::cfg::match_brace_from(ctx, open, span.end.min(len));
        for j in open..close {
            let u = &ctx.toks[j];
            if u.kind != TokKind::Ident {
                continue;
            }
            let Some(s) = cfg.stmt_of(j) else { continue };
            if flow.during(s).contains(&u.text) {
                out.push(Finding {
                    id: LintId::D107,
                    file: f.file.clone(),
                    line: u.line,
                    message: format!(
                        "`{}` carries {} into `{}` counters in `{}`; \
                         nondeterministic values must not shape the report",
                        u.text,
                        origin_of(&origin, &u.text),
                        t.text,
                        f.name
                    ),
                });
                break;
            }
        }
    }
}

fn origin_of(origin: &BTreeMap<String, String>, var: &str) -> String {
    origin
        .get(var)
        .cloned()
        .unwrap_or_else(|| "a nondeterministic source".into())
}

fn is_unordered_iter(name: &str) -> bool {
    matches!(
        name,
        "iter" | "iter_mut" | "into_iter" | "keys" | "values" | "values_mut" | "drain" | "try_iter"
    )
}

fn is_hash_type(s: &str) -> bool {
    matches!(s, "HashMap" | "HashSet" | "FxHashMap" | "FxHashSet")
}

/// Whether the statement already imposes an order (sorting, an ordered
/// container) — such statements neither seed nor propagate taint.
fn stmt_has_orderer(ctx: &FileCtx, lo: usize, hi: usize) -> bool {
    ctx.toks[lo..hi.min(ctx.toks.len())].iter().any(|t| {
        t.kind == TokKind::Ident
            && (t.text.starts_with("sort")
                || t.text == "BTreeMap"
                || t.text == "BTreeSet"
                || t.text == "BinaryHeap")
    })
}

/// All identifier texts in a statement (code tokens only).
pub(crate) fn stmt_idents(ctx: &FileCtx, lo: usize, hi: usize) -> Vec<String> {
    ctx.toks[lo..hi.min(ctx.toks.len())]
        .iter()
        .filter(|t| t.kind == TokKind::Ident && !is_keyword(&t.text))
        .map(|t| t.text.clone())
        .collect()
}

/// Variables a statement binds: `let [mut] x`, `let (a, b)`, or a `for`
/// header's loop pattern.
pub(crate) fn bound_vars(ctx: &FileCtx, lo: usize, hi: usize) -> Vec<String> {
    let hi = hi.min(ctx.toks.len());
    let mut vars = Vec::new();
    let mut k = lo;
    while k < hi && matches!(ctx.toks[k].kind, TokKind::Comment | TokKind::DocComment) {
        k += 1;
    }
    if k >= hi {
        return vars;
    }
    let (stop_at_in, start) = if ctx.toks[k].is_ident("let") {
        (false, ctx.next_code(k))
    } else if ctx.toks[k].is_ident("for") {
        (true, ctx.next_code(k))
    } else {
        return vars;
    };
    let mut j = start;
    while j < hi {
        let t = &ctx.toks[j];
        if t.is_punct('=') || (stop_at_in && t.is_ident("in")) {
            break;
        }
        // Stop at a type ascription's `:` (but step over `::` paths).
        if t.is_punct(':') {
            let nx = ctx.next_code(j);
            if nx < hi && ctx.toks[nx].is_punct(':') {
                j = ctx.next_code(nx);
                continue;
            }
            break;
        }
        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
            vars.push(t.text.clone());
        }
        j = ctx.next_code(j);
    }
    vars
}

/// The receiver chain's identifiers, walking back from the method-name
/// token at `idx` across `.`-joined segments, index and call groups.
pub(crate) fn receiver_chain(ctx: &FileCtx, idx: usize, lo: usize) -> Vec<String> {
    let mut names = Vec::new();
    let Some(mut j) = ctx.prev_code(idx) else {
        return names;
    };
    // idx names the method; prev must be the `.`.
    if !ctx.toks[j].is_punct('.') {
        return names;
    }
    while let Some(p) = ctx.prev_code(j) {
        if p < lo {
            break;
        }
        let t = &ctx.toks[p];
        if t.is_punct(')') || t.is_punct(']') {
            // Skip the bracketed group.
            let (open, close) = if t.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 0i32;
            let mut q = p;
            loop {
                let u = &ctx.toks[q];
                if u.is_punct(close) {
                    depth += 1;
                } else if u.is_punct(open) {
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
        if t.kind == TokKind::Ident {
            if !is_keyword(&t.text) {
                names.push(t.text.clone());
            }
            let Some(pp) = ctx.prev_code(p) else { break };
            if ctx.toks[pp].is_punct('.') {
                j = pp;
                continue;
            }
        }
        break;
    }
    names
}

/// Bindings whose declaration mentions a hash container anywhere in the
/// file — `let` statements, parameters, and struct fields alike (a field
/// read through `self.name` then matches by name).
fn file_hash_bindings(ctx: &FileCtx) -> BTreeSet<String> {
    let toks = &ctx.toks;
    let n = toks.len();
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    while i < n {
        if toks[i].is_ident("let") {
            let mut j = ctx.next_code(i);
            if j < n && toks[j].is_ident("mut") {
                j = ctx.next_code(j);
            }
            if j < n && toks[j].kind == TokKind::Ident {
                let name = &toks[j].text;
                let mut k = j;
                let mut depth = 0i32;
                while k < n {
                    let t = &toks[k];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    } else if depth == 0 && t.is_punct(';') {
                        break;
                    } else if t.kind == TokKind::Ident && is_hash_type(&t.text) {
                        out.insert(name.clone());
                        break;
                    }
                    k += 1;
                }
            }
        } else if toks[i].kind == TokKind::Ident && !is_keyword(&toks[i].text) {
            // `name : [& mut] [path ::] FxHashMap` — parameter or field.
            let j = ctx.next_code(i);
            if j < n && toks[j].is_punct(':') && {
                let nx = ctx.next_code(j);
                !(nx < n && toks[nx].is_punct(':'))
            } {
                let mut k = ctx.next_code(j);
                for _ in 0..8 {
                    if k >= n {
                        break;
                    }
                    let t = &toks[k];
                    if t.is_punct('&') || t.is_ident("mut") || t.is_punct(':') {
                        k = ctx.next_code(k);
                    } else if t.kind == TokKind::Ident && is_hash_type(&t.text) {
                        out.insert(toks[i].text.clone());
                        break;
                    } else if t.kind == TokKind::Ident {
                        let nx = ctx.next_code(k);
                        if nx < n && toks[nx].is_punct(':') {
                            k = nx;
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// Bindings bound from an `mpsc::channel()` tuple inside this function —
/// iterating one yields values in nondeterministic arrival order.
fn channel_bindings(ctx: &FileCtx, span: &FnSpan) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let hi = span.end.min(ctx.toks.len());
    let mut i = span.body_start;
    while i < hi {
        if ctx.toks[i].is_ident("channel") || ctx.toks[i].is_ident("sync_channel") {
            // Walk back to the `let` of this statement and take the
            // second tuple element (the receiver half).
            let mut j = i;
            let mut back = 0;
            while j > span.body_start && back < 24 {
                j -= 1;
                back += 1;
                let t = &ctx.toks[j];
                if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                    break;
                }
                if t.is_ident("let") {
                    let vars: Vec<String> = bound_vars(ctx, j, i);
                    if let Some(rx) = vars.last() {
                        out.insert(rx.clone());
                    }
                    break;
                }
            }
        }
        i += 1;
    }
    out
}

/// `var(THREADS_ENV)` — the env-override read of the worker count.
fn names_threads_env(ctx: &FileCtx, call_idx: usize) -> bool {
    let open = ctx.next_code(call_idx);
    if open >= ctx.toks.len() || !ctx.toks[open].is_punct('(') {
        return false;
    }
    let arg = ctx.next_code(open);
    arg < ctx.toks.len() && ctx.toks[arg].is_ident("THREADS_ENV")
}

/// An accumulation sink inside the same statement as its source
/// (`m.values().map(..).sum()` — no binding ever carries the taint).
fn immediate_sink(ctx: &FileCtx, f: &FnDef, lo: usize, hi: usize) -> Option<&'static str> {
    for c in &f.facts.calls {
        if c.idx >= lo && c.idx < hi && c.is_method {
            match c.name.as_str() {
                "sum" | "product" => return Some("a float fold"),
                "fold" | "reduce" => return Some("an order-dependent fold"),
                _ => {}
            }
        }
    }
    let _ = ctx;
    None
}

/// A deterministic sink this statement feeds `tainted` values into.
fn stmt_sink(
    ctx: &FileCtx,
    span: &FnSpan,
    f: &FnDef,
    lo: usize,
    hi: usize,
    tainted: &[String],
) -> Option<String> {
    let hi = hi.min(ctx.toks.len());
    // Compound accumulation with a tainted right-hand side.
    let mut k = lo;
    while k + 1 < hi {
        let t = &ctx.toks[k];
        if (t.is_punct('+') || t.is_punct('-') || t.is_punct('*') || t.is_punct('/'))
            && ctx.toks[k + 1].is_punct('=')
        {
            let rhs_tainted = ctx.toks[k + 2..hi]
                .iter()
                .any(|u| u.kind == TokKind::Ident && tainted.iter().any(|v| v == &u.text));
            if rhs_tainted {
                return Some("a running accumulation (`+=`)".into());
            }
        }
        k += 1;
    }
    for c in &f.facts.calls {
        if c.idx < lo || c.idx >= hi {
            continue;
        }
        let args_tainted = || {
            let open = ctx.next_code(c.idx);
            if open >= hi || !ctx.toks[open].is_punct('(') {
                return false;
            }
            ctx.toks[open..hi]
                .iter()
                .any(|u| u.kind == TokKind::Ident && tainted.iter().any(|v| v == &u.text))
        };
        match c.name.as_str() {
            "sum" | "product" | "fold" | "reduce" if c.is_method => {
                let recv = receiver_chain(ctx, c.idx, lo);
                if recv.iter().any(|r| tainted.iter().any(|v| v == r)) || args_tainted() {
                    return Some(format!("a `.{}()` fold", c.name));
                }
            }
            // Ordered output: pushing tainted values is only safe when the
            // buffer is sorted afterwards (the ordered-commit discipline).
            "push" | "extend" | "push_str" if c.is_method => {
                if !args_tainted() {
                    continue;
                }
                let recv = receiver_chain(ctx, c.idx, lo);
                let sorted_later = recv.iter().any(|r| buffer_is_sorted(ctx, span, f, r));
                if !sorted_later {
                    return Some(format!("ordered output via `.{}()`", c.name));
                }
            }
            name if (name.contains("checkpoint")
                || name.contains("persist")
                || name == "write_atomic")
                && args_tainted() =>
            {
                return Some(format!("a durable write (`{name}`)"));
            }
            "agglomerate" | "agglomerate_exec" if args_tainted() => {
                return Some(format!("clustering input (`{}`)", c.name));
            }
            _ => {}
        }
    }
    None
}

/// Whether `buf` gets a `.sort*()` call anywhere later in the function —
/// the ordered-commit pattern that makes push-order irrelevant.
fn buffer_is_sorted(ctx: &FileCtx, span: &FnSpan, f: &FnDef, buf: &str) -> bool {
    f.facts.calls.iter().any(|c| {
        c.is_method
            && c.name.starts_with("sort")
            && c.idx < span.end
            && receiver_chain(ctx, c.idx, span.body_start)
                .iter()
                .any(|r| r == buf)
    })
}

// ------------------------------------------------------------ D108 --

/// One interior-mutability cell discovered in library code.
#[derive(Debug, Clone)]
pub struct SharedCell {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the field/static declaration.
    pub line: u32,
    /// Enclosing struct/enum name, or the static's name.
    pub owner: String,
    /// Field name (`None` for tuple-struct positions).
    pub field: Option<String>,
    /// The cell type (`Mutex`, `AtomicU64`, ...).
    pub kind: String,
    /// The `shared(...)` merge discipline, if declared.
    pub discipline: Option<String>,
    /// Whether code touching the owner is reachable from the
    /// resolve/train/apply_updates spine.
    pub reachable: bool,
}

/// A lock acquisition site in library code, for the facts export.
#[derive(Debug, Clone)]
pub struct GuardSite {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based acquisition line.
    pub line: u32,
    /// Qualified function holding the guard.
    pub func: String,
    /// Textual receiver label (`self.names`).
    pub label: String,
    /// The guard's binding when let-bound.
    pub binding: Option<String>,
}

/// Everything `distinct-lint facts` exports.
#[derive(Debug, Default)]
pub struct ConcurFacts {
    /// Discovered interior-mutability cells.
    pub cells: Vec<SharedCell>,
    /// Discovered reusable scratch-structure construction sites (D112).
    pub scratch: Vec<crate::alloc::ScratchSite>,
    /// Discovered lock-guard sites.
    pub guards: Vec<GuardSite>,
}

const CELL_TYPES: [&str; 5] = ["Mutex", "RwLock", "Cell", "RefCell", "UnsafeCell"];

fn is_cell_type(s: &str) -> bool {
    CELL_TYPES.contains(&s) || (s.starts_with("Atomic") && s.len() > "Atomic".len())
}

/// Entry points plus the `apply_update*` maintenance spine — the roots
/// D108 measures reachability from.
pub fn spine_roots(graph: &CallGraph) -> Vec<usize> {
    let mut roots = graph.entry_points();
    for (i, f) in graph.ws.fns.iter().enumerate() {
        if f.crate_dir == "core"
            && !f.is_test
            && f.name.starts_with("apply_update")
            && !roots.contains(&i)
        {
            roots.push(i);
        }
    }
    roots
}

/// Scan library files for interior-mutability cells declared as struct
/// fields or statics, pair them with `shared(...)` declarations, and mark
/// spine reachability.
pub fn collect_cells(graph: &CallGraph, ctxs: &[FileCtx]) -> Vec<SharedCell> {
    let ws = &graph.ws;
    let parent = graph.reach(&spine_roots(graph), |_| true);
    let mut cells = Vec::new();
    for ctx in ctxs {
        if !ctx.is_library() {
            continue;
        }
        let owners = owner_spans(ctx);
        let decls = shared_decls(ctx);
        let mut seen_anchor: BTreeSet<usize> = BTreeSet::new();
        for (k, t) in ctx.toks.iter().enumerate() {
            if t.kind != TokKind::Ident || !is_cell_type(&t.text) || ctx.in_test(k) {
                continue;
            }
            // Function-local cells are exempt by design: the passes reason
            // about them through D106/D109 instead.
            if ctx.fns.iter().any(|f| f.start <= k && k < f.end) {
                continue;
            }
            if in_use_item(ctx, k) {
                continue;
            }
            let Some(anchor) = decl_anchor(ctx, k) else {
                continue;
            };
            if !seen_anchor.insert(anchor) {
                continue;
            }
            let first = &ctx.toks[anchor];
            if first.is_ident("use")
                || first.is_ident("impl")
                || first.is_ident("type")
                || first.is_ident("trait")
                || first.is_ident("fn")
            {
                continue;
            }
            let line = first.line;
            let field = field_name(ctx, anchor);
            let owner = owners
                .iter()
                .filter(|(_, open, close)| *open < k && k < *close)
                .map(|(name, _, _)| name.clone())
                .next_back() // innermost
                .or_else(|| static_name(ctx, anchor))
                .unwrap_or_else(|| "<file>".into());
            let discipline = decls
                .iter()
                .find(|(dl, _)| *dl == line || *dl + 1 == line)
                .map(|(_, d)| d.clone());
            let reachable = cell_reachable(ws, &parent, &ctx.path, &owner);
            cells.push(SharedCell {
                file: ctx.path.clone(),
                line,
                owner,
                field,
                kind: t.text.clone(),
                discipline,
                reachable,
            });
        }
    }
    cells.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    cells
}

fn d108_shared_registry(graph: &CallGraph, ctxs: &[FileCtx]) -> Vec<Finding> {
    let cells = collect_cells(graph, ctxs);
    let mut out = Vec::new();
    for c in &cells {
        if c.reachable && c.discipline.is_none() {
            let what = match &c.field {
                Some(f) => format!("{}.{f}", c.owner),
                None => c.owner.clone(),
            };
            out.push(Finding {
                id: LintId::D108,
                file: c.file.clone(),
                line: c.line,
                message: format!(
                    "interior-mutability cell `{what}: {}` is reachable from the \
                     resolve/train/apply_updates spine but has no \
                     `// distinct-lint: shared(<merge-discipline>)` declaration",
                    c.kind
                ),
            });
        }
    }
    // Hygiene: a shared(...) declaration adjacent to no cell is as dead as
    // an unused allow().
    for ctx in ctxs {
        if !ctx.is_library() {
            continue;
        }
        for (dl, _) in shared_decls(ctx) {
            let covers = cells
                .iter()
                .any(|c| c.file == ctx.path && (c.line == dl || c.line == dl + 1));
            if !covers {
                out.push(Finding {
                    id: LintId::D000,
                    file: ctx.path.clone(),
                    line: dl,
                    message: "shared(...) declaration matches no interior-mutability cell \
                              declaration on this or the next line"
                        .into(),
                });
            }
        }
    }
    out
}

/// Whether the cell's owner has spine-reachable code: an impl method of
/// `owner`, or (for statics / free cells) any reachable fn in the file.
fn cell_reachable(
    ws: &crate::symbols::Workspace,
    parent: &[Option<usize>],
    path: &str,
    owner: &str,
) -> bool {
    let mut any_impl = false;
    for (i, f) in ws.fns.iter().enumerate() {
        if f.impl_type.as_deref() == Some(owner) {
            any_impl = true;
            if parent[i].is_some() {
                return true;
            }
        }
    }
    if any_impl {
        return false;
    }
    ws.fns
        .iter()
        .enumerate()
        .any(|(i, f)| f.file == path && parent[i].is_some())
}

/// `(name, open, close)` spans of struct/enum bodies in the file.
fn owner_spans(ctx: &FileCtx) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let n = ctx.toks.len();
    for i in 0..n {
        let t = &ctx.toks[i];
        if !(t.is_ident("struct") || t.is_ident("enum")) {
            continue;
        }
        let name_at = ctx.next_code(i);
        if name_at >= n || ctx.toks[name_at].kind != TokKind::Ident {
            continue;
        }
        // Find the body's `{` or a tuple struct's `(` (skip generics).
        let mut j = name_at;
        let mut open = None;
        for _ in 0..64 {
            j = ctx.next_code(j);
            if j >= n {
                break;
            }
            let u = &ctx.toks[j];
            if u.is_punct('{') || u.is_punct('(') {
                open = Some(j);
                break;
            }
            if u.is_punct(';') {
                break; // unit struct
            }
        }
        let Some(open) = open else { continue };
        let (oc, cc) = if ctx.toks[open].is_punct('{') {
            ('{', '}')
        } else {
            ('(', ')')
        };
        let mut depth = 0i32;
        let mut close = open;
        for (off, u) in ctx.toks[open..n].iter().enumerate() {
            if u.is_punct(oc) {
                depth += 1;
            } else if u.is_punct(cc) {
                depth -= 1;
                if depth == 0 {
                    close = open + off;
                    break;
                }
            }
        }
        out.push((ctx.toks[name_at].text.clone(), open, close));
    }
    out
}

/// All `shared(...)` declarations in the file as `(line, discipline)`.
fn shared_decls(ctx: &FileCtx) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for t in &ctx.toks {
        if t.kind != TokKind::Comment {
            continue;
        }
        let Some(pos) = t.text.find("distinct-lint:") else {
            continue;
        };
        let body = t.text[pos + "distinct-lint:".len()..].trim();
        if !body.starts_with("shared") {
            continue;
        }
        if let Ok(d) = suppress::parse_shared(body) {
            out.push((t.line, d));
        }
    }
    out
}

/// Whether token `k` sits inside a `use` import (possibly a `{...}`
/// group) — type names there are imports, not cell declarations.
fn in_use_item(ctx: &FileCtx, k: usize) -> bool {
    let mut j = k;
    for _ in 0..64 {
        let Some(p) = ctx.prev_code(j) else {
            return false;
        };
        let t = &ctx.toks[p];
        if t.is_ident("use") {
            return true;
        }
        if t.is_punct(';')
            || t.is_ident("struct")
            || t.is_ident("enum")
            || t.is_ident("fn")
            || t.is_ident("impl")
        {
            return false;
        }
        j = p;
    }
    false
}

/// First code token of the declaration containing token `k`: walk back to
/// the previous `,`/`;`/`{`/`}`/`(` boundary outside angle brackets.
fn decl_anchor(ctx: &FileCtx, k: usize) -> Option<usize> {
    let mut j = k;
    let mut angles = 0i32;
    loop {
        let p = ctx.prev_code(j)?;
        let t = &ctx.toks[p];
        if t.is_punct('>') {
            angles += 1;
        } else if t.is_punct('<') {
            angles -= 1;
        } else if angles <= 0
            && (t.is_punct(',')
                || t.is_punct(';')
                || t.is_punct('{')
                || t.is_punct('}')
                || t.is_punct('('))
        {
            // `pub(crate)` / `pub(super)` visibility parens are not a
            // declaration boundary — keep walking to the real one.
            if t.is_punct('(')
                && ctx
                    .prev_code(p)
                    .map(|pp| ctx.toks[pp].is_ident("pub"))
                    .unwrap_or(false)
            {
                j = p;
                continue;
            }
            let a = ctx.next_code(p);
            return if a <= k { Some(a) } else { None };
        }
        if p == 0 {
            let first_is_comment = ctx
                .toks
                .first()
                .map(|t| matches!(t.kind, TokKind::Comment | TokKind::DocComment))
                .unwrap_or(false);
            return Some(if first_is_comment {
                ctx.next_code(0)
            } else {
                0
            });
        }
        j = p;
    }
}

/// `name :` at the anchor → the field's name.
fn field_name(ctx: &FileCtx, anchor: usize) -> Option<String> {
    let mut j = anchor;
    // Skip visibility (`pub`, `pub(crate)`).
    if ctx.toks[j].is_ident("pub") {
        j = ctx.next_code(j);
        if j < ctx.toks.len() && ctx.toks[j].is_punct('(') {
            while j < ctx.toks.len() && !ctx.toks[j].is_punct(')') {
                j = ctx.next_code(j);
            }
            j = ctx.next_code(j);
        }
    }
    if j >= ctx.toks.len() || ctx.toks[j].kind != TokKind::Ident || is_keyword(&ctx.toks[j].text) {
        return None;
    }
    let colon = ctx.next_code(j);
    if colon < ctx.toks.len() && ctx.toks[colon].is_punct(':') {
        Some(ctx.toks[j].text.clone())
    } else {
        None
    }
}

/// `static NAME:` / `pub static NAME:` at the anchor → the static's name.
fn static_name(ctx: &FileCtx, anchor: usize) -> Option<String> {
    let mut j = anchor;
    if ctx.toks[j].is_ident("pub") {
        j = ctx.next_code(j);
    }
    if j < ctx.toks.len() && (ctx.toks[j].is_ident("static") || ctx.toks[j].is_ident("const")) {
        let name_at = ctx.next_code(j);
        if name_at < ctx.toks.len() && ctx.toks[name_at].kind == TokKind::Ident {
            return Some(ctx.toks[name_at].text.clone());
        }
    }
    None
}

/// Collect the full facts registry: cells, scratch structures, and guard
/// sites.
pub fn collect_facts(graph: &CallGraph, ctxs: &[FileCtx]) -> ConcurFacts {
    let by_path: BTreeMap<&str, &FileCtx> = ctxs.iter().map(|c| (c.path.as_str(), c)).collect();
    let cells = collect_cells(graph, ctxs);
    let scratch = crate::alloc::collect_scratch(graph, ctxs);
    let mut guards = Vec::new();
    for (i, f) in graph.ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let _ = by_path; // guards come straight from the symbol table
        for lock in &f.facts.locks {
            guards.push(GuardSite {
                file: f.file.clone(),
                line: lock.line,
                func: graph.ws.qual(i),
                label: lock.label.clone(),
                binding: lock.binding.clone(),
            });
        }
    }
    guards.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    ConcurFacts {
        cells,
        scratch,
        guards,
    }
}

/// Render the registry as JSON (hand-rolled; the lint crate stays
/// dependency-free).
pub fn facts_json(facts: &ConcurFacts) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    fn opt(s: &Option<String>) -> String {
        match s {
            Some(v) => format!("\"{}\"", esc(v)),
            None => "null".into(),
        }
    }
    let mut out = String::from("{\n  \"cells\": [\n");
    for (i, c) in facts.cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"owner\": \"{}\", \"field\": {}, \
             \"kind\": \"{}\", \"discipline\": {}, \"reachable\": {}}}{}\n",
            esc(&c.file),
            c.line,
            esc(&c.owner),
            opt(&c.field),
            esc(&c.kind),
            opt(&c.discipline),
            c.reachable,
            if i + 1 < facts.cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"scratch\": [\n");
    for (i, s) in facts.scratch.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"owner\": \"{}\", \"ctor\": \"{}\", \
             \"fn\": \"{}\", \"discipline\": {}, \"reachable\": {}}}{}\n",
            esc(&s.file),
            s.line,
            esc(&s.owner),
            esc(&s.ctor),
            esc(&s.func),
            opt(&s.discipline),
            s.reachable,
            if i + 1 < facts.scratch.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"guards\": [\n");
    for (i, g) in facts.guards.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"fn\": \"{}\", \"label\": \"{}\", \
             \"binding\": {}}}{}\n",
            esc(&g.file),
            g.line,
            esc(&g.func),
            esc(&g.label),
            opt(&g.binding),
            if i + 1 < facts.guards.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ------------------------------------------------------------ D109 --

fn d109_send_across_commit(graph: &CallGraph, by_path: &BTreeMap<&str, &FileCtx>) -> Vec<Finding> {
    let ws = &graph.ws;
    let mut out = Vec::new();
    for f in ws.fns.iter() {
        if f.is_test {
            continue;
        }
        let Some((ctx, span)) = site(by_path, f) else {
            continue;
        };
        for c in &f.facts.calls {
            if !POOL_SUBMITS.contains(&c.name.as_str()) {
                continue;
            }
            let open = ctx.next_code(c.idx);
            if open >= ctx.toks.len() || !ctx.toks[open].is_punct('(') {
                continue;
            }
            let close = match_paren(ctx, open, span.end.min(ctx.toks.len()));
            for (body_lo, body_hi, params) in closures_in(ctx, open + 1, close) {
                check_closure_body(ctx, f, &c.name, body_lo, body_hi, params, &mut out);
            }
        }
    }
    out
}

pub(crate) fn match_paren(ctx: &FileCtx, open: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < hi {
        let t = &ctx.toks[k];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    hi.saturating_sub(1)
}

/// Closures in a token range: `(body_lo, body_hi, param names)`. A `|`
/// opens a closure when it follows `(`, `,`, `=`, or `move`; expression
/// bodies run to the next top-level `,` or the range's end.
fn closures_in(ctx: &FileCtx, lo: usize, hi: usize) -> Vec<(usize, usize, Vec<String>)> {
    let mut out = Vec::new();
    let mut k = lo;
    while k < hi {
        let t = &ctx.toks[k];
        if !t.is_punct('|') {
            k += 1;
            continue;
        }
        let starts = match ctx.prev_code(k) {
            Some(p) => {
                let u = &ctx.toks[p];
                u.is_punct('(') || u.is_punct(',') || u.is_punct('=') || u.is_ident("move")
            }
            None => true,
        };
        if !starts {
            k += 1;
            continue;
        }
        // Params up to the closing `|` (an immediate `|` means none).
        let mut params = Vec::new();
        let mut j = ctx.next_code(k);
        while j < hi && !ctx.toks[j].is_punct('|') {
            if ctx.toks[j].kind == TokKind::Ident && !is_keyword(&ctx.toks[j].text) {
                params.push(ctx.toks[j].text.clone());
            }
            j = ctx.next_code(j);
        }
        if j >= hi {
            break;
        }
        let after = ctx.next_code(j);
        if after >= hi {
            break;
        }
        let (body_lo, body_hi) = if ctx.toks[after].is_punct('{') {
            let close = crate::cfg::match_brace_from(ctx, after, hi);
            (after + 1, close)
        } else {
            // Expression body: to the next `,` at depth 0 or range end.
            let mut depth = 0i32;
            let mut e = after;
            while e < hi {
                let u = &ctx.toks[e];
                if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && u.is_punct(',') {
                    break;
                }
                e += 1;
            }
            (after, e)
        };
        out.push((body_lo, body_hi, params));
        k = body_hi.max(k + 1);
    }
    out
}

/// Methods whose mere invocation mutates the receiver in place.
pub(crate) const MUTATORS: [&str; 8] = [
    "push", "extend", "push_str", "insert", "remove", "clear", "truncate", "append",
];

fn check_closure_body(
    ctx: &FileCtx,
    f: &FnDef,
    pool_call: &str,
    lo: usize,
    hi: usize,
    params: Vec<String>,
    out: &mut Vec<Finding>,
) {
    let hi = hi.min(ctx.toks.len());
    // Locals: parameters, `let`s, `for` vars, and nested closure params.
    let mut locals: BTreeSet<String> = params.into_iter().collect();
    let mut k = lo;
    while k < hi {
        let t = &ctx.toks[k];
        if t.is_ident("let") || t.is_ident("for") {
            for v in bound_vars(ctx, k, hi) {
                locals.insert(v);
            }
        } else if t.is_punct('|') {
            let starts = ctx
                .prev_code(k)
                .map(|p| {
                    let u = &ctx.toks[p];
                    u.is_punct('(') || u.is_punct(',') || u.is_punct('=') || u.is_ident("move")
                })
                .unwrap_or(false);
            if starts {
                let mut j = ctx.next_code(k);
                while j < hi && !ctx.toks[j].is_punct('|') {
                    if ctx.toks[j].kind == TokKind::Ident && !is_keyword(&ctx.toks[j].text) {
                        locals.insert(ctx.toks[j].text.clone());
                    }
                    j = ctx.next_code(j);
                }
                k = j;
            }
        }
        k += 1;
    }
    let flag = |line: u32, name: &str, how: &str, out: &mut Vec<Finding>| {
        out.push(Finding {
            id: LintId::D109,
            file: f.file.clone(),
            line,
            message: format!(
                "closure passed to `{pool_call}` mutates captured `{name}` via {how} outside \
                 the ordered-commit protocol; return per-task results and let the pool \
                 commit them in input order"
            ),
        });
    };
    // Assignments and compound assignments to captured bindings.
    let mut k = lo;
    while k < hi {
        let t = &ctx.toks[k];
        let is_compound = (t.is_punct('+')
            || t.is_punct('-')
            || t.is_punct('*')
            || t.is_punct('/')
            || t.is_punct('%'))
            && k + 1 < hi
            && ctx.toks[k + 1].is_punct('=');
        let is_plain = t.is_punct('=')
            && !(k + 1 < hi && (ctx.toks[k + 1].is_punct('=') || ctx.toks[k + 1].is_punct('>')))
            && ctx
                .prev_code(k)
                .map(|p| {
                    let u = &ctx.toks[p];
                    !(u.is_punct('=')
                        || u.is_punct('<')
                        || u.is_punct('>')
                        || u.is_punct('!')
                        || u.is_punct('+')
                        || u.is_punct('-')
                        || u.is_punct('*')
                        || u.is_punct('/')
                        || u.is_punct('%')
                        || u.is_punct('&')
                        || u.is_punct('|')
                        || u.is_punct('^'))
                })
                .unwrap_or(false);
        if is_compound || is_plain {
            if let Some(target) = assign_target(ctx, k, lo) {
                if !locals.contains(&target) {
                    flag(
                        ctx.toks[k].line,
                        &target,
                        if is_compound {
                            "compound assignment"
                        } else {
                            "assignment"
                        },
                        out,
                    );
                }
            }
            k += if is_compound { 2 } else { 1 };
            continue;
        }
        k += 1;
    }
    // In-place mutating method calls on captured receivers.
    for c in &f.facts.calls {
        if c.idx < lo || c.idx >= hi || !c.is_method || !MUTATORS.contains(&c.name.as_str()) {
            continue;
        }
        let chain = receiver_chain(ctx, c.idx, lo);
        if let Some(first) = chain.last() {
            if !locals.contains(first) {
                flag(c.line, first, &format!("`.{}()`", c.name), out);
            }
        }
    }
}

/// The root binding of an assignment's left-hand side: walk back from the
/// operator across `.field`, `[index]`, and deref/call groups. `None` for
/// `let` initialisers (those bind locals, not captures).
fn assign_target(ctx: &FileCtx, op: usize, lo: usize) -> Option<String> {
    let mut j = ctx.prev_code(op)?;
    let mut target: Option<String> = None;
    loop {
        if j < lo {
            break;
        }
        let t = &ctx.toks[j];
        if t.is_punct(']') || t.is_punct(')') {
            let (open, close) = if t.is_punct(']') {
                ('[', ']')
            } else {
                ('(', ')')
            };
            let mut depth = 0i32;
            while j > lo {
                let u = &ctx.toks[j];
                if u.is_punct(close) {
                    depth += 1;
                } else if u.is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j -= 1;
            }
            match ctx.prev_code(j) {
                Some(p) if p >= lo => j = p,
                _ => break,
            }
            continue;
        }
        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
            target = Some(t.text.clone());
            match ctx.prev_code(j) {
                Some(p) if p >= lo && ctx.toks[p].is_punct('.') => match ctx.prev_code(p) {
                    Some(pp) if pp >= lo => {
                        j = pp;
                        continue;
                    }
                    _ => break,
                },
                Some(p) if p >= lo && ctx.toks[p].is_ident("let") => return None,
                Some(p)
                    if p >= lo
                        && ctx.toks[p].is_ident("mut")
                        && ctx
                            .prev_code(p)
                            .map(|pp| ctx.toks[pp].is_ident("let"))
                            .unwrap_or(false) =>
                {
                    return None;
                }
                _ => break,
            }
        }
        break;
    }
    target
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
    fn d106_guard_live_across_pool_submit() {
        let found = run_ids(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn resolve_all(m: &M, pool: &P) {\n\
             let g = m.names.lock();\n\
             pool.par_map_guarded(g.len());\n\
             }\n",
        )]);
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D106 && line == 3),
            "{found:?}"
        );
    }

    #[test]
    fn d106_dropped_guard_is_fine() {
        let found = run_ids(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn resolve_all(m: &M, pool: &P) {\n\
             let g = m.names.lock();\n\
             drop(g);\n\
             pool.par_map_guarded(1);\n\
             }\n",
        )]);
        assert!(
            !found.iter().any(|&(id, _)| id == LintId::D106),
            "{found:?}"
        );
    }

    #[test]
    fn d106_transitive_boundary_through_callee() {
        let found = run_ids(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn resolve_all(m: &M) {\n\
             let g = m.names.lock();\n\
             fan_out(g.len());\n\
             }\n\
             pub fn fan_out(n: usize) { pool().par_chunks(n); }\n",
        )]);
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D106 && line == 3),
            "{found:?}"
        );
    }

    #[test]
    fn d107_hash_iteration_into_accumulation() {
        let found = run_ids(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn resolve_score(m: &FxHashMap<u32, f64>) -> f64 {\n\
             let mut total = 0.0;\n\
             for v in m.values() {\n\
             total += v;\n\
             }\n\
             total\n\
             }\n",
        )]);
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D107 && line == 4),
            "{found:?}"
        );
    }

    #[test]
    fn d107_sorted_collection_is_clean() {
        let found = run_ids(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn resolve_score(m: &FxHashMap<u32, f64>) -> f64 {\n\
             let mut keys: Vec<u32> = m.keys().copied().collect();\n\
             keys.sort_unstable();\n\
             let mut total = 0.0;\n\
             for k in keys.iter() {\n\
             total += f(k);\n\
             }\n\
             total\n\
             }\n\
             fn f(k: &u32) -> f64 { 0.0 }\n",
        )]);
        assert!(
            !found.iter().any(|&(id, _)| id == LintId::D107),
            "{found:?}"
        );
    }

    #[test]
    fn d108_undeclared_reachable_cell_fires_and_declared_is_clean() {
        let src = "pub struct Cache {\n\
             pub shards: Mutex<u32>,\n\
             // distinct-lint: shared(commutative counter merges)\n\
             pub hits: AtomicU64,\n\
             }\n\
             impl Cache {\n\
             pub fn get(&self) -> u32 { 0 }\n\
             }\n\
             pub fn resolve_all(c: &Cache) -> u32 { c.get() }\n";
        let found = run_ids(&[("crates/core/src/a.rs", "core", src)]);
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D108 && line == 2),
            "{found:?}"
        );
        assert!(
            !found
                .iter()
                .any(|&(id, line)| id == LintId::D108 && line == 4),
            "{found:?}"
        );
    }

    #[test]
    fn d108_unreachable_cell_is_registered_but_not_flagged() {
        let src = "pub struct Lonely {\n\
             pub cell: Mutex<u32>,\n\
             }\n\
             impl Lonely {\n\
             pub fn get(&self) -> u32 { 0 }\n\
             }\n";
        let (ctxs, graph) = graph_of(&[("crates/core/src/a.rs", "core", src)]);
        let findings = run(&graph, &ctxs);
        assert!(
            !findings.iter().any(|f| f.id == LintId::D108),
            "{findings:?}"
        );
        let facts = collect_facts(&graph, &ctxs);
        assert_eq!(facts.cells.len(), 1);
        assert!(!facts.cells[0].reachable);
    }

    #[test]
    fn d109_closure_mutating_capture_fires() {
        let found = run_ids(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn resolve_all(items: &[u32], pool: &P) {\n\
             let mut out = Vec::new();\n\
             pool.par_map_indexed(items, |i, item| {\n\
             out.push(item + i);\n\
             });\n\
             }\n",
        )]);
        assert!(
            found
                .iter()
                .any(|&(id, line)| id == LintId::D109 && line == 4),
            "{found:?}"
        );
    }

    #[test]
    fn d109_send_and_locals_are_allowed() {
        let found = run_ids(&[(
            "crates/core/src/a.rs",
            "core",
            "pub fn resolve_all(items: &[u32], pool: &P, tx: &T) {\n\
             pool.par_map_indexed(items, |i, item| {\n\
             let mut local = Vec::new();\n\
             local.push(item + i);\n\
             tx.send(local).ok();\n\
             });\n\
             }\n",
        )]);
        assert!(
            !found.iter().any(|&(id, _)| id == LintId::D109),
            "{found:?}"
        );
    }

    #[test]
    fn facts_json_renders_cells_and_guards() {
        let (ctxs, graph) = graph_of(&[(
            "crates/core/src/a.rs",
            "core",
            "pub struct C {\n\
             // distinct-lint: shared(single-writer epochs)\n\
             pub m: Mutex<u32>,\n\
             }\n\
             impl C {\n\
             pub fn resolve_one(&self) -> u32 { let g = self.m.lock(); *g }\n\
             }\n",
        )]);
        let facts = collect_facts(&graph, &ctxs);
        let json = facts_json(&facts);
        assert!(json.contains("\"owner\": \"C\""), "{json}");
        assert!(json.contains("single-writer epochs"), "{json}");
        assert!(json.contains("\"label\": \"self.m\""), "{json}");
    }
}
