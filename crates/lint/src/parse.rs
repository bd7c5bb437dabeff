//! Item-level recursive descent over the token stream: function
//! definitions with the body facts the semantic passes need.
//!
//! This is deliberately not a full Rust parser. It recovers exactly the
//! structure the interprocedural lints reason about — which `impl` block
//! a function sits in, whether it is `pub`, its doc text, and a skeleton
//! of its body (call sites, loops, panic sites, lock acquisitions,
//! channel sends, budget charges, sanitizers, risky arithmetic) — and
//! leaves expression grammar to the token heuristics the per-file passes
//! already use. Every approximation is one-sided: the symbol resolver
//! built on top over-approximates reachability, never under-approximates.

use crate::lexer::TokKind;
use crate::model::{FileCtx, FnSpan};
use crate::passes;

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Last path segment / method name (`resemblance`).
    pub name: String,
    /// Leading path segments for path calls (`["WeightedSet"]`,
    /// `["relstore", "persist"]`); empty for bare and method calls.
    pub path: Vec<String>,
    /// Whether this is a `.name(...)` method call.
    pub is_method: bool,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the name, for lock-scope overlap tests.
    pub idx: usize,
}

/// One lock acquisition (`recv.lock()` / `.read()` / `.write()` with an
/// empty argument list, which disambiguates from `io::Write::write(buf)`).
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Textual receiver label (`self.shard()`, `inner.state`); two
    /// acquisitions with the same label are treated as the same lock.
    pub label: String,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the method name.
    pub idx: usize,
    /// Token index one past where the guard is last held: end of the
    /// enclosing statement for inline uses, end of the function body for
    /// `let`-bound guards (an over-approximation — no drop tracking).
    pub hold_end: usize,
    /// The `let` binding holding the guard, if the acquisition is
    /// `let`-bound (`let cache = self.names.lock()` → `Some("cache")`).
    /// D106's liveness dataflow kills the guard at `drop(binding)`.
    pub binding: Option<String>,
}

/// What a function body does, as far as the semantic passes care.
#[derive(Debug, Clone, Default)]
pub struct BodyFacts {
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Lines of `for`/`while`/`loop` keywords.
    pub loops: Vec<u32>,
    /// Panic sites `(line, message)` ([`crate::passes::panic_sites`]).
    pub panics: Vec<(u32, String)>,
    /// Lock acquisitions.
    pub locks: Vec<LockSite>,
    /// `.send(...)` sites as `(line, token index)`.
    pub sends: Vec<(u32, usize)>,
    /// `.recv()`/`.try_recv()`/`.recv_timeout(...)` sites as
    /// `(line, token index)` — the other half of a channel rendezvous.
    pub recvs: Vec<(u32, usize)>,
    /// Whether the body calls a budget hook
    /// (`guard(`/`shared_guard(`/`charge(`/`status(`).
    pub charges: bool,
    /// Whether the body contains a range sanitizer: `clamp(`,
    /// `debug_assert!`, or both `.min(` and `.max(`.
    pub sanitizes: bool,
    /// Whether the body does range-risky arithmetic (binary `+ - * /`,
    /// or `exp`/`powf`/`ln`/`sqrt`/`sum` calls).
    pub risky_arith: bool,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` block's self type, if any (`Distinct`,
    /// `WeightedSet`); trait impls record the implementing type.
    pub impl_type: Option<String>,
    /// Whether the item is `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// Workspace-relative file path.
    pub file: String,
    /// Owning crate's directory name (`core`, `relgraph`, `.`).
    pub crate_dir: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the function is test code.
    pub is_test: bool,
    /// Whether a parameter names `guard` (the budget-guard convention).
    pub has_guard_param: bool,
    /// Concatenated doc-comment text above the item.
    pub doc: String,
    /// Body skeleton.
    pub facts: BodyFacts,
}

const KEYWORDS: [&str; 34] = [
    "if", "else", "while", "for", "loop", "match", "return", "fn", "as", "in", "move", "ref",
    "unsafe", "let", "mut", "pub", "use", "where", "impl", "dyn", "break", "continue", "struct",
    "enum", "trait", "type", "const", "static", "mod", "crate", "super", "async", "await", "box",
];

pub(crate) fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Parse every function item in `ctx` into a [`FnDef`].
pub fn parse_fns(ctx: &FileCtx) -> Vec<FnDef> {
    let toks = &ctx.toks;
    let n = toks.len();
    // Pass 1: map each fn span's start token to its impl-block self type.
    let mut impl_of: Vec<Option<String>> = vec![None; ctx.fns.len()];
    {
        let mut stack: Vec<(String, usize)> = Vec::new(); // (type, open depth)
        let mut pending: Option<String> = None;
        let mut depth = 0usize;
        let mut i = 0usize;
        while i < n {
            let t = &toks[i];
            if matches!(t.kind, TokKind::Comment | TokKind::DocComment) {
                i += 1;
                continue;
            }
            if t.is_punct('{') {
                depth += 1;
                if let Some(ty) = pending.take() {
                    stack.push((ty, depth));
                }
            } else if t.is_punct('}') {
                if stack.last().is_some_and(|f| f.1 == depth) {
                    stack.pop();
                }
                depth = depth.saturating_sub(1);
            } else if t.is_ident("impl") && at_item_position(ctx, i) {
                if let Some((ty, brace)) = parse_impl_header(ctx, i) {
                    pending = Some(ty);
                    i = brace; // next iteration sees the `{`
                    continue;
                }
            } else if t.is_ident("fn") {
                if let Some(k) = ctx.fns.iter().position(|f| f.start == i) {
                    impl_of[k] = stack.last().filter(|f| f.1 == depth).map(|f| f.0.clone());
                }
            }
            i += 1;
        }
    }
    // Pass 2: one FnDef per span, with header attributes and body facts.
    ctx.fns
        .iter()
        .enumerate()
        .map(|(k, f)| {
            let (is_pub, doc) = header_info(ctx, f.start);
            FnDef {
                name: f.name.clone(),
                impl_type: impl_of[k].clone(),
                is_pub,
                file: ctx.path.clone(),
                crate_dir: ctx.crate_name.clone(),
                line: f.line,
                is_test: f.is_test,
                has_guard_param: f.has_guard_param,
                doc,
                facts: body_facts(ctx, f),
            }
        })
        .collect()
}

/// Whether the token at `i` sits at item position (so `impl` opens a
/// block rather than appearing in `-> impl Trait` / `impl Fn(..)` type
/// positions).
fn at_item_position(ctx: &FileCtx, i: usize) -> bool {
    match ctx.prev_code(i) {
        None => true,
        Some(p) => {
            let t = &ctx.toks[p];
            t.is_punct(';')
                || t.is_punct('{')
                || t.is_punct('}')
                || t.is_punct(']') // end of an attribute
                || t.is_ident("unsafe")
        }
    }
}

/// Parse an `impl` header starting at token `i` (the `impl` keyword):
/// returns the self type's last path segment and the token index of the
/// body `{`. `impl [<..>] [Trait for] Type [<..>] [where ..] {`.
fn parse_impl_header(ctx: &FileCtx, i: usize) -> Option<(String, usize)> {
    let toks = &ctx.toks;
    let n = toks.len();
    let mut j = ctx.next_code(i);
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut ty: Option<String> = None;
    let mut in_where = false;
    while j < n {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if angle == 0 && paren == 0 {
            if t.is_punct('{') {
                return ty.map(|s| (s, j));
            }
            if t.is_punct(';') {
                return None;
            }
            if t.is_ident("for") {
                ty = None; // the self type follows `for`
            } else if t.is_ident("where") {
                in_where = true;
            } else if !in_where && t.kind == TokKind::Ident && !is_keyword(&t.text) {
                // Path segments overwrite so the last one wins
                // (`relstore::Catalog` -> `Catalog`).
                ty = Some(t.text.clone());
            }
        }
        j += 1;
    }
    None
}

/// Backward scan over the item header: is it `pub` (exactly), and what
/// doc text precedes it?
fn header_info(ctx: &FileCtx, fn_start: usize) -> (bool, String) {
    let toks = &ctx.toks;
    let mut is_pub = false;
    let mut docs: Vec<&str> = Vec::new();
    let mut j = fn_start;
    let mut steps = 0;
    while j > 0 && steps < 64 {
        steps += 1;
        j -= 1;
        let t = &toks[j];
        match t.kind {
            TokKind::Comment => continue,
            TokKind::DocComment => {
                docs.push(&t.text);
                continue;
            }
            TokKind::Ident
                if matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern") =>
            {
                continue;
            }
            TokKind::Literal => continue, // `extern "C"`
            TokKind::Ident if t.text == "pub" => {
                // `pub(crate)` is not public API.
                let nx = ctx.next_code(j);
                if !(nx < toks.len() && toks[nx].is_punct('(')) {
                    is_pub = true;
                }
                continue;
            }
            TokKind::Punct if t.is_punct(']') => {
                // Skip a `#[...]` attribute backwards.
                let mut depth = 0usize;
                loop {
                    if toks[j].is_punct(']') {
                        depth += 1;
                    } else if toks[j].is_punct('[') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
                if j > 0 && toks[j - 1].is_punct('#') {
                    j -= 1;
                    continue;
                }
                break;
            }
            TokKind::Punct if t.is_punct(')') => continue, // `pub(crate)` tail
            TokKind::Ident if matches!(t.text.as_str(), "crate" | "super" | "self") => continue,
            TokKind::Punct if t.is_punct('(') => continue,
            _ => break,
        }
    }
    docs.reverse();
    (is_pub, docs.join("\n"))
}

/// Token ranges of functions nested strictly inside `f` (their facts
/// must not be attributed to `f`).
fn child_ranges(ctx: &FileCtx, f: &FnSpan) -> Vec<(usize, usize)> {
    ctx.fns
        .iter()
        .filter(|g| g.start > f.start && g.end <= f.end && g.start < f.end)
        .map(|g| (g.start, g.end))
        .collect()
}

/// Extract the body skeleton of one function span.
fn body_facts(ctx: &FileCtx, f: &FnSpan) -> BodyFacts {
    let toks = &ctx.toks;
    let n = toks.len();
    let mut facts = BodyFacts::default();
    if f.body_start >= f.end {
        return facts;
    }
    let children = child_ranges(ctx, f);
    let skip = |i: usize| children.iter().any(|&(a, b)| a <= i && i < b);
    facts.panics = passes::panic_sites(ctx, f.body_start, f.end)
        .into_iter()
        .filter(|&(line, _)| {
            // Re-locate by line to drop panics inside nested fns.
            !children
                .iter()
                .any(|&(a, b)| a < n && toks[a].line <= line && b > a && line <= toks[b - 1].line)
        })
        .collect();
    let mut saw_min = false;
    let mut saw_max = false;
    let mut i = f.body_start;
    while i < f.end.min(n) {
        if skip(i) || matches!(toks[i].kind, TokKind::Comment | TokKind::DocComment) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        // Arithmetic operators in binary position.
        if t.kind == TokKind::Punct
            && matches!(t.text.as_str(), "+" | "*" | "/" | "-")
            && !facts.risky_arith
        {
            let prev_ok = ctx.prev_code(i).is_some_and(|p| {
                let u = &toks[p];
                matches!(u.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
                    || u.is_punct(')')
                    || u.is_punct(']')
            });
            // `->` lexes as `-` `>`; not arithmetic.
            let arrow = t.text == "-" && i + 1 < n && toks[i + 1].is_punct('>');
            if prev_ok && !arrow {
                facts.risky_arith = true;
            }
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let next = ctx.next_code(i);
        let prev_dot = ctx
            .prev_code(i)
            .map(|p| toks[p].is_punct('.'))
            .unwrap_or(false);
        match t.text.as_str() {
            "for" | "while" => facts.loops.push(t.line),
            "loop" if next < n && toks[next].is_punct('{') => facts.loops.push(t.line),
            "debug_assert" | "debug_assert_eq" if next < n && toks[next].is_punct('!') => {
                facts.sanitizes = true;
            }
            "clamp" if next < n && toks[next].is_punct('(') => facts.sanitizes = true,
            "min" if prev_dot && next < n && toks[next].is_punct('(') => saw_min = true,
            "max" if prev_dot && next < n && toks[next].is_punct('(') => saw_max = true,
            "guard" | "shared_guard" | "charge" | "status"
                if next < n && toks[next].is_punct('(') =>
            {
                facts.charges = true;
            }
            "exp" | "powf" | "ln" | "sqrt" | "sum"
                if prev_dot
                    && next < n
                    && (toks[next].is_punct('(') || toks[next].is_punct(':')) =>
            {
                facts.risky_arith = true;
            }
            "send" if prev_dot && next < n && toks[next].is_punct('(') => {
                facts.sends.push((t.line, i));
            }
            "recv" | "try_recv" | "recv_timeout"
                if prev_dot && next < n && toks[next].is_punct('(') =>
            {
                facts.recvs.push((t.line, i));
            }
            "lock" | "read" | "write" if prev_dot && next < n && toks[next].is_punct('(') => {
                let close = ctx.next_code(next);
                if close < n && toks[close].is_punct(')') {
                    facts.locks.push(LockSite {
                        label: receiver_label(ctx, i),
                        line: t.line,
                        idx: i,
                        hold_end: hold_end(ctx, i, f),
                        binding: let_binding(ctx, i),
                    });
                }
            }
            _ => {}
        }
        // Call sites: Ident [::<..>] `(`, excluding keywords and macros.
        if !is_keyword(&t.text) {
            let (open, generic) = after_turbofish(ctx, i);
            if open < n && toks[open].is_punct('(') {
                let _ = generic;
                let mut path = Vec::new();
                if !prev_dot {
                    // Walk back over `seg::`... pairs.
                    let mut at = i;
                    while let Some(p) = ctx.prev_code(at) {
                        if !toks[p].is_punct(':') {
                            break;
                        }
                        let Some(p2) = ctx.prev_code(p) else { break };
                        if !toks[p2].is_punct(':') {
                            break;
                        }
                        let Some(p3) = ctx.prev_code(p2) else { break };
                        if toks[p3].kind == TokKind::Ident {
                            path.insert(0, toks[p3].text.clone());
                            at = p3;
                        } else if toks[p3].is_punct('>') {
                            // `Foo::<T>::new` — give up on the prefix.
                            break;
                        } else {
                            break;
                        }
                    }
                }
                facts.calls.push(CallSite {
                    name: t.text.clone(),
                    path,
                    is_method: prev_dot,
                    line: t.line,
                    idx: i,
                });
            }
        }
        i += 1;
    }
    if saw_min && saw_max {
        facts.sanitizes = true;
    }
    facts
}

/// Skip a turbofish after the identifier at `i`: returns the token index
/// that should be `(` for a call, and whether a turbofish was present.
fn after_turbofish(ctx: &FileCtx, i: usize) -> (usize, bool) {
    let toks = &ctx.toks;
    let n = toks.len();
    let j = ctx.next_code(i);
    if j < n && toks[j].is_punct(':') {
        let k = ctx.next_code(j);
        if k < n && toks[k].is_punct(':') {
            let l = ctx.next_code(k);
            if l < n && toks[l].is_punct('<') {
                let mut depth = 0i32;
                let mut m = l;
                while m < n {
                    if toks[m].is_punct('<') {
                        depth += 1;
                    } else if toks[m].is_punct('>') {
                        depth -= 1;
                        if depth == 0 {
                            return (ctx.next_code(m), true);
                        }
                    }
                    m += 1;
                }
                return (n, true);
            }
        }
    }
    (j, false)
}

/// Textual receiver of a method call: walk the `a.b(..).c` chain
/// backwards from the method-name token, rendering call/index groups as
/// `()`/`[]` so equal receivers get equal labels.
fn receiver_label(ctx: &FileCtx, method_idx: usize) -> String {
    let toks = &ctx.toks;
    let mut parts: Vec<String> = Vec::new();
    let Some(dot) = ctx.prev_code(method_idx) else {
        return String::new();
    };
    // `dot` is the method's own `.`; the chain starts before it.
    let Some(mut j) = ctx.prev_code(dot) else {
        return String::new();
    };
    let mut steps = 0;
    loop {
        steps += 1;
        if steps > 32 {
            break;
        }
        let t = &toks[j];
        if t.is_punct('.') {
            parts.push(".".into());
        } else if t.kind == TokKind::Ident && !is_keyword(&t.text) || t.is_ident("self") {
            parts.push(t.text.clone());
            // A `::` before an ident extends the chain (`Arc::clone`).
            if let Some(p) = ctx.prev_code(j) {
                if toks[p].is_punct(':') {
                    if let Some(p2) = ctx.prev_code(p) {
                        if toks[p2].is_punct(':') {
                            parts.push("::".into());
                            if let Some(p3) = ctx.prev_code(p2) {
                                j = p3;
                                continue;
                            }
                        }
                    }
                    break;
                }
            }
        } else if t.is_punct(')') || t.is_punct(']') {
            // Skip the group backwards.
            let (open, close) = if t.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 0usize;
            loop {
                if toks[j].is_punct(close) {
                    depth += 1;
                } else if toks[j].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                match ctx.prev_code(j) {
                    Some(p) => j = p,
                    None => break,
                }
                if depth == 0 {
                    break;
                }
            }
            parts.push(if open == '(' {
                "()".into()
            } else {
                "[]".into()
            });
        } else {
            break;
        }
        match ctx.prev_code(j) {
            Some(p) => {
                let u = &toks[p];
                if u.is_punct('.')
                    || u.kind == TokKind::Ident && !is_keyword(&u.text)
                    || u.is_punct(')')
                    || u.is_punct(']')
                    || u.is_punct(':')
                {
                    j = p;
                    continue;
                }
                break;
            }
            None => break,
        }
    }
    parts.reverse();
    parts.concat()
}

/// The name a `let`-bound statement binds, if the call at `idx` sits on
/// the right-hand side of one: walk back to the statement's `let`, then
/// forward to its `=`, taking the last plain identifier of the pattern
/// (`let mut g = ..` → `g`, `let Some(g) = ..` → `g`).
fn let_binding(ctx: &FileCtx, idx: usize) -> Option<String> {
    let toks = &ctx.toks;
    let mut j = idx;
    let mut let_at = None;
    while let Some(p) = ctx.prev_code(j) {
        let t = &toks[p];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("let") {
            let_at = Some(p);
            break;
        }
        j = p;
        if idx - j > 64 {
            break;
        }
    }
    let start = let_at?;
    let mut name = None;
    let mut k = ctx.next_code(start);
    while k < idx {
        let t = &toks[k];
        if t.is_punct('=') {
            break;
        }
        if t.is_punct(':') {
            // A single `:` starts the ascribed type; `::` is a path.
            let k2 = ctx.next_code(k);
            if k2 < idx && toks[k2].is_punct(':') {
                k = ctx.next_code(k2);
                continue;
            }
            break;
        }
        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
            name = Some(t.text.clone());
        }
        k = ctx.next_code(k);
    }
    name
}

/// Where a lock guard acquired at `idx` stops being held: end of the
/// function body for `let`-bound (or `if let`/`while let`) guards, end
/// of the enclosing statement otherwise.
fn hold_end(ctx: &FileCtx, idx: usize, f: &FnSpan) -> usize {
    let toks = &ctx.toks;
    // Backward: does a `let` open this statement?
    let mut j = idx;
    let mut bound = false;
    while let Some(p) = ctx.prev_code(j) {
        let t = &toks[p];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("let") {
            bound = true;
            break;
        }
        j = p;
        if idx - j > 64 {
            break;
        }
    }
    if bound {
        return f.end;
    }
    // Forward to the statement's `;` (or the body end).
    let mut depth = 0i32;
    let mut k = idx;
    while k < f.end.min(toks.len()) {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth <= 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            return k;
        }
        k += 1;
    }
    f.end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FileCtx, Role};

    fn parse(src: &str) -> Vec<FnDef> {
        parse_fns(&FileCtx::new(
            "crates/core/src/x.rs",
            "core",
            Role::Library,
            src,
        ))
    }

    #[test]
    fn impl_blocks_and_pubness() {
        let src = "\
/// Engine.
pub struct Distinct;
impl Distinct {
    /// Resolve.
    pub fn resolve(&self) -> u32 { self.helper() + 1 }
    fn helper(&self) -> u32 { 0 }
}
pub(crate) fn internal() {}
pub fn free() {}
";
        let fns = parse(src);
        let resolve = fns.iter().find(|f| f.name == "resolve").unwrap();
        assert_eq!(resolve.impl_type.as_deref(), Some("Distinct"));
        assert!(resolve.is_pub);
        assert!(resolve.doc.contains("Resolve"));
        let helper = fns.iter().find(|f| f.name == "helper").unwrap();
        assert_eq!(helper.impl_type.as_deref(), Some("Distinct"));
        assert!(!helper.is_pub);
        let internal = fns.iter().find(|f| f.name == "internal").unwrap();
        assert!(!internal.is_pub, "pub(crate) is not public");
        let free = fns.iter().find(|f| f.name == "free").unwrap();
        assert!(free.is_pub);
        assert_eq!(free.impl_type, None);
    }

    #[test]
    fn trait_impl_records_self_type() {
        let src = "impl Display for Finding { fn fmt(&self) -> u32 { 1 } }";
        let fns = parse(src);
        assert_eq!(fns[0].impl_type.as_deref(), Some("Finding"));
    }

    #[test]
    fn return_position_impl_is_not_a_block() {
        let src = "pub fn f() -> u32 { g() }\nimpl S { fn m(&self) {} }";
        let fns = parse(src);
        assert_eq!(fns[0].impl_type, None);
        assert_eq!(fns[1].impl_type.as_deref(), Some("S"));
    }

    #[test]
    fn call_sites_classified() {
        let src = "\
fn f() {
    helper();
    other.method(1);
    WeightedSet::from_pairs(it);
    relstore::persist::save(x);
    println!(\"not a call\");
    if cond() { }
}
";
        let fns = parse(src);
        let calls = &fns[0].facts.calls;
        let names: Vec<(&str, bool)> = calls
            .iter()
            .map(|c| (c.name.as_str(), c.is_method))
            .collect();
        assert!(names.contains(&("helper", false)));
        assert!(names.contains(&("method", true)));
        assert!(names.contains(&("from_pairs", false)));
        assert!(names.contains(&("save", false)));
        assert!(names.contains(&("cond", false)));
        assert!(!names.iter().any(|(n, _)| *n == "println"));
        let fp = calls.iter().find(|c| c.name == "from_pairs").unwrap();
        assert_eq!(fp.path, vec!["WeightedSet".to_string()]);
        let sv = calls.iter().find(|c| c.name == "save").unwrap();
        assert_eq!(sv.path, vec!["relstore".to_string(), "persist".to_string()]);
    }

    #[test]
    fn body_facts_flags() {
        let src = "\
fn f(xs: &[f64], ctl: &C) -> f64 {
    let mut t = 0.0;
    for x in xs { ctl.charge(1); t += x; }
    t.clamp(0.0, 1.0)
}
fn g(x: f64) -> f64 { x.exp() }
";
        let fns = parse(src);
        assert!(fns[0].facts.charges);
        assert!(fns[0].facts.sanitizes);
        assert_eq!(fns[0].facts.loops.len(), 1);
        assert!(fns[0].facts.risky_arith);
        assert!(fns[1].facts.risky_arith);
        assert!(!fns[1].facts.charges);
    }

    #[test]
    fn locks_and_sends() {
        let src = "\
fn a(&self) {
    let g = self.inner.lock();
    self.tx.send(1);
}
fn b(&self) {
    self.shard(r).lock().insert(k, v);
}
fn c(w: &mut W) {
    w.write(buf);
}
";
        let fns = parse(src);
        let a = &fns[0].facts;
        assert_eq!(a.locks.len(), 1);
        assert_eq!(a.locks[0].label, "self.inner");
        assert_eq!(a.sends.len(), 1);
        // let-bound: held to end of fn, covering the send.
        assert!(a.locks[0].hold_end > a.sends[0].1);
        let b = &fns[1].facts;
        assert_eq!(b.locks.len(), 1);
        assert_eq!(b.locks[0].label, "self.shard()");
        // inline: held to end of statement only.
        assert!(
            b.locks[0].hold_end
                < fns[1]
                    .facts
                    .calls
                    .last()
                    .map(|c| c.idx)
                    .unwrap_or(usize::MAX)
                    + 100
        );
        // `.write(buf)` with arguments is io, not a lock.
        assert!(fns[2].facts.locks.is_empty());
    }

    #[test]
    fn panics_in_nested_fns_not_attributed_to_parent() {
        let src = "\
fn outer() {
    fn inner() { x.unwrap(); }
    inner();
}
";
        let fns = parse(src);
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.facts.panics.is_empty(), "{:?}", outer.facts.panics);
        assert_eq!(inner.facts.panics.len(), 1);
    }

    #[test]
    fn guard_param_and_test_flags_carry_over() {
        let src = "#[test]\nfn t() {}\npub fn h(guard: &mut dyn FnMut(u64) -> bool) { loop {} }";
        let fns = parse(src);
        assert!(fns.iter().find(|f| f.name == "t").unwrap().is_test);
        let h = fns.iter().find(|f| f.name == "h").unwrap();
        assert!(h.has_guard_param);
        assert_eq!(h.facts.loops.len(), 1);
    }
}
