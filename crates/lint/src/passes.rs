//! The seven project lints. Each pass walks one [`FileCtx`] token stream.
//!
//! These are deliberately *project-specific* heuristics, not a type
//! system: they know the workspace's conventions (guard closures, the
//! exec pool, FxHashMap) and they over-approximate — a site that is
//! provably safe gets an inline `distinct-lint: allow(...)` with the
//! proof as its reason, which doubles as documentation of the invariant.

use crate::catalog::{Finding, LintId};
use crate::lexer::TokKind;
use crate::model::{FileCtx, Role};

/// Files whose loops must charge the work budget (D005). Paths are
/// workspace-relative. This is the project's definition of "hot path":
/// the stage drivers where an unguarded loop can starve cancellation.
pub const HOT_PATH_FILES: [&str; 9] = [
    "crates/relgraph/src/propagate.rs",
    "crates/relgraph/src/kernel.rs",
    "crates/core/src/features.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/training.rs",
    "crates/core/src/refcluster.rs",
    "crates/core/src/learn.rs",
    "crates/svm/src/smo.rs",
    "crates/cluster/src/engine.rs",
];

/// Crates whose numeric code must stay in f64 (D006).
pub const NUMERIC_CRATES: [&str; 5] = ["core", "cluster", "svm", "relgraph", "eval"];

/// RunControl's own implementation — the one legitimate home of
/// `Instant::now` control flow (D004).
pub const CLOCK_HOME: &str = "crates/core/src/control.rs";

/// The only library files allowed to open the filesystem write path
/// directly (D105): the Vfs seam itself and the atomic temp+rename
/// primitive built on it. Everything durable goes through these.
pub const PERSIST_HOMES: [&str; 2] = [
    "crates/relstore/src/faults.rs",
    "crates/relstore/src/persist.rs",
];

/// Run every syntactic pass over one file.
pub fn run_all(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    d001_hash_order(ctx, &mut out);
    d002_panic_paths(ctx, &mut out);
    d003_raw_threads(ctx, &mut out);
    d004_wall_clock(ctx, &mut out);
    d005_unguarded_hot_loops(ctx, &mut out);
    d006_lossy_floats(ctx, &mut out);
    d007_missing_docs(ctx, &mut out);
    d105_raw_persistence(ctx, &mut out);
    out.sort_by_key(|f| (f.line, f.id));
    out
}

/// Run the per-file passes that still apply under `check --semantic`.
/// D002 and D005 are omitted: their interprocedural refinements D101 and
/// D104 replace them at workspace scope.
pub fn run_semantic_file(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    // No d001 here: the D107 taint pass subsumes the syntactic hash-order
    // scan with real flow-sensitivity (sorts kill the taint).
    d003_raw_threads(ctx, &mut out);
    d004_wall_clock(ctx, &mut out);
    d006_lossy_floats(ctx, &mut out);
    d007_missing_docs(ctx, &mut out);
    d105_raw_persistence(ctx, &mut out);
    out.sort_by_key(|f| (f.line, f.id));
    out
}

fn finding(ctx: &FileCtx, id: LintId, line: u32, message: impl Into<String>) -> Finding {
    Finding {
        id,
        file: ctx.path.clone(),
        line,
        message: message.into(),
    }
}

/// Whether the identifier names a hash-ordered container type.
fn is_hash_type(s: &str) -> bool {
    matches!(s, "HashMap" | "HashSet" | "FxHashMap" | "FxHashSet")
}

/// Token index of the matching close brace for the open brace at `open`.
fn match_brace(ctx: &FileCtx, open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < ctx.toks.len() {
        if ctx.toks[i].is_punct('{') {
            depth += 1;
        } else if ctx.toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    ctx.toks.len()
}

// ---------------------------------------------------------------- D001 --

/// Hash-order iteration feeding float accumulation or ordered output.
fn d001_hash_order(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.is_library() {
        return;
    }
    let toks = &ctx.toks;
    let n = toks.len();

    // 1. Collect bindings whose declaration mentions a hash container:
    //    `let [mut] name: FxHashMap<..> = ..` or `let name = FxHashMap::..`
    //    plus fn parameters `name: &FxHashMap<..>`.
    let mut hash_bindings: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < n {
        if toks[i].is_ident("let") {
            let mut j = ctx.next_code(i);
            if j < n && toks[j].is_ident("mut") {
                j = ctx.next_code(j);
            }
            if j < n && toks[j].kind == TokKind::Ident {
                let name = toks[j].text.clone();
                // Scan the statement to its `;` for a hash-type mention.
                let mut k = j;
                let mut depth = 0i32;
                let mut mentions_hash = false;
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
                        mentions_hash = true;
                    }
                    k += 1;
                }
                if mentions_hash {
                    hash_bindings.push(name);
                }
            }
        }
        // Parameters / field accesses typed as hash containers:
        // `ident : [& mut] [path ::] FxHashMap`.
        if toks[i].kind == TokKind::Ident && !is_hash_type(&toks[i].text) {
            let j = ctx.next_code(i);
            if j < n && toks[j].is_punct(':') {
                let mut k = ctx.next_code(j);
                // Skip `&`, `mut`, and leading path segments.
                for _ in 0..8 {
                    if k >= n {
                        break;
                    }
                    let t = &toks[k];
                    if t.is_punct('&') || t.is_ident("mut") || t.is_punct(':') {
                        k = ctx.next_code(k);
                    } else if t.kind == TokKind::Ident && !is_hash_type(&t.text) {
                        // A path segment like `relstore` — keep going only
                        // across `::`.
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
                if k < n && toks[k].kind == TokKind::Ident && is_hash_type(&toks[k].text) {
                    hash_bindings.push(toks[i].text.clone());
                }
            }
        }
        i += 1;
    }
    hash_bindings.sort();
    hash_bindings.dedup();
    let is_hash_binding = |t: &str| hash_bindings.iter().any(|b| b == t);

    // 2a. `for .. in <expr mentioning a hash binding or .values()/.keys()
    //     /.iter()/.drain() on one> { body with += / push / extend }`.
    let mut i = 0usize;
    while i < n {
        if toks[i].is_ident("for") && !ctx.in_test(i) {
            // Header: up to the `{` at angle-free depth 0.
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut header_hash: Option<String> = None;
            while j < n {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct('{') {
                    break;
                } else if t.kind == TokKind::Ident
                    && (is_hash_binding(&t.text) || is_hash_type(&t.text))
                {
                    header_hash = Some(t.text.clone());
                }
                j += 1;
            }
            if let (Some(src), true) = (header_hash, j < n) {
                let body_end = match_brace(ctx, j);
                let mut sink: Option<&'static str> = None;
                let mut k = j;
                while k < body_end {
                    let t = &toks[k];
                    if t.is_punct('+') && k + 1 < n && toks[k + 1].is_punct('=') {
                        sink = Some("`+=` accumulation");
                        break;
                    }
                    if t.kind == TokKind::Ident
                        && matches!(t.text.as_str(), "push" | "extend" | "push_str" | "write")
                        && ctx
                            .prev_code(k)
                            .map(|p| toks[p].is_punct('.'))
                            .unwrap_or(false)
                    {
                        sink = Some("ordered output (`push`/`extend`)");
                        break;
                    }
                    k += 1;
                }
                if let Some(s) = sink {
                    out.push(finding(
                        ctx,
                        LintId::D001,
                        toks[i].line,
                        format!("`for` over hash-ordered `{src}` with {s} in the loop body"),
                    ));
                    i = j;
                    continue;
                }
            }
        }
        i += 1;
    }

    // 2b. Iterator chains: `<hash binding>.iter()/.values()/.keys()/
    //     .drain()/.into_iter() ... .sum()/.fold()/.product()/.reduce()`
    //     within one statement.
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        if t.kind == TokKind::Ident && is_hash_binding(&t.text) && !ctx.in_test(i) {
            let j = ctx.next_code(i);
            if j < n && toks[j].is_punct('.') {
                let k = ctx.next_code(j);
                if k < n
                    && matches!(
                        toks[k].text.as_str(),
                        "iter" | "values" | "keys" | "drain" | "into_iter"
                    )
                {
                    // Scan the rest of the statement for a float-reducing
                    // adapter.
                    let mut m = k;
                    let mut depth = 0i32;
                    while m < n {
                        let u = &toks[m];
                        if u.is_punct('(') || u.is_punct('[') {
                            depth += 1;
                        } else if u.is_punct(')') || u.is_punct(']') {
                            depth -= 1;
                            if depth < 0 {
                                break;
                            }
                        } else if depth == 0 && (u.is_punct(';') || u.is_punct('{')) {
                            break;
                        } else if u.kind == TokKind::Ident
                            && matches!(u.text.as_str(), "sum" | "fold" | "product" | "reduce")
                        {
                            out.push(finding(
                                ctx,
                                LintId::D001,
                                toks[i].line,
                                format!(
                                    "`{}.{}()` chain reduced with `{}` in hash order",
                                    t.text, toks[k].text, u.text
                                ),
                            ));
                            break;
                        }
                        m += 1;
                    }
                }
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------- D002 --

/// Scan the token range `[from, to)` for panic sites: `.unwrap()`-family
/// method calls, `panic!`-family macros, and indexing by integer literal.
/// Test-masked tokens are skipped. Shared by the per-file D002 pass and
/// the interprocedural D101 pass (which scans function bodies).
pub fn panic_sites(ctx: &FileCtx, from: usize, to: usize) -> Vec<(u32, String)> {
    let toks = &ctx.toks;
    let n = toks.len().min(to);
    let mut out = Vec::new();
    for i in from..n {
        if ctx.in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];
        let next = ctx.next_code(i);
        let prev_dot = ctx
            .prev_code(i)
            .map(|p| toks[p].is_punct('.'))
            .unwrap_or(false);
        match t.text.as_str() {
            "unwrap" | "expect" | "unwrap_err" | "expect_err"
                if prev_dot && next < n && toks[next].is_punct('(') =>
            {
                out.push((t.line, format!("`.{}()` can panic", t.text)));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if next < n && toks[next].is_punct('!') && !prev_dot =>
            {
                out.push((t.line, format!("`{}!` in library code", t.text)));
            }
            _ => {}
        }
        // Indexing by integer literal: `expr[0]` where expr ends in an
        // identifier, `)`, or `]`.
        if (t.kind == TokKind::Ident || t.is_punct(')') || t.is_punct(']'))
            && next < n
            && toks[next].is_punct('[')
        {
            let lit = ctx.next_code(next);
            let close = ctx.next_code(lit);
            if lit < n && toks[lit].kind == TokKind::Int && close < n && toks[close].is_punct(']') {
                out.push((
                    t.line,
                    format!("indexing by literal `[{}]` can panic", toks[lit].text),
                ));
            }
        }
    }
    out
}

/// Panic paths in non-test library code.
fn d002_panic_paths(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.is_library() {
        return;
    }
    for (line, message) in panic_sites(ctx, 0, ctx.toks.len()) {
        out.push(finding(ctx, LintId::D002, line, message));
    }
}

// ---------------------------------------------------------------- D003 --

/// Raw threads/channels outside crates/exec.
fn d003_raw_threads(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.is_library() || ctx.crate_name == "exec" {
        return;
    }
    let toks = &ctx.toks;
    let n = toks.len();
    for i in 0..n {
        if ctx.in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let head = toks[i].text.as_str();
        let viol = match head {
            "thread" => Some(&["spawn", "scope", "Builder"][..]),
            "mpsc" => Some(&["channel", "sync_channel"][..]),
            "crossbeam" | "rayon" => Some(&[][..]),
            _ => None,
        };
        let Some(tails) = viol else { continue };
        if tails.is_empty() {
            out.push(finding(
                ctx,
                LintId::D003,
                toks[i].line,
                format!("`{head}` use outside crates/exec"),
            ));
            continue;
        }
        // `head :: tail`
        let c1 = ctx.next_code(i);
        let c2 = if c1 < n { ctx.next_code(c1) } else { n };
        let tail = if c2 < n { ctx.next_code(c2) } else { n };
        if c1 < n
            && toks[c1].is_punct(':')
            && c2 < n
            && toks[c2].is_punct(':')
            && tail < n
            && tails.contains(&toks[tail].text.as_str())
        {
            out.push(finding(
                ctx,
                LintId::D003,
                toks[i].line,
                format!("`{head}::{}` outside crates/exec", toks[tail].text),
            ));
        }
    }
}

// ---------------------------------------------------------------- D004 --

/// Wall-clock reads outside RunControl internals.
fn d004_wall_clock(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.is_library() || ctx.path == CLOCK_HOME {
        return;
    }
    let toks = &ctx.toks;
    let n = toks.len();
    for i in 0..n {
        if ctx.in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let head = toks[i].text.as_str();
        if head != "Instant" && head != "SystemTime" {
            continue;
        }
        let c1 = ctx.next_code(i);
        let c2 = if c1 < n { ctx.next_code(c1) } else { n };
        let tail = if c2 < n { ctx.next_code(c2) } else { n };
        if c1 < n
            && toks[c1].is_punct(':')
            && c2 < n
            && toks[c2].is_punct(':')
            && tail < n
            && toks[tail].is_ident("now")
        {
            out.push(finding(
                ctx,
                LintId::D004,
                toks[i].line,
                format!("`{head}::now()` outside RunControl"),
            ));
        }
    }
}

// ---------------------------------------------------------------- D005 --

/// Unguarded loops in hot-path files.
fn d005_unguarded_hot_loops(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.is_library() || !HOT_PATH_FILES.contains(&ctx.path.as_str()) {
        return;
    }
    let toks = &ctx.toks;
    for f in &ctx.fns {
        if f.is_test || f.body_start >= f.end {
            continue;
        }
        let body = &toks[f.body_start..f.end];
        let has_loop = body.iter().enumerate().any(|(k, t)| {
            t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "for" | "while" | "loop")
                // `loop` only counts as the keyword when followed by `{`.
                && (t.text != "loop" || {
                    let abs = f.body_start + k;
                    let nx = ctx.next_code(abs);
                    nx < toks.len() && toks[nx].is_punct('{')
                })
        });
        if !has_loop {
            continue;
        }
        if f.has_guard_param {
            continue;
        }
        let charges = body.iter().enumerate().any(|(k, t)| {
            if t.kind != TokKind::Ident {
                return false;
            }
            match t.text.as_str() {
                "guard" | "shared_guard" | "charge" | "status" => {
                    let abs = f.body_start + k;
                    let nx = ctx.next_code(abs);
                    nx < toks.len() && toks[nx].is_punct('(')
                }
                _ => false,
            }
        });
        if !charges {
            out.push(finding(
                ctx,
                LintId::D005,
                f.line,
                format!(
                    "fn `{}` loops in a hot-path file without a budget guard",
                    f.name
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- D105 --

/// Raw persistence writes outside the atomic temp+rename path.
fn d105_raw_persistence(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.is_library() || PERSIST_HOMES.contains(&ctx.path.as_str()) {
        return;
    }
    let toks = &ctx.toks;
    let n = toks.len();
    for i in 0..n {
        if ctx.in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let head = toks[i].text.as_str();
        let tails: &[&str] = match head {
            "fs" => &["write", "rename", "copy"],
            "File" => &["create", "create_new", "options"],
            "OpenOptions" => &["new"],
            _ => continue,
        };
        // `head :: tail`
        let c1 = ctx.next_code(i);
        let c2 = if c1 < n { ctx.next_code(c1) } else { n };
        let tail = if c2 < n { ctx.next_code(c2) } else { n };
        if c1 < n
            && toks[c1].is_punct(':')
            && c2 < n
            && toks[c2].is_punct(':')
            && tail < n
            && tails.contains(&toks[tail].text.as_str())
        {
            out.push(finding(
                ctx,
                LintId::D105,
                toks[i].line,
                format!(
                    "`{head}::{}` bypasses relstore::write_atomic",
                    toks[tail].text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- D006 --

/// Lossy float casts / f32 reductions in numeric crates.
fn d006_lossy_floats(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.is_library() || !NUMERIC_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let toks = &ctx.toks;
    let n = toks.len();
    for i in 0..n {
        if ctx.in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];
        // `as f32`
        if t.text == "as" {
            let j = ctx.next_code(i);
            if j < n && toks[j].is_ident("f32") {
                out.push(finding(
                    ctx,
                    LintId::D006,
                    t.line,
                    "`as f32` narrows the f64 pipeline",
                ));
            }
        }
        // `sum::<f32>()` / `product::<f32>()`
        if matches!(t.text.as_str(), "sum" | "product") {
            let mut j = ctx.next_code(i);
            let mut colons = 0;
            while j < n && toks[j].is_punct(':') && colons < 2 {
                colons += 1;
                j = ctx.next_code(j);
            }
            if colons == 2 && j < n && toks[j].is_punct('<') {
                let k = ctx.next_code(j);
                if k < n && toks[k].is_ident("f32") {
                    out.push(finding(
                        ctx,
                        LintId::D006,
                        t.line,
                        format!("`{}::<f32>()` reduces in f32", t.text),
                    ));
                }
            }
        }
        // f32-suffixed literal seeds (`0f32`, `0.0f32`).
        if matches!(toks[i].kind, TokKind::Ident) {
            continue;
        }
    }
    for i in 0..n {
        if ctx.in_test(i) {
            continue;
        }
        let t = &toks[i];
        if matches!(t.kind, TokKind::Int | TokKind::Float) && t.text.ends_with("f32") {
            out.push(finding(
                ctx,
                LintId::D006,
                t.line,
                format!("f32 literal `{}` in numeric code", t.text),
            ));
        }
    }
}

// ---------------------------------------------------------------- D007 --

/// Public API items in crates/core without doc comments.
fn d007_missing_docs(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.crate_name != "core" || ctx.role != Role::Library {
        return;
    }
    let toks = &ctx.toks;
    let n = toks.len();
    let inside_fn_body = |i: usize| {
        ctx.fns
            .iter()
            .any(|f| f.body_start < i && i < f.end && f.body_start != f.end)
    };
    for i in 0..n {
        if ctx.in_test(i) || !toks[i].is_ident("pub") || inside_fn_body(i) {
            continue;
        }
        let j = ctx.next_code(i);
        if j >= n {
            continue;
        }
        // `pub(crate)` etc. are not public API.
        if toks[j].is_punct('(') {
            continue;
        }
        let mut k = j;
        if toks[k].is_ident("unsafe") || toks[k].is_ident("async") || toks[k].is_ident("const") {
            // `pub const fn` — look one further for the item keyword, but
            // `pub const NAME` is itself an item.
            let k2 = ctx.next_code(k);
            if k2 < n && toks[k2].is_ident("fn") {
                k = k2;
            }
        }
        let item = toks[k].text.as_str();
        if !matches!(
            item,
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "mod"
        ) {
            continue;
        }
        // Item name for the message.
        let name_idx = ctx.next_code(k);
        let name = toks
            .get(name_idx)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        // `pub mod x;` — the module file documents itself with `//!` inner
        // docs, which rustc's missing_docs already enforces and this
        // declaration-site scan cannot see. Only inline `pub mod x { .. }`
        // bodies are checked here.
        if item == "mod" {
            let after_name = ctx.next_code(name_idx);
            if after_name < n && toks[after_name].is_punct(';') {
                continue;
            }
        }
        // Walk backwards over attributes and plain comments to find a doc
        // comment.
        let mut documented = false;
        let mut j = i;
        'back: while let Some(p) = {
            let mut q = j;
            let mut r = None;
            while q > 0 {
                q -= 1;
                if toks[q].kind != TokKind::Comment {
                    r = Some(q);
                    break;
                }
            }
            r
        } {
            match toks[p].kind {
                TokKind::DocComment => {
                    documented = true;
                    break 'back;
                }
                TokKind::Punct if toks[p].is_punct(']') => {
                    // Skip the attribute `#[ ... ]` backwards.
                    let mut depth = 0usize;
                    let mut q = p;
                    loop {
                        if toks[q].is_punct(']') {
                            depth += 1;
                        } else if toks[q].is_punct('[') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        if q == 0 {
                            break 'back;
                        }
                        q -= 1;
                    }
                    // Expect `#` before the `[`.
                    if q == 0 || !toks[q - 1].is_punct('#') {
                        break 'back;
                    }
                    j = q - 1;
                }
                _ => break 'back,
            }
        }
        if !documented {
            out.push(finding(
                ctx,
                LintId::D007,
                toks[i].line,
                format!("public `{item} {name}` has no doc comment"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> Vec<Finding> {
        run_all(&FileCtx::new(
            "crates/core/src/x.rs",
            "core",
            Role::Library,
            src,
        ))
    }

    fn ids(f: &[Finding]) -> Vec<(LintId, u32)> {
        f.iter().map(|f| (f.id, f.line)).collect()
    }

    #[test]
    fn d001_for_loop_accumulation() {
        let f = lib(
            "/// d\npub fn s() -> f64 {\n let m: FxHashMap<u32, f64> = FxHashMap::default();\n let mut t = 0.0;\n for (_, v) in &m {\n  t += v;\n }\n t\n}",
        );
        assert!(ids(&f).contains(&(LintId::D001, 5)), "{f:?}");
    }

    #[test]
    fn d001_chain_sum() {
        let f =
            lib("/// d\npub fn s() -> f64 {\n let m = FxHashMap::default();\n m.values().sum()\n}");
        assert!(ids(&f).contains(&(LintId::D001, 4)), "{f:?}");
    }

    #[test]
    fn d001_btreemap_is_fine() {
        let f = lib(
            "/// d\npub fn s() -> f64 {\n let m: BTreeMap<u32, f64> = BTreeMap::new();\n m.values().sum()\n}",
        );
        assert!(!ids(&f).iter().any(|(id, _)| *id == LintId::D001), "{f:?}");
    }

    #[test]
    fn d002_unwrap_and_literal_index() {
        let f = lib("/// d\npub fn f(v: &[f64]) -> f64 { v.first().unwrap() + v[0] }");
        let hits: Vec<_> = ids(&f)
            .into_iter()
            .filter(|(id, _)| *id == LintId::D002)
            .collect();
        assert_eq!(hits.len(), 2, "{f:?}");
    }

    #[test]
    fn d002_ignores_tests() {
        let f = lib("#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}");
        assert!(f.iter().all(|f| f.id != LintId::D002), "{f:?}");
    }

    #[test]
    fn d003_thread_spawn() {
        let f = lib("/// d\npub fn f() { std::thread::spawn(|| {}); }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D003), "{f:?}");
        // Same code in crates/exec is fine.
        let ok = run_all(&FileCtx::new(
            "crates/exec/src/lib.rs",
            "exec",
            Role::Library,
            "/// d\npub fn f() { std::thread::spawn(|| {}); }",
        ));
        assert!(ok.iter().all(|f| f.id != LintId::D003));
    }

    #[test]
    fn d004_instant_now() {
        let f = lib("/// d\npub fn f() { let t = Instant::now(); }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D004), "{f:?}");
    }

    #[test]
    fn d005_unguarded_loop_in_hot_file() {
        let src = "/// d\npub fn hot(xs: &[f64]) -> f64 {\n let mut t = 0.0;\n for x in xs { t += x; }\n t\n}";
        let f = run_all(&FileCtx::new(
            "crates/core/src/pipeline.rs",
            "core",
            Role::Library,
            src,
        ));
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D005), "{f:?}");
        // A guard parameter silences it.
        let src2 = "/// d\npub fn hot(xs: &[f64], guard: &mut dyn FnMut(u64) -> bool) -> f64 {\n let mut t = 0.0;\n for x in xs { t += x; }\n t\n}";
        let f2 = run_all(&FileCtx::new(
            "crates/core/src/pipeline.rs",
            "core",
            Role::Library,
            src2,
        ));
        assert!(f2.iter().all(|f| f.id != LintId::D005), "{f2:?}");
        // Calling ctl.charge(..) silences it too.
        let src3 = "/// d\npub fn hot(xs: &[f64], ctl: &RunControl) -> f64 {\n let mut t = 0.0;\n for x in xs { if ctl.charge(1).is_some() { break; } t += x; }\n t\n}";
        let f3 = run_all(&FileCtx::new(
            "crates/core/src/pipeline.rs",
            "core",
            Role::Library,
            src3,
        ));
        assert!(f3.iter().all(|f| f.id != LintId::D005), "{f3:?}");
        // Outside the hot list nothing fires.
        let f4 = lib(src);
        assert!(f4.iter().all(|f| f.id != LintId::D005), "{f4:?}");
    }

    #[test]
    fn d105_raw_write_and_open_options() {
        let f = lib("/// d\npub fn save(p: &Path, b: &[u8]) { std::fs::write(p, b).ok(); }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D105), "{f:?}");
        let f = lib("/// d\npub fn save(p: &Path) { let _ = OpenOptions::new().write(true); }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D105), "{f:?}");
        let f = lib("/// d\npub fn save(p: &Path) { let _ = std::fs::File::create(p); }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D105), "{f:?}");
    }

    #[test]
    fn d105_persist_homes_and_tests_are_exempt() {
        let src = "pub fn raw(p: &Path, b: &[u8]) { std::fs::write(p, b).ok(); }";
        for home in PERSIST_HOMES {
            let f = run_all(&FileCtx::new(home, "relstore", Role::Library, src));
            assert!(f.iter().all(|f| f.id != LintId::D105), "{home}: {f:?}");
        }
        let f = lib("#[cfg(test)]\nmod tests {\n fn t() { std::fs::write(p, b).unwrap(); }\n}");
        assert!(f.iter().all(|f| f.id != LintId::D105), "{f:?}");
        // Reads are not persistence.
        let f = lib(
            "/// d\npub fn load(p: &Path) -> String { fs::read_to_string(p).unwrap_or_default() }",
        );
        assert!(f.iter().all(|f| f.id != LintId::D105), "{f:?}");
    }

    #[test]
    fn d006_as_f32() {
        let f = lib("/// d\npub fn f(x: f64) -> f64 { (x as f32) as f64 }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D006), "{f:?}");
    }

    #[test]
    fn d007_missing_doc_on_pub_item() {
        let f = lib("pub fn naked() {}\n/// Documented.\npub fn fine() {}");
        let hits: Vec<_> = ids(&f)
            .into_iter()
            .filter(|(id, _)| *id == LintId::D007)
            .collect();
        assert_eq!(hits, vec![(LintId::D007, 1)], "{f:?}");
    }

    #[test]
    fn d007_attrs_between_doc_and_item_are_ok() {
        let f = lib("/// Documented.\n#[derive(Debug, Clone)]\npub struct S { x: u32 }");
        assert!(f.iter().all(|f| f.id != LintId::D007), "{f:?}");
    }

    #[test]
    fn d007_pub_crate_is_exempt() {
        let f = lib("pub(crate) fn internal() {}");
        assert!(f.iter().all(|f| f.id != LintId::D007), "{f:?}");
    }
}
