//! The per-file project lints (D003, D004, D006, D007, D105). Each pass
//! walks one [`FileCtx`] token stream; the call-graph lints live in
//! [`crate::callgraph`] and the modules it runs.
//!
//! These are deliberately *project-specific* heuristics, not a type
//! system: they know the workspace's conventions (the exec pool,
//! RunControl's clock, the f64 pipeline, the persist seam) and they
//! over-approximate — a site that is provably safe gets an inline
//! `distinct-lint: allow(...)` with the proof as its reason, which
//! doubles as documentation of the invariant.

use crate::catalog::{Finding, LintId};
use crate::lexer::TokKind;
use crate::model::{FileCtx, Role};

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

/// Run every per-file pass over one file.
pub fn run_file(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
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

// ---------------------------------------------------------- panic sites --

/// Scan the token range `[from, to)` for panic sites: `.unwrap()`-family
/// method calls, `panic!`-family macros, and indexing by integer literal.
/// Test-masked tokens are skipped. The parser records them per function
/// body for D101.
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
        run_file(&FileCtx::new(
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
    fn panic_sites_skip_test_code() {
        let src = "pub fn f(v: &[f64]) -> f64 { v.first().unwrap() + v[0] }\n\
                   fn g() { panic!(\"boom\") }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        let ctx = FileCtx::new("crates/core/src/x.rs", "core", Role::Library, src);
        let lines: Vec<u32> = panic_sites(&ctx, 0, ctx.toks.len())
            .iter()
            .map(|&(line, _)| line)
            .collect();
        assert_eq!(lines, vec![1, 1, 2]);
    }

    #[test]
    fn d003_thread_spawn() {
        let f = lib("/// d\npub fn f() { std::thread::spawn(|| {}); }");
        assert!(ids(&f).iter().any(|(id, _)| *id == LintId::D003), "{f:?}");
        // Same code in crates/exec is fine.
        let ok = run_file(&FileCtx::new(
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
            let f = run_file(&FileCtx::new(home, "relstore", Role::Library, src));
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
