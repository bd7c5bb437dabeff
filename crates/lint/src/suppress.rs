//! Inline suppressions: `// distinct-lint: allow(D101, reason="...")`.
//!
//! A suppression comment covers findings on its own line; a comment that
//! stands alone on a line covers the next source line instead. Every
//! suppression must carry a non-empty reason, and every suppression must
//! actually suppress something — violations of either rule surface as
//! [`LintId::D000`] findings, so dead or lazy allows cannot accumulate.
//!
//! A second body form, `// distinct-lint: shared(<merge-discipline>)`, is
//! not a suppression: it *declares* an interior-mutability cell's
//! ordered-commit or commutative-merge story for the D108 shared-state
//! registry ([`crate::concur`]). A third, `// distinct-lint:
//! scratch(<reuse-discipline>)`, declares a reusable arena/cache/scratch
//! structure's cross-call reuse story for the D112 scratch registry
//! ([`crate::alloc`]). Both are parsed here (so a malformed body still
//! surfaces as D000) but collected and validated by the call-graph passes,
//! not by the per-line suppression matcher.
//!
//! [`filter`] is the one place the suppression rule is applied; `check`
//! and the fixture harnesses all go through it.

use crate::catalog::{Finding, LintId};
use crate::lexer::TokKind;
use crate::model::FileCtx;

/// One parsed suppression comment.
#[derive(Debug, Clone)]
struct Suppression {
    /// Lints this comment allows.
    ids: Vec<LintId>,
    /// Line the comment sits on.
    comment_line: u32,
    /// Line whose findings it covers.
    target_line: u32,
    /// Whether any finding was actually suppressed (filled by [`apply`]).
    used: bool,
}

/// Apply `ctx`'s inline suppressions to the file's raw findings. Returns
/// the findings no suppression covers, plus a D000 for each malformed
/// suppression and for each one that matched nothing, and the number of
/// suppressions that matched.
pub fn filter(ctx: &FileCtx, findings: Vec<Finding>) -> (Vec<Finding>, usize) {
    let (mut sups, mut out) = collect(ctx);
    out.extend(apply(findings, &mut sups));
    let mut used = 0;
    for s in &sups {
        if s.used {
            used += 1;
        } else {
            out.push(Finding {
                id: LintId::D000,
                file: ctx.path.clone(),
                line: s.comment_line,
                message: format!(
                    "suppression for {} matches no finding on line {}",
                    s.ids.iter().map(|i| i.name()).collect::<Vec<_>>().join("/"),
                    s.target_line
                ),
            });
        }
    }
    (out, used)
}

/// Scan a file's comment tokens for suppressions. Malformed ones come back
/// as D000 findings immediately.
fn collect(ctx: &FileCtx) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut findings = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Comment {
            continue;
        }
        let Some(pos) = t.text.find("distinct-lint:") else {
            continue;
        };
        let body = t.text[pos + "distinct-lint:".len()..].trim();
        if body.starts_with("shared") {
            // A shared(...) registry declaration, not a suppression; its
            // shape and placement are validated by concur::d108.
            if parse_shared(body).is_err() {
                findings.push(Finding {
                    id: LintId::D000,
                    file: ctx.path.clone(),
                    line: t.line,
                    message: format!(
                        "expected `shared(<merge-discipline>)` with a non-empty discipline, got `{body}`"
                    ),
                });
            }
            continue;
        }
        if body.starts_with("scratch") {
            // A scratch(...) registry declaration, not a suppression; its
            // shape and placement are validated by alloc::d112.
            if parse_scratch(body).is_err() {
                findings.push(Finding {
                    id: LintId::D000,
                    file: ctx.path.clone(),
                    line: t.line,
                    message: format!(
                        "expected `scratch(<reuse-discipline>)` with a non-empty discipline, got `{body}`"
                    ),
                });
            }
            continue;
        }
        match parse_body(body) {
            Ok(ids) => {
                // A comment with code before it on the same line covers
                // that line; a standalone comment covers the next line.
                let standalone = ctx
                    .prev_code(i)
                    .map(|p| ctx.toks[p].line < t.line)
                    .unwrap_or(true);
                let target_line = if standalone { t.line + 1 } else { t.line };
                sups.push(Suppression {
                    ids,
                    comment_line: t.line,
                    target_line,
                    used: false,
                });
            }
            Err(why) => findings.push(Finding {
                id: LintId::D000,
                file: ctx.path.clone(),
                line: t.line,
                message: why,
            }),
        }
    }
    (sups, findings)
}

/// Parse `shared(<merge-discipline>)` into the discipline text. The
/// discipline is free prose naming the cell's ordered-commit or
/// commutative-merge story; only non-emptiness is enforced here.
pub fn parse_shared(body: &str) -> Result<String, String> {
    let inner = body
        .trim()
        .strip_prefix("shared")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('('))
        .and_then(|r| r.rfind(')').map(|e| &r[..e]))
        .ok_or_else(|| format!("expected `shared(<merge-discipline>)`, got `{body}`"))?;
    if inner.trim().is_empty() {
        return Err("shared(...) declaration must name its merge discipline".into());
    }
    Ok(inner.trim().to_string())
}

/// Parse `scratch(<reuse-discipline>)` into the discipline text. The
/// discipline is free prose naming how the structure is reused across
/// calls and why reuse preserves bit-identical output; only
/// non-emptiness is enforced here.
pub fn parse_scratch(body: &str) -> Result<String, String> {
    let inner = body
        .trim()
        .strip_prefix("scratch")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('('))
        .and_then(|r| r.rfind(')').map(|e| &r[..e]))
        .ok_or_else(|| format!("expected `scratch(<reuse-discipline>)`, got `{body}`"))?;
    if inner.trim().is_empty() {
        return Err("scratch(...) declaration must name its reuse discipline".into());
    }
    Ok(inner.trim().to_string())
}

/// Parse `allow(D003, D004, reason="...")` into its IDs; the reason must
/// be present and non-empty.
fn parse_body(body: &str) -> Result<Vec<LintId>, String> {
    let body = body.trim();
    let inner = body
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('('))
        .and_then(|r| r.rfind(')').map(|e| &r[..e]))
        .ok_or_else(|| format!("expected `allow(D00x, reason=\"...\")`, got `{body}`"))?;
    let mut ids = Vec::new();
    let mut has_reason = false;
    for part in split_args(inner) {
        let part = part.trim();
        if let Some(r) = part.strip_prefix("reason") {
            let r = r.trim_start();
            let r = r
                .strip_prefix('=')
                .map(str::trim)
                .ok_or("`reason` must be `reason=\"...\"`")?;
            let r = r
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .ok_or("reason must be a double-quoted string")?;
            if r.trim().is_empty() {
                return Err("reason string must not be empty".into());
            }
            has_reason = true;
        } else if !part.is_empty() {
            let id = LintId::parse(part).ok_or_else(|| format!("unknown lint id `{part}`"))?;
            ids.push(id);
        }
    }
    if ids.is_empty() {
        return Err("suppression names no lint ids".into());
    }
    if !has_reason {
        return Err("suppression is missing its reason=\"...\"".into());
    }
    Ok(ids)
}

/// Split on commas that are not inside the reason string.
fn split_args(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    out.push(cur);
    out
}

/// Drop findings covered by a suppression, marking those suppressions used.
fn apply(findings: Vec<Finding>, sups: &mut [Suppression]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            for s in sups.iter_mut() {
                if s.target_line == f.line && s.ids.contains(&f.id) {
                    s.used = true;
                    return false;
                }
            }
            true
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Role;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("crates/c/src/a.rs", "c", Role::Library, src)
    }

    #[test]
    fn trailing_suppression_covers_its_line() {
        let c = ctx("let x = m.get(&k); // distinct-lint: allow(D101, reason=\"checked above\")");
        let (sups, bad) = collect(&c);
        assert!(bad.is_empty());
        assert_eq!(sups.len(), 1);
        assert_eq!(sups[0].target_line, 1);
        assert_eq!(sups[0].ids, vec![LintId::D101]);
    }

    #[test]
    fn standalone_suppression_covers_next_line() {
        let c = ctx(
            "// distinct-lint: allow(D107, reason=\"integer counts only\")\nfor v in m.values() {}",
        );
        let (sups, bad) = collect(&c);
        assert!(bad.is_empty());
        assert_eq!(sups[0].target_line, 2);
    }

    #[test]
    fn multiple_ids() {
        let c = ctx("x(); // distinct-lint: allow(D101, D004, reason=\"why, and more\")");
        let (sups, bad) = collect(&c);
        assert!(bad.is_empty());
        // The comma inside the reason does not split off a bogus ID.
        assert_eq!(sups[0].ids, vec![LintId::D101, LintId::D004]);
    }

    #[test]
    fn missing_reason_is_d000() {
        let c = ctx("x(); // distinct-lint: allow(D101)");
        let (sups, bad) = collect(&c);
        assert!(sups.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].id, LintId::D000);
    }

    #[test]
    fn empty_reason_is_d000() {
        let c = ctx("x(); // distinct-lint: allow(D101, reason=\"  \")");
        let (_, bad) = collect(&c);
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn unknown_id_is_d000() {
        let c = ctx("x(); // distinct-lint: allow(D042, reason=\"nope\")");
        let (_, bad) = collect(&c);
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn shared_declaration_is_neither_suppression_nor_d000() {
        let c = ctx(
            "// distinct-lint: shared(first-insert-wins: racing inserts are bit-identical)\nshards: Vec<Mutex<Map>>,",
        );
        let (sups, bad) = collect(&c);
        assert!(sups.is_empty());
        assert!(bad.is_empty());
    }

    #[test]
    fn empty_shared_discipline_is_d000() {
        let c = ctx("// distinct-lint: shared(  )\nx: Mutex<u32>,");
        let (sups, bad) = collect(&c);
        assert!(sups.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].id, LintId::D000);
    }

    #[test]
    fn scratch_declaration_is_neither_suppression_nor_d000() {
        let c = ctx(
            "// distinct-lint: scratch(rebuilt in place per call: identical inputs intern identically)\nlet arena = SetArena::build(sets);",
        );
        let (sups, bad) = collect(&c);
        assert!(sups.is_empty());
        assert!(bad.is_empty());
    }

    #[test]
    fn empty_scratch_discipline_is_d000() {
        let c = ctx("// distinct-lint: scratch()\nlet pool = ArenaPool::new();");
        let (sups, bad) = collect(&c);
        assert!(sups.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].id, LintId::D000);
    }

    #[test]
    fn apply_consumes_matching_findings() {
        let c = ctx("bad(); // distinct-lint: allow(D101, reason=\"proven\")");
        let (mut sups, _) = collect(&c);
        let fs = vec![
            Finding {
                id: LintId::D101,
                file: "f".into(),
                line: 1,
                message: "m".into(),
            },
            Finding {
                id: LintId::D101,
                file: "f".into(),
                line: 9,
                message: "m".into(),
            },
        ];
        let left = apply(fs, &mut sups);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].line, 9);
        assert!(sups[0].used);
    }
}
