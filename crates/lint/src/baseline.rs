//! The checked-in debt baseline (`lint.toml`).
//!
//! The baseline is a ratchet with exact-count semantics per `(lint, file)`:
//! more findings than baselined means new debt (fail), fewer means the
//! baseline is stale and must be regenerated (also fail, so the recorded
//! debt can only shrink deliberately). `--fix-baseline` rewrites the file
//! from the current findings.
//!
//! The parser is a tiny hand-rolled subset of TOML — `[[entry]]` tables
//! with `key = "string"` / `key = integer` pairs — because this crate is
//! dependency-free by design.

use crate::catalog::{Finding, LintId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One baselined debt bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Which lint.
    pub id: LintId,
    /// Workspace-relative file.
    pub file: String,
    /// Exact number of findings tolerated in that file.
    pub count: usize,
}

/// The whole baseline, keyed for exact-count comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `(id, file) -> count`, sorted for stable serialization.
    pub entries: BTreeMap<(LintId, String), usize>,
}

/// What comparing current findings against the baseline produced.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// Buckets with more findings than baselined (new debt) — the excess
    /// findings themselves, to report precisely.
    pub new_debt: Vec<Finding>,
    /// Buckets with fewer findings than baselined (stale entries).
    pub stale: Vec<(LintId, String, usize, usize)>,
}

impl Diff {
    /// Clean means the run matches the baseline exactly.
    pub fn is_clean(&self) -> bool {
        self.new_debt.is_empty() && self.stale.is_empty()
    }
}

impl Baseline {
    /// Parse the baseline file. Unknown keys are rejected so typos cannot
    /// silently widen the ratchet.
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let mut out = Baseline::default();
        let mut cur: Option<(Option<LintId>, Option<String>, Option<usize>)> = None;
        let mut flush = |cur: &mut Option<(Option<LintId>, Option<String>, Option<usize>)>|
         -> Result<(), String> {
            if let Some((id, file, count)) = cur.take() {
                let id = id.ok_or("entry missing `id`")?;
                let file = file.ok_or("entry missing `file`")?;
                let count = count.ok_or("entry missing `count`")?;
                if count == 0 {
                    return Err(format!("entry {id} {file} has count = 0; delete it"));
                }
                if out.entries.insert((id, file.clone()), count).is_some() {
                    return Err(format!("duplicate entry for {id} {file}"));
                }
            }
            Ok(())
        };
        for (lineno, raw) in src.lines().enumerate() {
            let line = raw.trim();
            let at = |m: &str| format!("lint.toml:{}: {m}", lineno + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[entry]]" {
                flush(&mut cur).map_err(|e| at(&e))?;
                cur = Some((None, None, None));
                continue;
            }
            let Some((key, val)) = line.split_once('=') else {
                return Err(at(&format!("unrecognized line `{line}`")));
            };
            let (key, val) = (key.trim(), val.trim());
            let Some(slot) = cur.as_mut() else {
                return Err(at("key outside any [[entry]] table"));
            };
            match key {
                "id" => {
                    let s = unquote(val).map_err(|e| at(&e))?;
                    let id =
                        LintId::parse(&s).ok_or_else(|| at(&format!("unknown lint id `{s}`")))?;
                    slot.0 = Some(id);
                }
                "file" => slot.1 = Some(unquote(val).map_err(|e| at(&e))?),
                "count" => {
                    slot.2 = Some(val.parse::<usize>().map_err(|_| {
                        at(&format!(
                            "count must be a non-negative integer, got `{val}`"
                        ))
                    })?)
                }
                other => return Err(at(&format!("unknown key `{other}`"))),
            }
        }
        flush(&mut cur)?;
        Ok(out)
    }

    /// Serialize back to the canonical `lint.toml` text.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "# distinct-lint baseline: pre-existing debt, per (lint, file), exact counts.\n\
             # A run must match these counts exactly — more findings is new debt,\n\
             # fewer means this file is stale. Regenerate deliberately with:\n\
             #   cargo run -p lint -- check --fix-baseline\n",
        );
        for ((id, file), count) in &self.entries {
            let _ = write!(
                s,
                "\n[[entry]]\nid = \"{id}\"\nfile = \"{file}\"\ncount = {count}\n"
            );
        }
        s
    }

    /// Build a baseline that exactly covers `findings` (D000 excluded:
    /// suppression hygiene is never baselined).
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut out = Baseline::default();
        for f in findings {
            if f.id == LintId::D000 {
                continue;
            }
            *out.entries.entry((f.id, f.file.clone())).or_insert(0) += 1;
        }
        out
    }

    /// Compare findings against the baseline with exact-count semantics.
    pub fn diff(&self, findings: &[Finding]) -> Diff {
        let mut diff = Diff::default();
        let mut got: BTreeMap<(LintId, String), Vec<&Finding>> = BTreeMap::new();
        for f in findings {
            if f.id == LintId::D000 {
                // Suppression hygiene cannot be baselined away.
                diff.new_debt.push(f.clone());
                continue;
            }
            got.entry((f.id, f.file.clone())).or_default().push(f);
        }
        for (key, fs) in &got {
            let allowed = self.entries.get(key).copied().unwrap_or(0);
            if fs.len() > allowed {
                // Report the excess count's worth of findings, highest
                // lines last so the listing reads top-down.
                for f in fs.iter().skip(allowed) {
                    diff.new_debt.push((*f).clone());
                }
            }
        }
        for ((id, file), &allowed) in &self.entries {
            let have = got.get(&(*id, file.clone())).map_or(0, |v| v.len());
            if have < allowed {
                diff.stale.push((*id, file.clone(), allowed, have));
            }
        }
        // The grouping above walks buckets in (lint, file) order and puts
        // D000s first, which interleaves badly in the report. Re-sort to
        // the same (file, line, id) order the analysis itself uses, so
        // `check` output is byte-stable and reads top-down per file.
        diff.new_debt
            .sort_by(|a, b| (&a.file, a.line, a.id).cmp(&(&b.file, b.line, b.id)));
        diff
    }
}

fn unquote(v: &str) -> Result<String, String> {
    v.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a double-quoted string, got `{v}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(id: LintId, file: &str, line: u32) -> Finding {
        Finding {
            id,
            file: file.into(),
            line,
            message: "m".into(),
        }
    }

    #[test]
    fn roundtrip() {
        let b = Baseline::from_findings(&[
            f(LintId::D101, "a.rs", 1),
            f(LintId::D101, "a.rs", 2),
            f(LintId::D104, "b.rs", 3),
        ]);
        let text = b.render();
        let b2 = Baseline::parse(&text).unwrap();
        assert_eq!(b, b2);
        assert_eq!(b2.entries[&(LintId::D101, "a.rs".into())], 2);
    }

    #[test]
    fn exact_counts_both_directions() {
        let b = Baseline::from_findings(&[f(LintId::D101, "a.rs", 1), f(LintId::D101, "a.rs", 2)]);
        // Matching count: clean.
        assert!(b
            .diff(&[f(LintId::D101, "a.rs", 1), f(LintId::D101, "a.rs", 5)])
            .is_clean());
        // One extra: new debt, and only the excess is reported.
        let d = b.diff(&[
            f(LintId::D101, "a.rs", 1),
            f(LintId::D101, "a.rs", 2),
            f(LintId::D101, "a.rs", 3),
        ]);
        assert_eq!(d.new_debt.len(), 1);
        // One fewer: stale.
        let d = b.diff(&[f(LintId::D101, "a.rs", 1)]);
        assert!(d.new_debt.is_empty());
        assert_eq!(d.stale.len(), 1);
        assert_eq!(d.stale[0].2, 2);
        assert_eq!(d.stale[0].3, 1);
    }

    #[test]
    fn unbaselined_finding_is_new_debt() {
        let b = Baseline::default();
        let d = b.diff(&[f(LintId::D107, "x.rs", 7)]);
        assert_eq!(d.new_debt.len(), 1);
    }

    #[test]
    fn d000_cannot_be_baselined() {
        let b = Baseline::from_findings(&[f(LintId::D000, "a.rs", 1)]);
        assert!(b.entries.is_empty());
        let d = b.diff(&[f(LintId::D000, "a.rs", 1)]);
        assert_eq!(d.new_debt.len(), 1);
    }

    #[test]
    fn new_debt_is_sorted_by_file_line_id() {
        // Unbaselined findings across several files and lints, fed in
        // shuffled order, with a D000 (which short-circuits the bucket
        // walk) thrown in: the report order must still be (file, line, id).
        let b = Baseline::default();
        let d = b.diff(&[
            f(LintId::D104, "b.rs", 9),
            f(LintId::D000, "b.rs", 2),
            f(LintId::D107, "a.rs", 30),
            f(LintId::D101, "a.rs", 30),
            f(LintId::D101, "a.rs", 4),
        ]);
        let order: Vec<(String, u32, LintId)> = d
            .new_debt
            .iter()
            .map(|x| (x.file.clone(), x.line, x.id))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".into(), 4, LintId::D101),
                ("a.rs".into(), 30, LintId::D101),
                ("a.rs".into(), 30, LintId::D107),
                ("b.rs".into(), 2, LintId::D000),
                ("b.rs".into(), 9, LintId::D104),
            ]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::parse("id = \"D003\"").is_err()); // key outside table
        assert!(Baseline::parse("[[entry]]\nid = \"D999\"\nfile = \"a\"\ncount = 1").is_err());
        assert!(Baseline::parse("[[entry]]\nid = \"D003\"\nfile = \"a\"\ncount = 0").is_err());
        assert!(Baseline::parse("[[entry]]\nid = \"D003\"\nfile = \"a\"").is_err());
        assert!(Baseline::parse("[[entry]]\nwhat = 3").is_err());
        let dup = "[[entry]]\nid = \"D003\"\nfile = \"a\"\ncount = 1\n\
                   [[entry]]\nid = \"D003\"\nfile = \"a\"\ncount = 2";
        assert!(Baseline::parse(dup).is_err());
    }
}
