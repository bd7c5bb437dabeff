//! The lint registry: every ID, its severity, and the invariant it guards.

use std::fmt;

/// Lint identifiers. `D000` is the meta-lint about the suppression
/// machinery itself; `D003`–`D007` and `D105` guard the project
/// invariants with per-file token scans, and `D101`–`D104` plus the
/// dataflow passes `D106`–`D109` and the allocation/copy-discipline
/// passes `D110`–`D113` are the interprocedural (call-graph-backed)
/// lints. `check` runs them all. The retired IDs D001, D002 and D005
/// parse as unknown, so a suppression naming one is a D000.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the catalog below documents each variant
pub enum LintId {
    D000,
    D003,
    D004,
    D006,
    D007,
    D101,
    D102,
    D103,
    D104,
    D105,
    D106,
    D107,
    D108,
    D109,
    D110,
    D111,
    D112,
    D113,
}

/// How bad a violation is. `Deny` findings fail the build outright (after
/// baseline resolution); `Warn` findings fail only when new.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Violates a correctness invariant.
    Deny,
    /// Violates a hygiene contract.
    Warn,
}

impl LintId {
    /// All registered lints, in ID order.
    pub const ALL: [LintId; 18] = [
        LintId::D000,
        LintId::D003,
        LintId::D004,
        LintId::D006,
        LintId::D007,
        LintId::D101,
        LintId::D102,
        LintId::D103,
        LintId::D104,
        LintId::D105,
        LintId::D106,
        LintId::D107,
        LintId::D108,
        LintId::D109,
        LintId::D110,
        LintId::D111,
        LintId::D112,
        LintId::D113,
    ];

    /// Parse `"D003"` (case-insensitive) into an ID.
    pub fn parse(s: &str) -> Option<LintId> {
        let s = s.trim().to_ascii_uppercase();
        LintId::ALL.iter().copied().find(|id| id.name() == s)
    }

    /// The canonical `D00x` name.
    pub fn name(self) -> &'static str {
        match self {
            LintId::D000 => "D000",
            LintId::D003 => "D003",
            LintId::D004 => "D004",
            LintId::D006 => "D006",
            LintId::D007 => "D007",
            LintId::D101 => "D101",
            LintId::D102 => "D102",
            LintId::D103 => "D103",
            LintId::D104 => "D104",
            LintId::D105 => "D105",
            LintId::D106 => "D106",
            LintId::D107 => "D107",
            LintId::D108 => "D108",
            LintId::D109 => "D109",
            LintId::D110 => "D110",
            LintId::D111 => "D111",
            LintId::D112 => "D112",
            LintId::D113 => "D113",
        }
    }

    /// Severity class.
    pub fn severity(self) -> Severity {
        match self {
            LintId::D000 => Severity::Deny,
            LintId::D003 => Severity::Deny,
            LintId::D004 => Severity::Deny,
            LintId::D006 => Severity::Warn,
            LintId::D007 => Severity::Warn,
            LintId::D101 => Severity::Deny,
            LintId::D102 => Severity::Warn,
            LintId::D103 => Severity::Deny,
            LintId::D104 => Severity::Warn,
            LintId::D105 => Severity::Deny,
            LintId::D106 => Severity::Deny,
            LintId::D107 => Severity::Deny,
            LintId::D108 => Severity::Deny,
            LintId::D109 => Severity::Deny,
            LintId::D110 => Severity::Warn,
            LintId::D111 => Severity::Warn,
            LintId::D112 => Severity::Deny,
            LintId::D113 => Severity::Deny,
        }
    }

    /// One-line description (shown with each finding).
    pub fn title(self) -> &'static str {
        match self {
            LintId::D000 => "malformed, reason-less, or unused lint suppression",
            LintId::D003 => "raw thread or channel construction outside crates/exec",
            LintId::D004 => "direct wall-clock read outside RunControl internals",
            LintId::D006 => "lossy float cast or f32 reduction in numeric code",
            LintId::D007 => "public API item without a doc comment in crates/core",
            LintId::D101 => "panic path reachable from a public crates/core function on the call graph",
            LintId::D102 => "unsanitized probability arithmetic flowing to a cluster sink",
            LintId::D103 => "inconsistent lock order or lock held across a channel send",
            LintId::D104 => "loop on a charge-free call path from a pipeline entry point",
            LintId::D105 => "raw filesystem write bypassing the atomic temp+rename persist path",
            LintId::D106 => "lock guard live across an exec pool submit, channel op, or chunk closure",
            LintId::D107 => "nondeterministic value (hash order, thread count, arrival order) reaching a deterministic sink",
            LintId::D108 => "interior-mutability cell on the resolve/train/update spine without a shared(...) declaration",
            LintId::D109 => "chunk closure mutating captured state outside the ordered-commit protocol",
            LintId::D110 => "heap allocation inside a charge-guarded hot loop without a capacity or hoisted buffer",
            LintId::D111 => "clone whose result is only ever read on every CFG path; borrow instead",
            LintId::D112 => "scratch structure on the resolve/update spine without a scratch(...) declaration",
            LintId::D113 => "collection on the update/resolve spine that grows on some path but is cleared on none",
        }
    }

    /// Full rationale for `--explain`: which invariant, why it matters for
    /// DISTINCT, and what the sanctioned fix is.
    pub fn rationale(self) -> &'static str {
        match self {
            LintId::D000 => {
                "Suppressions are part of the audit trail: `// distinct-lint: \
                 allow(D00x, reason=\"...\")` must name at least one known lint \
                 and carry a non-empty reason, and must actually match a finding \
                 on its line (or the next line, for a comment standing alone). \
                 Anything else is noise that hides real debt, so the analyzer \
                 rejects it."
            }
            LintId::D003 => {
                "All parallelism goes through crates/exec's ordered-commit \
                 pool: it is the only code that knows how to keep output \
                 deterministic under any thread count and to honor RunControl \
                 at chunk boundaries. A raw std::thread::spawn or mpsc channel \
                 anywhere else bypasses both guarantees. Fix: use \
                 exec::Executor (par_map_guarded / par_chunks), or move the \
                 primitive into crates/exec."
            }
            LintId::D004 => {
                "Deadlines are RunControl's job: it amortizes clock reads and \
                 latches the first trip so every worker observes one coherent \
                 interruption cause. Scattered Instant::now()/SystemTime reads \
                 make timing-dependent control flow that no test can pin down. \
                 Reading the clock for *reporting* (ExecReport wall times, the \
                 eval timing harness) is fine — say so in an allow reason."
            }
            LintId::D006 => {
                "The numeric pillars accumulate in f64 end to end; an `as f32` \
                 narrowing (or an f32 sum) anywhere in core/cluster/svm/ \
                 relgraph/eval library code silently halves the mantissa and \
                 breaks the 1e-9 oracle-differential tolerance. Fix: stay in \
                 f64; cast only at presentation boundaries (and allow with a \
                 reason there)."
            }
            LintId::D007 => {
                "crates/core is the public API surface of the system; every \
                 public item there must carry a doc comment so the request/ \
                 outcome vocabulary (ResolveRequest, Degraded, ExecReport...) \
                 stays discoverable. rustc's missing_docs warning already \
                 guards rustdoc-visible items; this pass keeps the invariant \
                 in the same report as the rest and covers macro-generated \
                 gaps rustc misses."
            }
            LintId::D101 => {
                "No public entry point may panic because of bad input; it \
                 returns a typed error or a Degraded report instead. A panic \
                 site (unwrap/expect/panic!/literal index) in library code is \
                 a finding when the workspace call graph can reach it from any \
                 public non-test function of crates/core, the library's API \
                 surface. Panic sites no such function reaches (the dev-only \
                 generators, the test oracle) are not. The resolver \
                 over-approximates (method calls match by name, constrained \
                 to the caller's normal-dependency closure), so a D101 \
                 finding means `no proof of unreachability`, and every \
                 finding names one concrete call chain from a public core \
                 function. Fix: return a typed error along that chain, or prove the \
                 invariant in an allow(D101) reason."
            }
            LintId::D102 => {
                "Definitions 2–3 of the paper require set-resemblance and \
                 walk probabilities to stay inside [0,1]; downstream, \
                 crates/cluster compares them against thresholds, so an \
                 out-of-range or NaN value silently corrupts clustering \
                 decisions. A function whose name or doc comment marks it as \
                 probability-valued, whose body does range-risky arithmetic \
                 (+, *, /, exp, powf, sum) with no in-body sanitizer \
                 (clamp / debug_assert! / min+max pair), and which the \
                 clustering engine transitively calls, is flagged at its \
                 definition. Fix: debug_assert! the range (cheap, checked in \
                 the overflow CI profile) or clamp at the boundary."
            }
            LintId::D103 => {
                "The 16-way sharded ProfileCache and the exec pool's channels \
                 mix locks with message passing; a cycle in the lock-\
                 acquisition order, or a lock held across a blocking \
                 `.send(...)`, is a deadlock that only manifests under \
                 contention. The pass extracts per-function lock acquisitions \
                 (`.lock()`/`.read()`/`.write()` with empty argument lists), \
                 propagates held-lock sets through calls (a `let`-bound guard \
                 is assumed held to end of function — an over-approximation), \
                 and flags ordering cycles and held-across-send sites. Fix: \
                 keep lock scopes single-statement (as ProfileCache does), \
                 impose one global acquisition order, or drop guards before \
                 sending."
            }
            LintId::D104 => {
                "A loop only starves cancellation if some call path from a \
                 public resolve*/train* entry point reaches it without ever \
                 passing a budget charge (a guard parameter, or a guard/\
                 shared_guard/charge/status call). Leaf helpers whose every caller charges per item are \
                 proven safe by the graph, so no hand-kept list of hot files \
                 is needed. A finding names the charge-free chain. Fix: charge \
                 the budget somewhere on that chain, or allow(D104) with the \
                 proof if the path is infeasible."
            }
            LintId::D105 => {
                "Durable runs promise that a crash at any write leaves either \
                 the old artifact or the new one, never a torn half — the \
                 resume chaos sweep (tests/resume_chaos.rs) kills a run at \
                 every write index and relies on it. That only holds if every \
                 checkpoint/snapshot byte flows through \
                 relstore::write_atomic (write `.tmp`, then rename), which \
                 also routes I/O through the fault-injectable Vfs seam. A \
                 direct `std::fs::write`, `File::create`, or \
                 `OpenOptions::new` in library code outside the persistence \
                 modules escapes both. Fix: take a `&mut dyn Vfs` and call \
                 write_atomic, or allow(D105) with a reason for genuinely \
                 non-durable output (e.g. the lint baseline itself)."
            }
            LintId::D106 => {
                "A `Mutex`/`RwLock` guard (such as a shard of the \
                 ProfileCache in crates/core) must never be live across an exec pool \
                 boundary — a `par_map_guarded`/`par_map_indexed`/`par_chunks` \
                 submit, a channel `send`/`recv`, or a call that transitively \
                 reaches one. The pool's workers rendezvous on channels; a \
                 guard held by the submitting thread while they run turns any \
                 worker that needs the same lock into a deadlock that only \
                 manifests under contention, and blocks the ordered commit. \
                 The pass runs a forward may-liveness dataflow over each \
                 function's statement CFG (guard born at the `.lock()`/\
                 `.read()`/`.write()` call, killed by `drop(guard)` or scope \
                 exit) and flags the first live statement that hits a pool \
                 boundary, naming the guard binding, the blocking call, and \
                 the call chain. Fix: make the lock scope self-contained \
                 before the boundary (take the value out of the lock in one \
                 statement), or `drop(guard)` first."
            }
            LintId::D107 => {
                "Bit-identical output at any thread count dies the moment a \
                 value derived from an unordered source — HashMap/HashSet iteration with no sort or ordered-commit \
                 sink, a thread-count read (`auto_threads`, \
                 `available_parallelism`, `.threads()`), or chunk-arrival \
                 order (`recv()` results) — flows into f64 accumulation, an \
                 ExecReport counter, a checkpoint write, or a clustering \
                 input. Float addition is not associative and counters must \
                 not depend on scheduling, so any such flow makes the result \
                 depend on hash history or the machine's core count. The \
                 pass seeds taint at the unordered sources, propagates it \
                 through `let` bindings along the statement CFG (a `sort`/\
                 `sort_unstable` on the binding kills the taint — that is \
                 the ordered-commit sink), and flags tainted values reaching \
                 an accumulation, counter, persist, or clustering sink. Fix: \
                 sort before consuming, route results through the exec \
                 pool's ordered commit, or show the merge is commutative \
                 (integer counters, max/min) in an allow(D107) reason."
            }
            LintId::D108 => {
                "Every interior-mutability cell (`Mutex`, `RwLock`, \
                 `Atomic*`, `Cell`/`RefCell`) that the resolve/train/\
                 apply_updates spines can reach is a place where concurrent \
                 writers could destroy determinism, so each one must carry a \
                 `// distinct-lint: shared(<merge-discipline>)` declaration \
                 on its field or static, naming its ordered-commit or \
                 commutative-merge story (e.g. `shared(first-insert-wins: \
                 profiles are bit-identical, so racing inserts commute)`). \
                 The registry is exported by `distinct-lint facts --emit \
                 json` and cross-checked by tests/determinism_facts.rs \
                 against the 1/2/8-thread determinism suite, so the static \
                 declaration and the dynamic evidence gate each other. An \
                 undeclared cell cannot be baselined (like D000): the whole \
                 point is that the discipline is written down where the cell \
                 lives. Fix: add the shared(...) declaration with a real \
                 merge story, or remove the interior mutability."
            }
            LintId::D110 => {
                "The similarity and update hot paths charge a work budget per \
                 kernel unit precisely because they run millions of \
                 iterations at paper scale (127K authors, 1.29M references); \
                 a fresh heap allocation inside such a charge-guarded loop — \
                 a `Vec::new`/`vec![]` that grows by push, `format!`, \
                 `String::new` + push_str, `.collect()`, `.to_vec()`, or \
                 `.to_string()` — multiplies allocator traffic by the \
                 iteration count and turns the planned serving layer's \
                 per-request cost into sustained QPS loss. The pass flags \
                 allocation sites inside loops of budget-charging functions \
                 unless the buffer was created with `with_capacity` before \
                 the loop or is a hoisted buffer `.clear()`ed per iteration. \
                 Fix: hoist the buffer out of the loop and clear it per \
                 iteration, size it once with `with_capacity`, or justify a \
                 genuinely per-item allocation in an allow(D110) reason."
            }
            LintId::D111 => {
                "A `.clone()` exists to hand out an owned copy that will be \
                 mutated, moved, or outlive the source; when dataflow over \
                 the function's CFG shows the clone's binding is only ever \
                 *read* on every path — no reassignment, no `&mut` borrow, \
                 no in-place mutator call, no move into a struct, return, or \
                 call that takes it by value — the copy is pure allocator \
                 churn and a borrow of the original would have type-checked. \
                 On the resolve spine the large values are profiles (one \
                 buffer of sorted per-path columns, thousands of entries for \
                 a prolific author) and the similarity tables built from \
                 them, so a read-only copy of either costs a full-size \
                 allocation on every call. Fix: borrow the original (`&x`), \
                 or, when the clone feeds an API that genuinely needs \
                 ownership the pass cannot see, say so in an allow(D111) \
                 reason."
            }
            LintId::D112 => {
                "The ROADMAP names arenas-rebuilt-per-call as the remaining \
                 hot-path debt: every reusable arena, cache, pool, or \
                 scratch buffer constructed on the resolve/apply_updates \
                 spine must carry a `// distinct-lint: scratch(<reuse-\
                 discipline>)` declaration on its construction or field, \
                 naming how the structure is reused across calls and why \
                 reuse preserves bit-identical output (e.g. `scratch(pooled \
                 per-worker: rebuilt in place with identical inputs, so \
                 interning order is unchanged)`). The registry is exported \
                 by `distinct-lint facts --emit json`, and an undeclared \
                 scratch structure cannot be baselined (like D000/D108): \
                 the reuse story must be written down where the structure \
                 lives, or deliberately rejected there. Fix: add the \
                 scratch(...) declaration with a real reuse discipline — or \
                 make the structure actually reusable first."
            }
            LintId::D113 => {
                "A long-lived engine serving incremental updates must not \
                 grow without bound: a collection field reachable from the \
                 update/resolve spine that gains entries on some path \
                 (`push`/`insert`/`extend`/`append`) while *no* path in the \
                 workspace ever clears, evicts, truncates, drains, or \
                 removes from it is a memory leak with a QPS fuse — the \
                 profile cache, the engine's one piece of incremental state, \
                 only stays bounded because apply_updates evicts the profiles \
                 of every dirtied reference. The pass collects \
                 growth sites on `self.<field>` in spine-reachable library \
                 code and flags fields with growth but no shrink site \
                 anywhere in non-test code. Fix: wire eviction/clearing into \
                 the maintenance path, or document why growth is bounded by \
                 the input catalog in an allow(D113) reason."
            }
            LintId::D109 => {
                "crates/exec's determinism story is: workers compute into \
                 thread-local buffers, send `(chunk_lo, result)` down a \
                 channel, and the submitting thread commits the buffered \
                 results in ascending chunk order. A chunk closure (an \
                 argument to `spawn`, `par_map_guarded`, `par_map_indexed`, \
                 or `par_chunks`) that instead mutates captured state \
                 directly — `push`/`insert`/`extend`/indexed assignment/`+=` \
                 on a binding it did not declare — commits in scheduling \
                 order, which varies with thread count and timing. Atomic \
                 ops (`store`/`fetch_add`/`compare_exchange`) and channel \
                 `send`s are the sanctioned escape hatches (commutative or \
                 ordered by the committing side). Fix: accumulate into a \
                 closure-local value and send it, or declare the cell's \
                 commutative-merge story via shared(...) and an allow(D109) \
                 reason."
            }
        }
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub id: LintId,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What was seen (short, single line).
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {} — {}",
            self.id,
            self.file,
            self.line,
            self.id.title(),
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for id in LintId::ALL {
            assert_eq!(LintId::parse(id.name()), Some(id));
            assert_eq!(LintId::parse(&id.name().to_lowercase()), Some(id));
        }
        assert_eq!(LintId::parse("D999"), None);
        assert_eq!(LintId::parse(""), None);
    }

    #[test]
    fn every_lint_has_title_and_rationale() {
        for id in LintId::ALL {
            assert!(!id.title().is_empty());
            assert!(id.rationale().len() > 80, "{id} rationale too thin");
        }
    }
}
