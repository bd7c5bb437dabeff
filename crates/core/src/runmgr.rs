//! Durable, resumable resolution: the run manager.
//!
//! [`Distinct::resolve`] computes everything in memory; a crash at 95% of
//! a paper-scale run loses all of it. [`Distinct::resolve_durable`] runs
//! the same batch pipeline — profile fan-out, pairwise similarity tables,
//! agglomerative clustering — and commits an atomic, checksummed
//! checkpoint into a **run directory** as each answer-bearing stage
//! completes:
//!
//! ```text
//! <run_dir>/
//!   run.json           run manifest: format version + request fingerprint
//!   similarity.ck      the full pairwise leaf tables (stage 2 output)
//!   clustering.ck      labels + merge history (the final answer)
//! ```
//!
//! Profiles are not committed. They are a pure function of the catalog,
//! the join-path set and the reference, and recomputing them (or finding
//! them in the engine's profile cache) costs far less than encoding them.
//!
//! Every file is written with [`relstore::write_atomic`] (temp + rename,
//! the sanctioned persistence primitive of lint D105) and framed like the
//! engine checkpoint: magic line with a format version, FNV-1a-64
//! checksum, JSON payload. A killed run therefore leaves only complete,
//! verifiable artifacts plus at most one `.tmp` orphan.
//!
//! **Resume** is the same call on the same directory: the manifest
//! fingerprint proves the directory belongs to this exact request (same
//! references, threshold, constraints, weights, catalog), then completed
//! stages are skipped — a committed `clustering.ck` returns immediately,
//! a committed `similarity.ck` skips profiling and the similarity stage,
//! and otherwise the run starts again from profiles. Because each stage's
//! persisted output round-trips `f64`s exactly, a resumed run's partition
//! is bit-identical to an uninterrupted one (the chaos sweep in
//! `tests/resume_chaos.rs` proves this at every kill point).
//!
//! Three robustness seams ride along:
//!
//! * **retry with backoff** — transient I/O failures are retried up to
//!   [`RunOptions::max_retries`] times with exponential backoff and
//!   deterministic, seeded jitter (the same splitmix64 recipe as the
//!   fault injector, so schedules reproduce per seed);
//! * **watchdog** — when [`RunOptions::stall_after`] is set, a
//!   [`exec::Watchdog`] observes a heartbeat beaten at every work charge
//!   of every stage and at every commit; silence trips the run with the
//!   typed [`InterruptKind::Stalled`], degrading it like any other limit
//!   instead of hanging forever;
//! * **memory budget** — when [`RunOptions::memory_budget_bytes`] is set
//!   and resident memory exceeds it before the profile stage, the shared
//!   profile cache is evicted once (profiles are pure caches — always
//!   safe).

use crate::checkpoint::{corrupt, Framing};
use crate::control::{InterruptKind, RunControl};
use crate::pipeline::{Distinct, DistinctError, ResolveOutcome};
use crate::refcluster::DistinctMerger;
use crate::request::{ExecReport, ResolveRequest};
use crate::update::{UpdateReport, UpdateTuple};
use cluster::{Clustering, Dendrogram};
use relstore::{fnv1a64, write_atomic, StdVfs, Vfs};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::time::Duration;

/// Run-directory format version. Bumped whenever any persisted layout or
/// payload schema changes shape; resuming a directory written by any
/// other version fails with [`DistinctError::VersionMismatch`].
pub const RUN_FORMAT_VERSION: u32 = 2;

/// Magic prefix of every run-directory file's header line; the numeric
/// suffix is the format version.
const RUN_MAGIC_PREFIX: &str = "DISTINCTRUN";

/// Every run-directory file is framed like the engine checkpoint.
const RUN_FRAMING: Framing = Framing {
    prefix: RUN_MAGIC_PREFIX,
    version: RUN_FORMAT_VERSION,
};

const MANIFEST_FILE: &str = "run.json";
const SIMILARITY_FILE: &str = "similarity.ck";
const CLUSTERING_FILE: &str = "clustering.ck";
const STREAM_MANIFEST_FILE: &str = "stream.json";

/// Tuning knobs of a durable run. The defaults suit test- to mid-scale
/// runs.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Updates applied (and committed) per update-stream chunk
    /// checkpoint. Durable resolves commit whole stages and ignore it.
    pub chunk_size: usize,
    /// Transient I/O retries per operation (0 = fail fast, which the
    /// chaos kill sweeps use to make every injected fault fatal).
    pub max_retries: u32,
    /// First retry delay; doubles on each subsequent attempt.
    pub backoff_base: Duration,
    /// Seed of the deterministic backoff jitter stream.
    pub retry_seed: u64,
    /// Trip the run with [`InterruptKind::Stalled`] after this much
    /// heartbeat silence; `None` disables the watchdog.
    pub stall_after: Option<Duration>,
    /// Watchdog poll cadence (stall detection slack is one poll).
    pub watchdog_poll: Duration,
    /// Evict the profile cache once, before the profile stage, when
    /// resident memory exceeds this; `None` disables the guard.
    pub memory_budget_bytes: Option<u64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            chunk_size: 256,
            max_retries: 3,
            backoff_base: Duration::from_millis(2),
            retry_seed: 2007,
            stall_after: None,
            watchdog_poll: Duration::from_millis(25),
            memory_budget_bytes: None,
        }
    }
}

/// What the run manager did, alongside the resolution outcome: which
/// stages were restored instead of recomputed, how hard the durability
/// machinery had to work.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Checkpoint frames this run committed after the manifest:
    /// `similarity.ck` and `clustering.ck`, so at most 2.
    pub chunks_committed: usize,
    /// Stage 2 was restored from `similarity.ck` (profiling skipped).
    pub similarity_restored: bool,
    /// The final `clustering.ck` was restored (nothing recomputed).
    pub clustering_restored: bool,
    /// Transient I/O retries performed across the whole run.
    pub io_retries: u64,
    /// Times the memory guard evicted the profile cache: 1 when resident
    /// memory was over budget before the profile stage, else 0.
    pub memory_evictions: u32,
    /// The watchdog fired (the outcome will be degraded as `Stalled`).
    pub stalled: bool,
}

/// A durable run's result: the ordinary [`ResolveOutcome`] plus the
/// [`RunReport`] of the durability machinery.
#[derive(Debug, Clone)]
pub struct DurableOutcome {
    /// The resolution result, exactly as [`Distinct::resolve`] shapes it.
    pub outcome: ResolveOutcome,
    /// What the run manager restored, committed, and retried.
    pub run: RunReport,
}

/// On-disk manifest claiming a run directory for one exact request.
#[derive(Debug, Serialize, Deserialize)]
struct RunManifest {
    format: u32,
    /// FNV-1a-64 over the request identity: references, threshold,
    /// constraints, weights, measure/composite, catalog size, paths.
    fingerprint: String,
    refs: usize,
}

/// Stage 2 output: the full pairwise leaf tables. JSON round-trips `f64`
/// exactly, so a merger rebuilt from these clusters bit-identically.
#[derive(Debug, Serialize, Deserialize)]
struct SimilarityCk {
    format: u32,
    n: usize,
    resem: Vec<Vec<f64>>,
    dwalk: Vec<Vec<f64>>,
}

/// The final answer: labels plus the merge history that produced them.
/// Merge `k` is `(a, b, similarity, size)` and joins clusters `a` and `b`
/// into cluster `n + k`. The similarity is kept as its IEEE-754 bits: a
/// must-link merge happens at `+inf`, which a JSON number cannot carry.
#[derive(Debug, Serialize, Deserialize)]
struct ClusteringCk {
    format: u32,
    labels: Vec<usize>,
    merges: Vec<(usize, usize, u64, usize)>,
}

/// On-disk manifest claiming a run directory for one exact update stream
/// (base catalog + full update log + chunking).
#[derive(Debug, Serialize, Deserialize)]
struct StreamManifest {
    format: u32,
    /// FNV-1a-64 over the stream identity: base tuple count, the whole
    /// update log, weights, measure/composite, threshold, paths.
    fingerprint: String,
    updates: usize,
    /// Chunk size fixed at claim time — a resume honors the committed
    /// chunk chain regardless of the options it was called with.
    chunk: usize,
}

/// One committed update chunk: what applying `updates[start..start+len]`
/// did, plus the partition of every name the chunk affected.
#[derive(Debug, Serialize, Deserialize)]
struct UpdateChunkCk {
    format: u32,
    start: usize,
    len: usize,
    report: UpdateReport,
    partitions: Vec<(String, Vec<usize>)>,
}

/// A durable update stream's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateStreamOutcome {
    /// Accumulated [`UpdateReport`] across every chunk (committed and
    /// replayed).
    pub report: UpdateReport,
    /// Final partition per affected name, sorted by name: each name's
    /// labels from the last chunk that touched it (untouched thereafter,
    /// so still current at stream end).
    pub partitions: Vec<(String, Vec<usize>)>,
    /// Chunks this call applied, resolved, and committed.
    pub chunks_committed: usize,
    /// Chunks restored from checkpoints (updates re-applied to rebuild
    /// engine state, partitions taken from disk without re-resolving).
    pub chunks_replayed: usize,
    /// Transient I/O retries across the stream.
    pub io_retries: u64,
}

/// Retry-with-backoff state shared across every I/O operation of a run.
/// Jitter is a deterministic splitmix64 stream over (seed, attempt
/// index) — the same finalizer the fault injector uses — so a given seed
/// always produces the same backoff schedule.
struct Retry {
    max: u32,
    base: Duration,
    seed: u64,
    attempts: u64,
}

impl Retry {
    fn new(opts: &RunOptions) -> Self {
        Retry {
            max: opts.max_retries,
            base: opts.backoff_base,
            seed: opts.retry_seed,
            attempts: 0,
        }
    }

    fn jitter(&mut self) -> Duration {
        self.attempts += 1;
        let mut z = self
            .seed
            .wrapping_add(self.attempts.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let bound = (self.base.as_micros() as u64).max(1);
        Duration::from_micros(z % bound)
    }

    /// Run `op`, retrying transient failures with exponential backoff and
    /// seeded jitter. The final failure surfaces as a store I/O error
    /// naming `what`.
    fn run<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> Result<T, DistinctError> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if attempt >= self.max {
                        return Err(DistinctError::Store(relstore::StoreError::Io {
                            context: what.to_string(),
                            reason: e.to_string(),
                        }));
                    }
                    attempt += 1;
                    let backoff = self
                        .base
                        .saturating_mul(1u32 << (attempt - 1).min(10))
                        .saturating_add(self.jitter());
                    std::thread::sleep(backoff);
                }
            }
        }
    }
}

/// Read and decode one run file, treating "not there yet" as a normal
/// resume state.
fn read_framed<T: Deserialize>(
    vfs: &mut dyn Vfs,
    path: &Path,
    retry: &mut Retry,
    format_of: impl Fn(&T) -> u32,
) -> Result<Option<T>, DistinctError> {
    let bytes = retry.run(&format!("read {}", path.display()), || {
        match vfs.read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    })?;
    bytes
        .map(|bytes| RUN_FRAMING.unframe(path, &bytes, format_of))
        .transpose()
}

/// Serialize, frame, and atomically commit one run file.
fn write_framed<T: Serialize>(
    vfs: &mut dyn Vfs,
    dir: &Path,
    name: &str,
    value: &T,
    retry: &mut Retry,
) -> Result<(), DistinctError> {
    let json = serde_json::to_string(value).map_err(|e| {
        DistinctError::Store(relstore::StoreError::Io {
            context: format!("serialize {name}"),
            reason: e.to_string(),
        })
    })?;
    let blob = RUN_FRAMING.frame(&json);
    retry.run(&format!("write {name}"), || {
        write_atomic(vfs, dir, name, blob.as_bytes())
    })
}

/// Rebuild a committed `clustering.ck` over `n` references. Merge `k`
/// creates cluster `n + k`, so it must join two distinct clusters below
/// that id, neither merged before; and the labels must be the history's
/// own cut. Anything else is corruption, refused before
/// [`Dendrogram::cut`] could index out of bounds.
fn restore_clustering(
    path: &Path,
    ck: ClusteringCk,
    n: usize,
) -> Result<Clustering, DistinctError> {
    let mut merged = vec![false; n + ck.merges.len()];
    let mut dendrogram = Dendrogram::new(n);
    for (k, &(a, b, similarity, size)) in ck.merges.iter().enumerate() {
        let into = n + k;
        if a == b || a >= into || b >= into || merged[a] || merged[b] {
            return Err(corrupt(
                path,
                format!("merge {k} joins clusters {a} and {b} into {into}: not a merge history"),
            ));
        }
        merged[a] = true;
        merged[b] = true;
        dendrogram.record(a, b, f64::from_bits(similarity), size);
    }
    if ck.labels != dendrogram.cut(f64::NEG_INFINITY) {
        return Err(corrupt(
            path,
            format!(
                "labels of {} references are not the cut of the {n}-leaf merges",
                ck.labels.len()
            ),
        ));
    }
    Ok(Clustering {
        labels: ck.labels,
        dendrogram,
    })
}

impl Distinct {
    /// The identity of one durable request, as a fingerprint hex string.
    /// Everything that changes the answer participates: the references
    /// and their order, the threshold, constraints, installed weights,
    /// measure/composite modes, the join-path set, and the catalog size.
    fn run_fingerprint(&self, req: &ResolveRequest<'_>, min_sim: f64) -> String {
        use std::fmt::Write as _;
        let mut key = self.engine_key("run", min_sim);
        for r in req.refs {
            let _ = write!(key, "r{}:{};", r.rel.0, r.tid.0);
        }
        for &(a, b) in &req.must_link {
            let _ = write!(key, "m{a}-{b};");
        }
        for &(a, b) in &req.cannot_link {
            let _ = write!(key, "c{a}-{b};");
        }
        format!("{:016x}", fnv1a64(key.as_bytes()))
    }

    /// The start of a fingerprint key of kind `kind`: what shapes every
    /// answer of this engine at threshold `min_sim` — the catalog size,
    /// the measure/composite modes, the join-path set, and the installed
    /// weights.
    fn engine_key(&self, kind: &str, min_sim: f64) -> String {
        use std::fmt::Write as _;
        let mut key = format!(
            "{kind}-v{RUN_FORMAT_VERSION};tuples={};min_sim={:016x};measure={:?};composite={:?};",
            self.catalog().tuple_count(),
            min_sim.to_bits(),
            self.config().measure,
            self.config().composite,
        );
        for d in &self.paths().descriptions {
            key.push_str(d);
            key.push(';');
        }
        for w in self.weights().resem.iter().chain(&self.weights().walk) {
            let _ = write!(key, "{:016x},", w.to_bits());
        }
        key
    }

    /// Durable [`Distinct::resolve`]: same pipeline, same answer, but the
    /// similarity tables and the final clustering are committed into the
    /// request's run directory ([`ResolveRequest::resume`]), so a crashed
    /// or degraded run restarts from its last committed stage instead of
    /// from zero. Uses the real filesystem and default [`RunOptions`].
    pub fn resolve_durable(
        &self,
        req: &ResolveRequest<'_>,
    ) -> Result<DurableOutcome, DistinctError> {
        self.resolve_durable_with(req, &mut StdVfs, &RunOptions::default())
    }

    /// [`Distinct::resolve_durable`] through an explicit [`Vfs`] (the
    /// fault-injectable entry point) with explicit [`RunOptions`]. A
    /// request clustering cannot run — a non-finite threshold, or a
    /// malformed or contradictory constraint pair — is refused with
    /// [`DistinctError::Config`] before anything is written.
    pub fn resolve_durable_with(
        &self,
        req: &ResolveRequest<'_>,
        vfs: &mut dyn Vfs,
        opts: &RunOptions,
    ) -> Result<DurableOutcome, DistinctError> {
        let run_dir = req.run_dir.ok_or_else(|| {
            DistinctError::Config(
                "resolve_durable needs a run directory (ResolveRequest::resume)".into(),
            )
        })?;
        let n = req.refs.len();
        let min_sim = req.min_sim.unwrap_or(self.config().min_sim);
        let ref_rel = self.paths().start;
        req.check(min_sim, ref_rel, self.catalog().relation(ref_rel).len())
            .map_err(DistinctError::Config)?;
        let unlimited = RunControl::new();
        let ctl = req.control.unwrap_or(&unlimited);
        let mut retry = Retry::new(opts);
        let mut report = RunReport::default();

        retry.run("create run directory", || vfs.create_dir_all(run_dir))?;

        // Claim the directory, or verify an existing claim: a fingerprint
        // mismatch means the directory belongs to a different resolution
        // and must not be mixed into this one.
        let fingerprint = self.run_fingerprint(req, min_sim);
        let manifest_path = run_dir.join(MANIFEST_FILE);
        match read_framed(vfs, &manifest_path, &mut retry, |m: &RunManifest| m.format)? {
            Some(m) if m.fingerprint == fingerprint && m.refs == n => {}
            Some(_) => {
                return Err(corrupt(
                    &manifest_path,
                    "run directory belongs to a different resolution (fingerprint mismatch)",
                ))
            }
            None => {
                let manifest = RunManifest {
                    format: RUN_FORMAT_VERSION,
                    fingerprint,
                    refs: n,
                };
                write_framed(vfs, run_dir, MANIFEST_FILE, &manifest, &mut retry)?;
            }
        }

        // Fast path: the run already finished — return its committed
        // answer without touching a single profile.
        let clustering_path = run_dir.join(CLUSTERING_FILE);
        if let Some(ck) = read_framed(vfs, &clustering_path, &mut retry, |c: &ClusteringCk| {
            c.format
        })? {
            let clustering = restore_clustering(&clustering_path, ck, n)?;
            report.clustering_restored = true;
            report.io_retries = retry.attempts;
            return Ok(DurableOutcome {
                outcome: ResolveOutcome {
                    clustering,
                    degraded: None,
                    exec: ExecReport {
                        peak_rss_bytes: crate::control::peak_rss_bytes().unwrap_or(0),
                        ..Default::default()
                    },
                },
                run: report,
            });
        }

        // Committed tables make profiles and the similarity stage
        // unnecessary: clustering only needs the tables.
        let similarity_path = run_dir.join(SIMILARITY_FILE);
        let restored = match read_framed(vfs, &similarity_path, &mut retry, |c: &SimilarityCk| {
            c.format
        })? {
            Some(ck) => {
                if ck.n != n {
                    return Err(corrupt(
                        &similarity_path,
                        format!("tables cover {} references, request has {n}", ck.n),
                    ));
                }
                let tables = DistinctMerger::from_tables(
                    ck.resem,
                    ck.dwalk,
                    self.config().measure,
                    self.config().composite,
                );
                Some(tables.ok_or_else(|| corrupt(&similarity_path, "tables are not square"))?)
            }
            None => None,
        };
        report.similarity_restored = restored.is_some();
        let over = |budget| crate::control::current_rss_bytes().is_some_and(|rss| rss > budget);
        if !report.similarity_restored && opts.memory_budget_bytes.is_some_and(over) {
            self.evict_profiles();
            report.memory_evictions = 1;
        }

        // From here real work can run long: arm the watchdog, unless the
        // control has already tripped (every stage then stops at its first
        // charge, so nothing can stall). Every work charge and every
        // commit beats the heartbeat; silence trips the control with the
        // typed Stalled cause, which the stages observe through their
        // ordinary guards.
        let heartbeat = exec::Heartbeat::new();
        let stall_after = opts.stall_after.filter(|_| ctl.status().is_none());
        let watchdog = stall_after.map(|stall| {
            let handle = ctl.trip_handle();
            exec::Watchdog::spawn(heartbeat.clone(), stall, opts.watchdog_poll, move || {
                handle.interrupt(InterruptKind::Stalled);
            })
        });
        let outcome = self.resolve_staged(req, ctl, Some(&heartbeat), restored, |tables| {
            let (resem, dwalk) = tables.to_tables();
            let ck = SimilarityCk {
                format: RUN_FORMAT_VERSION,
                n,
                resem: resem.to_vec(),
                dwalk: dwalk.to_vec(),
            };
            write_framed(vfs, run_dir, SIMILARITY_FILE, &ck, &mut retry)?;
            report.chunks_committed += 1;
            heartbeat.beat();
            Ok::<(), DistinctError>(())
        })?;

        // The answer is committed only when complete: a partial merge
        // sequence is recomputable for free from the committed tables.
        if outcome.is_complete() {
            let merges = outcome.clustering.dendrogram.merges().iter();
            let ck = ClusteringCk {
                format: RUN_FORMAT_VERSION,
                labels: outcome.clustering.labels.clone(),
                merges: merges
                    .map(|m| (m.a, m.b, m.similarity.to_bits(), m.size))
                    .collect(),
            };
            write_framed(vfs, run_dir, CLUSTERING_FILE, &ck, &mut retry)?;
            report.chunks_committed += 1;
            heartbeat.beat();
        }

        report.stalled = watchdog.is_some_and(exec::Watchdog::stop);
        report.io_retries = retry.attempts;
        Ok(DurableOutcome {
            outcome,
            run: report,
        })
    }

    /// The identity of one durable update stream: the base catalog state,
    /// the entire update log, and everything that shapes the answers
    /// (weights, modes, threshold, paths).
    fn stream_fingerprint(&self, updates: &[UpdateTuple]) -> Result<String, DistinctError> {
        use std::fmt::Write as _;
        let log = serde_json::to_string(updates).map_err(|e| {
            DistinctError::Store(relstore::StoreError::Io {
                context: "serialize update log".to_string(),
                reason: e.to_string(),
            })
        })?;
        let mut key = self.engine_key("stream", self.config().min_sim);
        let _ = write!(key, "log={:016x};", fnv1a64(log.as_bytes()));
        Ok(format!("{:016x}", fnv1a64(key.as_bytes())))
    }

    /// Durable [`Distinct::apply_updates`] over a whole update log: the
    /// log is applied in chunks, and after each chunk every affected name
    /// is re-resolved and the chunk — report plus the
    /// affected names' partitions — is committed into the run directory.
    /// Uses the real filesystem and default [`RunOptions`].
    ///
    /// **Resume** is the same call, same directory, on an engine prepared
    /// on the same *base* catalog (the state before any of the log was
    /// applied): committed chunks re-apply their updates to rebuild the
    /// engine's catalog and graph but take their partitions from disk
    /// without re-resolving, then the stream continues live. Because a
    /// resolve over a cold profile cache is bit-identical to a warm one, the
    /// resumed stream's committed `(name, labels)` sequence is
    /// bit-identical to an uninterrupted run's (the chaos sweep in
    /// `tests/resume_chaos.rs` proves this at every kill point).
    pub fn apply_update_stream(
        &mut self,
        updates: &[UpdateTuple],
        run_dir: &Path,
    ) -> Result<UpdateStreamOutcome, DistinctError> {
        self.apply_update_stream_with(updates, run_dir, &mut StdVfs, &RunOptions::default())
    }

    /// [`Distinct::apply_update_stream`] through an explicit [`Vfs`] (the
    /// fault-injectable entry point) with explicit [`RunOptions`].
    pub fn apply_update_stream_with(
        &mut self,
        updates: &[UpdateTuple],
        run_dir: &Path,
        vfs: &mut dyn Vfs,
        opts: &RunOptions,
    ) -> Result<UpdateStreamOutcome, DistinctError> {
        let mut retry = Retry::new(opts);
        retry.run("create run directory", || vfs.create_dir_all(run_dir))?;

        // Claim the directory, or verify an existing claim. The chunk
        // size is fixed at claim time so a resume walks the committed
        // chunk chain regardless of the options it was resumed with.
        let fingerprint = self.stream_fingerprint(updates)?;
        let manifest_path = run_dir.join(STREAM_MANIFEST_FILE);
        let chunk = match read_framed(vfs, &manifest_path, &mut retry, |m: &StreamManifest| {
            m.format
        })? {
            Some(m) if m.fingerprint == fingerprint && m.updates == updates.len() => m.chunk.max(1),
            Some(_) => {
                return Err(corrupt(
                    &manifest_path,
                    "run directory belongs to a different update stream (fingerprint mismatch)",
                ))
            }
            None => {
                let chunk = opts.chunk_size.max(1);
                let manifest = StreamManifest {
                    format: RUN_FORMAT_VERSION,
                    fingerprint: fingerprint.clone(),
                    updates: updates.len(),
                    chunk,
                };
                write_framed(vfs, run_dir, STREAM_MANIFEST_FILE, &manifest, &mut retry)?;
                chunk
            }
        };

        let mut report = UpdateReport::default();
        let mut final_parts: std::collections::BTreeMap<String, Vec<usize>> = Default::default();
        let mut chunks_committed = 0usize;
        let mut chunks_replayed = 0usize;
        let mut start = 0usize;
        while start < updates.len() {
            let end = (start + chunk).min(updates.len());
            let name = format!("updates-{start}.ck");
            let path = run_dir.join(&name);
            if let Some(ck) = read_framed(vfs, &path, &mut retry, |c: &UpdateChunkCk| c.format)? {
                if ck.start != start || ck.len != end - start {
                    return Err(corrupt(
                        &path,
                        format!(
                            "chunk covers updates {}..{}, expected {start}..{end}",
                            ck.start,
                            ck.start + ck.len
                        ),
                    ));
                }
                // Replay the appends to rebuild engine state; resolve
                // nothing — the committed partitions are the answer. On a
                // fresh base engine the replay reproduces the committed
                // report bit-for-bit; on an engine that already applied
                // the chunk it is a pure no-op.
                let live = self.apply_updates(&updates[start..end])?;
                let noop = live.applied == 0 && live.refs_added == 0 && live.refs_dirtied == 0;
                if live != ck.report && !noop {
                    return Err(corrupt(
                        &path,
                        "replayed chunk diverged from its committed report",
                    ));
                }
                report.absorb(&ck.report);
                for (n, labels) in ck.partitions {
                    final_parts.insert(n, labels);
                }
                chunks_replayed += 1;
                start = end;
                continue;
            }
            // Live: apply, re-resolve every affected name,
            // commit the chunk, move on. A kill at any point loses at
            // most this one chunk of resolution work.
            let chunk_report = self.apply_updates(&updates[start..end])?;
            let mut partitions: Vec<(String, Vec<usize>)> =
                Vec::with_capacity(chunk_report.names.len());
            for n in &chunk_report.names {
                let refs = self.references_of(n);
                let resolved = self.resolve(&ResolveRequest::new(&refs));
                partitions.push((n.clone(), resolved.clustering.labels));
            }
            let ck = UpdateChunkCk {
                format: RUN_FORMAT_VERSION,
                start,
                len: end - start,
                report: chunk_report.clone(),
                partitions: partitions.clone(),
            };
            write_framed(vfs, run_dir, &name, &ck, &mut retry)?;
            chunks_committed += 1;
            report.absorb(&chunk_report);
            for (n, labels) in partitions {
                final_parts.insert(n, labels);
            }
            start = end;
        }
        Ok(UpdateStreamOutcome {
            report,
            partitions: final_parts.into_iter().collect(),
            chunks_committed,
            chunks_replayed,
            io_retries: retry.attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistinctConfig;
    use crate::request::ResolveRequest;
    use datagen::{AmbiguousSpec, World, WorldConfig};
    use relstore::{FaultPlan, FaultyVfs, TupleRef};
    use std::path::PathBuf;

    fn dataset() -> datagen::DblpDataset {
        let mut config = WorldConfig::tiny(21);
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![10, 8, 5])];
        datagen::to_catalog(&World::generate(config)).unwrap()
    }

    fn engine(d: &datagen::DblpDataset) -> Distinct {
        Distinct::prepare(&d.catalog, "Publish", "author", DistinctConfig::default()).unwrap()
    }

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("distinct_runmgr_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn fast_opts() -> RunOptions {
        RunOptions {
            backoff_base: Duration::from_micros(100),
            ..Default::default()
        }
    }

    fn assert_same(a: &Clustering, b: &Clustering) {
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.dendrogram.merges(), b.dendrogram.merges());
    }

    /// The run directory's file names, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn durable_run_matches_plain_resolve_and_each_resume_level_is_bit_identical() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        assert_eq!(refs.len(), 23);
        let plain = e.resolve(&ResolveRequest::new(&refs)).clustering;

        let dir = TempDir::new("levels");
        let req = ResolveRequest::new(&refs).resume(dir.path());
        let first = e
            .resolve_durable_with(&req, &mut StdVfs, &fast_opts())
            .unwrap();
        assert!(first.outcome.is_complete());
        assert_same(&first.outcome.clustering, &plain);
        assert_eq!(first.run.chunks_committed, 2, "similarity + clustering");
        assert!(!first.run.similarity_restored);
        assert_eq!(
            listing(dir.path()),
            ["clustering.ck", "run.json", "similarity.ck"],
            "the answer is committed, the profiles are not"
        );

        // Resume level 0: the committed answer comes straight back.
        let again = e
            .resolve_durable_with(&req, &mut StdVfs, &fast_opts())
            .unwrap();
        assert!(again.run.clustering_restored);
        assert_eq!(again.run.chunks_committed, 0);
        assert_same(&again.outcome.clustering, &plain);

        // Resume level 1: clustering recomputes from committed tables —
        // profiling is skipped entirely.
        std::fs::remove_file(dir.path().join("clustering.ck")).unwrap();
        let from_tables = e
            .resolve_durable_with(&req, &mut StdVfs, &fast_opts())
            .unwrap();
        assert!(from_tables.run.similarity_restored);
        assert_eq!(from_tables.outcome.exec.profiles.tasks, 0);
        assert_eq!(from_tables.run.chunks_committed, 1);
        assert_same(&from_tables.outcome.clustering, &plain);
        assert!(dir.path().join("clustering.ck").exists(), "recommitted");

        // Resume level 2: a cold engine recomputes every profile, then
        // stages 2 and 3 — still bit-identical.
        std::fs::remove_file(dir.path().join("clustering.ck")).unwrap();
        std::fs::remove_file(dir.path().join("similarity.ck")).unwrap();
        let cold = engine(&d);
        let recomputed = cold
            .resolve_durable_with(&req, &mut StdVfs, &fast_opts())
            .unwrap();
        assert!(!recomputed.run.similarity_restored);
        assert_eq!(recomputed.outcome.exec.profiles.tasks, refs.len());
        assert_eq!(recomputed.run.chunks_committed, 2);
        assert_same(&recomputed.outcome.clustering, &plain);
    }

    #[test]
    fn constrained_run_resumes_its_committed_answer_bit_identically() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let must = [(0, refs.len() - 1), (3, 7)];
        let cannot = [(1, 2)];
        let constrained = || {
            ResolveRequest::new(&refs)
                .must_link(&must)
                .cannot_link(&cannot)
        };
        let plain = e.resolve(&constrained()).clustering;
        // A must-link merge happens at +inf, which a JSON number cannot
        // carry.
        let bits = |c: &Clustering| -> Vec<u64> {
            let merges = c.dendrogram.merges().iter();
            merges.map(|m| m.similarity.to_bits()).collect()
        };
        assert!(bits(&plain).contains(&f64::INFINITY.to_bits()));

        let dir = TempDir::new("constrained");
        let req = constrained().resume(dir.path());
        let first = e
            .resolve_durable_with(&req, &mut StdVfs, &fast_opts())
            .unwrap();
        assert!(first.outcome.is_complete());
        assert_same(&first.outcome.clustering, &plain);

        // Resume level 0 returns the committed answer, +inf merges and all.
        let again = e
            .resolve_durable_with(&req, &mut StdVfs, &fast_opts())
            .unwrap();
        assert!(again.run.clustering_restored);
        assert_same(&again.outcome.clustering, &plain);
        assert_eq!(bits(&again.outcome.clustering), bits(&plain));
    }

    #[test]
    fn killed_run_resumes_on_a_cold_engine_to_the_identical_partition() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let expected = engine(&d).resolve(&ResolveRequest::new(&refs)).clustering;

        // Kill each run at one write, with retries disabled so the
        // injected fault is fatal: #2 is `similarity.ck`, #3 is
        // `clustering.ck`.
        for (nth, tables_survive) in [(2, false), (3, true)] {
            let dir = TempDir::new(&format!("kill_{nth}"));
            let req = ResolveRequest::new(&refs).resume(dir.path());
            let mut vfs = FaultyVfs::new(FaultPlan::fail_nth_write(nth));
            let opts = RunOptions {
                max_retries: 0,
                ..fast_opts()
            };
            let err = e
                .resolve_durable_with(&req, &mut vfs, &opts)
                .expect_err("injected write failure must surface");
            assert!(matches!(err, DistinctError::Store(_)), "got {err}");

            // A brand-new engine (cold cache) resumes the directory and
            // lands on the identical partition.
            let cold = engine(&d);
            let resumed = cold
                .resolve_durable_with(&req, &mut StdVfs, &fast_opts())
                .unwrap();
            assert!(resumed.outcome.is_complete());
            assert_eq!(resumed.run.similarity_restored, tables_survive);
            assert_same(&resumed.outcome.clustering, &expected);
        }
    }

    #[test]
    fn transient_write_failures_are_absorbed_by_retry() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let plain = e.resolve(&ResolveRequest::new(&refs)).clustering;

        let dir = TempDir::new("retry");
        let req = ResolveRequest::new(&refs).resume(dir.path());
        let mut vfs = FaultyVfs::new(FaultPlan::fail_nth_write(2));
        let out = e
            .resolve_durable_with(&req, &mut vfs, &fast_opts())
            .unwrap();
        assert!(out.outcome.is_complete());
        assert!(out.run.io_retries >= 1, "the fault must have cost a retry");
        assert_same(&out.outcome.clustering, &plain);
    }

    #[test]
    fn run_degraded_in_the_profile_stage_commits_only_its_manifest_and_resumes() {
        let d = dataset();
        let refs = {
            let e = engine(&d);
            e.references_of("Wei Wang")
        };
        let expected = engine(&d).resolve(&ResolveRequest::new(&refs)).clustering;

        // Measure the whole resolve in logical units, then budget a third
        // of it: profiling is most of the work, so the limit trips there.
        let resolve_cost = {
            let probe = engine(&d);
            let ctl = RunControl::new();
            let _ = probe.resolve(&ResolveRequest::new(&refs).control(&ctl));
            ctl.spent()
        };

        let dir = TempDir::new("degraded");
        let e = engine(&d);
        let ctl = RunControl::new().with_budget(resolve_cost / 3);
        let req = ResolveRequest::new(&refs).control(&ctl).resume(dir.path());
        let limited = e
            .resolve_durable_with(&req, &mut StdVfs, &fast_opts())
            .unwrap();
        let deg = limited.outcome.degraded.expect("small budget must degrade");
        assert_eq!(deg.kind, InterruptKind::BudgetExhausted);
        assert_eq!(deg.stage, crate::control::Stage::Profiles, "{deg:?}");
        assert_eq!(limited.run.chunks_committed, 0);
        assert_eq!(listing(dir.path()), ["run.json"]);

        // An unlimited resume on a cold engine recomputes everything and
        // matches the uninterrupted answer.
        let cold = engine(&d);
        let resume_req = ResolveRequest::new(&refs).resume(dir.path());
        let resumed = cold
            .resolve_durable_with(&resume_req, &mut StdVfs, &fast_opts())
            .unwrap();
        assert!(resumed.outcome.is_complete());
        assert_eq!(resumed.run.chunks_committed, 2);
        assert_same(&resumed.outcome.clustering, &expected);
    }

    #[test]
    fn run_directory_of_a_different_request_is_refused() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let dir = TempDir::new("mismatch");
        let req = ResolveRequest::new(&refs).resume(dir.path());
        e.resolve_durable_with(&req, &mut StdVfs, &fast_opts())
            .unwrap();

        // Same directory, different threshold: a different resolution.
        let other = ResolveRequest::new(&refs).min_sim(0.5).resume(dir.path());
        let err = e
            .resolve_durable_with(&other, &mut StdVfs, &fast_opts())
            .unwrap_err();
        match err {
            DistinctError::CorruptCheckpoint { reason, .. } => {
                assert!(reason.contains("fingerprint"), "{reason}");
            }
            other => panic!("expected CorruptCheckpoint, got {other}"),
        }
    }

    #[test]
    fn foreign_run_format_version_is_a_typed_mismatch() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let dir = TempDir::new("version");
        let req = ResolveRequest::new(&refs).resume(dir.path());
        e.resolve_durable_with(&req, &mut StdVfs, &fast_opts())
            .unwrap();

        // A directory of the previous format (which also committed
        // profile chunks) and one of a future format are both refused.
        let manifest = dir.path().join("run.json");
        let blob = std::fs::read_to_string(&manifest).unwrap();
        let magic = format!("{RUN_MAGIC_PREFIX}{RUN_FORMAT_VERSION}\n");
        assert!(blob.starts_with(&magic), "{blob}");
        for found in [1, 9] {
            let foreign = blob.replacen(&magic, &format!("{RUN_MAGIC_PREFIX}{found}\n"), 1);
            std::fs::write(&manifest, foreign).unwrap();
            match e
                .resolve_durable_with(&req, &mut StdVfs, &fast_opts())
                .unwrap_err()
            {
                DistinctError::VersionMismatch {
                    found: got,
                    expected,
                    ..
                } => {
                    assert_eq!(got, found);
                    assert_eq!(expected, 2);
                }
                other => panic!("expected VersionMismatch, got {other}"),
            }
        }
    }

    #[test]
    fn malformed_requests_are_refused_before_any_write() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let n = refs.len();
        let dir = TempDir::new("malformed");
        let base = || ResolveRequest::new(&refs).resume(dir.path());
        let start = e.paths().start;
        let len = e.catalog().relation(start).len() as u32;
        let mut past_end = refs.clone();
        past_end.push(TupleRef::new(start, relstore::TupleId(len)));
        let other = e
            .catalog()
            .relations()
            .map(|(rid, _)| rid)
            .find(|&rid| rid != start)
            .unwrap();
        let mut foreign = refs.clone();
        foreign[0] = TupleRef::new(other, relstore::TupleId(0));
        let cases = [
            ("must-link out of range", base().must_link(&[(0, n)])),
            (
                "cannot-link out of range",
                base().cannot_link(&[(n + 5, 1)]),
            ),
            ("must-link self-pair", base().must_link(&[(3, 3)])),
            ("cannot-link self-pair", base().cannot_link(&[(4, 4)])),
            (
                "contradictory pair",
                base().must_link(&[(1, 2)]).cannot_link(&[(2, 1)]),
            ),
            ("NaN threshold", base().min_sim(f64::NAN)),
            ("infinite threshold", base().min_sim(f64::INFINITY)),
            (
                "reference past the end of its relation",
                ResolveRequest::new(&past_end).resume(dir.path()),
            ),
            (
                "reference from another relation",
                ResolveRequest::new(&foreign).resume(dir.path()),
            ),
        ];
        for (what, req) in cases {
            match e.resolve_durable_with(&req, &mut StdVfs, &fast_opts()) {
                Err(DistinctError::Config(_)) => {}
                Err(other) => panic!("{what}: expected Config, got {other}"),
                Ok(_) => panic!("{what}: accepted"),
            }
            assert!(
                !dir.path().exists(),
                "{what}: the run directory was created"
            );
        }
    }

    #[test]
    fn restored_clustering_with_an_impossible_merge_history_is_corrupt() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let n = refs.len();
        let dir = TempDir::new("bad_merges");
        let req = ResolveRequest::new(&refs).resume(dir.path());
        e.resolve_durable_with(&req, &mut StdVfs, &fast_opts())
            .unwrap();

        // A merge of clusters `a` and `b`.
        let merge = |a, b| (a, b, 0.5f64.to_bits(), 2);
        // Labels 0, 0, 1, 2, ...: the cut of a lone merge of leaves 0 and 1.
        let labels: Vec<usize> = (0..n).map(|i| i.saturating_sub(1)).collect();
        let histories = [
            // The first merge creates cluster n: it cannot consume it.
            (vec![merge(0, n)], "not a merge history"),
            // Leaf 0 is merged twice.
            (vec![merge(0, 1), merge(0, 2)], "not a merge history"),
            // A cluster merged with itself.
            (vec![merge(5, 5)], "not a merge history"),
            // A valid history whose labels are some other partition.
            (vec![merge(2, 3)], "not the cut"),
        ];
        for (merges, why) in histories {
            let ck = ClusteringCk {
                format: RUN_FORMAT_VERSION,
                labels: labels.clone(),
                merges,
            };
            // Re-framed, so the checksum is valid and only the contents
            // are wrong.
            let blob = RUN_FRAMING.frame(&serde_json::to_string(&ck).unwrap());
            std::fs::write(dir.path().join(CLUSTERING_FILE), blob).unwrap();
            match e.resolve_durable_with(&req, &mut StdVfs, &fast_opts()) {
                Err(DistinctError::CorruptCheckpoint { reason, .. }) => {
                    assert!(reason.contains(why), "{reason}");
                }
                Err(other) => panic!("expected CorruptCheckpoint, got {other}"),
                Ok(_) => panic!("accepted a clustering that is {why}"),
            }
        }
        // The same labels under the history they came from are accepted.
        let ck = ClusteringCk {
            format: RUN_FORMAT_VERSION,
            labels,
            merges: vec![merge(0, 1)],
        };
        let blob = RUN_FRAMING.frame(&serde_json::to_string(&ck).unwrap());
        std::fs::write(dir.path().join(CLUSTERING_FILE), blob).unwrap();
        let out = e
            .resolve_durable_with(&req, &mut StdVfs, &fast_opts())
            .unwrap();
        assert!(out.run.clustering_restored);
        assert_eq!(out.outcome.clustering.dendrogram.merges().len(), 1);
    }

    #[test]
    fn memory_budget_guard_evicts_once_without_changing_the_answer() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let plain = e.resolve(&ResolveRequest::new(&refs)).clustering;
        assert_eq!(e.cached_profiles(), refs.len());

        let dir = TempDir::new("memory");
        // One byte of budget: the process is over it before the profile
        // stage, so the warm cache is evicted and every profile recomputed.
        let opts = RunOptions {
            memory_budget_bytes: Some(1),
            ..fast_opts()
        };
        let req = ResolveRequest::new(&refs).resume(dir.path());
        let out = e.resolve_durable_with(&req, &mut StdVfs, &opts).unwrap();
        assert!(out.outcome.is_complete());
        if crate::control::current_rss_bytes().is_some() {
            assert_eq!(out.run.memory_evictions, 1, "guard must fire exactly once");
            assert_eq!(out.outcome.exec.profiles.tasks, refs.len());
        }
        assert_same(&out.outcome.clustering, &plain);
    }

    #[test]
    fn heartbeat_advances_during_the_profile_stage() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let req = ResolveRequest::new(&refs);
        let ctl = RunControl::new();
        // Beats seen when the tables are handed over for commit: the
        // profile and similarity stages have run, nothing is committed.
        let beats_before_commit = || {
            let heartbeat = exec::Heartbeat::new();
            let mut seen = 0;
            let outcome = e
                .resolve_staged(&req, &ctl, Some(&heartbeat), None, |_| {
                    seen = heartbeat.count();
                    Ok::<(), DistinctError>(())
                })
                .unwrap();
            assert!(outcome.is_complete());
            seen
        };
        let cold = beats_before_commit();
        // Warm: the profile stage finds every profile cached and does no
        // work, so only the similarity stage beats.
        let warm = beats_before_commit();
        assert!(
            cold >= warm + refs.len() as u64,
            "profiling {} references beat only {} times ({cold} cold, {warm} warm)",
            refs.len(),
            cold - warm
        );
    }

    #[test]
    fn watchdog_on_a_healthy_run_stays_quiet() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let dir = TempDir::new("watchdog");
        let opts = RunOptions {
            stall_after: Some(Duration::from_secs(600)),
            watchdog_poll: Duration::from_millis(1),
            ..fast_opts()
        };
        let req = ResolveRequest::new(&refs).resume(dir.path());
        let out = e.resolve_durable_with(&req, &mut StdVfs, &opts).unwrap();
        assert!(out.outcome.is_complete());
        assert!(!out.run.stalled);
    }

    #[test]
    fn a_tripped_control_degrades_without_arming_the_watchdog() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        let dir = TempDir::new("tripped");
        let ctl = RunControl::new();
        ctl.interrupt(InterruptKind::Cancelled);
        // A watchdog armed with no patience at all, polling without pause,
        // would fire at once.
        let opts = RunOptions {
            stall_after: Some(Duration::ZERO),
            watchdog_poll: Duration::ZERO,
            ..fast_opts()
        };
        let req = ResolveRequest::new(&refs).control(&ctl).resume(dir.path());
        let out = e.resolve_durable_with(&req, &mut StdVfs, &opts).unwrap();
        let deg = out.outcome.degraded.expect("a cancelled run degrades");
        assert_eq!(deg.kind, InterruptKind::Cancelled);
        assert!(!out.run.stalled);
        assert_eq!(listing(dir.path()), ["run.json"]);
    }

    #[test]
    fn missing_run_dir_is_a_config_error() {
        let d = dataset();
        let e = engine(&d);
        let refs = e.references_of("Wei Wang");
        assert!(matches!(
            e.resolve_durable(&ResolveRequest::new(&refs)),
            Err(DistinctError::Config(_))
        ));
    }

    fn stream_updates() -> (datagen::UpdateStream, Vec<UpdateTuple>) {
        let mut config = WorldConfig::tiny(21);
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![10, 8, 5])];
        let stream = datagen::update_stream(&config, 0.15, 42).unwrap();
        let updates: Vec<UpdateTuple> = stream
            .log
            .iter()
            .map(|(rel, values)| UpdateTuple::new(rel.clone(), values.clone()))
            .collect();
        (stream, updates)
    }

    #[test]
    fn update_stream_commits_chunks_and_matches_batch_resolution() {
        let (stream, updates) = stream_updates();
        assert!(!updates.is_empty());
        let mut e = engine(&stream.base);
        let dir = TempDir::new("stream");
        let opts = RunOptions {
            chunk_size: 5,
            ..fast_opts()
        };
        let out = e
            .apply_update_stream_with(&updates, dir.path(), &mut StdVfs, &opts)
            .unwrap();
        assert_eq!(out.report.applied, updates.len());
        assert_eq!(out.chunks_replayed, 0);
        assert_eq!(out.chunks_committed, updates.len().div_ceil(5));
        assert!(dir.path().join("stream.json").exists());
        assert!(dir.path().join("updates-0.ck").exists());
        assert!(out.partitions.iter().any(|(n, _)| n == "Wei Wang"));

        // The streamed partition equals a cold batch resolve on the
        // engine's own final catalog — the convergence the oracle pins.
        let cold =
            Distinct::prepare(e.catalog(), "Publish", "author", DistinctConfig::default()).unwrap();
        for (name, labels) in &out.partitions {
            let refs = cold.references_of(name);
            let batch = cold.resolve(&ResolveRequest::new(&refs));
            assert_eq!(labels, &batch.clustering.labels, "name {name}");
        }
        // And the final ground-truth references are exactly the streamed
        // name's references.
        let refs = e.references_of("Wei Wang");
        assert_eq!(refs, stream.truths[0].refs);
    }

    #[test]
    fn killed_update_stream_resumes_bit_identically_on_a_fresh_base_engine() {
        let (stream, updates) = stream_updates();
        let opts = RunOptions {
            chunk_size: 4,
            ..fast_opts()
        };

        // Uninterrupted reference run.
        let expected = {
            let mut e = engine(&stream.base);
            let dir = TempDir::new("stream_ref");
            e.apply_update_stream_with(&updates, dir.path(), &mut StdVfs, &opts)
                .unwrap()
        };

        // Killed at the third write, retries disabled → fatal.
        let dir = TempDir::new("stream_kill");
        let mut e = engine(&stream.base);
        let mut vfs = FaultyVfs::new(FaultPlan::fail_nth_write(3));
        let kill_opts = RunOptions {
            max_retries: 0,
            ..opts.clone()
        };
        let err = e
            .apply_update_stream_with(&updates, dir.path(), &mut vfs, &kill_opts)
            .expect_err("injected write failure must surface");
        assert!(matches!(err, DistinctError::Store(_)), "got {err}");

        // Resume on a fresh engine prepared on the same base.
        let mut fresh = engine(&stream.base);
        let resumed = fresh
            .apply_update_stream_with(&updates, dir.path(), &mut StdVfs, &opts)
            .unwrap();
        assert!(resumed.chunks_replayed >= 1, "{resumed:?}");
        assert_eq!(resumed.report, expected.report);
        assert_eq!(resumed.partitions, expected.partitions);
    }

    #[test]
    fn finished_update_stream_replays_as_a_no_op_on_a_fresh_engine() {
        let (stream, updates) = stream_updates();
        let dir = TempDir::new("stream_replay");
        let opts = RunOptions {
            chunk_size: 6,
            ..fast_opts()
        };
        let first = {
            let mut e = engine(&stream.base);
            e.apply_update_stream_with(&updates, dir.path(), &mut StdVfs, &opts)
                .unwrap()
        };
        let mut fresh = engine(&stream.base);
        let again = fresh
            .apply_update_stream_with(&updates, dir.path(), &mut StdVfs, &opts)
            .unwrap();
        assert_eq!(again.chunks_committed, 0);
        assert_eq!(again.chunks_replayed, first.chunks_committed);
        assert_eq!(again.report, first.report);
        assert_eq!(again.partitions, first.partitions);
    }

    #[test]
    fn update_stream_directory_of_a_different_log_is_refused() {
        let (stream, updates) = stream_updates();
        let dir = TempDir::new("stream_mismatch");
        {
            let mut e = engine(&stream.base);
            e.apply_update_stream_with(&updates, dir.path(), &mut StdVfs, &fast_opts())
                .unwrap();
        }
        // Same directory, truncated log: a different stream.
        let mut e = engine(&stream.base);
        let err = e
            .apply_update_stream_with(
                &updates[..updates.len() - 1],
                dir.path(),
                &mut StdVfs,
                &fast_opts(),
            )
            .unwrap_err();
        match err {
            DistinctError::CorruptCheckpoint { reason, .. } => {
                assert!(reason.contains("fingerprint"), "{reason}");
            }
            other => panic!("expected CorruptCheckpoint, got {other}"),
        }
    }
}
