//! Engine checkpoints: persist a trained [`Distinct`] and resume later.
//!
//! A checkpoint captures everything training and profiling paid for —
//! learned path weights, the full learned model (hyperplanes + Platt
//! calibration), the tuned `min_sim`, and the profile cache — so a
//! restarted process skips straight to resolution.
//!
//! File format (single file):
//!
//! ```text
//! DISTINCTCKPT2\n
//! <16 hex chars: FNV-1a-64 of the payload bytes>\n
//! <JSON payload>
//! ```
//!
//! The magic line's numeric suffix is the checkpoint **format version**
//! ([`CHECKPOINT_FORMAT_VERSION`]), repeated as a `format` field inside
//! the payload. A file written by a build with a different version is
//! refused with the typed [`DistinctError::VersionMismatch`] — never
//! reinterpreted under this build's schema, and never conflated with
//! corruption (the bytes are intact, just foreign).
//!
//! Writes go through [`relstore::write_atomic`] — a `*.tmp` sibling
//! renamed into place, via the same [`Vfs`](relstore::Vfs) abstraction the
//! store uses — so the fault-injection harness can kill a checkpoint save
//! mid-write and prove the previous checkpoint survives. Loads verify the
//! checksum before parsing a byte: a torn or bit-flipped checkpoint
//! surfaces as [`DistinctError::CorruptCheckpoint`], never as a silently
//! wrong model.
//!
//! A checkpoint is only valid against the catalog it was built from: the
//! profile cache stores graph node ids. Loading validates the join-path
//! descriptions and the catalog's tuple count, and every profile entry
//! against the engine (`decode_profile`), and refuses on mismatch.

use crate::features::Profile;
use crate::learn::{LearnedModel, PathWeights};
use crate::pipeline::{Distinct, DistinctError};
use relgraph::{NodeId, Propagation};
use relstore::{fnv1a64, StdVfs, TupleRef, Vfs};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

/// Magic prefix of a checkpoint file's header line; the numeric suffix is
/// the format version.
pub const CHECKPOINT_MAGIC_PREFIX: &str = "DISTINCTCKPT";

/// Checkpoint format version this build reads and writes. Bumped whenever
/// the payload schema changes shape; loads of any other version fail with
/// [`DistinctError::VersionMismatch`].
pub const CHECKPOINT_FORMAT_VERSION: u32 = 2;

/// Magic header line of a checkpoint file (prefix + format version).
pub const CHECKPOINT_MAGIC: &str = "DISTINCTCKPT2";

#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct PropEntry {
    forward: Vec<(u32, f64)>,
    backward: Vec<(u32, f64)>,
}

/// Persisted form of one reference profile in the engine checkpoint.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct ProfileEntry {
    rel: u32,
    tid: u32,
    props: Vec<PropEntry>,
}

/// Encode one profile for persistence: each path's columns as sorted
/// `(node, mass)` lists, so identical profiles always serialize to
/// identical bytes.
pub(crate) fn encode_profile(p: &Profile) -> ProfileEntry {
    let pairs = |nodes: &[NodeId], masses: &[f64]| {
        nodes
            .iter()
            .map(|n| n.0)
            .zip(masses.iter().copied())
            .collect()
    };
    ProfileEntry {
        rel: p.reference.rel.0,
        tid: p.reference.tid.0,
        props: (0..p.path_count())
            .map(|k| {
                let run = p.path(k);
                PropEntry {
                    forward: pairs(run.nodes, run.forward),
                    backward: pairs(run.nodes, run.backward),
                }
            })
            .collect(),
    }
}

/// Decode one persisted profile for `engine`, refusing (with the reason)
/// any entry no propagation over the engine's catalog produces: a path
/// count other than the engine's, a reference that is not an in-range
/// tuple of the reference relation, or a path whose lists break
/// `check_run`.
pub(crate) fn decode_profile(entry: &ProfileEntry, engine: &Distinct) -> Result<Profile, String> {
    let paths = engine.paths();
    if entry.props.len() != paths.len() {
        return Err(format!(
            "profile has {} per-path propagations, engine has {} paths",
            entry.props.len(),
            paths.len()
        ));
    }
    let reference = TupleRef::new(relstore::RelId(entry.rel), relstore::TupleId(entry.tid));
    if reference.rel != paths.start
        || reference.tid.index() >= engine.catalog().relation(paths.start).len()
    {
        return Err(format!(
            "profile reference ({}, {}) is not a tuple of the reference relation",
            entry.rel, entry.tid
        ));
    }
    let mut columns = Propagation::new();
    for (k, p) in entry.props.iter().enumerate() {
        check_run(&p.forward, &p.backward, engine.graph().node_count())
            .map_err(|why| format!("profile ({}, {}) path {k}: {why}", entry.rel, entry.tid))?;
        columns.push_path(
            p.forward
                .iter()
                .zip(&p.backward)
                .map(|(&(n, f), &(_, b))| (NodeId(n), f, b)),
        );
    }
    Ok(Profile {
        reference,
        columns,
        placeholder: false,
    })
}

/// What one path's persisted lists must satisfy to be a propagation's
/// run: the same nodes in both lists, strictly ascending and below the
/// graph's `nodes`, with finite, positive masses.
fn check_run(forward: &[(u32, f64)], backward: &[(u32, f64)], nodes: usize) -> Result<(), String> {
    if forward.len() != backward.len() || forward.iter().zip(backward).any(|(f, b)| f.0 != b.0) {
        return Err("forward and backward lists name different nodes".into());
    }
    let ids = forward.iter().map(|&(n, _)| n);
    if let Some((a, b)) = ids.clone().zip(ids.skip(1)).find(|(a, b)| a >= b) {
        return Err(format!(
            "node ids are not strictly ascending ({a} then {b})"
        ));
    }
    if let Some(&(n, _)) = forward.iter().find(|&&(n, _)| n as usize >= nodes) {
        return Err(format!("node {n} is not below the graph's {nodes} nodes"));
    }
    if let Some(m) = forward
        .iter()
        .chain(backward)
        .map(|&(_, m)| m)
        .find(|m| !(m.is_finite() && *m > 0.0))
    {
        return Err(format!("mass {m} is not finite and positive"));
    }
    Ok(())
}

#[derive(Debug, Serialize, Deserialize)]
struct CheckpointPayload {
    /// Format version, repeated from the magic line so a re-framed payload
    /// cannot smuggle a foreign schema past the header check.
    format: u32,
    /// Join-path descriptions — the checkpoint's compatibility key.
    paths: Vec<String>,
    /// Tuple count of the catalog the profiles were computed against
    /// (graph node ids are only meaningful for that exact catalog).
    catalog_tuples: u64,
    min_sim: f64,
    weights: PathWeights,
    learned: Option<LearnedModel>,
    profiles: Vec<ProfileEntry>,
}

pub(crate) fn corrupt(path: &Path, reason: impl Into<String>) -> DistinctError {
    DistinctError::CorruptCheckpoint {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// The checksummed frame of the engine checkpoint and of every
/// run-directory file: a magic line (`prefix` + format `version`), the
/// payload's FNV-1a-64 as 16 hex digits, then the JSON payload, whose own
/// `format` field repeats the version.
pub(crate) struct Framing {
    pub(crate) prefix: &'static str,
    pub(crate) version: u32,
}

const CHECKPOINT_FRAMING: Framing = Framing {
    prefix: CHECKPOINT_MAGIC_PREFIX,
    version: CHECKPOINT_FORMAT_VERSION,
};

impl Framing {
    /// Frame a JSON payload: magic line, checksum line, payload.
    pub(crate) fn frame(&self, json: &str) -> String {
        let checksum = fnv1a64(json.as_bytes());
        format!("{}{}\n{checksum:016x}\n{json}", self.prefix, self.version)
    }

    /// Verify a frame and parse its payload. A well-formed magic, or a
    /// payload `format`, of another version is a foreign-build artifact
    /// ([`DistinctError::VersionMismatch`]) — the bytes are intact, just
    /// foreign; anything else that fails is corruption.
    pub(crate) fn unframe<T: Deserialize>(
        &self,
        path: &Path,
        bytes: &[u8],
        format_of: impl Fn(&T) -> u32,
    ) -> Result<T, DistinctError> {
        let mismatch = |found| DistinctError::VersionMismatch {
            path: path.display().to_string(),
            found,
            expected: self.version,
        };
        let text =
            std::str::from_utf8(bytes).map_err(|_| corrupt(path, "file is not valid UTF-8"))?;
        let mut lines = text.splitn(3, '\n');
        let magic = lines.next().unwrap_or("");
        match magic.strip_prefix(self.prefix).map(str::parse) {
            Some(Ok(found)) if found == self.version => {}
            Some(Ok(found)) => return Err(mismatch(found)),
            _ => {
                return Err(corrupt(
                    path,
                    format!(
                        "bad magic `{magic}` (expected {}{})",
                        self.prefix, self.version
                    ),
                ))
            }
        }
        let declared = lines
            .next()
            .ok_or_else(|| corrupt(path, "missing checksum line"))?;
        let json = lines
            .next()
            .ok_or_else(|| corrupt(path, "missing payload"))?;
        let actual = format!("{:016x}", fnv1a64(json.as_bytes()));
        if declared != actual {
            return Err(corrupt(
                path,
                format!("checksum mismatch: header {declared}, payload {actual}"),
            ));
        }
        let value: T = serde_json::from_str(json)
            .map_err(|e| corrupt(path, format!("unparseable payload: {e}")))?;
        match format_of(&value) {
            found if found == self.version => Ok(value),
            found => Err(mismatch(found)),
        }
    }
}

impl Distinct {
    /// Serialize the engine's trained state to `path` through an explicit
    /// [`Vfs`] — the fault-injectable entry point.
    pub fn save_checkpoint_with(
        &self,
        path: &Path,
        vfs: &mut dyn Vfs,
    ) -> Result<(), DistinctError> {
        let mut profiles: Vec<ProfileEntry> = self
            .profile_cache_snapshot()
            .into_iter()
            .map(|(_, p)| encode_profile(&p))
            .collect();
        // Deterministic output: the cache iterates in hash order.
        profiles.sort_unstable_by_key(|e| (e.rel, e.tid));
        let payload = CheckpointPayload {
            format: CHECKPOINT_FORMAT_VERSION,
            paths: self.paths().descriptions.clone(),
            catalog_tuples: self.catalog().tuple_count() as u64,
            min_sim: self.config().min_sim,
            weights: self.weights().clone(),
            learned: self.learned().cloned(),
            profiles,
        };
        let json = serde_json::to_string(&payload).map_err(|e| {
            DistinctError::Store(relstore::StoreError::Io {
                context: "serialize checkpoint".into(),
                reason: e.to_string(),
            })
        })?;
        let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
            DistinctError::Store(relstore::StoreError::Io {
                context: "save checkpoint".into(),
                reason: format!("`{}` does not name a file", path.display()),
            })
        })?;
        let dir = path.parent().unwrap_or(Path::new(""));
        let blob = CHECKPOINT_FRAMING.frame(&json);
        Ok(relstore::write_atomic(vfs, dir, name, blob.as_bytes())?)
    }

    /// Serialize the engine's trained state (weights, learned model,
    /// `min_sim`, profile cache) to `path`, atomically.
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), DistinctError> {
        self.save_checkpoint_with(path, &mut StdVfs)
    }

    /// Restore state saved by [`Distinct::save_checkpoint`] into this
    /// engine (which must be [`Distinct::prepare`]d over the same catalog
    /// with the same path-enumeration settings), through an explicit
    /// [`Vfs`].
    pub fn load_checkpoint_with(
        &mut self,
        path: &Path,
        vfs: &mut dyn Vfs,
    ) -> Result<(), DistinctError> {
        let bytes = vfs.read(path).map_err(|e| {
            DistinctError::Store(relstore::StoreError::Io {
                context: "read checkpoint".into(),
                reason: e.to_string(),
            })
        })?;
        let payload: CheckpointPayload =
            CHECKPOINT_FRAMING.unframe(path, &bytes, |p: &CheckpointPayload| p.format)?;
        if payload.paths != self.paths().descriptions {
            return Err(corrupt(
                path,
                "checkpoint was built for a different join-path set",
            ));
        }
        if payload.catalog_tuples != self.catalog().tuple_count() as u64 {
            return Err(corrupt(
                path,
                format!(
                    "checkpoint catalog had {} tuples, this one has {}",
                    payload.catalog_tuples,
                    self.catalog().tuple_count()
                ),
            ));
        }
        let mut restored: Vec<(TupleRef, Arc<Profile>)> =
            Vec::with_capacity(payload.profiles.len());
        for entry in &payload.profiles {
            let profile = decode_profile(entry, self).map_err(|why| corrupt(path, why))?;
            restored.push((profile.reference, Arc::new(profile)));
        }
        crate::config::check_min_sim(payload.min_sim).map_err(|e| corrupt(path, e))?;
        // The last check: `set_weights` installs nothing unless it
        // succeeds, so a failed load leaves the engine exactly as it was.
        self.set_weights(payload.weights)
            .map_err(|e| corrupt(path, e.to_string()))?;
        self.set_min_sim(payload.min_sim);
        self.install_learned(payload.learned);
        self.install_profiles(restored);
        Ok(())
    }

    /// Restore state saved by [`Distinct::save_checkpoint`].
    pub fn load_checkpoint(&mut self, path: &Path) -> Result<(), DistinctError> {
        self.load_checkpoint_with(path, &mut StdVfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistinctConfig;
    use datagen::{AmbiguousSpec, World, WorldConfig};
    use relstore::{FaultPlan, FaultyVfs};

    fn dataset() -> datagen::DblpDataset {
        let mut config = WorldConfig::tiny(21);
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![6, 5])];
        datagen::to_catalog(&World::generate(config)).unwrap()
    }

    fn engine(d: &datagen::DblpDataset) -> Distinct {
        let config = DistinctConfig {
            training: crate::config::TrainingConfig {
                positives: 60,
                negatives: 60,
                ..Default::default()
            },
            ..Default::default()
        };
        Distinct::prepare(&d.catalog, "Publish", "author", config).unwrap()
    }

    fn temp_file(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("distinct_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("engine.ckpt")
    }

    #[test]
    fn checkpoint_round_trip_restores_weights_model_and_profiles() {
        let d = dataset();
        let mut trained = engine(&d);
        trained.train().unwrap();
        let refs = trained.references_of("Wei Wang");
        let expected = trained
            .resolve(&crate::request::ResolveRequest::new(&refs))
            .clustering;
        let cached = trained.cached_profiles();
        assert!(cached > 0);

        let path = temp_file("rt");
        trained.save_checkpoint(&path).unwrap();

        let mut fresh = engine(&d);
        assert_eq!(fresh.cached_profiles(), 0);
        fresh.load_checkpoint(&path).unwrap();
        assert_eq!(fresh.weights(), trained.weights());
        assert!(fresh.learned().is_some());
        assert_eq!(fresh.cached_profiles(), cached);
        // Resolution from the restored cache is bit-identical — and spends
        // no budget on profiling (everything is cached).
        let ctl = crate::control::RunControl::new();
        let outcome = fresh.resolve(&crate::request::ResolveRequest::new(&refs).control(&ctl));
        assert_eq!(outcome.clustering.labels, expected.labels);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn checkpoint_save_is_deterministic() {
        let d = dataset();
        let mut e = engine(&d);
        e.train().unwrap();
        let p1 = temp_file("det1");
        let p2 = temp_file("det2");
        e.save_checkpoint(&p1).unwrap();
        e.save_checkpoint(&p2).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_dir_all(p1.parent().unwrap()).unwrap();
        std::fs::remove_dir_all(p2.parent().unwrap()).unwrap();
    }

    #[test]
    fn corrupted_checkpoint_is_rejected_at_every_byte() {
        let d = dataset();
        let mut e = engine(&d);
        e.train().unwrap();
        let path = temp_file("flip");
        e.save_checkpoint(&path).unwrap();
        let blob = std::fs::read(&path).unwrap();
        // Flip one bit at a spread of positions; every corruption must be
        // caught (magic, checksum line, or payload checksum mismatch).
        let step = (blob.len() / 40).max(1);
        for pos in (0..blob.len()).step_by(step) {
            let mut bad = blob.clone();
            bad[pos] ^= 0x04;
            std::fs::write(&path, &bad).unwrap();
            let mut fresh = engine(&d);
            let err = fresh.load_checkpoint(&path).unwrap_err();
            // A flip landing on the magic's version digit reads as a
            // foreign version; everywhere else it is corruption. Both are
            // rejections that install nothing.
            assert!(
                matches!(
                    err,
                    DistinctError::CorruptCheckpoint { .. } | DistinctError::VersionMismatch { .. }
                ),
                "byte {pos}: expected a rejection, got {err}"
            );
            // The failed load left the engine untrained and uncached.
            assert!(fresh.learned().is_none());
            assert_eq!(fresh.cached_profiles(), 0);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let d = dataset();
        let mut e = engine(&d);
        e.train().unwrap();
        let path = temp_file("trunc");
        e.save_checkpoint(&path).unwrap();
        let blob = std::fs::read(&path).unwrap();
        for keep in [0, 1, CHECKPOINT_MAGIC.len(), blob.len() / 2, blob.len() - 1] {
            std::fs::write(&path, &blob[..keep]).unwrap();
            let mut fresh = engine(&d);
            assert!(
                fresh.load_checkpoint(&path).is_err(),
                "prefix of {keep} bytes loaded"
            );
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn killed_checkpoint_save_preserves_the_previous_checkpoint() {
        let d = dataset();
        let mut e = engine(&d);
        e.train().unwrap();
        let path = temp_file("kill");
        e.save_checkpoint(&path).unwrap();
        let committed = std::fs::read(&path).unwrap();

        // Warm more profiles so a second save differs, then kill its write.
        let refs = e.references_of("Wei Wang");
        let _ = e.resolve(&crate::request::ResolveRequest::new(&refs));
        for plan in [
            FaultPlan::fail_nth_write(1),
            FaultPlan::torn_nth_write(1, 13),
        ] {
            let mut vfs = FaultyVfs::new(plan);
            assert!(e.save_checkpoint_with(&path, &mut vfs).is_err());
            // The committed checkpoint file is untouched and still loads.
            assert_eq!(std::fs::read(&path).unwrap(), committed);
            let mut fresh = engine(&d);
            fresh.load_checkpoint(&path).unwrap();
        }

        // A bit flip succeeds at write time but is caught at load.
        let mut vfs = FaultyVfs::new(FaultPlan::bit_flip_nth_write(1, 99));
        e.save_checkpoint_with(&path, &mut vfs).unwrap();
        let mut fresh = engine(&d);
        assert!(matches!(
            fresh.load_checkpoint(&path).unwrap_err(),
            DistinctError::CorruptCheckpoint { .. }
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn foreign_format_version_is_a_typed_mismatch() {
        let d = dataset();
        let mut e = engine(&d);
        e.train().unwrap();
        let path = temp_file("ver");
        e.save_checkpoint(&path).unwrap();
        let blob = std::fs::read_to_string(&path).unwrap();

        // A version-1 file (the pre-versioned-payload format): typed
        // mismatch from the magic line, not a confusing bad-magic error.
        let old = blob.replacen(CHECKPOINT_MAGIC, "DISTINCTCKPT1", 1);
        std::fs::write(&path, &old).unwrap();
        let mut fresh = engine(&d);
        match fresh.load_checkpoint(&path).unwrap_err() {
            DistinctError::VersionMismatch {
                found, expected, ..
            } => {
                assert_eq!(found, 1);
                assert_eq!(expected, CHECKPOINT_FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other}"),
        }
        assert!(fresh.learned().is_none());
        assert_eq!(fresh.cached_profiles(), 0);

        // A re-framed payload smuggling a foreign `format` field past a
        // current magic line is caught by the payload check.
        let (_, rest) = blob.split_once('\n').unwrap();
        let (_, json) = rest.split_once('\n').unwrap();
        let smuggled = json.replacen(
            &format!("\"format\":{CHECKPOINT_FORMAT_VERSION}"),
            "\"format\":99",
            1,
        );
        assert_ne!(smuggled, json, "payload must carry the format field");
        let reframed = format!(
            "{CHECKPOINT_MAGIC}\n{:016x}\n{smuggled}",
            fnv1a64(smuggled.as_bytes())
        );
        std::fs::write(&path, reframed).unwrap();
        let mut fresh = engine(&d);
        assert!(matches!(
            fresh.load_checkpoint(&path).unwrap_err(),
            DistinctError::VersionMismatch { found: 99, .. }
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// The first persisted path run with at least two nodes.
    fn long_run(p: &mut CheckpointPayload) -> &mut PropEntry {
        p.profiles
            .iter_mut()
            .flat_map(|e| e.props.iter_mut())
            .find(|r| r.forward.len() >= 2)
            .expect("a profile reaches two nodes along some path")
    }

    #[test]
    fn a_refused_load_leaves_threshold_and_weights_unchanged() {
        let d = dataset();
        let mut saved = engine(&d);
        saved.set_min_sim(0.25);
        // Cached profiles, so the payload carries entries to tamper with.
        let refs = saved.references_of("Wei Wang");
        let _ = saved.resolve(&crate::request::ResolveRequest::new(&refs));
        let path = temp_file("invalid");
        saved.save_checkpoint(&path).unwrap();
        let blob = std::fs::read_to_string(&path).unwrap();
        let json = blob.splitn(3, '\n').nth(2).unwrap();

        // Checksummed payloads whose values no engine may install.
        let n = saved.paths().len();
        type Tamper = fn(&mut CheckpointPayload);
        let tampered: [(&str, Tamper); 14] = [
            ("negative weight", |p| p.weights.resem[0] = -1.0),
            ("NaN weight", |p| p.weights.walk[0] = f64::NAN),
            ("short weights", |p| {
                p.weights.walk.pop();
            }),
            ("NaN threshold", |p| p.min_sim = f64::NAN),
            ("reference past the relation's end", |p| {
                p.profiles[0].tid = u32::MAX
            }),
            ("reference in another relation", |p| p.profiles[0].rel += 1),
            ("nodes out of order", |p| {
                let run = long_run(p);
                run.forward.swap(0, 1);
                run.backward.swap(0, 1);
            }),
            ("duplicate node", |p| {
                let run = long_run(p);
                run.forward[1].0 = run.forward[0].0;
                run.backward[1].0 = run.backward[0].0;
            }),
            ("node past the graph", |p| {
                let run = long_run(p);
                run.forward.last_mut().unwrap().0 = u32::MAX;
                run.backward.last_mut().unwrap().0 = u32::MAX;
            }),
            ("backward names other nodes", |p| {
                long_run(p).backward.pop();
            }),
            ("NaN forward mass", |p| long_run(p).forward[0].1 = f64::NAN),
            ("infinite backward mass", |p| {
                long_run(p).backward[1].1 = f64::INFINITY
            }),
            ("zero forward mass", |p| long_run(p).forward[1].1 = 0.0),
            ("negative backward mass", |p| {
                long_run(p).backward[0].1 = -0.5
            }),
        ];
        for (what, tamper) in tampered {
            let mut payload: CheckpointPayload = serde_json::from_str(json).unwrap();
            assert_eq!(payload.weights.walk.len(), n);
            tamper(&mut payload);
            let smuggled = serde_json::to_string(&payload).unwrap();
            std::fs::write(&path, CHECKPOINT_FRAMING.frame(&smuggled)).unwrap();
            let mut fresh = engine(&d);
            let (min_sim, weights) = (fresh.config().min_sim, fresh.weights().clone());
            assert!(
                matches!(
                    fresh.load_checkpoint(&path),
                    Err(DistinctError::CorruptCheckpoint { .. })
                ),
                "{what}"
            );
            assert_eq!(
                fresh.config().min_sim.to_bits(),
                min_sim.to_bits(),
                "{what}"
            );
            assert_eq!(fresh.weights(), &weights, "{what}");
            assert!(fresh.learned().is_none(), "{what}");
            assert_eq!(fresh.cached_profiles(), 0, "{what}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn checkpoint_for_a_different_catalog_is_refused() {
        let d = dataset();
        let mut e = engine(&d);
        e.train().unwrap();
        let path = temp_file("xcat");
        e.save_checkpoint(&path).unwrap();

        let mut other_cfg = WorldConfig::tiny(22);
        other_cfg.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![4, 4])];
        let other = datagen::to_catalog(&World::generate(other_cfg)).unwrap();
        let mut fresh = engine(&other);
        assert!(matches!(
            fresh.load_checkpoint(&path).unwrap_err(),
            DistinctError::CorruptCheckpoint { .. }
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
