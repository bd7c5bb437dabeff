//! Sharded profile cache.
//!
//! Profile construction is the pipeline's dominant cost, so computed
//! profiles are cached per engine. With the parallel fan-out
//! ([`crate::pipeline::Distinct::resolve`]) many workers hit the cache
//! concurrently; a single mutex would serialize them, so entries are
//! spread over fixed shards keyed by a hash of the reference. Work lists
//! are deduplicated *before* the fan-out, so within one call no reference
//! is ever computed twice; the shards only arbitrate concurrent calls,
//! where `insert` keeps the first entry (both candidates are
//! bit-identical — profile construction is deterministic).
//!
//! Placeholder profiles ([`crate::features::empty_profile`]) are refused:
//! caching one would make a later, unrestricted run silently reuse a
//! zero-mass profile instead of recomputing the real one.
//!
//! Locking ignores poisoning: every critical section is one map call, so
//! a panic elsewhere on a thread holding a guard cannot leave a shard
//! half-updated.

use crate::features::Profile;
use relstore::{FxHashMap, TupleRef};
use std::sync::{Arc, Mutex, PoisonError};

/// Shard count: a small power of two comfortably above any realistic
/// worker count, so concurrent inserts rarely contend.
const SHARDS: usize = 16;

/// A concurrent map from references to their (immutable) profiles.
#[derive(Debug)]
pub(crate) struct ProfileCache {
    // distinct-lint: shared(first-insert-wins: a profile is a pure function of its tuple, so racing builders insert bit-identical values)
    shards: Vec<Mutex<FxHashMap<TupleRef, Arc<Profile>>>>,
}

impl ProfileCache {
    /// An empty cache with all shards unlocked.
    pub fn new() -> Self {
        ProfileCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
        }
    }

    fn shard(&self, r: &TupleRef) -> &Mutex<FxHashMap<TupleRef, Arc<Profile>>> {
        let key = ((r.rel.0 as u64) << 32) | r.tid.0 as u64;
        // Fibonacci hashing: spreads the sequential tuple ids the store
        // hands out evenly over the shards.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h as usize) % SHARDS]
    }

    /// The cached profile for `r`, if one has been inserted.
    pub fn get(&self, r: &TupleRef) -> Option<Arc<Profile>> {
        self.shard(r)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(r)
            .map(Arc::clone)
    }

    /// Whether a profile for `r` is already cached.
    pub fn contains(&self, r: &TupleRef) -> bool {
        self.shard(r)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(r)
    }

    /// Insert a computed profile, keeping any entry that won a concurrent
    /// race (the values are identical). Placeholders are silently dropped.
    pub fn insert(&self, r: TupleRef, p: Arc<Profile>) {
        debug_assert!(!p.placeholder, "placeholder profile offered to the cache");
        if p.placeholder {
            return;
        }
        self.shard(&r)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(r)
            .or_insert(p);
    }

    /// Total number of cached profiles across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// All entries, in unspecified order (checkpointing sorts them).
    pub fn snapshot(&self) -> Vec<(TupleRef, Arc<Profile>)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .map(|(&r, p)| (r, Arc::clone(p)))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Drop every cached profile, releasing the memory (the `Arc`s may
    /// keep individual profiles alive while in use elsewhere). Used by the
    /// run manager's memory-budget guard: evicting is always safe —
    /// profiles are pure caches of deterministic computation, so a later
    /// run recomputes bit-identical values.
    pub fn evict_all(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    /// Drop exactly the given references' profiles, keeping the rest warm.
    /// Used by incremental updates: only references whose neighborhoods an
    /// update touched need recomputation, everything else stays cached.
    pub fn evict(&self, refs: &[TupleRef]) {
        for r in refs {
            self.shard(r)
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(r);
        }
    }

    /// Replace the whole cache (checkpoint restore).
    pub fn replace(&self, entries: Vec<(TupleRef, Arc<Profile>)>) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
        for (r, p) in entries {
            self.insert(r, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{RelId, TupleId};

    fn fake_profile(tid: u32, placeholder: bool) -> (TupleRef, Arc<Profile>) {
        let r = TupleRef::new(RelId(0), TupleId(tid));
        (
            r,
            Arc::new(Profile {
                reference: r,
                columns: relgraph::Propagation::new(),
                placeholder,
            }),
        )
    }

    #[test]
    fn insert_get_len_round_trip() {
        let cache = ProfileCache::new();
        assert_eq!(cache.len(), 0);
        for tid in 0..100 {
            let (r, p) = fake_profile(tid, false);
            cache.insert(r, p);
        }
        assert_eq!(cache.len(), 100);
        for tid in 0..100 {
            let r = TupleRef::new(RelId(0), TupleId(tid));
            assert!(cache.contains(&r));
            assert_eq!(cache.get(&r).unwrap().reference, r);
        }
        assert_eq!(cache.snapshot().len(), 100);
    }

    #[test]
    fn first_insert_wins_a_race() {
        let cache = ProfileCache::new();
        let (r, p1) = fake_profile(7, false);
        let (_, p2) = fake_profile(7, false);
        cache.insert(r, Arc::clone(&p1));
        cache.insert(r, p2);
        assert!(Arc::ptr_eq(&cache.get(&r).unwrap(), &p1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "placeholder"))]
    fn placeholders_never_enter_the_cache() {
        let cache = ProfileCache::new();
        let (r, p) = fake_profile(3, true);
        cache.insert(r, p);
        // Release builds skip the debug assertion but still drop the entry.
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&r).is_none());
    }

    #[test]
    fn evict_all_empties_every_shard_but_keeps_live_arcs_valid() {
        let cache = ProfileCache::new();
        let (r, p) = fake_profile(42, false);
        cache.insert(r, Arc::clone(&p));
        for tid in 0..50 {
            let (r, p) = fake_profile(tid, false);
            cache.insert(r, p);
        }
        let held = cache.get(&r).unwrap();
        cache.evict_all();
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&r).is_none());
        // The evicted entry stays usable through outstanding handles.
        assert_eq!(held.reference, r);
    }

    #[test]
    fn evict_drops_only_the_named_references() {
        let cache = ProfileCache::new();
        for tid in 0..20 {
            let (r, p) = fake_profile(tid, false);
            cache.insert(r, p);
        }
        let gone: Vec<TupleRef> = [3u32, 7, 19]
            .iter()
            .map(|&tid| TupleRef::new(RelId(0), TupleId(tid)))
            .collect();
        cache.evict(&gone);
        assert_eq!(cache.len(), 17);
        for r in &gone {
            assert!(!cache.contains(r));
        }
        assert!(cache.contains(&TupleRef::new(RelId(0), TupleId(4))));
        // Evicting a missing reference is a no-op.
        cache.evict(&gone);
        assert_eq!(cache.len(), 17);
    }

    #[test]
    fn replace_installs_exactly_the_given_entries() {
        let cache = ProfileCache::new();
        for tid in 0..10 {
            let (r, p) = fake_profile(tid, false);
            cache.insert(r, p);
        }
        let fresh: Vec<_> = (100..103).map(|tid| fake_profile(tid, false)).collect();
        cache.replace(fresh);
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&TupleRef::new(RelId(0), TupleId(5))).is_none());
        assert!(cache.contains(&TupleRef::new(RelId(0), TupleId(101))));
    }
}
