//! A lock-sharded, bounded ring addressed by key.
//!
//! The trace journal and the flight recorder both keep "the last N things"
//! on the invocation hot path: inserts must be O(1), memory bounded, the
//! oldest entry ages out first, and the journal additionally finds an entry
//! by id on every recorded stage. [`KeyedRing`] is that one structure: each
//! shard is a fixed array of slots written round-robin, plus a key → insert
//! number index so a lookup is one hash probe — no walk over other entries.
//! Keys need not be unique or monotone (recovered trace ids sit far below
//! freshly minted ones); a lookup finds the newest entry under its key.

use crate::shardmap::FxBuildHasher;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Shards (power of two). Keys are sequence numbers, so the low bits
/// spread concurrent writers across locks.
const SHARDS: usize = 8;

struct Shard<V> {
    /// Slot `n % per_shard` holds this shard's `n`-th insert.
    slots: Vec<(u64, V)>,
    inserted: u64,
    /// Key → insert number of its newest live entry. Only live entries are
    /// indexed: eviction removes the mapping it owns.
    index: HashMap<u64, u64, FxBuildHasher>,
}

/// Bounded ring of the last ~`capacity` `(key, value)` inserts.
pub struct KeyedRing<V> {
    shards: Box<[Mutex<Shard<V>>]>,
    per_shard: usize,
}

impl<V: Clone> KeyedRing<V> {
    /// A ring retaining roughly `capacity` recent entries (`capacity / 8`
    /// per shard, at least one).
    pub fn new(capacity: usize) -> Self {
        let per_shard = (capacity / SHARDS).max(1);
        Self {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        slots: Vec::with_capacity(per_shard),
                        inserted: 0,
                        index: HashMap::default(),
                    })
                })
                .collect(),
            per_shard,
        }
    }

    /// Entries retained at most (across all shards).
    pub fn capacity(&self) -> usize {
        self.per_shard * SHARDS
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Insert, evicting the shard's oldest entry once it is full.
    pub fn insert(&self, key: u64, value: V) {
        let cap = self.per_shard as u64;
        let mut s = self.shard(key).lock();
        let n = s.inserted;
        s.inserted += 1;
        if n < cap {
            s.slots.push((key, value));
        } else {
            let (evicted, _) = std::mem::replace(&mut s.slots[(n % cap) as usize], (key, value));
            // A re-inserted key's index entry belongs to the newer insert.
            if s.index.get(&evicted) == Some(&(n - cap)) {
                s.index.remove(&evicted);
            }
        }
        s.index.insert(key, n);
    }

    /// The newest value under `key`, if it has not aged out.
    pub fn get(&self, key: u64) -> Option<V> {
        let s = self.shard(key).lock();
        let n = *s.index.get(&key)?;
        Some(s.slots[(n % self.per_shard as u64) as usize].1.clone())
    }

    /// Every retained value, in no particular order — shard assignment
    /// must not show, so callers sort by their own key.
    pub fn values(&self) -> Vec<V> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.lock().slots.iter().map(|(_, v)| v.clone()));
        }
        out
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().slots.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn stays_bounded_and_keeps_the_newest() {
        let ring = KeyedRing::new(64);
        for k in 0..3 * 64u64 {
            ring.insert(k, k);
            assert_eq!(ring.get(k), Some(k), "the newest insert is always present");
            assert!(ring.len() <= ring.capacity());
        }
        assert_eq!(ring.len(), 64);
        // Sequential keys age out strictly oldest-first.
        for k in 0..2 * 64u64 {
            assert_eq!(ring.get(k), None, "key {k} must have aged out");
        }
        for k in 2 * 64..3 * 64u64 {
            assert_eq!(ring.get(k), Some(k));
        }
        let mut all = ring.values();
        all.sort_unstable();
        assert_eq!(all, (2 * 64..3 * 64u64).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_capacity_still_holds_one_entry_per_shard() {
        let ring = KeyedRing::new(0);
        assert_eq!(ring.capacity(), SHARDS);
        ring.insert(8, "a");
        ring.insert(16, "b"); // same shard: evicts key 8
        assert_eq!(ring.get(8), None);
        assert_eq!(ring.get(16), Some("b"));
    }

    #[test]
    fn non_monotone_keys_coexist_with_sequential_ones() {
        // The journal after a crash: replayed traces keep low pre-crash ids
        // while fresh ids are minted far above them.
        let ring = KeyedRing::new(64);
        let fresh_base = 99u64 << 20;
        for i in 0..10 {
            ring.insert(fresh_base + i, i);
            ring.insert(3 + i, 100 + i);
        }
        for i in 0..10 {
            assert_eq!(ring.get(fresh_base + i), Some(i));
            assert_eq!(ring.get(3 + i), Some(100 + i));
        }
        assert_eq!(ring.len(), 20);
    }

    #[test]
    fn reinserted_key_resolves_to_the_newest_and_survives_the_old_eviction() {
        let ring = KeyedRing::new(8 * 2); // two slots per shard
        ring.insert(8, "old");
        ring.insert(8, "new");
        assert_eq!(ring.get(8), Some("new"));
        // Evicts "old"; the index entry belongs to "new" and must survive.
        ring.insert(16, "other");
        assert_eq!(ring.get(8), Some("new"));
        ring.insert(24, "last"); // evicts "new"
        assert_eq!(ring.get(8), None);
        assert_eq!(ring.get(16), Some("other"));
    }

    #[test]
    fn concurrent_insert_and_lookup_smoke() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        let ring = Arc::new(KeyedRing::new(256));
        let barrier = Arc::new(Barrier::new(THREADS as usize));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let ring = Arc::clone(&ring);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        // Interleaved key spaces: every thread hits every shard.
                        let key = i * THREADS + t;
                        ring.insert(key, key);
                        // Our own insert may already have been lapped, but a
                        // hit must never return another key's value.
                        if let Some(v) = ring.get(key) {
                            assert_eq!(v, key);
                        }
                    }
                });
            }
        });
        assert_eq!(ring.len(), ring.capacity());
        let newest = (PER_THREAD - 1) * THREADS;
        assert!((newest..newest + THREADS).any(|k| ring.get(k).is_some()));
    }
}
