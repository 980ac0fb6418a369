//! The container pool — the keep-alive cache.
//!
//! §3.3: "The primary and exemplary application of resource caching is in
//! the container keep-alive cache that Ilúvatar workers maintain. ... We
//! maintain a pool of all in-use and available containers for each
//! registered function." Eviction runs periodically in the background, off
//! the critical path, keeping a free-memory buffer ahead of bursts — "this
//! is similar to the Linux kernel page-cache implementation."
//!
//! The pool's memory accounting covers in-use *and* idle containers; only
//! idle (warm, available) containers are eviction candidates.

use crate::policies::{EntryMeta, KeepalivePolicy};
use iluvatar_containers::types::SharedContainer;
use iluvatar_sync::{Clock, ShardedMap, TimeMs};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An idle warm container plus its cache metadata.
struct PoolEntry {
    container: SharedContainer,
    meta: EntryMeta,
}

/// Callback invoked with each evicted container (the worker wires backend
/// destruction here, typically via the background task pool).
pub type EvictSink = Arc<dyn Fn(SharedContainer) + Send + Sync>;

/// Counters for pool observability.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    pub warm_hits: u64,
    pub cold_misses: u64,
    pub evictions: u64,
    pub expirations: u64,
    pub used_mb: u64,
    pub idle_mb: u64,
    pub idle_containers: usize,
}

/// The keep-alive container pool.
pub struct ContainerPool {
    capacity_mb: u64,
    /// Memory of all live containers (idle + in-use), MB.
    used_mb: AtomicI64,
    /// Memory of idle containers only, MB.
    idle_mb: AtomicI64,
    /// Idle containers per function.
    slots: ShardedMap<String, Arc<Mutex<Vec<PoolEntry>>>>,
    /// Per-function access frequency (the GD `Freq` term).
    freq: ShardedMap<String, u64>,
    policy: Mutex<Box<dyn KeepalivePolicy>>,
    clock: Arc<dyn Clock>,
    evict_sink: EvictSink,
    warm_hits: AtomicU64,
    cold_misses: AtomicU64,
    evictions: AtomicU64,
    expirations: AtomicU64,
    /// Herd waiters in `wait_warm`: `release` notifies only while any are.
    herd_waiters: AtomicUsize,
    herd: Mutex<()>,
    returned: Condvar,
}

impl ContainerPool {
    pub fn new(
        capacity_mb: u64,
        policy: Box<dyn KeepalivePolicy>,
        clock: Arc<dyn Clock>,
        evict_sink: EvictSink,
    ) -> Self {
        Self {
            capacity_mb,
            used_mb: AtomicI64::new(0),
            idle_mb: AtomicI64::new(0),
            slots: ShardedMap::new(),
            freq: ShardedMap::new(),
            policy: Mutex::new(policy),
            clock,
            evict_sink,
            warm_hits: AtomicU64::new(0),
            cold_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
            herd_waiters: AtomicUsize::new(0),
            herd: Mutex::new(()),
            returned: Condvar::new(),
        }
    }

    fn slot(&self, fqdn: &str) -> Arc<Mutex<Vec<PoolEntry>>> {
        if let Some(s) = self.slots.get(fqdn) {
            return s;
        }
        self.slots.update_or_insert(
            fqdn.to_string(),
            || Arc::new(Mutex::new(Vec::new())),
            |s| Arc::clone(s),
        )
    }

    fn bump_freq(&self, fqdn: &str) -> u64 {
        self.freq.update_or_insert(
            fqdn.to_string(),
            || 0,
            |f| {
                *f += 1;
                *f
            },
        )
    }

    /// Forward an invocation arrival to the policy (HIST histograms).
    pub fn note_arrival(&self, fqdn: &str) {
        let now = self.clock.now_ms();
        self.policy.lock().on_arrival(fqdn, now);
    }

    /// Functions the policy predicts will be invoked within `horizon_ms`
    /// that currently have no idle warm container — the input to the
    /// predictive-prewarm task (§3.2: the control plane "anticipates
    /// invocations and prepares containers for them").
    pub fn prewarm_recommendations(&self, horizon_ms: u64) -> Vec<String> {
        let now = self.clock.now_ms();
        let fqdns = self.freq.keys();
        let policy = self.policy.lock();
        fqdns
            .into_iter()
            .filter(|f| {
                if self.idle_count(f) > 0 {
                    return false;
                }
                match policy.predicted_next(f, now) {
                    // Due within the horizon, or slightly overdue.
                    Some(at) => at <= now + horizon_ms && at + horizon_ms >= now,
                    None => false,
                }
            })
            .collect()
    }

    /// Try to take an idle warm container for `fqdn`. `Some` is a warm hit.
    pub fn acquire(&self, fqdn: &str) -> Option<SharedContainer> {
        let slot = self.slot(fqdn);
        let entry = {
            let mut entries = slot.lock();
            entries.pop()
        };
        match entry {
            Some(mut e) => {
                let now = self.clock.now_ms();
                e.meta.freq = self.bump_freq(fqdn);
                self.policy.lock().on_access(&mut e.meta, now);
                self.idle_mb
                    .fetch_sub(e.meta.memory_mb as i64, Ordering::Relaxed);
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
                Some(e.container)
            }
            None => {
                self.cold_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Herd suppression: wait for a container of `fqdn` to be released,
    /// until the pool's clock (the worker's, injected under simulation)
    /// reads `deadline_ms`. The wall-clock wait only bounds how long until
    /// that clock is read again.
    pub fn wait_warm(&self, fqdn: &str, deadline_ms: TimeMs) -> Option<SharedContainer> {
        self.herd_waiters.fetch_add(1, Ordering::SeqCst);
        let mut parked = self.herd.lock();
        let mut hit = self.acquire(fqdn);
        let mut now = self.clock.now_ms();
        while hit.is_none() && now < deadline_ms {
            let budget = Duration::from_millis(deadline_ms - now);
            self.returned.wait_for(&mut parked, budget);
            hit = self.acquire(fqdn);
            now = self.clock.now_ms();
        }
        drop(parked);
        self.herd_waiters.fetch_sub(1, Ordering::SeqCst);
        hit
    }

    /// Reserve `memory_mb` for a new (cold) container, inline-evicting idle
    /// containers if needed. Returns false when even a full idle purge
    /// cannot free enough memory (everything is in use).
    pub fn reserve(&self, memory_mb: u64) -> bool {
        loop {
            let used = self.used_mb.load(Ordering::Relaxed);
            if used as u64 + memory_mb <= self.capacity_mb {
                if self
                    .used_mb
                    .compare_exchange(
                        used,
                        used + memory_mb as i64,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return true;
                }
                continue; // raced; retry
            }
            // Need to evict: free at least the shortfall from idle entries.
            let shortfall = used as u64 + memory_mb - self.capacity_mb;
            if self.evict_bytes(shortfall) == 0 {
                return false;
            }
        }
    }

    /// Release reserved memory for a container that failed to start.
    pub fn unreserve(&self, memory_mb: u64) {
        self.used_mb.fetch_sub(memory_mb as i64, Ordering::Relaxed);
    }

    /// Return a finished container to the pool as an idle warm entry.
    /// `init_cost_ms` is the function's miss cost (Greedy-Dual input).
    pub fn release(&self, container: SharedContainer, init_cost_ms: f64) {
        let now = self.clock.now_ms();
        let fqdn = container.fqdn.clone();
        let memory_mb = container.limits.memory_mb;
        let mut meta = EntryMeta::new(&fqdn, memory_mb, init_cost_ms, now);
        meta.freq = self.bump_freq(&fqdn);
        self.policy.lock().on_insert(&mut meta, now);
        self.idle_mb.fetch_add(memory_mb as i64, Ordering::Relaxed);
        self.slot(&fqdn).lock().push(PoolEntry { container, meta });
        // A waiter counts itself in, then looks and parks under `herd`:
        // either its look finds this entry or this load finds the waiter.
        if self.herd_waiters.load(Ordering::SeqCst) > 0 {
            let _parked = self.herd.lock();
            self.returned.notify_all();
        }
    }

    /// Remove a container permanently (failed invocation, or caller chose
    /// not to keep it). Its memory is freed and the sink is invoked.
    pub fn discard(&self, container: SharedContainer) {
        let memory_mb = container.limits.memory_mb;
        self.used_mb.fetch_sub(memory_mb as i64, Ordering::Relaxed);
        (self.evict_sink)(container);
    }

    /// Evict the lowest-priority idle entries until at least `target_mb`
    /// has been freed. Returns the MB actually freed.
    fn evict_bytes(&self, target_mb: u64) -> u64 {
        // Snapshot (fqdn, container id, priority) of all idle entries.
        let now = self.clock.now_ms();
        let mut candidates: Vec<(String, u64, f64, u64)> = Vec::new();
        {
            let policy = self.policy.lock();
            for (fqdn, slot) in self.slots.snapshot() {
                for e in slot.lock().iter() {
                    candidates.push((
                        fqdn.clone(),
                        e.container.id.0,
                        policy.priority(&e.meta, now),
                        e.meta.memory_mb,
                    ));
                }
            }
        }
        candidates.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
        let mut freed = 0u64;
        for (fqdn, cid, _prio, mb) in candidates {
            if freed >= target_mb {
                break;
            }
            if self.remove_idle(&fqdn, cid, false) {
                freed += mb;
            }
        }
        freed
    }

    /// Remove one idle entry by id; returns true if it was still present.
    fn remove_idle(&self, fqdn: &str, container_id: u64, expired: bool) -> bool {
        let slot = self.slot(fqdn);
        let entry = {
            let mut entries = slot.lock();
            let idx = entries
                .iter()
                .position(|e| e.container.id.0 == container_id);
            idx.map(|i| entries.swap_remove(i))
        };
        match entry {
            Some(e) => {
                let now = self.clock.now_ms();
                self.policy.lock().on_evict(&e.meta, now);
                self.idle_mb
                    .fetch_sub(e.meta.memory_mb as i64, Ordering::Relaxed);
                self.used_mb
                    .fetch_sub(e.meta.memory_mb as i64, Ordering::Relaxed);
                if expired {
                    self.expirations.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                (self.evict_sink)(e.container);
                true
            }
            None => false,
        }
    }

    /// One background sweep (§3.3): drop expired entries, then restore the
    /// free-memory buffer by priority eviction.
    pub fn background_sweep(&self, free_buffer_mb: u64) {
        let now = self.clock.now_ms();
        // Expiry pass.
        let mut expired: Vec<(String, u64)> = Vec::new();
        {
            let policy = self.policy.lock();
            for (fqdn, slot) in self.slots.snapshot() {
                for e in slot.lock().iter() {
                    if policy.expired(&e.meta, now) {
                        expired.push((fqdn.clone(), e.container.id.0));
                    }
                }
            }
        }
        for (fqdn, cid) in expired {
            self.remove_idle(&fqdn, cid, true);
        }
        // Buffer pass.
        let free = self.free_mb();
        if free < free_buffer_mb {
            self.evict_bytes(free_buffer_mb - free);
        }
    }

    pub fn capacity_mb(&self) -> u64 {
        self.capacity_mb
    }

    pub fn used_mb(&self) -> u64 {
        self.used_mb.load(Ordering::Relaxed).max(0) as u64
    }

    pub fn free_mb(&self) -> u64 {
        self.capacity_mb.saturating_sub(self.used_mb())
    }

    /// Idle warm containers for `fqdn`.
    pub fn idle_count(&self, fqdn: &str) -> usize {
        self.slots.get_with(fqdn, |s| s.lock().len()).unwrap_or(0)
    }

    /// Per-function warm-memory residency: for each fqdn with idle warm
    /// containers, the GB·s its entries have accumulated since insertion
    /// ("The High Cost of Keeping Warm" metric). Sorted by fqdn so callers
    /// fold it into deterministic digests; the fleet uses it both to rank
    /// scale-down victims (least warm first) and to pick which functions to
    /// hand off to survivors (hottest first).
    pub fn warm_residency(&self) -> Vec<(String, f64)> {
        let now = self.clock.now_ms();
        let mut out: Vec<(String, f64)> = Vec::new();
        for (fqdn, slot) in self.slots.snapshot() {
            let entries = slot.lock();
            if entries.is_empty() {
                continue;
            }
            let gb_s: f64 = entries
                .iter()
                .map(|e| {
                    (e.meta.memory_mb as f64 / 1024.0)
                        * (now.saturating_sub(e.meta.inserted_ms) as f64 / 1000.0)
                })
                .sum();
            out.push((fqdn, gb_s));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    pub fn stats(&self) -> PoolStats {
        let mut idle_containers = 0;
        self.slots
            .for_each(|_, slot| idle_containers += slot.lock().len());
        PoolStats {
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            cold_misses: self.cold_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
            used_mb: self.used_mb(),
            idle_mb: self.idle_mb.load(Ordering::Relaxed).max(0) as u64,
            idle_containers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KeepalivePolicyKind;
    use crate::policies::make_policy;
    use iluvatar_containers::types::Container;
    use iluvatar_containers::ResourceLimits;
    use iluvatar_sync::ManualClock;

    fn pool_with(
        capacity: u64,
        kind: KeepalivePolicyKind,
    ) -> (Arc<ManualClock>, Arc<Mutex<Vec<u64>>>, ContainerPool) {
        let clock = Arc::new(ManualClock::new());
        let destroyed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let d2 = Arc::clone(&destroyed);
        let sink: EvictSink = Arc::new(move |c: SharedContainer| d2.lock().push(c.id.0));
        let pool = ContainerPool::new(capacity, make_policy(kind, 600_000), clock.clone(), sink);
        (clock, destroyed, pool)
    }

    fn container(fqdn: &str, mb: u64) -> SharedContainer {
        Arc::new(Container::new(
            fqdn,
            ResourceLimits {
                cpus: 1.0,
                memory_mb: mb,
            },
        ))
    }

    #[test]
    fn miss_then_warm_hit() {
        let (_c, _d, pool) = pool_with(1024, KeepalivePolicyKind::Lru);
        assert!(pool.acquire("f-1").is_none(), "empty pool misses");
        assert!(pool.reserve(128));
        let ctr = container("f-1", 128);
        let id = ctr.id;
        pool.release(ctr, 100.0);
        assert_eq!(pool.idle_count("f-1"), 1);
        let hit = pool.acquire("f-1").unwrap();
        assert_eq!(hit.id, id, "warm hit returns the cached container");
        let st = pool.stats();
        assert_eq!(st.warm_hits, 1);
        assert_eq!(st.cold_misses, 1);
        assert_eq!(st.used_mb, 128, "in-use memory still counted");
        assert_eq!(st.idle_mb, 0);
    }

    #[test]
    fn reserve_respects_capacity_and_evicts_idle() {
        let (clock, destroyed, pool) = pool_with(256, KeepalivePolicyKind::Lru);
        assert!(pool.reserve(128));
        pool.release(container("a-1", 128), 10.0);
        clock.advance(10); // distinguish recency: b-1 is newer than a-1
        assert!(pool.reserve(128));
        pool.release(container("b-1", 128), 10.0);
        assert_eq!(pool.free_mb(), 0);
        // Third reservation forces eviction of the LRU idle entry (a-1).
        assert!(pool.reserve(128));
        assert_eq!(destroyed.lock().len(), 1);
        assert_eq!(pool.idle_count("a-1"), 0, "LRU victim was a-1");
        assert_eq!(pool.idle_count("b-1"), 1);
    }

    #[test]
    fn reserve_fails_when_all_in_use() {
        let (_c, _d, pool) = pool_with(256, KeepalivePolicyKind::Lru);
        assert!(pool.reserve(256)); // in-use, never released
        assert!(!pool.reserve(1), "nothing idle to evict");
        pool.unreserve(256);
        assert!(pool.reserve(1));
    }

    #[test]
    fn ttl_expiry_in_background_sweep() {
        let (clock, destroyed, pool) = pool_with(1024, KeepalivePolicyKind::Ttl);
        pool.reserve(128);
        pool.release(container("f-1", 128), 10.0);
        clock.advance(600_001);
        pool.background_sweep(0);
        assert_eq!(pool.idle_count("f-1"), 0, "expired past the 10min TTL");
        assert_eq!(pool.stats().expirations, 1);
        assert_eq!(destroyed.lock().len(), 1);
        assert_eq!(pool.used_mb(), 0);
    }

    #[test]
    fn lru_entries_survive_sweep_without_pressure() {
        let (clock, _d, pool) = pool_with(1024, KeepalivePolicyKind::Lru);
        pool.reserve(128);
        pool.release(container("f-1", 128), 10.0);
        clock.advance(24 * 3600 * 1000);
        pool.background_sweep(0);
        assert_eq!(pool.idle_count("f-1"), 1, "work-conserving: no expiry");
    }

    #[test]
    fn sweep_restores_free_buffer() {
        let (_c, destroyed, pool) = pool_with(256, KeepalivePolicyKind::Lru);
        pool.reserve(128);
        pool.release(container("a-1", 128), 10.0);
        pool.reserve(128);
        pool.release(container("b-1", 128), 10.0);
        assert_eq!(pool.free_mb(), 0);
        pool.background_sweep(100);
        assert!(pool.free_mb() >= 100, "buffer restored by eviction");
        assert_eq!(destroyed.lock().len(), 1);
    }

    #[test]
    fn gdsf_evicts_cheap_large_first() {
        let (_c, _d, pool) = pool_with(1024, KeepalivePolicyKind::Gdsf);
        pool.reserve(512);
        pool.release(container("big-cheap-1", 512), 100.0);
        pool.reserve(128);
        pool.release(container("small-dear-1", 128), 2000.0);
        // 640MB used of 1024: reserving 500 forces ≥116MB of eviction.
        assert!(pool.reserve(500));
        assert_eq!(pool.idle_count("big-cheap-1"), 0, "GD evicts low H first");
        assert_eq!(pool.idle_count("small-dear-1"), 1);
    }

    #[test]
    fn discard_frees_memory_without_pooling() {
        let (_c, destroyed, pool) = pool_with(256, KeepalivePolicyKind::Lru);
        pool.reserve(128);
        let ctr = container("f-1", 128);
        pool.discard(ctr);
        assert_eq!(pool.used_mb(), 0);
        assert_eq!(destroyed.lock().len(), 1);
        assert_eq!(pool.stats().evictions, 0, "discard is not an eviction");
    }

    #[test]
    fn multiple_idle_containers_per_function() {
        let (_c, _d, pool) = pool_with(1024, KeepalivePolicyKind::Lru);
        for _ in 0..3 {
            pool.reserve(64);
            pool.release(container("f-1", 64), 10.0);
        }
        assert_eq!(pool.idle_count("f-1"), 3);
        assert!(pool.acquire("f-1").is_some());
        assert!(pool.acquire("f-1").is_some());
        assert!(pool.acquire("f-1").is_some());
        assert!(pool.acquire("f-1").is_none());
        assert_eq!(pool.used_mb(), 192, "all three still in use");
    }

    #[test]
    fn prewarm_recommendations_from_hist() {
        let (clock, _d, pool) = pool_with(4096, KeepalivePolicyKind::Hist);
        // Feed a strictly periodic arrival pattern (every 10 min) so HIST
        // learns the rhythm; release/acquire keep the freq map populated.
        let period = 10 * 60_000u64;
        for i in 0..8 {
            pool.note_arrival("p-1");
            if i == 0 {
                pool.reserve(128);
                pool.release(container("p-1", 128), 50.0);
            } else if let Some(c) = pool.acquire("p-1") {
                pool.release(c, 50.0);
            }
            clock.advance(period);
        }
        // Remove the idle container so a recommendation is needed, then
        // advance to just before the predicted next arrival.
        let c = pool.acquire("p-1").unwrap();
        pool.discard(c);
        // predicted next ≈ last_arrival + preload offset (~8.5 min); a
        // wide horizon must include it.
        let recs = pool.prewarm_recommendations(15 * 60_000);
        assert_eq!(recs, vec!["p-1".to_string()]);
        // With an idle container present, no recommendation.
        pool.reserve(128);
        pool.release(container("p-1", 128), 50.0);
        assert!(pool.prewarm_recommendations(15 * 60_000).is_empty());
    }

    #[test]
    fn no_recommendations_from_non_predictive_policies() {
        let (_c, _d, pool) = pool_with(1024, KeepalivePolicyKind::Gdsf);
        for _ in 0..5 {
            pool.note_arrival("f-1");
        }
        assert!(pool.prewarm_recommendations(60_000).is_empty());
    }

    #[test]
    fn frequency_counts_shared_across_entries() {
        let (_c, _d, pool) = pool_with(1024, KeepalivePolicyKind::Lfu);
        pool.reserve(64);
        pool.release(container("f-1", 64), 10.0);
        for _ in 0..5 {
            let c = pool.acquire("f-1").unwrap();
            pool.release(c, 10.0);
        }
        // 1 insert + 5 (acquire+release) pairs = 11 bumps.
        assert_eq!(pool.freq.get("f-1"), Some(11));
    }
}
