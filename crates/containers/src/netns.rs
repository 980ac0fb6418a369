//! Pre-created network namespace pool.
//!
//! §3.3 ("Network Namespace Caching"): creating a network namespace "can add
//! significant latency to container cold starts — as much as 100 ms. This is
//! due to contention on a single global lock shared across all network
//! namespaces. To minimize this overhead, we maintain a pool of pre-created
//! network namespaces that are assigned during container creation."
//!
//! The namespace substrate here models that kernel behaviour: raw creation
//! serializes on one global lock and costs real (or virtual) time; the pool
//! pre-creates namespaces off the critical path so a cold start only pops a
//! free one.

use iluvatar_sync::Clock;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A distinct virtual network namespace (veth pair + namespace id).
#[derive(Debug, PartialEq, Eq)]
pub struct Namespace {
    pub id: u64,
    /// e.g. `/run/netns/ilu-<id>`
    pub path: String,
}

/// RAII lease of a namespace; returns to the pool on drop.
pub struct NamespaceLease {
    ns: Option<Namespace>,
    pool: Arc<PoolInner>,
}

impl NamespaceLease {
    pub fn id(&self) -> u64 {
        self.ns.as_ref().expect("lease always holds until drop").id
    }

    pub fn path(&self) -> &str {
        &self
            .ns
            .as_ref()
            .expect("lease always holds until drop")
            .path
    }
}

impl Drop for NamespaceLease {
    fn drop(&mut self) {
        if let Some(ns) = self.ns.take() {
            self.pool.free.lock().push(ns);
        }
    }
}

impl std::fmt::Debug for NamespaceLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NamespaceLease({})", self.id())
    }
}

struct PoolInner {
    free: Mutex<Vec<Namespace>>,
    /// The kernel's single global namespace lock (nsid / rtnl).
    global_lock: Mutex<()>,
    next_id: AtomicU64,
    create_cost_ms: u64,
    clock: Arc<dyn Clock>,
    created: AtomicU64,
    pool_misses: AtomicU64,
}

impl PoolInner {
    /// Create one namespace, paying the serialized kernel cost.
    fn create_raw(&self) -> Namespace {
        let _g = self.global_lock.lock();
        self.clock.sleep_ms(self.create_cost_ms);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.created.fetch_add(1, Ordering::Relaxed);
        Namespace {
            id,
            path: format!("/run/netns/ilu-{id}"),
        }
    }
}

/// Pool of pre-created namespaces with a background refill task.
pub struct NamespacePool {
    inner: Arc<PoolInner>,
    target_free: usize,
}

impl NamespacePool {
    /// `target_free`: how many namespaces to keep ready; `create_cost_ms`:
    /// the serialized creation cost the pool hides (≈100 ms in the paper).
    pub fn new(target_free: usize, create_cost_ms: u64, clock: Arc<dyn Clock>) -> Self {
        let inner = Arc::new(PoolInner {
            free: Mutex::new(Vec::new()),
            global_lock: Mutex::new(()),
            next_id: AtomicU64::new(1),
            create_cost_ms,
            clock,
            created: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
        });
        Self { inner, target_free }
    }

    /// Fill the pool to the target synchronously (worker startup).
    pub fn prefill(&self) {
        while self.free_count() < self.target_free {
            let ns = self.inner.create_raw();
            self.inner.free.lock().push(ns);
        }
    }

    /// Acquire a namespace: from the pool when possible (fast path), else
    /// created inline, paying the global-lock cost a cold start would see
    /// without the cache.
    pub fn acquire(&self) -> NamespaceLease {
        let pooled = self.inner.free.lock().pop();
        let ns = match pooled {
            Some(ns) => ns,
            None => {
                self.inner.pool_misses.fetch_add(1, Ordering::Relaxed);
                self.inner.create_raw()
            }
        };
        NamespaceLease {
            ns: Some(ns),
            pool: Arc::clone(&self.inner),
        }
    }

    pub fn free_count(&self) -> usize {
        self.inner.free.lock().len()
    }

    /// Namespaces ever created (pool refills + inline misses).
    pub fn created(&self) -> u64 {
        self.inner.created.load(Ordering::Relaxed)
    }

    /// Acquisitions that found the pool empty and paid the inline cost.
    pub fn pool_misses(&self) -> u64 {
        self.inner.pool_misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iluvatar_sync::{ManualClock, SystemClock};

    #[test]
    fn prefill_reaches_target() {
        let pool = NamespacePool::new(4, 0, SystemClock::shared());
        pool.prefill();
        assert_eq!(pool.free_count(), 4);
        assert_eq!(pool.created(), 4);
    }

    #[test]
    fn acquire_prefers_pool_and_lease_returns() {
        let pool = NamespacePool::new(2, 0, SystemClock::shared());
        pool.prefill();
        let lease = pool.acquire();
        assert_eq!(pool.free_count(), 1);
        assert_eq!(pool.pool_misses(), 0);
        let id = lease.id();
        drop(lease);
        assert_eq!(pool.free_count(), 2, "lease returns to pool");
        // The returned namespace is reused, not re-created.
        let lease2 = pool.acquire();
        assert_eq!(lease2.id(), id);
        assert_eq!(pool.created(), 2);
    }

    #[test]
    fn empty_pool_pays_inline_cost() {
        let clock = Arc::new(ManualClock::new());
        let pool = NamespacePool::new(0, 100, clock.clone());
        let before = clock.now_ms();
        let _l = pool.acquire();
        assert_eq!(clock.now_ms() - before, 100, "inline creation costs 100ms");
        assert_eq!(pool.pool_misses(), 1);
    }

    #[test]
    fn leases_are_distinct_namespaces() {
        let pool = NamespacePool::new(3, 0, SystemClock::shared());
        pool.prefill();
        let a = pool.acquire();
        let b = pool.acquire();
        let c = pool.acquire();
        assert_ne!(a.id(), b.id());
        assert_ne!(b.id(), c.id());
        assert!(a.path().contains(&format!("{}", a.id())));
    }
}
