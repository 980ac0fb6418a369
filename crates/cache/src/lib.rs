//! Control-plane invocation result cache.
//!
//! The cheapest invocation is one that never reaches a worker: for functions
//! explicitly registered as idempotent, a repeated invocation with the same
//! arguments can be served from a control-plane cache of prior results
//! ("Caching Aided Multi-Tenant Serverless Computing"; FastWorker's
//! result-caching coordinator). The cache is consulted by the load balancer
//! before dispatch and by the worker before enqueue, and populated from the
//! completed `InvocationResult` on the return path.
//!
//! Design constraints, in order:
//!
//! * **Hard per-tenant partitions.** Capacity (bytes and entries) is
//!   enforced per tenant and the idempotency key embeds the tenant, so no
//!   entry filled under tenant A is ever served to tenant B and no tenant
//!   can evict another's entries.
//! * **Explicit opt-in.** Only functions whose [`FunctionSpec`] sets
//!   `idempotent` are ever cached; everything else bypasses.
//! * **Deterministic time.** TTL expiry reads the injected [`Clock`], so
//!   tests and session digests drive expiry exactly.
//! * **Invalidation on re-registration.** Seeing a spec for an
//!   already-known fqdn (a new version, a replayed registration) drops every
//!   cached result for that fqdn across all partitions.
//!
//! Every operation is mirrored onto the canonical telemetry stream as
//! `TelemetryKind::Cache` events (`hit`/`miss`/`fill`/`evict`/`expire`/
//! `invalidate`), with `fill` carrying its expiry so the conformance checker
//! can audit hit legality from the stream alone.

use iluvatar_containers::FunctionSpec;
use iluvatar_sync::{fnv1a64, Clock, TimeMs};
use iluvatar_telemetry::{TelemetryBus, TelemetryKind};
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Result-cache configuration. Defaults to fully disabled so the baseline
/// hot path is untouched; the `0 = built-in default` convention matches the
/// other subsystem configs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Master switch; everything bypasses while false.
    #[serde(default)]
    pub enabled: bool,
    /// Result TTL, ms. 0 selects the built-in default of 60 000.
    #[serde(default)]
    pub ttl_ms: u64,
    /// Per-tenant partition capacity in result-body bytes. 0 selects the
    /// built-in default of 1 MiB.
    #[serde(default)]
    pub tenant_capacity_bytes: u64,
    /// Per-tenant entry bound. 0 selects the built-in default of 1024.
    #[serde(default)]
    pub tenant_max_entries: usize,
}

impl CacheConfig {
    /// An enabled config with the built-in defaults.
    pub fn enabled_default() -> Self {
        Self {
            enabled: true,
            ..Default::default()
        }
    }

    pub fn effective_ttl_ms(&self) -> u64 {
        if self.ttl_ms == 0 {
            60_000
        } else {
            self.ttl_ms
        }
    }

    pub fn effective_capacity_bytes(&self) -> u64 {
        if self.tenant_capacity_bytes == 0 {
            1024 * 1024
        } else {
            self.tenant_capacity_bytes
        }
    }

    pub fn effective_max_entries(&self) -> usize {
        if self.tenant_max_entries == 0 {
            1024
        } else {
            self.tenant_max_entries
        }
    }
}

/// What the cache did for one invocation — rides the
/// `X-Iluvatar-Cache` response header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from cache; no worker was touched.
    Hit,
    /// Cacheable but absent (or expired); dispatched and filled on return.
    Miss,
    /// Not cacheable: cache disabled or function not registered idempotent.
    Bypass,
}

impl CacheStatus {
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
        }
    }

    /// The verdict an `X-Iluvatar-Cache` value names.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hit" => Some(CacheStatus::Hit),
            "miss" => Some(CacheStatus::Miss),
            "bypass" => Some(CacheStatus::Bypass),
            _ => None,
        }
    }
}

/// Outcome of a consult.
pub enum CacheLookup {
    /// A fresh entry; serve it without dispatching.
    Hit(CachedResult),
    /// Cacheable but absent; the key to fill after dispatch completes.
    Miss(String),
    /// Not cacheable.
    Bypass,
}

/// A cached invocation result — the fields a hit can reconstruct a
/// caller-visible result from.
#[derive(Debug, Clone)]
pub struct CachedResult {
    pub body: String,
    /// Execution time of the *original* run, ms (reported so stretch math
    /// stays meaningful for cached serves).
    pub exec_ms: u64,
    /// When the original result was stored (cache clock).
    pub stored_at_ms: TimeMs,
    /// The tenant partition the hit was served from.
    pub tenant: String,
}

/// Per-tenant counters for `/metrics` and session digests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantCacheStats {
    pub tenant: String,
    pub hits: u64,
    pub misses: u64,
    pub fills: u64,
    pub evictions: u64,
    pub expirations: u64,
    pub invalidations: u64,
    /// Lookups that joined an in-flight fill instead of dispatching their
    /// own copy of the same invocation (single-flight suppression).
    pub coalesced: u64,
    pub entries: usize,
    pub bytes: u64,
}

struct Entry {
    fqdn: String,
    body: String,
    exec_ms: u64,
    stored_at_ms: TimeMs,
    expires_at_ms: TimeMs,
    bytes: u64,
    /// Monotone recency tick; the minimum across a partition is the LRU.
    last_used: u64,
}

#[derive(Default)]
struct Partition {
    entries: BTreeMap<String, Entry>,
    bytes: u64,
    hits: u64,
    misses: u64,
    fills: u64,
    evictions: u64,
    expirations: u64,
    invalidations: u64,
    coalesced: u64,
}

struct SpecInfo {
    idempotent: bool,
    tenant: Option<String>,
}

#[derive(Default)]
struct Inner {
    /// Tenant → partition. BTreeMap so stats iterate deterministically.
    partitions: BTreeMap<String, Partition>,
    specs: BTreeMap<String, SpecInfo>,
    tick: u64,
    /// Keys with a dispatch in flight under single-flight: the leader
    /// inserted its key and will [`ResultCache::fill`] (or abandon) it;
    /// followers wait on `flight_cv` instead of stampeding the workers.
    in_flight: BTreeSet<String>,
}

/// The shared result cache. One instance serves a whole load balancer or
/// worker; all state sits behind one mutex — the critical sections are a
/// few map operations, far below the dispatch path they replace.
pub struct ResultCache {
    cfg: CacheConfig,
    clock: Arc<dyn Clock>,
    inner: Mutex<Inner>,
    /// Wakes single-flight followers when a fill or abandon releases a key.
    flight_cv: Condvar,
    telemetry: OnceLock<Arc<TelemetryBus>>,
}

/// Tenant partition label when neither the call nor the registration names
/// one.
pub const DEFAULT_TENANT: &str = "default";

/// The explicit idempotency key: function, tenant, and argument hash.
pub fn idempotency_key(fqdn: &str, tenant: &str, args: &str) -> String {
    format!("{fqdn}@{tenant}#{:016x}", fnv1a64(args.as_bytes()))
}

impl ResultCache {
    pub fn new(cfg: CacheConfig, clock: Arc<dyn Clock>) -> Self {
        Self {
            cfg,
            clock,
            inner: Mutex::new(Inner::default()),
            flight_cv: Condvar::new(),
            telemetry: OnceLock::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Attach the canonical telemetry bus (first caller wins).
    pub fn set_telemetry(&self, bus: Arc<TelemetryBus>) {
        let _ = self.telemetry.set(bus);
    }

    fn emit(&self, trace_id: Option<u64>, tenant: &str, kind: TelemetryKind) {
        if let Some(bus) = self.telemetry.get() {
            bus.emit(trace_id, Some(tenant), kind);
        }
    }

    /// Record a registration. A second sighting of the same fqdn (new
    /// version, replayed registration on a re-admitted worker) invalidates
    /// every cached result for it — the function may have changed.
    pub fn note_spec(&self, spec: &FunctionSpec) {
        if !self.cfg.enabled {
            return;
        }
        let invalidated: Vec<(String, String)> = {
            let mut inner = self.inner.lock();
            let known = inner.specs.contains_key(&spec.fqdn);
            inner.specs.insert(
                spec.fqdn.clone(),
                SpecInfo {
                    idempotent: spec.idempotent,
                    tenant: spec.tenant.clone(),
                },
            );
            if known {
                let mut dropped = Vec::new();
                for (tenant, part) in inner.partitions.iter_mut() {
                    let stale: Vec<String> = part
                        .entries
                        .iter()
                        .filter(|(_, e)| e.fqdn == spec.fqdn)
                        .map(|(k, _)| k.clone())
                        .collect();
                    for k in stale {
                        if let Some(e) = part.entries.remove(&k) {
                            part.bytes = part.bytes.saturating_sub(e.bytes);
                            part.invalidations += 1;
                            dropped.push((tenant.clone(), k));
                        }
                    }
                }
                dropped
            } else {
                Vec::new()
            }
        };
        // A flight on a function re-registered as not idempotent is never
        // filled: its followers re-look now and bypass.
        self.flight_cv.notify_all();
        for (tenant, key) in invalidated {
            self.emit(
                None,
                &tenant,
                TelemetryKind::Cache {
                    op: "invalidate".into(),
                    key,
                    expires_at_ms: None,
                },
            );
        }
    }

    /// Resolve the tenant partition: explicit label, else the registered
    /// spec default, else [`DEFAULT_TENANT`].
    fn resolve_tenant(inner: &Inner, fqdn: &str, tenant: Option<&str>) -> String {
        tenant
            .map(str::to_string)
            .or_else(|| inner.specs.get(fqdn).and_then(|s| s.tenant.clone()))
            .unwrap_or_else(|| DEFAULT_TENANT.to_string())
    }

    /// Consult the cache before dispatch.
    pub fn lookup(&self, fqdn: &str, tenant: Option<&str>, args: &str) -> CacheLookup {
        if !self.cfg.enabled {
            return CacheLookup::Bypass;
        }
        let now = self.clock.now_ms();
        let mut inner = self.inner.lock();
        if !inner.specs.get(fqdn).is_some_and(|s| s.idempotent) {
            return CacheLookup::Bypass;
        }
        let t = Self::resolve_tenant(&inner, fqdn, tenant);
        let key = idempotency_key(fqdn, &t, args);
        inner.tick += 1;
        let tick = inner.tick;
        let part = inner.partitions.entry(t.clone()).or_default();
        let outcome = match part.entries.get_mut(&key) {
            Some(e) if now < e.expires_at_ms => {
                e.last_used = tick;
                part.hits += 1;
                CacheLookup::Hit(CachedResult {
                    body: e.body.clone(),
                    exec_ms: e.exec_ms,
                    stored_at_ms: e.stored_at_ms,
                    tenant: t.clone(),
                })
            }
            Some(_) => {
                // TTL lapsed: drop the entry; the caller dispatches and
                // refills with a fresh result.
                if let Some(e) = part.entries.remove(&key) {
                    part.bytes = part.bytes.saturating_sub(e.bytes);
                }
                part.expirations += 1;
                part.misses += 1;
                CacheLookup::Miss(key.clone())
            }
            None => {
                part.misses += 1;
                CacheLookup::Miss(key.clone())
            }
        };
        drop(inner);
        let op = match &outcome {
            CacheLookup::Hit(_) => "hit",
            CacheLookup::Miss(_) => "miss",
            CacheLookup::Bypass => unreachable!(),
        };
        self.emit(
            None,
            &t,
            TelemetryKind::Cache {
                op: op.into(),
                key,
                expires_at_ms: None,
            },
        );
        outcome
    }

    /// Single-flight consult: like [`ResultCache::lookup`], but when the
    /// same key already has a dispatch in flight the caller *joins* it —
    /// blocking up to `wait_ms` for the leader's [`ResultCache::fill`] —
    /// instead of stampeding the workers with duplicate work.
    ///
    /// A `Miss` return makes the caller the flight leader for that key: it
    /// MUST either `fill` the result or [`ResultCache::abandon`] the key,
    /// or followers will wait out their full budget. A follower whose wait
    /// lapses (leader too slow, or abandoned without a refill) is promoted
    /// to leader and dispatches its own copy — suppression is best-effort,
    /// correctness never depends on it.
    pub fn lookup_single_flight(
        &self,
        fqdn: &str,
        tenant: Option<&str>,
        args: &str,
        wait_ms: u64,
    ) -> CacheLookup {
        if !self.cfg.enabled {
            return CacheLookup::Bypass;
        }
        let deadline = std::time::Instant::now() + Duration::from_millis(wait_ms);
        let mut joined = false;
        loop {
            {
                let inner = self.inner.lock();
                if !inner.specs.get(fqdn).is_some_and(|s| s.idempotent) {
                    return CacheLookup::Bypass;
                }
                let t = Self::resolve_tenant(&inner, fqdn, tenant);
                let key = idempotency_key(fqdn, &t, args);
                let mut inner = inner;
                let fresh = inner
                    .partitions
                    .get(&t)
                    .and_then(|p| p.entries.get(&key))
                    .is_some_and(|e| self.clock.now_ms() < e.expires_at_ms);
                if !fresh && inner.in_flight.contains(&key) && std::time::Instant::now() < deadline
                {
                    if !joined {
                        joined = true;
                        inner.partitions.entry(t.clone()).or_default().coalesced += 1;
                        drop(inner);
                        self.emit(
                            None,
                            &t,
                            TelemetryKind::Cache {
                                op: "coalesce".into(),
                                key,
                                expires_at_ms: None,
                            },
                        );
                    } else {
                        // `fill` and `abandon` notify: the rest of the
                        // budget is the only timeout.
                        let _ = self.flight_cv.wait_until(&mut inner, deadline);
                    }
                    continue;
                }
            }
            // Fresh entry, no flight, or budget exhausted: fall through to
            // the plain lookup. On a miss, claim flight leadership.
            let outcome = self.lookup(fqdn, tenant, args);
            if let CacheLookup::Miss(key) = &outcome {
                self.inner.lock().in_flight.insert(key.clone());
            }
            return outcome;
        }
    }

    /// Release flight leadership for `key` without filling (the dispatch
    /// failed). Followers wake and the first re-looker becomes leader.
    pub fn abandon(&self, key: &str) {
        if self.inner.lock().in_flight.remove(key) {
            self.flight_cv.notify_all();
        }
    }

    /// Populate from a completed result. `trace_id` correlates the fill to
    /// the invocation that produced it (the conformance checker requires a
    /// durable completion behind every fill on worker streams).
    pub fn fill(
        &self,
        fqdn: &str,
        tenant: Option<&str>,
        args: &str,
        body: &str,
        exec_ms: u64,
        trace_id: Option<u64>,
    ) {
        if !self.cfg.enabled {
            return;
        }
        let now = self.clock.now_ms();
        let expires_at_ms = now + self.cfg.effective_ttl_ms();
        let capacity = self.cfg.effective_capacity_bytes();
        let max_entries = self.cfg.effective_max_entries();
        let mut evicted: Vec<(String, String)> = Vec::new();
        let (t, key, filled) = {
            let mut inner = self.inner.lock();
            if !inner.specs.get(fqdn).is_some_and(|s| s.idempotent) {
                return;
            }
            let t = Self::resolve_tenant(&inner, fqdn, tenant);
            let key = idempotency_key(fqdn, &t, args);
            let bytes = (key.len() + body.len()) as u64;
            if bytes > capacity {
                // A single oversized result can never fit its partition —
                // but it still ends the single-flight it was the leader of.
                inner.in_flight.remove(&key);
                drop(inner);
                self.flight_cv.notify_all();
                return;
            }
            inner.tick += 1;
            let tick = inner.tick;
            let part = inner.partitions.entry(t.clone()).or_default();
            if let Some(old) = part.entries.remove(&key) {
                part.bytes = part.bytes.saturating_sub(old.bytes);
            }
            // LRU eviction until the new entry fits both bounds.
            while part.bytes + bytes > capacity || part.entries.len() + 1 > max_entries {
                let lru = part
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                match lru {
                    Some(k) => {
                        if let Some(e) = part.entries.remove(&k) {
                            part.bytes = part.bytes.saturating_sub(e.bytes);
                        }
                        part.evictions += 1;
                        evicted.push((t.clone(), k));
                    }
                    None => break,
                }
            }
            part.entries.insert(
                key.clone(),
                Entry {
                    fqdn: fqdn.to_string(),
                    body: body.to_string(),
                    exec_ms,
                    stored_at_ms: now,
                    expires_at_ms,
                    bytes,
                    last_used: tick,
                },
            );
            part.bytes += bytes;
            part.fills += 1;
            // The fill ends any single-flight on this key: wake followers
            // so they re-look and hit the entry just stored.
            inner.in_flight.remove(&key);
            (t, key, true)
        };
        self.flight_cv.notify_all();
        for (tenant, key) in evicted {
            self.emit(
                None,
                &tenant,
                TelemetryKind::Cache {
                    op: "evict".into(),
                    key,
                    expires_at_ms: None,
                },
            );
        }
        if filled {
            self.emit(
                trace_id,
                &t,
                TelemetryKind::Cache {
                    op: "fill".into(),
                    key,
                    expires_at_ms: Some(expires_at_ms),
                },
            );
        }
    }

    /// Per-tenant counters, tenant-sorted (deterministic for digests).
    pub fn stats(&self) -> Vec<TenantCacheStats> {
        let inner = self.inner.lock();
        inner
            .partitions
            .iter()
            .map(|(t, p)| TenantCacheStats {
                tenant: t.clone(),
                hits: p.hits,
                misses: p.misses,
                fills: p.fills,
                evictions: p.evictions,
                expirations: p.expirations,
                invalidations: p.invalidations,
                coalesced: p.coalesced,
                entries: p.entries.len(),
                bytes: p.bytes,
            })
            .collect()
    }

    /// Aggregate (hits, misses, evictions) across all partitions.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.stats().iter().fold((0, 0, 0), |(h, m, e), s| {
            (h + s.hits, m + s.misses, e + s.evictions)
        })
    }

    /// The live keys of one tenant's partition, key-sorted. Test/tooling
    /// surface — the proptests compare this against a reference model.
    pub fn keys(&self, tenant: &str) -> Vec<String> {
        let inner = self.inner.lock();
        inner
            .partitions
            .get(tenant)
            .map(|p| p.entries.keys().cloned().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iluvatar_sync::{ManualClock, SystemClock};
    use iluvatar_telemetry::VecSink;
    use iluvatar_telemetry::{TelemetryBus, TelemetrySink};

    fn cache_with(cfg: CacheConfig) -> (Arc<ResultCache>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let cache = Arc::new(ResultCache::new(cfg, Arc::clone(&clock) as Arc<dyn Clock>));
        (cache, clock)
    }

    fn spec(fqdn: &str, tenant: Option<&str>) -> FunctionSpec {
        let s = FunctionSpec::new(fqdn.split('-').next().unwrap(), "1").with_idempotent();
        match tenant {
            Some(t) => s.with_tenant(t),
            None => s,
        }
    }

    #[test]
    fn disabled_cache_always_bypasses() {
        let (cache, _) = cache_with(CacheConfig::default());
        cache.note_spec(&spec("f-1", None));
        cache.fill("f-1", None, "{}", "r", 5, None);
        assert!(matches!(
            cache.lookup("f-1", None, "{}"),
            CacheLookup::Bypass
        ));
        assert!(cache.stats().is_empty());
    }

    #[test]
    fn non_idempotent_functions_bypass() {
        let (cache, _) = cache_with(CacheConfig::enabled_default());
        let s = FunctionSpec::new("f", "1"); // not idempotent
        cache.note_spec(&s);
        assert!(matches!(
            cache.lookup("f-1", None, "{}"),
            CacheLookup::Bypass
        ));
    }

    #[test]
    fn miss_fill_hit_roundtrip() {
        let (cache, _) = cache_with(CacheConfig::enabled_default());
        cache.note_spec(&spec("f-1", Some("gold")));
        assert!(matches!(
            cache.lookup("f-1", None, "{\"x\":1}"),
            CacheLookup::Miss(_)
        ));
        cache.fill("f-1", None, "{\"x\":1}", "result", 42, Some(7));
        match cache.lookup("f-1", None, "{\"x\":1}") {
            CacheLookup::Hit(r) => {
                assert_eq!(r.body, "result");
                assert_eq!(r.exec_ms, 42);
                assert_eq!(r.tenant, "gold");
            }
            _ => panic!("expected hit"),
        }
        // Different args hash to a different key.
        assert!(matches!(
            cache.lookup("f-1", None, "{\"x\":2}"),
            CacheLookup::Miss(_)
        ));
        let st = cache.stats();
        assert_eq!(st.len(), 1);
        assert_eq!((st[0].hits, st[0].misses, st[0].fills), (1, 2, 1));
    }

    #[test]
    fn ttl_expiry_is_exact_under_injected_clock() {
        let (cache, clock) = cache_with(CacheConfig {
            enabled: true,
            ttl_ms: 100,
            ..Default::default()
        });
        cache.note_spec(&spec("f-1", None));
        cache.fill("f-1", None, "{}", "r", 1, None);
        clock.advance(99);
        assert!(matches!(
            cache.lookup("f-1", None, "{}"),
            CacheLookup::Hit(_)
        ));
        clock.advance(1); // now == stored + ttl: expired
        assert!(matches!(
            cache.lookup("f-1", None, "{}"),
            CacheLookup::Miss(_)
        ));
        assert_eq!(cache.stats()[0].expirations, 1);
    }

    #[test]
    fn tenants_are_partitioned() {
        let (cache, _) = cache_with(CacheConfig::enabled_default());
        cache.note_spec(&spec("f-1", None));
        cache.fill("f-1", Some("a"), "{}", "for-a", 1, None);
        match cache.lookup("f-1", Some("a"), "{}") {
            CacheLookup::Hit(r) => assert_eq!(r.body, "for-a"),
            _ => panic!("tenant a must hit"),
        }
        // Same fqdn + args under another tenant: a miss, never a's body.
        assert!(matches!(
            cache.lookup("f-1", Some("b"), "{}"),
            CacheLookup::Miss(_)
        ));
    }

    #[test]
    fn re_registration_invalidates() {
        let (cache, _) = cache_with(CacheConfig::enabled_default());
        cache.note_spec(&spec("f-1", None));
        cache.fill("f-1", None, "{}", "v1", 1, None);
        assert!(matches!(
            cache.lookup("f-1", None, "{}"),
            CacheLookup::Hit(_)
        ));
        cache.note_spec(&spec("f-1", None)); // replayed registration
        assert!(matches!(
            cache.lookup("f-1", None, "{}"),
            CacheLookup::Miss(_)
        ));
        assert_eq!(cache.stats()[0].invalidations, 1);
    }

    #[test]
    fn telemetry_mirrors_operations() {
        let (cache, _) = cache_with(CacheConfig::enabled_default());
        let bus = TelemetryBus::new("cache-test", SystemClock::shared());
        let sink = Arc::new(VecSink::new());
        bus.add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        cache.set_telemetry(bus);
        cache.note_spec(&spec("f-1", None));
        let _ = cache.lookup("f-1", None, "{}");
        cache.fill("f-1", None, "{}", "r", 1, Some(9));
        let _ = cache.lookup("f-1", None, "{}");
        let labels: Vec<String> = sink.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels, vec!["cache:miss", "cache:fill", "cache:hit"]);
        let fill = &sink.events()[1];
        assert_eq!(fill.trace_id, Some(9));
        assert!(
            matches!(
                &fill.kind,
                TelemetryKind::Cache {
                    expires_at_ms: Some(_),
                    ..
                }
            ),
            "fill must carry its expiry"
        );
    }

    #[test]
    fn lru_eviction_under_entry_bound() {
        let (cache, _) = cache_with(CacheConfig {
            enabled: true,
            tenant_max_entries: 2,
            ..Default::default()
        });
        cache.note_spec(&spec("f-1", None));
        cache.fill("f-1", None, "a", "r", 1, None);
        cache.fill("f-1", None, "b", "r", 1, None);
        let _ = cache.lookup("f-1", None, "a"); // "a" is now the MRU
        cache.fill("f-1", None, "c", "r", 1, None); // evicts "b"
        assert!(matches!(
            cache.lookup("f-1", None, "a"),
            CacheLookup::Hit(_)
        ));
        assert!(matches!(
            cache.lookup("f-1", None, "b"),
            CacheLookup::Miss(_)
        ));
        assert!(matches!(
            cache.lookup("f-1", None, "c"),
            CacheLookup::Hit(_)
        ));
        assert_eq!(cache.stats()[0].evictions, 1);
    }

    #[test]
    fn oversized_results_are_not_cached() {
        let (cache, _) = cache_with(CacheConfig {
            enabled: true,
            tenant_capacity_bytes: 16,
            ..Default::default()
        });
        cache.note_spec(&spec("f-1", None));
        cache.fill("f-1", None, "{}", &"x".repeat(64), 1, None);
        assert!(matches!(
            cache.lookup("f-1", None, "{}"),
            CacheLookup::Miss(_)
        ));
    }

    #[test]
    fn single_flight_coalesces_a_stampede() {
        // Wall clock: followers block on a condvar while the leader works.
        let clock = SystemClock::shared();
        let cache = Arc::new(ResultCache::new(CacheConfig::enabled_default(), clock));
        cache.note_spec(&spec("f-1", Some("acme")));

        // Leader takes the flight...
        let key = match cache.lookup_single_flight("f-1", None, "{}", 5_000) {
            CacheLookup::Miss(k) => k,
            _ => panic!("first looker must lead"),
        };
        // ...followers pile onto the same key concurrently.
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || cache.lookup_single_flight("f-1", None, "{}", 5_000))
            })
            .collect();
        // Give followers time to join, then land the leader's result.
        std::thread::sleep(std::time::Duration::from_millis(50));
        cache.fill("f-1", None, "{}", "shared", 9, Some(1));
        cache.abandon(&key);

        for f in followers {
            match f.join().unwrap() {
                CacheLookup::Hit(r) => assert_eq!(r.body, "shared"),
                _ => panic!("followers must be served the leader's fill"),
            }
        }
        let st = cache.stats();
        let acme = st.iter().find(|t| t.tenant == "acme").unwrap();
        assert_eq!(acme.coalesced, 4, "every follower coalesced");
        assert_eq!(acme.hits, 4, "every follower hit the shared fill");
        assert_eq!(acme.misses, 1, "exactly one dispatch for the stampede");
    }

    #[test]
    fn abandoned_flight_promotes_a_follower() {
        let clock = SystemClock::shared();
        let cache = Arc::new(ResultCache::new(CacheConfig::enabled_default(), clock));
        cache.note_spec(&spec("f-1", Some("acme")));

        let key = match cache.lookup_single_flight("f-1", None, "{}", 5_000) {
            CacheLookup::Miss(k) => k,
            _ => panic!("first looker must lead"),
        };
        let follower = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.lookup_single_flight("f-1", None, "{}", 5_000))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Leader's dispatch failed: no fill, flight released.
        cache.abandon(&key);
        match follower.join().unwrap() {
            CacheLookup::Miss(_) => {}
            _ => panic!("follower must be promoted to leader after abandon"),
        }
    }

    #[test]
    fn config_serde_defaults_off() {
        let cfg: CacheConfig = serde_json::from_str("{}").unwrap();
        assert!(!cfg.enabled);
        assert_eq!(cfg.effective_ttl_ms(), 60_000);
        assert_eq!(cfg.effective_capacity_bytes(), 1024 * 1024);
        assert_eq!(cfg.effective_max_entries(), 1024);
    }
}
