//! Cluster front-end: a load-balancing policy over worker handles.
//!
//! Membership is *elastic*: the cluster is built with a fixed slot
//! capacity (the autoscaler's `max_workers`), and workers [`attach`] to
//! and [`detach`] from slots at runtime. An attached worker is admitted
//! through the same HalfOpen breaker probe that re-admits a restarted
//! worker; a detached slot keeps its dispatch counters, last-known name,
//! and tenant cache so cluster accounting survives fleet churn.
//!
//! [`attach`]: Cluster::attach
//! [`detach`]: Cluster::detach

use crate::chbl::{ChBl, ChBlConfig};
use iluvatar_cache::{CacheLookup, CacheStatus, ResultCache, TenantCacheStats};
use iluvatar_containers::FunctionSpec;
use iluvatar_core::{
    merge_span_exports, BreakdownReport, InvocationResult, InvokeError, SpanExport, TenantSnapshot,
    Worker, WorkerStatus,
};
use iluvatar_telemetry::{TelemetryBus, TelemetryKind};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How long a cache-eligible invocation waits behind an identical one
/// already dispatching before giving up and dispatching its own copy.
const SINGLE_FLIGHT_WAIT_MS: u64 = 10_000;

/// One health probe of a worker: its load, whether it is draining, and how
/// much load one more invocation adds. Draining workers are routed around
/// but not treated as failed — they are finishing in-flight work and will
/// either stop or return to service.
#[derive(Debug, Clone, Copy)]
pub struct ProbeResult {
    pub load: f64,
    pub draining: bool,
    /// Load one more outstanding invocation adds: `1 / cores` for a worker
    /// whose load is (running + queued) / cores. Between probe rounds the
    /// balancer adds `step` per hop it has in flight to the worker. 0 when
    /// the handle cannot say (a peer that omits `WorkerStatus.cores`, test
    /// stubs): routing then moves only at probe rounds ("tick-only").
    pub step: f64,
}

impl ProbeResult {
    /// The probe a worker's status answers.
    fn of_status(s: &WorkerStatus) -> Self {
        Self {
            load: s.normalized_load,
            draining: matches!(s.lifecycle.as_str(), "draining" | "stopped"),
            step: if s.cores > 0 {
                1.0 / s.cores as f64
            } else {
                0.0
            },
        }
    }
}

/// Queue/lifecycle detail one handle reports for fleet scaling decisions.
/// Everything defaults to zero for handles (test stubs) without the data.
#[derive(Debug, Clone, Default)]
pub struct HandleStats {
    pub queue_len: usize,
    pub running: usize,
    pub concurrency_limit: usize,
    /// Queue delay of the most recently dequeued invocation, ms.
    pub queue_delay_ms: u64,
    /// Invocations still to finish before a drain completes.
    pub drain_pending: u64,
    /// Lifecycle label: `running`, `draining`, or `stopped`.
    pub lifecycle: String,
    /// Total warm-container residency, GB·s — the fleet's least-warm
    /// victim-selection score. 0 for handles without a pool.
    pub warm_gb_s: f64,
}

/// Anything the balancer can dispatch to: a live worker or a test stub.
pub trait WorkerHandle: Send + Sync + 'static {
    fn name(&self) -> String;
    /// The queue-aware normalized load the worker reports (§4).
    fn load(&self) -> f64;
    /// Health probe: load plus lifecycle. The default derives it from
    /// [`load`](Self::load), never reports draining and has no step.
    fn probe(&self) -> ProbeResult {
        ProbeResult {
            load: self.load(),
            draining: false,
            step: 0.0,
        }
    }
    fn register(&self, spec: FunctionSpec) -> Result<(), String>;
    fn invoke(&self, fqdn: &str, args: &str) -> Result<InvocationResult, InvokeError>;
    /// Tenant-labelled invoke; handles without admission support drop the
    /// label and dispatch as usual.
    fn invoke_tenant(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<InvocationResult, InvokeError> {
        let _ = tenant;
        self.invoke(fqdn, args)
    }
    /// Span distributions for cluster aggregation (§5). Handles without
    /// observability (test stubs) report none.
    fn span_export(&self) -> Vec<SpanExport> {
        Vec::new()
    }
    /// Per-tenant accounting; empty when admission control is disabled or
    /// the handle doesn't track tenants.
    fn tenant_stats(&self) -> Vec<TenantSnapshot> {
        Vec::new()
    }
    /// The worker's critical-path breakdown, for the cluster-merged
    /// `GET /breakdown`. Handles without one (test stubs, unreachable
    /// workers) report `None`.
    fn breakdown(&self) -> Option<BreakdownReport> {
        None
    }
    /// Queue/lifecycle detail for the fleet manager's scaling signal.
    fn stats(&self) -> HandleStats {
        HandleStats::default()
    }
    /// Ask the worker to drain: finish in-flight work, reject new work.
    /// Returns the pending count at request time.
    fn drain(&self) -> Result<u64, String> {
        Ok(0)
    }
    /// The most recent `Retry-After` hint (ms) this handle received on a
    /// 503, telling the balancer how long to suppress re-probing. 0 when
    /// the worker never sent one.
    fn retry_after_hint_ms(&self) -> u64 {
        0
    }
    /// Prewarm a container for `fqdn` ahead of demand (the warm-handoff
    /// path on scale-down). Handles without a pool accept and ignore it.
    fn prewarm(&self, fqdn: &str) -> Result<(), String> {
        let _ = fqdn;
        Ok(())
    }
    /// Per-function warm residency `(fqdn, GB·s)`, hottest-agnostic order.
    /// Empty for handles without a pool — the fleet treats those as having
    /// nothing worth handing off.
    fn warm_profile(&self) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// A remote worker reached over its HTTP API — the distributed deployment
/// mode. Status polls and invocations go over pooled connections.
pub struct RemoteWorker {
    client: iluvatar_core::api::WorkerApiClient,
    /// Last `Retry-After` (ms) parsed off a 503 response.
    retry_after_ms: AtomicU64,
}

impl RemoteWorker {
    pub fn connect(addr: std::net::SocketAddr) -> Self {
        Self {
            client: iluvatar_core::api::WorkerApiClient::new(addr),
            retry_after_ms: AtomicU64::new(0),
        }
    }
}

impl WorkerHandle for RemoteWorker {
    fn name(&self) -> String {
        self.client
            .status()
            .map(|s| s.name)
            .unwrap_or_else(|_| format!("remote@{}", self.client.addr()))
    }

    fn load(&self) -> f64 {
        // An unreachable worker reports infinite load so CH-BL routes
        // around it.
        self.client
            .status()
            .map(|s| s.normalized_load)
            .unwrap_or(f64::INFINITY)
    }

    fn probe(&self) -> ProbeResult {
        match self.client.status() {
            Ok(s) => ProbeResult::of_status(&s),
            Err(_) => ProbeResult {
                load: f64::INFINITY,
                draining: false,
                step: 0.0,
            },
        }
    }

    fn register(&self, spec: FunctionSpec) -> Result<(), String> {
        self.client.register(&spec).map_err(|e| e.to_string())
    }

    fn invoke(&self, fqdn: &str, args: &str) -> Result<InvocationResult, InvokeError> {
        self.invoke_tenant(fqdn, args, None)
    }

    fn invoke_tenant(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<InvocationResult, InvokeError> {
        use iluvatar_core::api::ApiError;
        let (status, body) = match self.client.invoke_tenant(fqdn, args, tenant) {
            Ok(r) => {
                return Ok(InvocationResult {
                    body: r.body,
                    exec_ms: r.exec_ms,
                    e2e_ms: r.e2e_ms,
                    cold: r.cold,
                    queue_ms: r.queue_ms,
                    arrived_at: 0,
                    trace_id: r.trace_id,
                    tenant: r.tenant,
                    cache: CacheStatus::Bypass,
                })
            }
            Err(ApiError::Status(status, body)) => (status, body),
            Err(ApiError::Unavailable {
                retry_after_secs,
                body,
            }) => {
                // The worker is draining (or stopped): re-routable, but not
                // a failure — the balancer must not trip its breaker. Keep
                // the Retry-After hint so probes back off until it expires.
                self.retry_after_ms
                    .store(retry_after_secs * 1_000, Ordering::Relaxed);
                (503, body)
            }
            Err(e) => return Err(InvokeError::Backend(e.to_string())),
        };
        Err(InvokeError::from_http(status, &body, fqdn, tenant))
    }

    fn span_export(&self) -> Vec<SpanExport> {
        // A momentarily unreachable worker contributes nothing this scrape.
        self.client.spans().unwrap_or_default()
    }

    fn tenant_stats(&self) -> Vec<TenantSnapshot> {
        self.client.status().map(|s| s.tenants).unwrap_or_default()
    }

    fn breakdown(&self) -> Option<BreakdownReport> {
        self.client.breakdown().ok()
    }

    fn stats(&self) -> HandleStats {
        match self.client.status() {
            Ok(s) => HandleStats {
                queue_len: s.queue_len,
                running: s.running,
                concurrency_limit: s.concurrency_limit,
                queue_delay_ms: s.queue_delay_ms,
                drain_pending: s.drain_pending,
                lifecycle: s.lifecycle,
                warm_gb_s: s.warm_gb_s,
            },
            Err(_) => HandleStats::default(),
        }
    }

    fn drain(&self) -> Result<u64, String> {
        self.client.drain().map_err(|e| e.to_string())
    }

    fn retry_after_hint_ms(&self) -> u64 {
        self.retry_after_ms.load(Ordering::Relaxed)
    }

    fn prewarm(&self, fqdn: &str) -> Result<(), String> {
        self.client.prewarm(fqdn).map_err(|e| e.to_string())
    }

    fn warm_profile(&self) -> Vec<(String, f64)> {
        self.client
            .status()
            .map(|s| {
                s.warm_residency
                    .into_iter()
                    .map(|w| (w.fqdn, w.gb_s))
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl WorkerHandle for Worker {
    fn name(&self) -> String {
        self.status().name
    }

    fn load(&self) -> f64 {
        self.status().normalized_load
    }

    fn register(&self, spec: FunctionSpec) -> Result<(), String> {
        Worker::register(self, spec)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn invoke(&self, fqdn: &str, args: &str) -> Result<InvocationResult, InvokeError> {
        Worker::invoke_tenant(self, fqdn, args, None)
    }

    fn invoke_tenant(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<InvocationResult, InvokeError> {
        Worker::invoke_tenant(self, fqdn, args, tenant)
    }

    fn probe(&self) -> ProbeResult {
        ProbeResult::of_status(&self.status())
    }

    fn span_export(&self) -> Vec<SpanExport> {
        self.spans().export()
    }

    fn tenant_stats(&self) -> Vec<TenantSnapshot> {
        Worker::tenant_stats(self)
    }

    fn breakdown(&self) -> Option<BreakdownReport> {
        Some(Worker::breakdown(self))
    }

    fn stats(&self) -> HandleStats {
        let s = self.status();
        HandleStats {
            queue_len: s.queue_len,
            running: s.running,
            concurrency_limit: s.concurrency_limit,
            queue_delay_ms: s.queue_delay_ms,
            drain_pending: s.drain_pending,
            lifecycle: s.lifecycle,
            warm_gb_s: s.warm_gb_s,
        }
    }

    fn drain(&self) -> Result<u64, String> {
        Worker::drain(self);
        Ok(self.status().drain_pending)
    }

    fn prewarm(&self, fqdn: &str) -> Result<(), String> {
        Worker::prewarm(self, fqdn).map_err(|e| e.to_string())
    }

    fn warm_profile(&self) -> Vec<(String, f64)> {
        self.warm_residency()
    }
}

/// Load-balancing policies; CH-BL is the paper's default.
pub enum LbPolicy {
    ChBl(ChBlConfig),
    RoundRobin,
    LeastLoaded,
}

enum PolicyState {
    ChBl(ChBl),
    RoundRobin(AtomicU64),
    LeastLoaded,
}

/// Per-worker circuit breaker configuration. The defaults (trip on the
/// first failure, probe immediately) reproduce the pre-breaker behaviour:
/// one failed call evicts, one healthy status poll readmits.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker Closed→Open.
    pub failure_threshold: u32,
    /// Minimum time an open breaker waits before a half-open probe.
    pub open_cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 1,
            open_cooldown_ms: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: dispatches flow; failures accumulate toward the threshold.
    Closed,
    /// Tripped: the worker looks infinitely loaded, no dispatches.
    Open,
    /// Cooldown elapsed: the next status poll decides (success → Closed,
    /// failure → Open again).
    HalfOpen,
}

impl BreakerState {
    fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

struct Breaker {
    state: BreakerState,
    failures: u32,
    opened_at: Option<Instant>,
}

impl Breaker {
    fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            failures: 0,
            opened_at: None,
        }
    }

    /// The state a freshly attached (or re-attached) worker starts in:
    /// Open with an expired cooldown, so the very next probe round runs
    /// the HalfOpen admission check — the same path a restarted worker
    /// takes back into the cluster.
    fn awaiting_admission() -> Self {
        Self {
            state: BreakerState::Open,
            failures: 0,
            opened_at: None,
        }
    }
}

/// One worker slot as the balancer reports it: in [`Cluster::stats`], in a
/// scrape, and — serialized as is — under `workers` on the balancer's
/// `GET /status`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SlotStatus {
    /// Last-known worker name (survives detach, for accounting).
    pub name: String,
    /// Normalized load at the last probe round; `-1` for an evicted,
    /// draining or detached worker (JSON has no infinity).
    pub load: f64,
    pub dispatched: u64,
    /// Breaker Closed. A draining worker is routed around but stays
    /// healthy — it is not a failure.
    #[serde(default)]
    pub healthy: bool,
    /// Circuit breaker state: `closed`, `open`, or `half_open`.
    #[serde(default)]
    pub breaker: String,
    /// Whether the worker reported itself draining at the last probe.
    #[serde(default)]
    pub draining: bool,
    /// Whether a worker currently occupies this slot (elastic fleets
    /// detach retired workers; their slots stay for accounting).
    #[serde(default)]
    pub present: bool,
}

impl SlotStatus {
    /// Attached and not on its way out: counts toward the live fleet.
    pub fn live(&self) -> bool {
        self.present && !self.draining
    }
}

/// Per-slot state plus the cluster-wide dispatch counters.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// One entry per slot, cluster order.
    pub slots: Vec<SlotStatus>,
    pub forwarded: u64,
    /// Health-check evictions: breaker trips (Closed→Open edges).
    pub evictions: u64,
    /// Invocations re-dispatched to another worker after a worker failed.
    pub rerouted: u64,
}

impl ClusterStats {
    /// Invocations dispatched, summed over every slot.
    pub fn dispatched(&self) -> u64 {
        self.slots.iter().map(|s| s.dispatched).sum()
    }
}

/// Cluster-wide rollup for one tenant: admission counters merged across
/// workers plus the balancer's own dispatch accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantClusterStats {
    pub tenant: String,
    pub admitted: u64,
    pub throttled: u64,
    pub shed: u64,
    pub served: u64,
    /// Invocations the balancer dispatched for this tenant.
    pub lb_dispatched: u64,
    /// Tenant invocations re-routed after a worker failure.
    pub lb_rerouted: u64,
}

/// One scrape of the whole cluster: the stats after a fresh probe round
/// plus span histograms merged across workers (lossless — see
/// `LogHistogram::merge`).
#[derive(Debug, Clone, Default)]
pub struct ClusterSnapshot {
    pub stats: ClusterStats,
    /// Cluster-wide span distributions, merged by span name.
    pub spans: Vec<SpanExport>,
    /// Per-tenant rollup, sorted by tenant id. Evicted workers contribute
    /// their last-known counters, so tenant accounting survives eviction.
    pub tenants: Vec<TenantClusterStats>,
}

/// Everything the cluster keeps per worker slot. A detached slot keeps its
/// dispatch counter and last-known name so accounting survives the
/// retirement.
struct Slot {
    /// The attached worker; `None` while the slot is empty.
    handle: RwLock<Option<Arc<dyn WorkerHandle>>>,
    /// Last-known worker name (survives detach, for accounting).
    name: Mutex<String>,
    present: AtomicBool,
    dispatched: AtomicU64,
    /// Health view, derived from the breaker: `true` iff it is Closed. An
    /// atomic so the hot pick path reads it without the breaker lock.
    healthy: AtomicBool,
    /// Circuit breaker. A worker is evicted (breaker opens) when its status
    /// poll fails or enough invocations die on it; after the cooldown a
    /// successful status poll re-closes the breaker.
    breaker: Mutex<Breaker>,
    /// Draining flag, refreshed by probes and 503 responses.
    draining: AtomicBool,
    /// Probe suppression deadline: a draining worker that sent a
    /// `Retry-After` is not re-probed until the hint expires.
    probe_after: Mutex<Option<Instant>>,
    /// Load at the last probe round (`f64` bits); `+∞` when that round
    /// found the slot empty, evicted, suppressed or draining.
    probed: AtomicU64,
    /// The last probe's per-invocation step (`f64` bits).
    step: AtomicU64,
    /// Hops this balancer has outstanding to the slot ([`InFlight`]).
    inflight: AtomicU64,
    /// `inflight` when the last probe was sent: the hops that probe saw.
    inflight_at_probe: AtomicU64,
}

impl Slot {
    /// An empty slot is unhealthy until a worker attaches and passes its
    /// admission probe.
    fn new(idx: usize, worker: Option<Arc<dyn WorkerHandle>>) -> Self {
        Self {
            name: Mutex::new(match &worker {
                Some(w) => w.name(),
                None => format!("slot-{idx}"),
            }),
            present: AtomicBool::new(worker.is_some()),
            healthy: AtomicBool::new(worker.is_some()),
            handle: RwLock::new(worker),
            dispatched: AtomicU64::new(0),
            breaker: Mutex::new(Breaker::new()),
            draining: AtomicBool::new(false),
            probe_after: Mutex::new(None),
            probed: AtomicU64::new(f64::INFINITY.to_bits()),
            step: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            inflight_at_probe: AtomicU64::new(0),
        }
    }

    fn routable(&self) -> bool {
        self.healthy.load(Ordering::Relaxed) && !self.draining.load(Ordering::Relaxed)
    }

    fn probed(&self) -> f64 {
        f64::from_bits(self.probed.load(Ordering::Relaxed))
    }

    /// Record one probe round's reading; `inflight_at_probe` is what
    /// `inflight` was when the probe was sent.
    fn set_probed(&self, load: f64, step: f64, inflight_at_probe: u64) {
        self.probed.store(load.to_bits(), Ordering::Relaxed);
        self.step.store(step.to_bits(), Ordering::Relaxed);
        self.inflight_at_probe
            .store(inflight_at_probe, Ordering::Relaxed);
    }

    /// What routing reads: the last probe plus this balancer's own hops
    /// since, `probed + (inflight − inflight_at_probe) × step`, clamped at
    /// 0. `+∞` while the slot is empty or not routable (evicted or
    /// draining since the last round).
    fn estimate(&self) -> f64 {
        if !self.present.load(Ordering::Relaxed) || !self.routable() {
            return f64::INFINITY;
        }
        let delta = self.inflight.load(Ordering::Relaxed) as f64
            - self.inflight_at_probe.load(Ordering::Relaxed) as f64;
        let step = f64::from_bits(self.step.load(Ordering::Relaxed));
        (self.probed() + delta * step).max(0.0)
    }
}

/// One hop outstanding to a slot: counted into its `inflight` when taken,
/// counted out when dropped — on every exit of the call, error and unwind
/// included.
struct InFlight<'a>(&'a Slot);

impl<'a> InFlight<'a> {
    fn enter(slot: &'a Slot) -> Self {
        slot.inflight.fetch_add(1, Ordering::Relaxed);
        Self(slot)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The cluster: a policy over a capacity-bounded, elastic set of workers.
pub struct Cluster {
    /// Worker slots. The capacity is fixed at construction (the CH-BL ring
    /// is built over it), membership within it is dynamic.
    slots: Vec<Slot>,
    policy: PolicyState,
    forwarded: AtomicU64,
    breaker_cfg: BreakerConfig,
    evictions: AtomicU64,
    rerouted: AtomicU64,
    /// Balancer-side per-tenant (dispatched, rerouted) counters. These live
    /// here — not on the workers — so they survive worker eviction.
    tenant_lb: Mutex<HashMap<String, (u64, u64)>>,
    /// Last-known per-worker tenant snapshots; an unreachable worker keeps
    /// contributing its final counters to the cluster rollup.
    tenant_cache: Mutex<Vec<Vec<TenantSnapshot>>>,
    /// Canonical telemetry stream: dispatch/reroute/breaker/membership
    /// events fan out here once a bus is attached (the bus carries its own
    /// clock — the cluster itself is clockless).
    telemetry: OnceLock<Arc<TelemetryBus>>,
    /// Balancer-side invocation result cache: the cheapest invocation
    /// never reaches a worker. Absent (the default) every dispatch goes
    /// through; attach one with [`Cluster::set_cache`].
    cache: OnceLock<Arc<ResultCache>>,
}

impl Cluster {
    pub fn new(workers: Vec<Arc<dyn WorkerHandle>>, policy: LbPolicy) -> Self {
        Self::with_capacity(workers, policy, BreakerConfig::default(), 0)
    }

    /// A cluster with `capacity` slots (at least `workers.len()`), the
    /// first `workers.len()` of them occupied. Extra slots start empty and
    /// are filled by [`Cluster::attach`] (the autoscaler's scale-up path).
    /// Construction runs the first probe round, so routing starts from
    /// what the workers report.
    pub fn with_capacity(
        workers: Vec<Arc<dyn WorkerHandle>>,
        policy: LbPolicy,
        breaker_cfg: BreakerConfig,
        capacity: usize,
    ) -> Self {
        assert!(
            !workers.is_empty() || capacity > 0,
            "cluster needs at least one slot"
        );
        let n = capacity.max(workers.len());
        let policy = match policy {
            LbPolicy::ChBl(cfg) => PolicyState::ChBl(ChBl::new(n, cfg)),
            LbPolicy::RoundRobin => PolicyState::RoundRobin(AtomicU64::new(0)),
            LbPolicy::LeastLoaded => PolicyState::LeastLoaded,
        };
        let mut workers = workers.into_iter();
        let cluster = Self {
            policy,
            slots: (0..n).map(|i| Slot::new(i, workers.next())).collect(),
            forwarded: AtomicU64::new(0),
            breaker_cfg: BreakerConfig {
                failure_threshold: breaker_cfg.failure_threshold.max(1),
                ..breaker_cfg
            },
            evictions: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            tenant_lb: Mutex::new(HashMap::new()),
            tenant_cache: Mutex::new(vec![Vec::new(); n]),
            telemetry: OnceLock::new(),
            cache: OnceLock::new(),
        };
        cluster.probe_round();
        cluster
    }

    /// Attach the canonical telemetry bus. First call wins; events emitted
    /// before any bus is attached are dropped.
    pub fn set_telemetry(&self, bus: Arc<TelemetryBus>) {
        let _ = self.telemetry.set(bus);
    }

    /// Attach a balancer-side result cache (first call wins). Specs already
    /// registered through [`Cluster::register_all`] are not replayed into
    /// it — attach the cache before registering functions.
    pub fn set_cache(&self, cache: Arc<ResultCache>) {
        let _ = self.cache.set(cache);
    }

    /// Per-tenant result-cache counters; empty when no cache is attached.
    pub fn cache_stats(&self) -> Vec<TenantCacheStats> {
        self.cache.get().map(|c| c.stats()).unwrap_or_default()
    }

    fn tel(&self, tenant: Option<&str>, kind: TelemetryKind) {
        if let Some(bus) = self.telemetry.get() {
            bus.emit(None, tenant, kind);
        }
    }

    fn slot_name(&self, idx: usize) -> String {
        self.slots
            .get(idx)
            .map(|s| s.name.lock().clone())
            .unwrap_or_else(|| format!("slot-{idx}"))
    }

    /// Slot capacity (the CH-BL ring size), not the live worker count —
    /// see [`Cluster::live`].
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Occupied slots.
    pub fn live(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.present.load(Ordering::Relaxed))
            .count()
    }

    /// The handle in slot `idx`, if any.
    pub fn handle(&self, idx: usize) -> Option<Arc<dyn WorkerHandle>> {
        self.slots.get(idx)?.handle.read().clone()
    }

    /// Attach `worker` to the first free slot and schedule its admission:
    /// the slot starts unhealthy with its breaker Open-with-expired-
    /// cooldown, so the next probe round runs the standard HalfOpen
    /// re-admission check before any dispatch lands on it. Errors when
    /// every slot is occupied.
    pub fn attach(&self, worker: Arc<dyn WorkerHandle>) -> Result<usize, String> {
        for (idx, slot) in self.slots.iter().enumerate() {
            if slot
                .present
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                *slot.name.lock() = worker.name();
                *slot.handle.write() = Some(worker);
                *slot.breaker.lock() = Breaker::awaiting_admission();
                slot.healthy.store(false, Ordering::Relaxed);
                slot.draining.store(false, Ordering::Relaxed);
                *slot.probe_after.lock() = None;
                self.tel(
                    None,
                    TelemetryKind::Membership {
                        target: self.slot_name(idx),
                        change: "attach".into(),
                    },
                );
                return Ok(idx);
            }
        }
        Err("cluster at capacity: no free slot".into())
    }

    /// Detach the worker in slot `idx`, freeing the slot. Dispatch
    /// counters, the last-known name, and the tenant cache stay behind so
    /// cluster accounting survives the retirement.
    pub fn detach(&self, idx: usize) -> Option<Arc<dyn WorkerHandle>> {
        let slot = self.slots.get(idx)?;
        let handle = slot.handle.write().take();
        if let Some(h) = &handle {
            // Reconcile the tenant cache one final time before the handle
            // goes away: the retired worker's served counters must keep
            // contributing to the rollup.
            merge_tenant_cache(&mut self.tenant_cache.lock()[idx], h.tenant_stats());
            slot.present.store(false, Ordering::SeqCst);
            slot.healthy.store(false, Ordering::Relaxed);
            slot.draining.store(false, Ordering::Relaxed);
            *slot.probe_after.lock() = None;
            *slot.breaker.lock() = Breaker::new();
            self.tel(
                None,
                TelemetryKind::Membership {
                    target: self.slot_name(idx),
                    change: "detach".into(),
                },
            );
        }
        handle
    }

    /// Flag slot `idx` as draining so routing avoids it immediately,
    /// without waiting for the next probe round.
    pub fn mark_draining(&self, idx: usize) {
        if let Some(slot) = self.slots.get(idx) {
            slot.draining.store(true, Ordering::Relaxed);
            // Stream the transition: the fleet model's drain-never-kill
            // invariant (a detach must be preceded by draining) is checked
            // from exactly this event.
            self.tel(
                None,
                TelemetryKind::Membership {
                    target: self.slot_name(idx),
                    change: "draining".into(),
                },
            );
        }
    }

    /// Register on every attached worker (functions can run anywhere).
    /// Re-registering an fqdn invalidates its balancer-cached results.
    pub fn register_all(&self, spec: FunctionSpec) -> Result<(), String> {
        if let Some(cache) = self.cache.get() {
            cache.note_spec(&spec);
        }
        for idx in 0..self.slots.len() {
            if let Some(w) = self.handle(idx) {
                w.register(spec.clone())?;
            }
        }
        Ok(())
    }

    /// A failure observed on worker `idx` (failed poll or dead invocation).
    /// Closed breakers accumulate toward the threshold and trip Open on the
    /// edge (counted as an eviction); a failed HalfOpen probe re-opens
    /// without counting again.
    fn record_failure(&self, idx: usize) {
        let mut b = self.slots[idx].breaker.lock();
        match b.state {
            BreakerState::Closed => {
                b.failures += 1;
                if b.failures >= self.breaker_cfg.failure_threshold {
                    b.state = BreakerState::Open;
                    b.opened_at = Some(Instant::now());
                    self.slots[idx].healthy.store(false, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.tel(
                        None,
                        TelemetryKind::Breaker {
                            target: self.slot_name(idx),
                            state: "open".into(),
                        },
                    );
                }
            }
            BreakerState::HalfOpen => {
                // A failed probe re-opens without re-counting the eviction,
                // but the transition still streams: the observable per-target
                // sequence stays a legal walk of the breaker machine.
                b.state = BreakerState::Open;
                b.opened_at = Some(Instant::now());
                self.tel(
                    None,
                    TelemetryKind::Breaker {
                        target: self.slot_name(idx),
                        state: "open".into(),
                    },
                );
            }
            BreakerState::Open => {}
        }
    }

    /// A successful probe: a HalfOpen breaker closes (readmission), a
    /// Closed one forgets accumulated failures.
    fn record_success(&self, idx: usize) {
        let mut b = self.slots[idx].breaker.lock();
        if b.state != BreakerState::Closed {
            b.state = BreakerState::Closed;
            self.slots[idx].healthy.store(true, Ordering::Relaxed);
            self.tel(
                None,
                TelemetryKind::Breaker {
                    target: self.slot_name(idx),
                    state: "closed".into(),
                },
            );
        }
        b.failures = 0;
        b.opened_at = None;
    }

    /// Advance an Open breaker to HalfOpen once its cooldown elapsed, and
    /// report whether worker `idx` should be probed this round.
    fn advance_breaker(&self, idx: usize) -> BreakerState {
        let mut b = self.slots[idx].breaker.lock();
        if b.state == BreakerState::Open {
            let cooled = b
                .opened_at
                .map(|t| t.elapsed().as_millis() as u64 >= self.breaker_cfg.open_cooldown_ms)
                .unwrap_or(true);
            if cooled {
                b.state = BreakerState::HalfOpen;
                self.tel(
                    None,
                    TelemetryKind::Breaker {
                        target: self.slot_name(idx),
                        state: "half_open".into(),
                    },
                );
            }
        }
        b.state
    }

    /// Whether slot `idx` is inside a `Retry-After` suppression window.
    /// Clears the deadline once it expires.
    fn probe_suppressed(&self, idx: usize) -> bool {
        let mut until = self.slots[idx].probe_after.lock();
        match *until {
            Some(t) if Instant::now() < t => true,
            Some(_) => {
                *until = None;
                false
            }
            None => false,
        }
    }

    /// Probe every attached worker once — the only place the balancer asks
    /// a worker for its load. Runs at construction, on every [`scrape`]
    /// (the `LbApi` scrape tick) and after a fleet scale-up; routing reads
    /// the per-slot estimate it leaves behind. Besides loads, the round is
    /// the health check: it evicts workers whose probe failed, admits
    /// attached and cooled-down ones through HalfOpen, refreshes draining
    /// flags and honours `Retry-After` suppression. An Open breaker is
    /// therefore readmitted, and a finished drain noticed, at the next
    /// round — the scrape period is the staleness window.
    ///
    /// [`scrape`]: Cluster::scrape
    pub fn probe_round(&self) {
        for (i, slot) in self.slots.iter().enumerate() {
            let (mut load, mut step) = (f64::INFINITY, 0.0);
            let at_probe = slot.inflight.load(Ordering::Relaxed);
            if let Some(w) = self.handle(i) {
                if self.probe_suppressed(i) {
                    // Honour the worker's Retry-After: while the hint is
                    // live the worker is still draining by its own word —
                    // don't waste a probe on it, keep routing around.
                    slot.draining.store(true, Ordering::Relaxed);
                } else if self.advance_breaker(i) != BreakerState::Open {
                    // (An Open breaker is still cooling down: no probe, and
                    // routing keeps going around it.)
                    let p = w.probe();
                    if !p.load.is_finite() {
                        // The status poll failed: a breaker failure.
                        self.record_failure(i);
                    } else {
                        // The worker answered. Draining is not a failure —
                        // it closes the breaker but looks infinitely loaded
                        // so every load-aware policy routes around it.
                        self.record_success(i);
                        slot.draining.store(p.draining, Ordering::Relaxed);
                        if !p.draining {
                            (load, step) = (p.load, p.step);
                        }
                    }
                }
            }
            slot.set_probed(load, step, at_probe);
        }
    }

    /// Every slot's routing estimate, cluster order.
    fn estimates(&self) -> Vec<f64> {
        self.slots.iter().map(Slot::estimate).collect()
    }

    /// Choose the worker for `fqdn` under the configured policy. Reads the
    /// per-slot estimates; never probes.
    pub fn pick(&self, fqdn: &str) -> usize {
        let n = self.slots.len();
        match &self.policy {
            PolicyState::ChBl(ring) => {
                let loads = self.estimates();
                let (w, hops) = ring.pick(fqdn, &loads);
                if hops > 0 {
                    self.forwarded.fetch_add(1, Ordering::Relaxed);
                }
                w
            }
            PolicyState::RoundRobin(ctr) => {
                let mut choice = (ctr.fetch_add(1, Ordering::Relaxed) as usize) % n;
                // Skip evicted/empty slots; with none healthy, fall through
                // and let the invocation fail loudly rather than stall.
                for _ in 0..n {
                    if self.slots[choice].routable() {
                        break;
                    }
                    choice = (ctr.fetch_add(1, Ordering::Relaxed) as usize) % n;
                }
                choice
            }
            PolicyState::LeastLoaded => {
                let loads = self.estimates();
                (0..loads.len())
                    .min_by(|&a, &b| loads[a].partial_cmp(&loads[b]).unwrap())
                    .unwrap()
            }
        }
    }

    /// Balance and invoke synchronously — the balancer's one invocation
    /// entry. The balancing key includes the tenant so two tenants sharing
    /// a hot function land on different home workers (per-tenant locality),
    /// and the label rides the worker hop for admission control and
    /// accounting. A transport/backend failure evicts the worker and
    /// re-routes the invocation to the least-loaded healthy peer, so a
    /// worker dying mid-run loses no in-flight work at this layer — callers
    /// see an error only when every worker has failed.
    ///
    /// With a cache attached ([`Cluster::set_cache`]) it is consulted before
    /// a worker is picked, single-flight: concurrent misses on one key
    /// coalesce behind the first dispatcher, and followers are served its
    /// fill as a hit. The balancer's verdict rides on
    /// [`InvocationResult::cache`]; a bypass keeps the hop's own.
    pub fn invoke_tenant(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<InvocationResult, InvokeError> {
        let Some(cache) = self.cache.get() else {
            return self.dispatch(fqdn, args, tenant);
        };
        let key = match cache.lookup_single_flight(fqdn, tenant, args, SINGLE_FLIGHT_WAIT_MS) {
            CacheLookup::Hit(hit) => return Ok(InvocationResult::from_cache(hit)),
            CacheLookup::Bypass => return self.dispatch(fqdn, args, tenant),
            CacheLookup::Miss(key) => key,
        };
        let outcome = self.dispatch(fqdn, args, tenant).map(|mut r| {
            cache.fill(fqdn, tenant, args, &r.body, r.exec_ms, Some(r.trace_id));
            r.cache = CacheStatus::Miss;
            r
        });
        // Flight leadership goes back on every exit: a failed dispatch (or
        // a fill the cache rejected) must not leave followers waiting out
        // their whole budget.
        cache.abandon(&key);
        outcome
    }

    /// Pick a worker and hop to it, rerouting around failures.
    fn dispatch(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<InvocationResult, InvokeError> {
        let w = match tenant {
            Some(t) => self.pick(&format!("{fqdn}@{t}")),
            None => self.pick(fqdn),
        };
        self.slots[w].dispatched.fetch_add(1, Ordering::Relaxed);
        self.tel(
            tenant,
            TelemetryKind::Dispatch {
                target: self.slot_name(w),
            },
        );
        if let Some(t) = tenant {
            self.tenant_lb.lock().entry(t.to_string()).or_default().0 += 1;
        }
        let Some(handle) = self.handle(w) else {
            // The slot emptied between pick and dispatch (scale-down race):
            // not a worker failure, just reroute.
            return self.reroute(fqdn, args, tenant, w, InvokeError::ShuttingDown);
        };
        match self.hop(w, &*handle, fqdn, args, tenant) {
            Err(InvokeError::Backend(e)) => {
                // The worker died mid-call: a breaker failure.
                self.record_failure(w);
                self.reroute(fqdn, args, tenant, w, InvokeError::Backend(e))
            }
            Err(InvokeError::ShuttingDown) => {
                // The worker is draining: route around it without tripping
                // the breaker — it is finishing work, not failing.
                self.note_draining(w, handle.retry_after_hint_ms());
                self.reroute(fqdn, args, tenant, w, InvokeError::ShuttingDown)
            }
            other => other,
        }
    }

    /// A 503 landed on slot `idx`: flag it draining and, when the worker
    /// sent a `Retry-After`, suppress probes until the hint expires.
    fn note_draining(&self, idx: usize, retry_after_ms: u64) {
        self.slots[idx].draining.store(true, Ordering::Relaxed);
        self.tel(
            None,
            TelemetryKind::Membership {
                target: self.slot_name(idx),
                change: "draining".into(),
            },
        );
        if retry_after_ms > 0 {
            *self.slots[idx].probe_after.lock() =
                Some(Instant::now() + Duration::from_millis(retry_after_ms));
        }
    }

    /// One call to the worker in slot `idx`, counted in the slot's
    /// in-flight estimate for exactly as long as it is outstanding.
    fn hop(
        &self,
        idx: usize,
        handle: &dyn WorkerHandle,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<InvocationResult, InvokeError> {
        let _hop = InFlight::enter(&self.slots[idx]);
        handle.invoke_tenant(fqdn, args, tenant)
    }

    fn reroute(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
        failed: usize,
        first_err: InvokeError,
    ) -> Result<InvocationResult, InvokeError> {
        let mut err = first_err;
        let mut tried = vec![false; self.slots.len()];
        tried[failed] = true;
        loop {
            let loads = self.estimates();
            let next = (0..self.slots.len())
                .filter(|&i| {
                    !tried[i]
                        && self.slots[i].present.load(Ordering::Relaxed)
                        && self.slots[i].routable()
                })
                .min_by(|&a, &b| {
                    loads[a]
                        .partial_cmp(&loads[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            let Some(i) = next else { return Err(err) };
            tried[i] = true;
            let Some(handle) = self.handle(i) else {
                continue;
            };
            self.rerouted.fetch_add(1, Ordering::Relaxed);
            self.slots[i].dispatched.fetch_add(1, Ordering::Relaxed);
            self.tel(
                tenant,
                TelemetryKind::Reroute {
                    from: self.slot_name(failed),
                    to: self.slot_name(i),
                },
            );
            if let Some(t) = tenant {
                let mut lb = self.tenant_lb.lock();
                let e = lb.entry(t.to_string()).or_default();
                e.0 += 1;
                e.1 += 1;
            }
            match self.hop(i, &*handle, fqdn, args, tenant) {
                Err(InvokeError::Backend(e)) => {
                    self.record_failure(i);
                    err = InvokeError::Backend(e);
                }
                Err(InvokeError::ShuttingDown) => {
                    self.note_draining(i, handle.retry_after_hint_ms());
                    err = InvokeError::ShuttingDown;
                }
                other => return other,
            }
        }
    }

    /// Merge every reachable worker's critical-path breakdown into one
    /// cluster-wide report (lossless histogram merges; unreachable workers
    /// are skipped).
    pub fn breakdown(&self) -> BreakdownReport {
        let reports: Vec<BreakdownReport> = (0..self.slots.len())
            .filter_map(|i| self.handle(i).and_then(|w| w.breakdown()))
            .collect();
        BreakdownReport::merge(&reports)
    }

    /// Merge per-worker tenant snapshots (last-known for unreachable
    /// workers) with the balancer's own per-tenant counters.
    pub fn tenant_rollup(&self) -> Vec<TenantClusterStats> {
        let mut cache = self.tenant_cache.lock();
        for i in 0..self.slots.len() {
            if let Some(w) = self.handle(i) {
                merge_tenant_cache(&mut cache[i], w.tenant_stats());
            }
        }
        let mut merged: HashMap<String, TenantClusterStats> = HashMap::new();
        for snap in cache.iter().flatten() {
            let e = merged
                .entry(snap.tenant.clone())
                .or_insert_with(|| TenantClusterStats {
                    tenant: snap.tenant.clone(),
                    ..Default::default()
                });
            e.admitted += snap.admitted;
            e.throttled += snap.throttled;
            e.shed += snap.shed;
            e.served += snap.served;
        }
        for (t, &(dispatched, rerouted)) in self.tenant_lb.lock().iter() {
            let e = merged
                .entry(t.clone())
                .or_insert_with(|| TenantClusterStats {
                    tenant: t.clone(),
                    ..Default::default()
                });
            e.lb_dispatched = dispatched;
            e.lb_rerouted = rerouted;
        }
        let mut out: Vec<TenantClusterStats> = merged.into_values().collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// Slot states and counters; loads as of the last probe round.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            slots: self
                .slots
                .iter()
                .map(|s| SlotStatus {
                    name: s.name.lock().clone(),
                    load: match s.probed() {
                        load if load.is_finite() => load,
                        _ => -1.0,
                    },
                    dispatched: s.dispatched.load(Ordering::Relaxed),
                    healthy: s.healthy.load(Ordering::Relaxed),
                    breaker: s.breaker.lock().state.label().to_string(),
                    draining: s.draining.load(Ordering::Relaxed),
                    present: s.present.load(Ordering::Relaxed),
                })
                .collect(),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rerouted: self.rerouted.load(Ordering::Relaxed),
        }
    }

    /// Scrape every worker's status and span distributions and merge them
    /// into one cluster view (§5 aggregation).
    pub fn scrape(&self) -> ClusterSnapshot {
        // The scrape is the periodic probe round: it refreshes the loads
        // routing reads, evicts workers whose status poll failed and
        // readmits recovered ones, so the LB's scrape task keeps both views
        // current even when no invocations are flowing.
        self.probe_round();
        let sets: Vec<Vec<SpanExport>> = (0..self.slots.len())
            .map(|i| self.handle(i).map(|w| w.span_export()).unwrap_or_default())
            .collect();
        ClusterSnapshot {
            stats: self.stats(),
            spans: merge_span_exports(&sets),
            tenants: self.tenant_rollup(),
        }
    }
}

/// Fold a fresh tenant scrape into a worker's last-known cache, field-wise
/// monotonically. Counters on a worker only grow, so under normal operation
/// the fresh value wins; after a crash+recovery a restarted worker replays
/// its WAL and reports counters at-or-below the last scrape — taking the
/// max keeps the rollup from double-counting or regressing. An empty
/// scrape (unreachable worker) leaves the cache untouched.
fn merge_tenant_cache(cache: &mut Vec<TenantSnapshot>, fresh: Vec<TenantSnapshot>) {
    if fresh.is_empty() {
        return;
    }
    for f in fresh {
        match cache.iter_mut().find(|c| c.tenant == f.tenant) {
            Some(c) => {
                c.weight = f.weight;
                c.class = f.class;
                c.admitted = c.admitted.max(f.admitted);
                c.throttled = c.throttled.max(f.throttled);
                c.shed = c.shed.max(f.shed);
                c.served = c.served.max(f.served);
            }
            None => cache.push(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stub worker with a settable load that records invocations.
    struct StubWorker {
        name: String,
        load: RwLock<f64>,
        calls: AtomicU64,
    }

    impl StubWorker {
        fn new(name: &str) -> Arc<Self> {
            Arc::new(Self {
                name: name.into(),
                load: RwLock::new(0.0),
                calls: AtomicU64::new(0),
            })
        }
    }

    impl WorkerHandle for StubWorker {
        fn name(&self) -> String {
            self.name.clone()
        }

        fn load(&self) -> f64 {
            *self.load.read()
        }

        fn register(&self, _spec: FunctionSpec) -> Result<(), String> {
            Ok(())
        }

        fn invoke(&self, _fqdn: &str, _args: &str) -> Result<InvocationResult, InvokeError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            Ok(InvocationResult {
                body: String::new(),
                exec_ms: 1,
                e2e_ms: 1,
                cold: false,
                queue_ms: 0,
                arrived_at: 0,
                trace_id: 0,
                tenant: None,
                cache: CacheStatus::Bypass,
            })
        }

        fn tenant_stats(&self) -> Vec<TenantSnapshot> {
            vec![TenantSnapshot {
                tenant: "acme".into(),
                weight: 1.0,
                served: self.calls.load(Ordering::SeqCst),
                ..Default::default()
            }]
        }
    }

    fn stub_cluster(n: usize, policy: LbPolicy) -> (Vec<Arc<StubWorker>>, Cluster) {
        let stubs: Vec<Arc<StubWorker>> =
            (0..n).map(|i| StubWorker::new(&format!("w{i}"))).collect();
        let handles: Vec<Arc<dyn WorkerHandle>> = stubs
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn WorkerHandle>)
            .collect();
        (stubs, Cluster::new(handles, policy))
    }

    #[test]
    fn round_robin_cycles() {
        let (stubs, cluster) = stub_cluster(3, LbPolicy::RoundRobin);
        for _ in 0..9 {
            cluster.invoke_tenant("f-1", "{}", None).unwrap();
        }
        for s in &stubs {
            assert_eq!(s.calls.load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn least_loaded_prefers_idle() {
        let (stubs, cluster) = stub_cluster(3, LbPolicy::LeastLoaded);
        *stubs[0].load.write() = 5.0;
        *stubs[1].load.write() = 0.1;
        *stubs[2].load.write() = 3.0;
        // Routing keeps the construction round's view (all idle → slot 0)
        // until the next probe round.
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
        assert_eq!(stubs[0].calls.load(Ordering::SeqCst), 1, "old view");
        cluster.probe_round();
        for _ in 0..4 {
            cluster.invoke_tenant("f-1", "{}", None).unwrap();
        }
        assert_eq!(stubs[1].calls.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn chbl_is_sticky_until_overload() {
        let (stubs, cluster) = stub_cluster(4, LbPolicy::ChBl(ChBlConfig::default()));
        // Low load: all invocations of one function land on one worker.
        for _ in 0..10 {
            cluster.invoke_tenant("sticky-1", "{}", None).unwrap();
        }
        let with_calls: Vec<_> = stubs
            .iter()
            .filter(|s| s.calls.load(Ordering::SeqCst) > 0)
            .collect();
        assert_eq!(with_calls.len(), 1, "locality: one home worker");
        let home_idx = stubs
            .iter()
            .position(|s| s.calls.load(Ordering::SeqCst) > 0)
            .unwrap();
        assert_eq!(cluster.stats().forwarded, 0);
        // Overload the home: until a probe round reports it, routing keeps
        // the old view and the home keeps the function.
        *stubs[home_idx].load.write() = 1_000.0;
        cluster.invoke_tenant("sticky-1", "{}", None).unwrap();
        assert_eq!(stubs[home_idx].calls.load(Ordering::SeqCst), 11, "old view");
        // The scrape tick's round sees it: the next invocation forwards.
        cluster.probe_round();
        cluster.invoke_tenant("sticky-1", "{}", None).unwrap();
        assert_eq!(
            stubs[home_idx].calls.load(Ordering::SeqCst),
            11,
            "overloaded home skipped"
        );
        assert_eq!(cluster.stats().forwarded, 1);
    }

    #[test]
    fn register_all_propagates() {
        let (_stubs, cluster) = stub_cluster(3, LbPolicy::RoundRobin);
        cluster.register_all(FunctionSpec::new("f", "1")).unwrap();
        assert_eq!(cluster.len(), 3);
    }

    #[test]
    fn stats_count_dispatches() {
        let (_stubs, cluster) = stub_cluster(2, LbPolicy::RoundRobin);
        for _ in 0..5 {
            cluster.invoke_tenant("f-1", "{}", None).unwrap();
        }
        let st = cluster.stats();
        assert_eq!(st.dispatched(), 5);
    }

    #[test]
    fn tenant_rollup_merges_workers_and_lb_counters() {
        let (stubs, cluster) = stub_cluster(2, LbPolicy::RoundRobin);
        for _ in 0..4 {
            cluster.invoke_tenant("f-1", "{}", Some("acme")).unwrap();
        }
        cluster.invoke_tenant("f-1", "{}", None).unwrap(); // unlabelled: no tenant counter
        let roll = cluster.tenant_rollup();
        let acme = roll.iter().find(|t| t.tenant == "acme").unwrap();
        assert_eq!(acme.lb_dispatched, 4);
        assert_eq!(acme.lb_rerouted, 0);
        // Worker-side served counts merged across both stubs (5 calls total).
        assert_eq!(acme.served, 5);
        assert_eq!(stubs.len(), 2);
        // Snapshot carries the same rollup.
        let snap = cluster.scrape();
        assert_eq!(snap.tenants, roll);
    }

    #[test]
    fn tenant_key_separates_home_workers() {
        // With CH-BL, the same function under different tenants may hash to
        // different homes; at minimum the dispatch must stay deterministic
        // per (fqdn, tenant) pair under low load.
        let (stubs, cluster) = stub_cluster(4, LbPolicy::ChBl(ChBlConfig::default()));
        for _ in 0..6 {
            cluster.invoke_tenant("pin-1", "{}", Some("t1")).unwrap();
        }
        let homes: Vec<u64> = stubs
            .iter()
            .map(|s| s.calls.load(Ordering::SeqCst))
            .collect();
        assert_eq!(homes.iter().sum::<u64>(), 6);
        assert_eq!(
            homes.iter().filter(|&&c| c > 0).count(),
            1,
            "sticky per tenant: {homes:?}"
        );
    }

    /// A stub whose invocations can be failed or held, and whose probe
    /// reports a settable draining flag and a step of 0.25 (four cores).
    struct FlakyWorker {
        name: String,
        fail: AtomicBool,
        draining: AtomicBool,
        retry_after_ms: AtomicU64,
        calls: AtomicU64,
        probes: AtomicU64,
        /// An invocation waits here while a test holds the lock.
        gate: Mutex<()>,
    }

    impl FlakyWorker {
        fn new(name: &str) -> Arc<Self> {
            Arc::new(Self {
                name: name.into(),
                fail: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                retry_after_ms: AtomicU64::new(0),
                calls: AtomicU64::new(0),
                probes: AtomicU64::new(0),
                gate: Mutex::new(()),
            })
        }
    }

    fn flaky_cluster(n: usize, policy: LbPolicy) -> (Vec<Arc<FlakyWorker>>, Arc<Cluster>) {
        let workers: Vec<Arc<FlakyWorker>> =
            (0..n).map(|i| FlakyWorker::new(&format!("w{i}"))).collect();
        let handles: Vec<Arc<dyn WorkerHandle>> = workers
            .iter()
            .map(|w| Arc::clone(w) as Arc<dyn WorkerHandle>)
            .collect();
        (workers, Arc::new(Cluster::new(handles, policy)))
    }

    impl WorkerHandle for FlakyWorker {
        fn name(&self) -> String {
            self.name.clone()
        }

        fn load(&self) -> f64 {
            if self.fail.load(Ordering::SeqCst) {
                f64::INFINITY
            } else {
                0.1
            }
        }

        fn probe(&self) -> ProbeResult {
            self.probes.fetch_add(1, Ordering::SeqCst);
            ProbeResult {
                load: self.load(),
                draining: self.draining.load(Ordering::SeqCst),
                step: 0.25,
            }
        }

        fn register(&self, _spec: FunctionSpec) -> Result<(), String> {
            Ok(())
        }

        fn invoke(&self, _fqdn: &str, _args: &str) -> Result<InvocationResult, InvokeError> {
            drop(self.gate.lock());
            if self.draining.load(Ordering::SeqCst) {
                return Err(InvokeError::ShuttingDown);
            }
            if self.fail.load(Ordering::SeqCst) {
                return Err(InvokeError::Backend("dead".into()));
            }
            self.calls.fetch_add(1, Ordering::SeqCst);
            Ok(InvocationResult {
                body: String::new(),
                exec_ms: 1,
                e2e_ms: 1,
                cold: false,
                queue_ms: 0,
                arrived_at: 0,
                trace_id: 0,
                tenant: None,
                cache: CacheStatus::Bypass,
            })
        }

        fn retry_after_hint_ms(&self) -> u64 {
            self.retry_after_ms.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_readmits_via_half_open() {
        let flaky = FlakyWorker::new("w0");
        let ok = FlakyWorker::new("w1");
        let handles: Vec<Arc<dyn WorkerHandle>> = vec![
            Arc::clone(&flaky) as Arc<dyn WorkerHandle>,
            Arc::clone(&ok) as Arc<dyn WorkerHandle>,
        ];
        let cluster = Cluster::with_capacity(
            handles,
            LbPolicy::RoundRobin,
            BreakerConfig {
                failure_threshold: 2,
                open_cooldown_ms: 30,
            },
            0,
        );
        // One failure: under the threshold, the breaker stays closed.
        flaky.fail.store(true, Ordering::SeqCst);
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
        let st = cluster.stats();
        assert_eq!(st.evictions, 0, "first failure stays under threshold");
        assert_eq!(st.slots[0].breaker, "closed");
        assert!(st.slots[0].healthy);
        // Second failure trips it: Closed→Open, one eviction edge.
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
        let st = cluster.stats();
        assert_eq!(st.evictions, 1, "threshold reached: one trip");
        assert_eq!(st.slots[0].breaker, "open");
        assert!(!st.slots[0].healthy);
        // The worker recovers, but the cooldown hasn't elapsed: the scrape
        // must not probe it back in yet.
        flaky.fail.store(false, Ordering::SeqCst);
        cluster.probe_round();
        assert_eq!(
            cluster.stats().slots[0].breaker,
            "open",
            "still cooling down"
        );
        // After the cooldown the next scrape goes HalfOpen and the
        // successful probe re-closes the breaker.
        std::thread::sleep(std::time::Duration::from_millis(40));
        cluster.probe_round();
        let st = cluster.stats();
        assert_eq!(st.slots[0].breaker, "closed", "probe readmitted the worker");
        assert!(st.slots[0].healthy);
        assert_eq!(st.evictions, 1, "readmission costs no eviction edge");
    }

    #[test]
    fn half_open_probe_failure_reopens_without_recounting() {
        let flaky = FlakyWorker::new("w0");
        let ok = FlakyWorker::new("w1");
        let handles: Vec<Arc<dyn WorkerHandle>> = vec![
            Arc::clone(&flaky) as Arc<dyn WorkerHandle>,
            Arc::clone(&ok) as Arc<dyn WorkerHandle>,
        ];
        let cluster = Cluster::with_capacity(
            handles,
            LbPolicy::RoundRobin,
            BreakerConfig::default(), // trip on first failure, probe at once
            0,
        );
        flaky.fail.store(true, Ordering::SeqCst);
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
        assert_eq!(cluster.stats().evictions, 1);
        // Repeated failing probes bounce HalfOpen→Open without new edges.
        for _ in 0..3 {
            cluster.probe_round();
        }
        let st = cluster.stats();
        assert_eq!(st.evictions, 1, "re-opening is not a new eviction");
        assert!(!st.slots[0].healthy);
    }

    #[test]
    fn draining_worker_is_routed_around_without_eviction() {
        let draining = FlakyWorker::new("w0");
        let ok = FlakyWorker::new("w1");
        let handles: Vec<Arc<dyn WorkerHandle>> = vec![
            Arc::clone(&draining) as Arc<dyn WorkerHandle>,
            Arc::clone(&ok) as Arc<dyn WorkerHandle>,
        ];
        let cluster = Cluster::new(handles, LbPolicy::RoundRobin);
        draining.draining.store(true, Ordering::SeqCst);
        // Every invocation lands on the healthy worker: round-robin picks
        // w0 half the time, gets 503, and reroutes without tripping.
        for _ in 0..6 {
            cluster.invoke_tenant("f-1", "{}", None).unwrap();
        }
        assert_eq!(ok.calls.load(Ordering::SeqCst), 6, "all served by w1");
        let st = cluster.stats();
        assert_eq!(st.evictions, 0, "draining is not a failure");
        assert!(st.slots[0].healthy, "draining worker stays healthy");
        assert!(st.slots[0].draining, "but is flagged draining");
        // A scrape after the drain ends clears the flag.
        draining.draining.store(false, Ordering::SeqCst);
        cluster.probe_round();
        let st = cluster.stats();
        assert!(!st.slots[0].draining);
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
    }

    #[test]
    fn retry_after_hint_suppresses_probes_until_expiry() {
        let draining = FlakyWorker::new("w0");
        let ok = FlakyWorker::new("w1");
        let handles: Vec<Arc<dyn WorkerHandle>> = vec![
            Arc::clone(&draining) as Arc<dyn WorkerHandle>,
            Arc::clone(&ok) as Arc<dyn WorkerHandle>,
        ];
        let cluster = Cluster::new(handles, LbPolicy::RoundRobin);
        draining.draining.store(true, Ordering::SeqCst);
        draining.retry_after_ms.store(60_000, Ordering::SeqCst);
        // The 503 carries a 60 s Retry-After: the reroute must record it.
        for _ in 0..4 {
            cluster.invoke_tenant("f-1", "{}", None).unwrap();
        }
        let probes_at_hint = draining.probes.load(Ordering::SeqCst);
        // Scrapes during the suppression window must not probe w0 again,
        // and must keep reporting it as draining.
        for _ in 0..5 {
            cluster.probe_round();
        }
        assert_eq!(
            draining.probes.load(Ordering::SeqCst),
            probes_at_hint,
            "probes suppressed while the Retry-After hint is live"
        );
        assert!(cluster.stats().slots[0].draining);
        // All traffic kept flowing to the healthy worker meanwhile.
        assert_eq!(ok.calls.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn expired_retry_after_resumes_probing() {
        let draining = FlakyWorker::new("w0");
        let ok = FlakyWorker::new("w1");
        let handles: Vec<Arc<dyn WorkerHandle>> = vec![
            Arc::clone(&draining) as Arc<dyn WorkerHandle>,
            Arc::clone(&ok) as Arc<dyn WorkerHandle>,
        ];
        let cluster = Cluster::new(handles, LbPolicy::RoundRobin);
        draining.draining.store(true, Ordering::SeqCst);
        draining.retry_after_ms.store(20, Ordering::SeqCst);
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
        // Hint expires; the worker finishes draining and returns.
        std::thread::sleep(std::time::Duration::from_millis(30));
        draining.draining.store(false, Ordering::SeqCst);
        cluster.probe_round();
        let st = cluster.stats();
        assert!(!st.slots[0].draining, "probe after expiry clears the flag");
        assert!(st.slots[0].healthy);
    }

    #[test]
    fn attach_fills_a_slot_and_admits_via_half_open() {
        let w0 = FlakyWorker::new("w0");
        let handles: Vec<Arc<dyn WorkerHandle>> = vec![Arc::clone(&w0) as Arc<dyn WorkerHandle>];
        let cluster =
            Cluster::with_capacity(handles, LbPolicy::RoundRobin, BreakerConfig::default(), 3);
        assert_eq!(cluster.len(), 3, "capacity, not membership");
        assert_eq!(cluster.live(), 1);
        let st = cluster.stats();
        assert!(st.slots[0].present && !st.slots[1].present && !st.slots[2].present);
        assert!(!st.slots[1].healthy, "empty slots are unroutable");

        // Attach a second worker: it lands in slot 1, unhealthy until the
        // HalfOpen admission probe passes.
        let w1 = FlakyWorker::new("w1");
        let idx = cluster
            .attach(Arc::clone(&w1) as Arc<dyn WorkerHandle>)
            .unwrap();
        assert_eq!(idx, 1);
        assert_eq!(cluster.live(), 2);
        let st = cluster.stats();
        assert!(
            !st.slots[1].healthy,
            "not routable before the admission probe"
        );
        assert_eq!(st.slots[1].breaker, "open");
        // One probe round admits it (HalfOpen → Closed), no eviction edge.
        cluster.probe_round();
        let st = cluster.stats();
        assert!(st.slots[1].healthy, "admission probe closed the breaker");
        assert_eq!(st.slots[1].breaker, "closed");
        assert_eq!(st.evictions, 0);
        // Round-robin now reaches both workers.
        for _ in 0..4 {
            cluster.invoke_tenant("f-1", "{}", None).unwrap();
        }
        assert!(
            w1.calls.load(Ordering::SeqCst) >= 1,
            "attached worker serves traffic"
        );
    }

    #[test]
    fn attach_beyond_capacity_errors_and_detach_frees_the_slot() {
        let w0 = FlakyWorker::new("w0");
        let handles: Vec<Arc<dyn WorkerHandle>> = vec![Arc::clone(&w0) as Arc<dyn WorkerHandle>];
        let cluster =
            Cluster::with_capacity(handles, LbPolicy::RoundRobin, BreakerConfig::default(), 2);
        let w1 = FlakyWorker::new("w1");
        cluster
            .attach(Arc::clone(&w1) as Arc<dyn WorkerHandle>)
            .unwrap();
        let w2 = FlakyWorker::new("w2");
        assert!(cluster
            .attach(Arc::clone(&w2) as Arc<dyn WorkerHandle>)
            .is_err());
        // Retire w1; its slot frees and w2 fits.
        let detached = cluster.detach(1).expect("slot 1 held w1");
        assert_eq!(detached.name(), "w1");
        assert_eq!(cluster.live(), 1);
        let idx = cluster
            .attach(Arc::clone(&w2) as Arc<dyn WorkerHandle>)
            .unwrap();
        assert_eq!(idx, 1, "freed slot is reused");
        // The slot's last-known name updated with the new tenant cache
        // reconciled (w1 reported no tenants here, so just no panic).
        cluster.probe_round();
        assert!(cluster.stats().slots[1].healthy);
    }

    #[test]
    fn detached_slot_keeps_dispatch_counters() {
        let (stubs, cluster) = stub_cluster(2, LbPolicy::RoundRobin);
        for _ in 0..6 {
            cluster.invoke_tenant("f-1", "{}", None).unwrap();
        }
        assert_eq!(stubs[1].calls.load(Ordering::SeqCst), 3);
        cluster.detach(1);
        let st = cluster.stats();
        assert_eq!(st.slots[1].dispatched, 3, "counters survive retirement");
        // Tenant rollup still includes the retired worker's served count.
        let roll = cluster.tenant_rollup();
        let acme = roll.iter().find(|t| t.tenant == "acme").unwrap();
        assert_eq!(
            acme.served, 6,
            "retired worker's tenants stay in the rollup"
        );
        // All further traffic flows to the remaining worker.
        for _ in 0..4 {
            cluster.invoke_tenant("f-1", "{}", None).unwrap();
        }
        assert_eq!(stubs[0].calls.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn tenant_cache_reconciles_restarted_worker_counters() {
        let mut cache = vec![TenantSnapshot {
            tenant: "acme".into(),
            weight: 1.0,
            admitted: 10,
            served: 9,
            ..Default::default()
        }];
        // A restarted worker replays its WAL and reports counters at or
        // below the last scrape: the cache must not regress…
        merge_tenant_cache(
            &mut cache,
            vec![TenantSnapshot {
                tenant: "acme".into(),
                weight: 1.0,
                admitted: 7,
                served: 7,
                ..Default::default()
            }],
        );
        assert_eq!(cache[0].admitted, 10);
        assert_eq!(cache[0].served, 9);
        // …and must follow once the worker catches back up.
        merge_tenant_cache(
            &mut cache,
            vec![TenantSnapshot {
                tenant: "acme".into(),
                weight: 1.0,
                admitted: 12,
                served: 11,
                ..Default::default()
            }],
        );
        assert_eq!(cache[0].admitted, 12);
        assert_eq!(cache[0].served, 11);
        // An empty scrape (unreachable worker) leaves everything in place.
        merge_tenant_cache(&mut cache, Vec::new());
        assert_eq!(cache[0].admitted, 12);
    }

    #[test]
    fn scrape_reports_loads_and_dispatches() {
        let (stubs, cluster) = stub_cluster(2, LbPolicy::RoundRobin);
        *stubs[1].load.write() = 2.5;
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
        let snap = cluster.scrape();
        let slots = &snap.stats.slots;
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].name, "w0");
        assert_eq!(slots[1].load, 2.5);
        assert!(snap.spans.is_empty(), "stubs export no spans");
        assert_eq!(snap.stats.dispatched(), 1);
        assert!(slots.iter().all(|s| s.present));
    }

    #[test]
    fn telemetry_mirrors_dispatch_and_membership() {
        use iluvatar_sync::ManualClock;
        use iluvatar_telemetry::{TelemetryBus, VecSink};

        let (stubs, cluster) = stub_cluster(2, LbPolicy::RoundRobin);
        let bus = TelemetryBus::new("lb", Arc::new(ManualClock::starting_at(0)));
        let sink = Arc::new(VecSink::new());
        bus.add_sink(Arc::clone(&sink) as Arc<dyn iluvatar_telemetry::TelemetrySink>);
        cluster.set_telemetry(Arc::clone(&bus));

        cluster.invoke_tenant("f-1", "{}", Some("acme")).unwrap();
        let retired = cluster.detach(0).unwrap();
        cluster.attach(retired).unwrap();

        let labels: Vec<String> = sink.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels,
            vec!["dispatch", "membership:detach", "membership:attach"]
        );
        let dispatch = &sink.events()[0];
        assert_eq!(dispatch.source, "lb");
        assert_eq!(dispatch.tenant.as_deref(), Some("acme"));
        assert_eq!(stubs.len(), 2);
    }

    #[test]
    fn telemetry_mirrors_breaker_trips_and_reroutes() {
        use iluvatar_sync::ManualClock;
        use iluvatar_telemetry::{TelemetryBus, VecSink};

        /// A worker whose invocations always fail at the transport layer.
        struct DeadWorker;
        impl WorkerHandle for DeadWorker {
            fn name(&self) -> String {
                "dead".into()
            }
            fn load(&self) -> f64 {
                0.0
            }
            fn register(&self, _spec: FunctionSpec) -> Result<(), String> {
                Ok(())
            }
            fn invoke(&self, _fqdn: &str, _args: &str) -> Result<InvocationResult, InvokeError> {
                Err(InvokeError::Backend("gone".into()))
            }
        }

        let live = StubWorker::new("alive");
        let handles: Vec<Arc<dyn WorkerHandle>> = vec![
            Arc::new(DeadWorker) as Arc<dyn WorkerHandle>,
            Arc::clone(&live) as Arc<dyn WorkerHandle>,
        ];
        let cluster = Cluster::with_capacity(
            handles,
            LbPolicy::RoundRobin,
            BreakerConfig {
                failure_threshold: 1,
                open_cooldown_ms: 60_000,
            },
            0,
        );
        let bus = TelemetryBus::new("lb", Arc::new(ManualClock::starting_at(0)));
        let sink = Arc::new(VecSink::new());
        bus.add_sink(Arc::clone(&sink) as Arc<dyn iluvatar_telemetry::TelemetrySink>);
        cluster.set_telemetry(bus);

        // Force dispatch onto the dead worker: round-robin starts at 0.
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
        assert_eq!(live.calls.load(Ordering::SeqCst), 1, "rerouted to live");
        let labels: Vec<String> = sink.events().iter().map(|e| e.kind.label()).collect();
        assert!(labels.contains(&"breaker:open".to_string()), "{labels:?}");
        assert!(labels.contains(&"reroute".to_string()), "{labels:?}");
    }

    #[test]
    fn stub_breakdown_merges_to_empty_report() {
        let (_stubs, cluster) = stub_cluster(2, LbPolicy::RoundRobin);
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
        let report = cluster.breakdown();
        assert_eq!(report.source, "cluster");
        assert_eq!(report.invocations, 0, "stubs expose no breakdown");
    }

    fn probes(workers: &[Arc<FlakyWorker>]) -> Vec<u64> {
        workers
            .iter()
            .map(|w| w.probes.load(Ordering::SeqCst))
            .collect()
    }

    #[test]
    fn routing_makes_no_request() {
        for policy in [LbPolicy::ChBl(ChBlConfig::default()), LbPolicy::LeastLoaded] {
            let (workers, cluster) = flaky_cluster(3, policy);
            let before = probes(&workers);
            assert_eq!(before, [1, 1, 1], "construction is one probe round");
            for i in 0..1_000 {
                // Halfway through a worker dies: its hop fails, the breaker
                // trips and the reroute runs — still without a probe.
                if i == 500 {
                    workers[0].fail.store(true, Ordering::SeqCst);
                }
                cluster
                    .invoke_tenant(&format!("f{}-1", i % 7), "{}", None)
                    .unwrap();
            }
            assert_eq!(probes(&workers), before, "1 000 invocations, no probe");
            let served: u64 = workers.iter().map(|w| w.calls.load(Ordering::SeqCst)).sum();
            assert_eq!(served, 1_000);
        }
    }

    #[test]
    fn own_hops_count_until_they_return() {
        let (workers, cluster) = flaky_cluster(2, LbPolicy::LeastLoaded);
        let held = workers[0].gate.lock();
        // Both idle: the tie goes to slot 0, where the hop parks.
        let c = Arc::clone(&cluster);
        let parked = std::thread::spawn(move || c.invoke_tenant("f-1", "{}", None).unwrap());
        while cluster.slots[0].inflight.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(cluster.slots[0].estimate(), 0.1 + 0.25, "probe + one step");
        assert_eq!(cluster.slots[1].estimate(), 0.1);
        assert_eq!(cluster.pick("f-1"), 1, "the next call goes to the idle one");
        drop(held);
        parked.join().unwrap();
        assert_eq!(cluster.slots[0].estimate(), 0.1, "counted out on return");
        assert_eq!(probes(&workers), [1, 1]);
    }

    /// Detaches the dispatch target from inside the dispatch event, i.e.
    /// between `pick` and the hop — where a scale-down race lands.
    #[derive(Default)]
    struct DetachOnDispatch {
        cluster: OnceLock<std::sync::Weak<Cluster>>,
        armed: AtomicBool,
        detached: Mutex<Option<Arc<dyn WorkerHandle>>>,
    }

    impl iluvatar_telemetry::TelemetrySink for DetachOnDispatch {
        fn emit(&self, ev: &iluvatar_telemetry::TelemetryEvent) {
            let TelemetryKind::Dispatch { target } = &ev.kind else {
                return;
            };
            if !self.armed.swap(false, Ordering::SeqCst) {
                return;
            }
            let cluster = self.cluster.get().and_then(|c| c.upgrade()).unwrap();
            let idx = cluster.stats().slots.iter().position(|s| &s.name == target);
            *self.detached.lock() = cluster.detach(idx.unwrap());
        }
    }

    #[test]
    fn every_exit_counts_its_hop_out() {
        use iluvatar_sync::ManualClock;

        let (workers, cluster) = flaky_cluster(3, LbPolicy::LeastLoaded);
        let race = Arc::new(DetachOnDispatch::default());
        race.cluster.set(Arc::downgrade(&cluster)).unwrap();
        let bus = TelemetryBus::new("lb", Arc::new(ManualClock::starting_at(0)));
        bus.add_sink(Arc::clone(&race) as Arc<dyn iluvatar_telemetry::TelemetrySink>);
        cluster.set_telemetry(bus);

        let mut exits = [0u32; 4];
        for i in 0..1_000 {
            let target = &workers[cluster.pick("f-1")];
            // Successes, a `Backend` reroute, a 503 reroute, a detach between
            // pick and dispatch.
            let exit = [0, 0, 0, 1, 0, 2, 0, 3, 0, 0][i % 10];
            match exit {
                1 => target.fail.store(true, Ordering::SeqCst),
                2 => target.draining.store(true, Ordering::SeqCst),
                3 => race.armed.store(true, Ordering::SeqCst),
                _ => {}
            }
            cluster.invoke_tenant("f-1", "{}", None).unwrap();
            exits[exit] += 1;
            if exit > 0 {
                // Undo, and let the scrape tick's round readmit the worker.
                target.fail.store(false, Ordering::SeqCst);
                target.draining.store(false, Ordering::SeqCst);
                if let Some(h) = race.detached.lock().take() {
                    cluster.attach(h).unwrap();
                }
                cluster.probe_round();
            }
        }
        assert_eq!(exits, [700, 100, 100, 100]);
        let st = cluster.stats();
        assert_eq!(st.rerouted, 300, "every non-success exit rerouted");
        for (i, slot) in cluster.slots.iter().enumerate() {
            assert_eq!(slot.inflight.load(Ordering::SeqCst), 0, "slot {i} leaked");
            assert_eq!(slot.estimate(), slot.probed(), "slot {i}");
        }
    }

    #[test]
    fn open_breaker_is_readmitted_by_a_probe_round_not_an_invoke() {
        let (workers, cluster) = flaky_cluster(2, LbPolicy::LeastLoaded);
        workers[0].fail.store(true, Ordering::SeqCst);
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
        assert_eq!(cluster.stats().slots[0].breaker, "open");
        // Recovered, and the cooldown (0) long over: invocations still do
        // not readmit it.
        workers[0].fail.store(false, Ordering::SeqCst);
        for _ in 0..5 {
            cluster.invoke_tenant("f-1", "{}", None).unwrap();
        }
        assert_eq!(cluster.stats().slots[0].breaker, "open");
        assert_eq!(workers[0].calls.load(Ordering::SeqCst), 0);
        assert_eq!(workers[1].calls.load(Ordering::SeqCst), 6);
        // The next round does, and traffic returns.
        cluster.probe_round();
        assert_eq!(cluster.stats().slots[0].breaker, "closed");
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
        assert_eq!(workers[0].calls.load(Ordering::SeqCst), 1);
    }
}
