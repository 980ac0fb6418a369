//! Pull-based dispatch plane.
//!
//! The paper's control plane *pushes* every invocation: the balancer picks
//! a worker (CH-BL) and forwards immediately. That works when the load
//! signal is fresh and service times are homogeneous, but under a
//! heavy-tailed execution mix the signal is stale by the time it matters:
//! a long invocation parks behind a hot function's home worker while
//! siblings idle. This crate implements the alternative the Hiku line of
//! work argues for — workers *pull* when they are actually free:
//!
//! * The balancer keeps **central queues**, sharded per home worker (CH
//!   locality: an fqdn's tasks always land in the same shard, so pulls
//!   keep warm-hit affinity) and ordered inside each shard by **priority
//!   class first** (guaranteed before best-effort, from the admission
//!   registry), then by **tenant-weighted DRR** within a class.
//! * Idle workers **lease** batches of tasks (`POST /pull` at the HTTP
//!   layer, [`PullPlane::pull`] underneath). A lease carries a TTL; a
//!   worker that dies mid-lease never strands its tasks — expired leases
//!   are requeued **exactly once** per incarnation, so an accepted
//!   invocation executes at-least-once while accounting stays
//!   exactly-once (a completion for a dead lease is dropped).
//! * A worker whose own shard is empty **steals** from a sibling shard.
//!   Victim selection is seeded ([`DispatchConfig::seed`]) so sessions
//!   replay deterministically. Steals respect the victim's class/DRR
//!   order, so they cannot invert priorities or starve a tenant.
//! * Acceptance is durable: with a WAL attached, `Enqueued` lands before
//!   the caller's accept, leases land as `LeaseIssued`/`LeaseRequeued`
//!   records, and [`PullPlane::recover`] rebuilds the queues from a
//!   replay — in-flight leases come back as queued work.
//!
//! Every transition mirrors onto the canonical telemetry stream as
//! [`TelemetryKind::Lease`] events (`queued`, `issued`, `stolen`,
//! `completed`, `expired`, `requeued`), which the conformance checker's
//! `DispatchModel` audits online.

use iluvatar_admission::{PriorityClass, TenantRegistry};
use iluvatar_core::wal::{PendingInvocation, ReplayState, Wal, WalRecord};
use iluvatar_sync::{fnv1a64, Clock, TimeMs};
use iluvatar_telemetry::{TelemetryBus, TelemetryKind};
use parking_lot::{Condvar, Mutex};
use rand::{Rng, SeedableRng, StdRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// How invocations reach workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DispatchMode {
    /// CH-BL push at the balancer — the paper's baseline, and the default
    /// so existing deployments and session digests are untouched.
    #[default]
    Push,
    /// Central queues; workers long-poll leases.
    Pull,
    /// Warm-hit-likely invocations push via CH-BL; the rest spill to the
    /// pull queues.
    Hybrid,
}

impl DispatchMode {
    pub fn name(&self) -> &'static str {
        match self {
            DispatchMode::Push => "push",
            DispatchMode::Pull => "pull",
            DispatchMode::Hybrid => "hybrid",
        }
    }
}

/// Dispatch-plane configuration. Defaults select push mode with the plane
/// fully inert; the `0 = built-in default` convention matches the other
/// subsystem configs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DispatchConfig {
    #[serde(default)]
    pub mode: DispatchMode,
    /// Lease TTL, ms. 0 selects the built-in default of 2 000.
    #[serde(default)]
    pub lease_ttl_ms: u64,
    /// Max leases per pull. 0 selects the built-in default of 4.
    #[serde(default)]
    pub max_batch: usize,
    /// Seed for victim selection, so steal order replays deterministically.
    #[serde(default)]
    pub seed: u64,
}

/// Hybrid: an fqdn completed anywhere within this window counts as
/// warm-hit-likely and is pushed via CH-BL.
const WARM_WINDOW_MS: u64 = 30_000;

impl DispatchConfig {
    /// A pull-mode config with built-in defaults.
    pub fn pull() -> Self {
        Self {
            mode: DispatchMode::Pull,
            ..Default::default()
        }
    }

    /// A hybrid-mode config with built-in defaults.
    pub fn hybrid() -> Self {
        Self {
            mode: DispatchMode::Hybrid,
            ..Default::default()
        }
    }

    pub fn effective_lease_ttl_ms(&self) -> u64 {
        if self.lease_ttl_ms == 0 {
            2_000
        } else {
            self.lease_ttl_ms
        }
    }

    pub fn effective_max_batch(&self) -> usize {
        if self.max_batch == 0 {
            4
        } else {
            self.max_batch
        }
    }
}

/// One queued invocation, as the plane tracks it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PullTask {
    pub id: u64,
    pub fqdn: String,
    #[serde(default)]
    pub args: String,
    #[serde(default)]
    pub tenant: Option<String>,
    /// Tenant weight at enqueue time (DRR share within the class).
    pub weight: f64,
    pub class: PriorityClass,
    pub enqueued_at_ms: TimeMs,
}

impl PullTask {
    fn tenant_key(&self) -> &str {
        self.tenant.as_deref().unwrap_or("default")
    }
}

/// A granted lease: the worker owns `task` until `expires_at_ms`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lease {
    pub lease_id: u64,
    /// The holder.
    pub worker: String,
    pub expires_at_ms: TimeMs,
    /// The shard the task was stolen from, when not the holder's own.
    #[serde(default)]
    pub stolen_from: Option<String>,
    pub task: PullTask,
}

/// A completed task's caller-visible result, held for [`PullPlane::wait`].
#[derive(Debug, Clone)]
pub struct TaskResult {
    pub ok: bool,
    pub body: String,
    pub exec_ms: u64,
    /// The worker whose lease completed the task.
    pub worker: String,
}

/// Monotone counters for `/metrics` and session digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchCounters {
    pub queued: u64,
    pub issued: u64,
    pub stolen: u64,
    pub completed: u64,
    pub expired: u64,
    pub requeued: u64,
    /// Completions that arrived after their lease expired — the work ran,
    /// but accounting already moved to the requeued incarnation.
    pub dead_completions: u64,
}

/// Why an enqueue was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnqueueError {
    /// The WAL could not make the acceptance durable.
    NotDurable,
    /// No worker shard is registered to home the task.
    NoWorkers,
}

impl std::fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnqueueError::NotDurable => write!(f, "acceptance could not be made durable"),
            EnqueueError::NoWorkers => write!(f, "no pull workers registered"),
        }
    }
}

/// Per-tenant-weighted FIFO set for one priority class: classic DRR with a
/// unit task cost, so a weight-2 tenant drains twice as fast as a weight-1
/// sibling while both are backlogged. Deterministic: tenants are visited
/// in sorted order from a persistent cursor.
#[derive(Default)]
struct ClassQueue {
    lanes: BTreeMap<String, Lane>,
    cursor: usize,
    len: usize,
}

/// One tenant's FIFO with its DRR state.
#[derive(Default)]
struct Lane {
    queue: VecDeque<PullTask>,
    deficit: f64,
    weight: f64,
}

impl ClassQueue {
    /// The task's tenant lane, with the weight refreshed from the task.
    fn lane(&mut self, task: &PullTask) -> &mut Lane {
        let lane = self.lanes.entry(task.tenant_key().to_string()).or_default();
        lane.weight = task.weight.max(0.05);
        lane
    }

    fn push_back(&mut self, task: PullTask) {
        self.lane(&task).queue.push_back(task);
        self.len += 1;
    }

    /// Requeue an expired lease's task at the front of its tenant lane so
    /// it does not lose its place behind later arrivals.
    fn push_front(&mut self, task: PullTask) {
        self.lane(&task).queue.push_front(task);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<PullTask> {
        if self.len == 0 {
            return None;
        }
        loop {
            // The cursor indexes the backlogged lanes in sorted order.
            let active = self.lanes.values().filter(|l| !l.queue.is_empty()).count();
            let lane = self
                .lanes
                .values_mut()
                .filter(|l| !l.queue.is_empty())
                .nth(self.cursor % active)
                .expect("len > 0 means a backlogged lane");
            if lane.deficit >= 1.0 {
                lane.deficit -= 1.0;
                let task = lane.queue.pop_front().expect("non-empty lane");
                if lane.queue.is_empty() {
                    // Classic DRR: an emptied lane forfeits its deficit.
                    lane.deficit = 0.0;
                }
                self.len -= 1;
                return Some(task);
            }
            lane.deficit += lane.weight;
            self.cursor = self.cursor.wrapping_add(1);
        }
    }
}

/// One worker's home shard: guaranteed class drains strictly before
/// best-effort.
#[derive(Default)]
struct Shard {
    guaranteed: ClassQueue,
    best_effort: ClassQueue,
}

impl Shard {
    fn class_mut(&mut self, c: PriorityClass) -> &mut ClassQueue {
        match c {
            PriorityClass::Guaranteed => &mut self.guaranteed,
            PriorityClass::BestEffort => &mut self.best_effort,
        }
    }

    fn pop(&mut self) -> Option<PullTask> {
        self.guaranteed.pop().or_else(|| self.best_effort.pop())
    }

    fn len(&self) -> usize {
        self.guaranteed.len + self.best_effort.len
    }
}

struct LiveLease {
    task: PullTask,
    worker: String,
    expires_at_ms: TimeMs,
}

struct Inner {
    /// Registered shards, name-sorted (the home hash indexes this order).
    workers: Vec<String>,
    shards: BTreeMap<String, Shard>,
    leases: BTreeMap<u64, LiveLease>,
    results: BTreeMap<u64, TaskResult>,
    /// Hybrid warm signal: fqdn → (last worker, last completion time).
    warm: BTreeMap<String, (String, TimeMs)>,
    next_task: u64,
    next_lease: u64,
    rng: StdRng,
    counters: DispatchCounters,
}

/// The central pull plane: queues, lease manager, and steal policy. One
/// instance serves a whole balancer; all state sits behind one mutex.
pub struct PullPlane {
    cfg: DispatchConfig,
    clock: Arc<dyn Clock>,
    inner: Mutex<Inner>,
    /// Signals new queued work (long-poll pulls wait here).
    work_cv: Condvar,
    /// Signals completed tasks ([`PullPlane::wait`] waits here).
    done_cv: Condvar,
    telemetry: OnceLock<Arc<TelemetryBus>>,
    registry: OnceLock<Arc<TenantRegistry>>,
    wal: OnceLock<Arc<Wal>>,
}

impl PullPlane {
    pub fn new(cfg: DispatchConfig, clock: Arc<dyn Clock>) -> Self {
        let seed = cfg.seed;
        Self {
            cfg,
            clock,
            inner: Mutex::new(Inner {
                workers: Vec::new(),
                shards: BTreeMap::new(),
                leases: BTreeMap::new(),
                results: BTreeMap::new(),
                warm: BTreeMap::new(),
                next_task: 1,
                next_lease: 1,
                rng: StdRng::seed_from_u64(seed ^ 0xD15_9A7C4),
                counters: DispatchCounters::default(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            telemetry: OnceLock::new(),
            registry: OnceLock::new(),
            wal: OnceLock::new(),
        }
    }

    pub fn mode(&self) -> DispatchMode {
        self.cfg.mode
    }

    pub fn config(&self) -> &DispatchConfig {
        &self.cfg
    }

    /// Attach the canonical telemetry bus (first caller wins).
    pub fn set_telemetry(&self, bus: Arc<TelemetryBus>) {
        let _ = self.telemetry.set(bus);
    }

    /// Attach the admission registry used to resolve tenant weight and
    /// priority class at enqueue time (first caller wins).
    pub fn set_registry(&self, reg: Arc<TenantRegistry>) {
        let _ = self.registry.set(reg);
    }

    /// Attach the acceptance WAL: `Enqueued` must land before an enqueue
    /// is admitted, and lease transitions journal as lease records (first
    /// caller wins).
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        let _ = self.wal.set(wal);
    }

    fn emit(&self, id: u64, tenant: Option<&str>, kind: TelemetryKind) {
        if let Some(bus) = self.telemetry.get() {
            bus.emit(Some(id), tenant, kind);
        }
    }

    fn lease_kind(op: &str, worker: &str) -> TelemetryKind {
        TelemetryKind::Lease {
            op: op.to_string(),
            worker: worker.to_string(),
            expires_at_ms: None,
            class: None,
        }
    }

    /// Register one worker's home shard. Idempotent.
    pub fn register_worker(&self, name: &str) {
        let mut inner = self.inner.lock();
        if !inner.workers.iter().any(|w| w == name) {
            inner.workers.push(name.to_string());
            inner.workers.sort();
            inner.shards.entry(name.to_string()).or_default();
        }
    }

    fn home_of(workers: &[String], fqdn: &str) -> String {
        workers[(fnv1a64(fqdn.as_bytes()) % workers.len() as u64) as usize].clone()
    }

    /// Accept one invocation into the pull queues. Returns the task id the
    /// caller can [`PullPlane::wait`] on. With a WAL attached the
    /// acceptance is durable-before-admitted; a failed append refuses the
    /// task ([`EnqueueError::NotDurable`]) so `accepted ⟹ durable` holds
    /// in pull mode exactly as it does on the push path.
    pub fn enqueue(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<u64, EnqueueError> {
        let now = self.clock.now_ms();
        let (weight, class) = match self.registry.get() {
            Some(reg) => {
                let t = tenant.unwrap_or("default");
                (reg.weight_of(t), reg.class_of(t))
            }
            None => (1.0, PriorityClass::default()),
        };
        let id = {
            let mut inner = self.inner.lock();
            if inner.workers.is_empty() {
                return Err(EnqueueError::NoWorkers);
            }
            let id = inner.next_task;
            inner.next_task += 1;
            let task = PullTask {
                id,
                fqdn: fqdn.to_string(),
                args: args.to_string(),
                tenant: tenant.map(str::to_string),
                weight,
                class,
                enqueued_at_ms: now,
            };
            if let Some(wal) = self.wal.get() {
                let rec = WalRecord::Enqueued {
                    inv: PendingInvocation {
                        id,
                        fqdn: fqdn.to_string(),
                        args: args.to_string(),
                        tenant: tenant.map(str::to_string),
                        tenant_weight: weight,
                        arrived_at: now,
                        expected_exec_ms: 0.0,
                        iat_ms: 0.0,
                        expect_warm: false,
                        dequeued: false,
                    },
                };
                if !wal.append(&rec).accepted() {
                    return Err(EnqueueError::NotDurable);
                }
            }
            // Emit before the task becomes pullable (still under the lock):
            // a concurrent puller's "issued" must never reach the bus ahead
            // of this "queued", or online conformance checking would see an
            // issue for a task it never saw enter the queue.
            self.emit(
                id,
                task.tenant.as_deref(),
                TelemetryKind::Lease {
                    op: "queued".into(),
                    worker: String::new(),
                    expires_at_ms: None,
                    class: Some(class.name().to_string()),
                },
            );
            let home = Self::home_of(&inner.workers, fqdn);
            inner
                .shards
                .get_mut(&home)
                .expect("shard")
                .class_mut(class)
                .push_back(task.clone());
            inner.counters.queued += 1;
            id
        };
        self.work_cv.notify_all();
        Ok(id)
    }

    /// Requeue expired leases (exactly once per incarnation). Returns the
    /// events for the caller to emit *before releasing the lock*, so the
    /// bus order matches the state-machine order other pullers observe.
    fn expire_locked(
        &self,
        inner: &mut Inner,
        now: TimeMs,
    ) -> Vec<(u64, Option<String>, TelemetryKind)> {
        let dead: Vec<u64> = inner
            .leases
            .iter()
            .filter(|(_, l)| l.expires_at_ms <= now)
            .map(|(&id, _)| id)
            .collect();
        let mut events = Vec::new();
        for lease_id in dead {
            let lease = inner.leases.remove(&lease_id).expect("live lease");
            let task = lease.task;
            events.push((
                task.id,
                task.tenant.clone(),
                Self::lease_kind("expired", &lease.worker),
            ));
            if let Some(wal) = self.wal.get() {
                let _ = wal.append(&WalRecord::LeaseRequeued { id: task.id });
            }
            let home = Self::home_of(&inner.workers, &task.fqdn);
            let class = task.class;
            events.push((
                task.id,
                task.tenant.clone(),
                Self::lease_kind("requeued", ""),
            ));
            inner
                .shards
                .get_mut(&home)
                .expect("shard")
                .class_mut(class)
                .push_front(task);
            inner.counters.expired += 1;
            inner.counters.requeued += 1;
        }
        events
    }

    /// Pop up to `max` tasks for `worker`: own shard first (class order,
    /// DRR within class), then — with the own shard empty — a seeded victim
    /// among non-empty sibling shards.
    pub fn pull(&self, worker: &str, max: usize) -> Vec<Lease> {
        let now = self.clock.now_ms();
        let max = if max == 0 {
            self.cfg.effective_max_batch()
        } else {
            max.min(self.cfg.effective_max_batch())
        };
        let ttl = self.cfg.effective_lease_ttl_ms();
        let mut events = Vec::new();
        let leases = {
            let mut inner = self.inner.lock();
            events.extend(self.expire_locked(&mut inner, now));
            if !inner.shards.contains_key(worker) {
                // An unregistered puller gets nothing (and steals nothing) —
                // but any expiries it just swept still reach the bus.
                for (id, tenant, kind) in events {
                    self.emit(id, tenant.as_deref(), kind);
                }
                return Vec::new();
            }
            let mut granted = Vec::new();
            while granted.len() < max {
                let (task, stolen_from) = {
                    match inner.shards.get_mut(worker).expect("shard").pop() {
                        Some(t) => (t, None),
                        None => {
                            let victims: Vec<String> = inner
                                .shards
                                .iter()
                                .filter(|(name, s)| name.as_str() != worker && s.len() > 0)
                                .map(|(name, _)| name.clone())
                                .collect();
                            if victims.is_empty() {
                                break;
                            }
                            let v = victims[inner.rng.gen_range(0..victims.len())].clone();
                            match inner.shards.get_mut(&v).expect("victim").pop() {
                                Some(t) => (t, Some(v)),
                                None => break,
                            }
                        }
                    }
                };
                let lease_id = inner.next_lease;
                inner.next_lease += 1;
                let expires_at_ms = now + ttl;
                if let Some(wal) = self.wal.get() {
                    let _ = wal.append(&WalRecord::LeaseIssued {
                        id: task.id,
                        worker: worker.to_string(),
                        expires_at_ms,
                    });
                }
                if let Some(victim) = &stolen_from {
                    inner.counters.stolen += 1;
                    events.push((
                        task.id,
                        task.tenant.clone(),
                        Self::lease_kind("stolen", victim),
                    ));
                }
                inner.counters.issued += 1;
                events.push((
                    task.id,
                    task.tenant.clone(),
                    TelemetryKind::Lease {
                        op: "issued".into(),
                        worker: worker.to_string(),
                        expires_at_ms: Some(expires_at_ms),
                        class: Some(task.class.name().to_string()),
                    },
                ));
                inner.leases.insert(
                    lease_id,
                    LiveLease {
                        task: task.clone(),
                        worker: worker.to_string(),
                        expires_at_ms,
                    },
                );
                granted.push(Lease {
                    lease_id,
                    worker: worker.to_string(),
                    expires_at_ms,
                    stolen_from,
                    task,
                });
            }
            // Under the lock: a requeued task pushed front above is already
            // visible to the next puller, whose "issued" must not beat this
            // call's "expired"/"requeued" onto the bus.
            for (id, tenant, kind) in events {
                self.emit(id, tenant.as_deref(), kind);
            }
            granted
        };
        leases
    }

    /// Long-poll variant of [`PullPlane::pull`]: blocks up to `timeout_ms`
    /// for work to arrive.
    pub fn pull_wait(&self, worker: &str, max: usize, timeout_ms: u64) -> Vec<Lease> {
        let deadline = std::time::Instant::now() + Duration::from_millis(timeout_ms);
        loop {
            let got = self.pull(worker, max);
            if !got.is_empty() {
                return got;
            }
            let mut inner = self.inner.lock();
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Vec::new();
            }
            // Re-check depth under the lock (a task may have landed between
            // the failed pull and here), then sleep for a bounded slice so
            // injected-clock lease expiry is still polled.
            let depth: usize = inner.shards.values().map(Shard::len).sum();
            if depth == 0 {
                let slice = remaining.min(Duration::from_millis(50));
                let _ = self.work_cv.wait_for(&mut inner, slice);
            }
        }
    }

    /// Complete a live lease. Returns false (and counts a dead completion)
    /// when the lease already expired — the requeued incarnation owns the
    /// accounting — or was never issued.
    pub fn complete(&self, lease_id: u64, ok: bool, body: &str, exec_ms: u64) -> bool {
        let now = self.clock.now_ms();
        let mut events = Vec::new();
        let accepted = {
            let mut inner = self.inner.lock();
            events.extend(self.expire_locked(&mut inner, now));
            let accepted = match inner.leases.remove(&lease_id) {
                Some(lease) => {
                    let task = lease.task;
                    if let Some(wal) = self.wal.get() {
                        let _ = wal.append(&WalRecord::Completed {
                            id: task.id,
                            ok,
                            tenant: task.tenant.clone(),
                        });
                    }
                    inner.counters.completed += 1;
                    inner
                        .warm
                        .insert(task.fqdn.clone(), (lease.worker.clone(), now));
                    events.push((
                        task.id,
                        task.tenant.clone(),
                        Self::lease_kind("completed", &lease.worker),
                    ));
                    inner.results.insert(
                        task.id,
                        TaskResult {
                            ok,
                            body: body.to_string(),
                            exec_ms,
                            worker: lease.worker,
                        },
                    );
                    true
                }
                None => {
                    inner.counters.dead_completions += 1;
                    false
                }
            };
            for (id, tenant, kind) in events.drain(..) {
                self.emit(id, tenant.as_deref(), kind);
            }
            accepted
        };
        if accepted {
            self.done_cv.notify_all();
        }
        accepted
    }

    /// Block until `task_id` completes (or the timeout lapses), consuming
    /// the result.
    pub fn wait(&self, task_id: u64, timeout_ms: u64) -> Option<TaskResult> {
        let deadline = std::time::Instant::now() + Duration::from_millis(timeout_ms);
        let mut inner = self.inner.lock();
        loop {
            if let Some(r) = inner.results.remove(&task_id) {
                return Some(r);
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let slice = remaining.min(Duration::from_millis(50));
            let _ = self.done_cv.wait_for(&mut inner, slice);
        }
    }

    /// Run one expiry sweep at the injected clock's now (sessions under a
    /// manual clock call this after advancing time; live deployments get
    /// sweeps for free on every pull/complete).
    pub fn sweep(&self) {
        let now = self.clock.now_ms();
        let mut inner = self.inner.lock();
        let events = self.expire_locked(&mut inner, now);
        let woke = !events.is_empty();
        drop(inner);
        for (id, tenant, kind) in events {
            self.emit(id, tenant.as_deref(), kind);
        }
        if woke {
            self.work_cv.notify_all();
        }
    }

    /// Hybrid routing signal: the worker that completed `fqdn` within the
    /// warm window, if any.
    pub fn warm_target(&self, fqdn: &str) -> Option<String> {
        let now = self.clock.now_ms();
        let inner = self.inner.lock();
        inner.warm.get(fqdn).and_then(|(w, at)| {
            if now.saturating_sub(*at) < WARM_WINDOW_MS {
                Some(w.clone())
            } else {
                None
            }
        })
    }

    /// Record a push-path completion so hybrid mode keeps routing the fqdn
    /// warm-side.
    pub fn note_warm(&self, fqdn: &str, worker: &str) {
        let now = self.clock.now_ms();
        let mut inner = self.inner.lock();
        inner
            .warm
            .insert(fqdn.to_string(), (worker.to_string(), now));
    }

    /// Per-priority-class queue depths, class-name-sorted — the `/status`
    /// and autoscaler signal.
    pub fn depths(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock();
        let mut g = 0u64;
        let mut b = 0u64;
        for s in inner.shards.values() {
            g += s.guaranteed.len as u64;
            b += s.best_effort.len as u64;
        }
        vec![
            ("best_effort".to_string(), b),
            ("guaranteed".to_string(), g),
        ]
    }

    /// Per-shard backlog, worker-sorted.
    pub fn shard_depths(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock();
        inner
            .shards
            .iter()
            .map(|(w, s)| (w.clone(), s.len() as u64))
            .collect()
    }

    /// Total queued (not leased) tasks.
    pub fn depth(&self) -> u64 {
        self.inner
            .lock()
            .shards
            .values()
            .map(|s| s.len() as u64)
            .sum()
    }

    /// Leases currently live (issued, neither completed nor expired).
    pub fn live_leases(&self) -> u64 {
        self.inner.lock().leases.len() as u64
    }

    pub fn counters(&self) -> DispatchCounters {
        self.inner.lock().counters
    }

    /// Rebuild the queues from a WAL replay: every accepted-but-incomplete
    /// invocation is requeued — including those that died mid-lease
    /// (`dequeued` in the replayed book), which is exactly the
    /// crashed-plane half of the at-least-once story. Task-id minting
    /// resumes above the replayed maximum.
    pub fn recover(&self, replay: &ReplayState) {
        let now = self.clock.now_ms();
        let mut events = Vec::new();
        {
            let mut inner = self.inner.lock();
            inner.next_task = inner.next_task.max(replay.max_id + 1);
            for inv in &replay.pending {
                let (weight, class) = match self.registry.get() {
                    Some(reg) => {
                        let t = inv.tenant.as_deref().unwrap_or("default");
                        (reg.weight_of(t), reg.class_of(t))
                    }
                    None => (inv.tenant_weight, PriorityClass::default()),
                };
                let task = PullTask {
                    id: inv.id,
                    fqdn: inv.fqdn.clone(),
                    args: inv.args.clone(),
                    tenant: inv.tenant.clone(),
                    weight,
                    class,
                    enqueued_at_ms: now,
                };
                let home = Self::home_of(&inner.workers, &inv.fqdn);
                events.push((
                    task.id,
                    task.tenant.clone(),
                    TelemetryKind::Lease {
                        op: "queued".into(),
                        worker: String::new(),
                        expires_at_ms: None,
                        class: Some(class.name().to_string()),
                    },
                ));
                inner
                    .shards
                    .get_mut(&home)
                    .expect("shard")
                    .class_mut(class)
                    .push_back(task);
                inner.counters.queued += 1;
            }
        }
        for (id, tenant, kind) in events {
            self.emit(id, tenant.as_deref(), kind);
        }
        self.work_cv.notify_all();
    }
}

/// Where a pull loop gets its leases — the plane directly (in-process) or
/// an HTTP client against the balancer's `/pull` routes.
pub trait LeaseSource: Send + Sync {
    fn pull(&self, worker: &str, max: usize) -> Vec<Lease>;
    fn complete(&self, lease_id: u64, ok: bool, body: &str, exec_ms: u64) -> bool;
}

impl LeaseSource for PullPlane {
    fn pull(&self, worker: &str, max: usize) -> Vec<Lease> {
        PullPlane::pull(self, worker, max)
    }

    fn complete(&self, lease_id: u64, ok: bool, body: &str, exec_ms: u64) -> bool {
        PullPlane::complete(self, lease_id, ok, body, exec_ms)
    }
}

/// The worker-side pull loop: a thread that leases batches and runs them
/// through an executor closure. `stop` drains cleanly (finishes held
/// leases); `kill` abandons them mid-flight — the crash the lease TTL
/// exists for.
pub struct PullLoop {
    stop: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// The executor a [`PullLoop`] drives: returns (ok, body, exec_ms).
pub type TaskExecutor = dyn Fn(&PullTask) -> (bool, String, u64) + Send + Sync;

impl PullLoop {
    pub fn spawn(
        source: Arc<dyn LeaseSource>,
        worker: String,
        batch: usize,
        poll: Duration,
        exec: Arc<TaskExecutor>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let kill = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let kill2 = Arc::clone(&kill);
        let handle = std::thread::Builder::new()
            .name(format!("pull-{worker}"))
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    let leases = source.pull(&worker, batch);
                    if leases.is_empty() {
                        std::thread::sleep(poll);
                        continue;
                    }
                    for lease in leases {
                        if kill2.load(Ordering::Acquire) {
                            // Crashed: the lease is simply never completed.
                            return;
                        }
                        let (ok, body, exec_ms) = exec(&lease.task);
                        if kill2.load(Ordering::Acquire) {
                            return;
                        }
                        source.complete(lease.lease_id, ok, &body, exec_ms);
                    }
                }
            })
            .expect("spawn pull loop");
        Self {
            stop,
            kill,
            handle: Some(handle),
        }
    }

    /// Finish held leases, then exit.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Die mid-flight: held leases are abandoned and must expire.
    pub fn kill(mut self) {
        self.kill.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for PullLoop {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iluvatar_sync::ManualClock;
    use iluvatar_telemetry::{TelemetrySink, VecSink};

    fn plane_with(cfg: DispatchConfig) -> (Arc<PullPlane>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let plane = Arc::new(PullPlane::new(cfg, Arc::clone(&clock) as Arc<dyn Clock>));
        (plane, clock)
    }

    #[test]
    fn enqueue_without_workers_is_refused() {
        let (plane, _) = plane_with(DispatchConfig::pull());
        assert_eq!(
            plane.enqueue("f-1", "{}", None),
            Err(EnqueueError::NoWorkers)
        );
    }

    #[test]
    fn pull_complete_roundtrip() {
        let (plane, _) = plane_with(DispatchConfig::pull());
        plane.register_worker("w0");
        let id = plane.enqueue("f-1", "{\"x\":1}", Some("acme")).unwrap();
        let leases = plane.pull("w0", 8);
        assert_eq!(leases.len(), 1);
        let l = &leases[0];
        assert_eq!(l.task.id, id);
        assert_eq!(l.worker, "w0");
        assert!(l.stolen_from.is_none());
        assert_eq!(plane.live_leases(), 1);
        assert!(plane.complete(l.lease_id, true, "r", 7));
        assert_eq!(plane.live_leases(), 0);
        let r = plane.wait(id, 10).expect("result");
        assert!(r.ok);
        assert_eq!(r.body, "r");
        assert_eq!(r.worker, "w0");
        let c = plane.counters();
        assert_eq!((c.queued, c.issued, c.completed), (1, 1, 1));
        assert_eq!(
            (c.stolen, c.expired, c.requeued, c.dead_completions),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn guaranteed_class_drains_first() {
        use iluvatar_admission::TenantSpec;
        let (plane, clock) = plane_with(DispatchConfig::pull());
        plane.register_worker("w0");
        let reg = Arc::new(TenantRegistry::new(Arc::clone(&clock) as Arc<dyn Clock>));
        reg.upsert(TenantSpec::new("gold").with_class(PriorityClass::Guaranteed));
        plane.set_registry(reg);
        plane.enqueue("f-1", "{}", Some("plebs")).unwrap();
        plane.enqueue("f-1", "{}", Some("plebs")).unwrap();
        let gold = plane.enqueue("f-1", "{}", Some("gold")).unwrap();
        let first = &plane.pull("w0", 1)[0];
        assert_eq!(first.task.id, gold, "guaranteed jumps the line");
    }

    #[test]
    fn drr_weights_share_within_a_class() {
        use iluvatar_admission::TenantSpec;
        let (plane, clock) = plane_with(DispatchConfig::pull());
        plane.register_worker("w0");
        let reg = Arc::new(TenantRegistry::new(Arc::clone(&clock) as Arc<dyn Clock>));
        reg.upsert(TenantSpec::new("heavy").with_weight(2.0));
        reg.upsert(TenantSpec::new("light").with_weight(1.0));
        plane.set_registry(reg);
        for _ in 0..30 {
            plane.enqueue("f-1", "{}", Some("heavy")).unwrap();
            plane.enqueue("f-1", "{}", Some("light")).unwrap();
        }
        // Drain the first 30 — both tenants stay backlogged throughout.
        let mut heavy = 0;
        for _ in 0..30 {
            let l = &plane.pull("w0", 1)[0];
            if l.task.tenant.as_deref() == Some("heavy") {
                heavy += 1;
            }
            plane.complete(l.lease_id, true, "", 0);
        }
        assert!(
            (18..=22).contains(&heavy),
            "weight-2 tenant should take ~2/3 of the drain, got {heavy}/30"
        );
    }

    #[test]
    fn idle_worker_steals_and_selection_is_seeded() {
        let run = |seed: u64| {
            let mut cfg = DispatchConfig::pull();
            cfg.seed = seed;
            let (plane, _) = plane_with(cfg);
            // Three shards; all of f-*'s tasks home onto a subset, w-idle
            // pulls with an empty shard and must steal.
            for w in ["w-a", "w-b", "w-idle"] {
                plane.register_worker(w);
            }
            let mut victims = Vec::new();
            for i in 0..12 {
                plane.enqueue(&format!("f-{i}"), "{}", None).unwrap();
            }
            loop {
                let leases = plane.pull("w-idle", 1);
                if leases.is_empty() {
                    break;
                }
                for l in leases {
                    if let Some(v) = &l.stolen_from {
                        victims.push(v.clone());
                    }
                    plane.complete(l.lease_id, true, "", 0);
                }
            }
            victims
        };
        let a = run(7);
        assert!(!a.is_empty(), "an idle worker must steal");
        assert_eq!(a, run(7), "same seed, same victim sequence");
        let c = plane_counters_after_steal();
        assert!(c.stolen > 0);
    }

    fn plane_counters_after_steal() -> DispatchCounters {
        let (plane, _) = plane_with(DispatchConfig::pull());
        plane.register_worker("w-a");
        plane.register_worker("w-idle");
        for i in 0..4 {
            plane.enqueue(&format!("f-{i}"), "{}", None).unwrap();
        }
        loop {
            let leases = plane.pull("w-idle", 4);
            if leases.is_empty() {
                break;
            }
            for l in leases {
                plane.complete(l.lease_id, true, "", 0);
            }
        }
        plane.counters()
    }

    #[test]
    fn expired_lease_requeues_exactly_once_and_dead_completion_is_dropped() {
        let mut cfg = DispatchConfig::pull();
        cfg.lease_ttl_ms = 100;
        let (plane, clock) = plane_with(cfg);
        plane.register_worker("w0");
        let bus = TelemetryBus::new("plane", Arc::clone(&clock) as Arc<dyn Clock>);
        let sink = Arc::new(VecSink::new());
        bus.add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        plane.set_telemetry(bus);

        let id = plane.enqueue("f-1", "{}", None).unwrap();
        let l1 = plane.pull("w0", 1).remove(0);
        clock.advance(100); // TTL lapses
        plane.sweep();
        assert_eq!(plane.live_leases(), 0);
        assert_eq!(plane.depth(), 1, "requeued");
        // The dead worker's completion must not double-account.
        assert!(!plane.complete(l1.lease_id, true, "late", 9));
        assert!(plane.wait(id, 10).is_none());
        // A healthy worker serves the requeued incarnation.
        let l2 = plane.pull("w0", 1).remove(0);
        assert_eq!(l2.task.id, id);
        assert!(plane.complete(l2.lease_id, true, "good", 5));
        assert_eq!(plane.wait(id, 10).unwrap().body, "good");
        let c = plane.counters();
        assert_eq!((c.expired, c.requeued, c.dead_completions), (1, 1, 1));
        assert_eq!(c.completed, 1, "exactly-once accounting");
        let labels: Vec<String> = sink.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels,
            vec![
                "lease:queued",
                "lease:issued",
                "lease:expired",
                "lease:requeued",
                "lease:issued",
                "lease:completed"
            ]
        );
    }

    #[test]
    fn wal_replay_requeues_inflight_leases() {
        use iluvatar_core::wal;
        let dir =
            std::env::temp_dir().join(format!("iluvatar-dispatch-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plane.wal");

        let (plane, _) = plane_with(DispatchConfig::pull());
        plane.register_worker("w0");
        plane.attach_wal(Arc::new(Wal::open(&path, 1_000).unwrap()));
        let done = plane.enqueue("f-1", "{}", Some("a")).unwrap();
        let leased = plane.enqueue("f-2", "{}", Some("a")).unwrap();
        let queued = plane.enqueue("f-3", "{}", Some("b")).unwrap();
        // Complete one, lease-but-don't-complete the second, leave the third.
        let mut done_lease = None;
        let mut seen = 0;
        while seen < 2 {
            for l in plane.pull("w0", 1) {
                seen += 1;
                if l.task.id == done {
                    done_lease = Some(l.lease_id);
                }
            }
        }
        plane.complete(done_lease.expect("f-1 leased first (FIFO)"), true, "", 0);
        drop(plane); // crash the plane

        let st = wal::replay(&path).unwrap();
        assert_eq!(st.pending.len(), 2);
        let (plane2, _) = plane_with(DispatchConfig::pull());
        plane2.register_worker("w0");
        let wal2 = Arc::new(Wal::open(&path, 1_000).unwrap());
        wal2.prime_pending(&st.pending);
        plane2.attach_wal(wal2);
        plane2.recover(&st);
        assert_eq!(plane2.depth(), 2, "leased + queued both came back");
        let mut ids = Vec::new();
        loop {
            let leases = plane2.pull("w0", 4);
            if leases.is_empty() {
                break;
            }
            for l in leases {
                ids.push(l.task.id);
                assert!(plane2.complete(l.lease_id, true, "", 0));
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![leased, queued]);
        // Fresh ids mint above everything the log ever saw.
        let fresh = plane2.enqueue("f-9", "{}", None).unwrap();
        assert!(fresh > queued);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hybrid_warm_window_tracks_completions() {
        let (plane, clock) = plane_with(DispatchConfig::hybrid());
        plane.register_worker("w0");
        assert_eq!(plane.warm_target("f-1"), None, "never seen: spill to pull");
        let id = plane.enqueue("f-1", "{}", None).unwrap();
        let l = plane.pull("w0", 1).remove(0);
        plane.complete(l.lease_id, true, "", 0);
        let _ = plane.wait(id, 10);
        assert_eq!(plane.warm_target("f-1").as_deref(), Some("w0"));
        clock.advance(WARM_WINDOW_MS);
        assert_eq!(plane.warm_target("f-1"), None, "window lapsed");
        plane.note_warm("f-2", "w9");
        assert_eq!(plane.warm_target("f-2").as_deref(), Some("w9"));
    }

    #[test]
    fn pull_loop_executes_and_kill_abandons_leases() {
        use iluvatar_sync::SystemClock;
        let mut cfg = DispatchConfig::pull();
        cfg.lease_ttl_ms = 150;
        let plane = Arc::new(PullPlane::new(cfg, SystemClock::shared()));
        plane.register_worker("w0");
        plane.register_worker("w1");
        let exec: Arc<TaskExecutor> = Arc::new(|t: &PullTask| (true, format!("ran:{}", t.fqdn), 1));
        let lp0 = PullLoop::spawn(
            Arc::clone(&plane) as Arc<dyn LeaseSource>,
            "w0".into(),
            2,
            Duration::from_millis(5),
            Arc::clone(&exec),
        );
        let id = plane.enqueue("f-1", "{}", None).unwrap();
        let r = plane.wait(id, 5_000).expect("loop completes the task");
        assert_eq!(r.body, "ran:f-1");
        lp0.stop();

        // A killed loop abandons its lease; the TTL recovers the task and a
        // healthy sibling serves it.
        let slow: Arc<TaskExecutor> = Arc::new(|_t: &PullTask| {
            std::thread::sleep(Duration::from_millis(400));
            (true, "slow".into(), 1)
        });
        let lp_dead = PullLoop::spawn(
            Arc::clone(&plane) as Arc<dyn LeaseSource>,
            "w0".into(),
            1,
            Duration::from_millis(5),
            slow,
        );
        let id2 = plane.enqueue("f-1", "{}", None).unwrap();
        // Let the doomed loop take the lease, then kill it mid-execution.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while plane.live_leases() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        lp_dead.kill();
        let lp1 = PullLoop::spawn(
            Arc::clone(&plane) as Arc<dyn LeaseSource>,
            "w1".into(),
            1,
            Duration::from_millis(5),
            exec,
        );
        let r2 = plane.wait(id2, 5_000).expect("sibling serves after expiry");
        assert_eq!(r2.worker, "w1");
        lp1.stop();
        let c = plane.counters();
        assert!(c.expired >= 1 && c.requeued >= 1);
    }

    #[test]
    fn long_poll_wakes_on_enqueue() {
        use iluvatar_sync::SystemClock;
        let plane = Arc::new(PullPlane::new(
            DispatchConfig::pull(),
            SystemClock::shared(),
        ));
        plane.register_worker("w0");
        let p2 = Arc::clone(&plane);
        let waiter = std::thread::spawn(move || p2.pull_wait("w0", 1, 5_000));
        std::thread::sleep(Duration::from_millis(30));
        plane.enqueue("f-1", "{}", None).unwrap();
        let got = waiter.join().unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn config_serde_defaults_to_push() {
        let cfg: DispatchConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(cfg.mode, DispatchMode::Push);
        assert_eq!(cfg.effective_lease_ttl_ms(), 2_000);
        assert_eq!(cfg.effective_max_batch(), 4);
        let json = serde_json::to_string(&DispatchConfig::pull()).unwrap();
        let back: DispatchConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.mode, DispatchMode::Pull);
    }
}
