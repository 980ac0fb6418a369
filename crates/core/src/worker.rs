//! The assembled Ilúvatar worker.
//!
//! Ties together the registry, characteristics store, keep-alive container
//! pool, invocation queue, and concurrency regulator into the worker API of
//! §3.1: `register`, `invoke`, `async_invoke`, `prewarm`, plus load/status
//! reporting for the load balancer.
//!
//! The invocation hot path (Figure 3 / Table 1):
//!
//! ```text
//! invoke → enqueue_invocation → add_item_to_q ─┐            (caller thread)
//!                                              ▼
//!    spawn_worker (take a run permit) → dequeue
//!            → acquire_container → prepare_invoke → call_container
//!            → download_result → return_container → return_results
//!                          (one `iluvatar-exec-N` thread, start to finish)
//! ```
//!
//! The run stage is a bounded pool of at most `regulator.limit()` executor
//! threads, each looping *wait for work → take a run permit → pop → journal
//! `Dequeued` → `complete` → release* ([`executor_loop`]): the thread that
//! dequeues an invocation is the thread that runs it, and no invocation
//! gets a thread of its own. One exception skips the pool: a synchronous
//! caller that finds nothing queued and a run permit free once its record
//! is durable (or that takes the bypass) journals its own `Dequeued` and
//! runs `complete` on its own thread (`Accepted::CallerRuns`), so its
//! result comes back without a wake-up or a channel.

use crate::api::WireWarm;
use crate::breakdown::{groups_from_spans, BreakdownReport, TenantBreakdown};
use crate::characteristics::Characteristics;
use crate::config::WorkerConfig;
use crate::invocation::{InvocationHandle, InvocationResult, InvokeError, Outcome, ResultSender};
use crate::journal::{TraceEventKind, TraceJournal, TraceRecord};
use crate::metrics::{MetricsSnapshot, PowerModel, SystemMetrics};
use crate::policies::make_policy;
use crate::pool::{ContainerPool, EvictSink};
use crate::queue::regulator::ConcurrencyRegulator;
use crate::queue::{InvocationQueue, PushError, QueuedInvocation, Work};
use crate::registration::{RegisterError, Registration, Registry};
use crate::spans::{Span, Spans, Stage};
use crate::wal::{
    AppendOutcome, BucketLevel, CounterBaselines, DrrDeficit, PendingInvocation, Wal, WalRecord,
    WalSnapshot,
};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use iluvatar_admission::{AdmissionController, AdmissionDecision, TenantSnapshot, DEFAULT_TENANT};
use iluvatar_cache::{CacheLookup, CacheStatus, ResultCache, TenantCacheStats};
use iluvatar_containers::image::Platform;
use iluvatar_containers::types::SharedContainer;
use iluvatar_containers::{BackendError, ContainerBackend, FunctionSpec, InvokeOutput};
use iluvatar_sync::storage::{RealStorage, Storage};
use iluvatar_sync::{fnv1a64, Backoff, BackoffConfig, Clock, SemaphorePermit, TaskPool, TimeMs};
use iluvatar_telemetry::{
    CounterBridge, FlightRecorder, TelemetryBus, TelemetryKind, TelemetrySink,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Point-in-time worker load/status, the load balancer's CH-BL input — and,
/// serialized as is, the body of `GET /status`. Fields added after the
/// first wire version default when a peer omits them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerStatus {
    pub name: String,
    pub queue_len: usize,
    pub running: usize,
    pub concurrency_limit: usize,
    pub used_mem_mb: u64,
    pub free_mem_mb: u64,
    /// (running + queued) / cores — the queue-aware load signal §4 argues
    /// is less stale and noisy than the OS load average.
    pub normalized_load: f64,
    /// The denominator of `normalized_load`: each invocation the balancer
    /// adds between probe rounds raises the load by `1 / cores`. 0 from a
    /// peer that predates the field — the balancer then moves its view of
    /// this worker only at probe rounds.
    #[serde(default)]
    pub cores: usize,
    pub completed: u64,
    pub dropped: u64,
    /// Invocations that reached dispatch but errored (backend failures).
    #[serde(default)]
    pub failed: u64,
    pub warm_hits: u64,
    pub cold_starts: u64,
    /// Requests served by this worker's API server; filled by the
    /// `/status` route, 0 from [`Worker::status`].
    #[serde(default)]
    pub http_requests: u64,
    /// Retries taken after transient backend failures.
    #[serde(default)]
    pub retries: u64,
    /// Agent calls abandoned at the configured timeout.
    #[serde(default)]
    pub agent_timeouts: u64,
    /// Containers quarantined (destroyed instead of pooled) after failures.
    #[serde(default)]
    pub quarantined: u64,
    /// Invocations that failed after exhausting (or shedding) their retry
    /// budget.
    #[serde(default)]
    pub dropped_retry_exhausted: u64,
    /// Invocations rejected at ingest by admission control (tenant rate
    /// limit or overload shedding). 0 while admission is disabled.
    #[serde(default)]
    pub dropped_admission: u64,
    /// Per-tenant accounting; filled by the `/status` route, empty from
    /// [`Worker::status`] and while admission control is disabled.
    #[serde(default)]
    pub tenants: Vec<TenantSnapshot>,
    /// Lifecycle state: `running`, `draining`, or `stopped`.
    #[serde(default)]
    pub lifecycle: String,
    /// Invocations (queued + holding a run permit) still to finish before
    /// a drain completes.
    #[serde(default)]
    pub drain_pending: u64,
    /// Queue delay of the most recently dequeued invocation, ms — the
    /// autoscaler's reactive signal.
    #[serde(default)]
    pub queue_delay_ms: u64,
    /// Result-cache hits served without touching a container. 0 while the
    /// cache is disabled.
    #[serde(default)]
    pub cache_hits: u64,
    /// Result-cache lookups that fell through to dispatch.
    #[serde(default)]
    pub cache_misses: u64,
    /// Result-cache entries evicted under the per-tenant capacity bound.
    #[serde(default)]
    pub cache_evictions: u64,
    /// Warm-container residency across all idle pool entries, GB·s — the
    /// fleet's least-warm scale-down victim signal. Always finite.
    #[serde(default)]
    pub warm_gb_s: f64,
    /// Per-function warm residency — the fleet's handoff shopping list.
    /// `warm_gb_s` is its sum: both come from one walk of the pool.
    #[serde(default)]
    pub warm_residency: Vec<WireWarm>,
    /// WAL degraded mode: the disk is failing, serving continues with
    /// results flagged non-durable until a re-arm succeeds.
    #[serde(default)]
    pub wal_degraded: bool,
    /// Invocations accepted while the WAL was degraded (non-durable).
    #[serde(default)]
    pub wal_non_durable: u64,
    /// Invocations shed by WAL stall backpressure (503 + Retry-After).
    #[serde(default)]
    pub wal_stall_sheds: u64,
    /// WAL segment rotations (size limit, error ladder, re-arm).
    #[serde(default)]
    pub wal_rotations: u64,
    /// Damaged WAL records quarantined by the last recovery (torn tails +
    /// corrupt frames).
    #[serde(default)]
    pub wal_quarantined: u64,
}

/// Lifecycle state machine: Running → Draining → Stopped.
const LIFECYCLE_RUNNING: u8 = 0;
const LIFECYCLE_DRAINING: u8 = 1;
const LIFECYCLE_STOPPED: u8 = 2;

/// Traces the journal remembers before the oldest age out.
const TRACE_CAPACITY: usize = 4096;

/// Telemetry events the flight recorder retains (`GET /debug/flightrecorder`).
const FLIGHT_RECORDER_CAPACITY: usize = 256;

/// TTL of the `Ttl` keep-alive policy, ms: OpenWhisk's classic 10 minutes.
const KEEPALIVE_TTL_MS: u64 = 10 * 60 * 1000;

/// Moving-window length for per-function characteristics (§4.2).
const CHAR_WINDOW: usize = 32;

/// Retry backoff jitter fraction in `[0, 1]` (deterministic per trace id).
const BACKOFF_JITTER: f64 = 0.5;

/// When invocations currently in retry-wait exceed this fraction of the
/// concurrency limit, further failures fail fast instead of retrying
/// (queue-level degrade under fault storms).
const RETRY_SATURATION: f64 = 0.5;

struct Shared {
    cfg: WorkerConfig,
    clock: Arc<dyn Clock>,
    registry: Registry,
    chars: Characteristics,
    pool: ContainerPool,
    queue: InvocationQueue,
    regulator: ConcurrencyRegulator,
    /// The executor pool: at most `regulator.limit()` long-lived threads,
    /// grown on demand, joined by `shutdown`.
    executors: Mutex<Vec<JoinHandle<()>>>,
    /// `executors.len()`, readable without the lock on the ingest path.
    executor_count: AtomicUsize,
    /// Serialises pop + `Dequeued` bookkeeping across executors, so the
    /// journal (and the telemetry stream) sees dequeues in pop order.
    dispatch: Mutex<()>,
    /// Agent-call companions of caller-runs (`agent_timeout_ms > 0`),
    /// lent out for one run each: a caller-run holds a run permit, so there
    /// are never more than `regulator.limit()` of them, however many
    /// threads call.
    caller_agents: Mutex<Vec<AgentCompanion>>,
    backend: Arc<dyn ContainerBackend>,
    spans: Spans,
    journal: TraceJournal,
    metrics: SystemMetrics,
    /// Currently executing invocations per function (herd suppression).
    running_fn: iluvatar_sync::ShardedMap<String, u64>,
    running: AtomicUsize,
    completed: AtomicU64,
    dropped: AtomicU64,
    failed: AtomicU64,
    cold_starts: AtomicU64,
    retries: AtomicU64,
    agent_timeouts: AtomicU64,
    quarantined: AtomicU64,
    dropped_retry_exhausted: AtomicU64,
    /// Invocations currently sleeping out a retry backoff (shed signal).
    retrying: AtomicUsize,
    /// Multi-tenant admission control; a no-op pass-through when disabled.
    admission: AdmissionController,
    /// Queue delay of the most recently dequeued invocation, ms. Read it
    /// through [`Shared::queue_delay_ms`].
    last_queue_delay_ms: AtomicU64,
    shutdown: AtomicBool,
    /// Queue write-ahead log; `None` when lifecycle journaling is disabled.
    wal: Option<Wal>,
    /// Invocations accepted while the WAL was degraded (non-durable).
    wal_non_durable: AtomicU64,
    /// Invocations shed on the acceptance path by WAL stall backpressure.
    wal_stall_shed: AtomicU64,
    /// Damaged records the last recovery quarantined (torn + corrupt).
    wal_quarantined_frames: AtomicU64,
    /// Running → Draining → Stopped (see the `LIFECYCLE_*` constants).
    lifecycle: AtomicU8,
    /// Hard-stop (crash simulation): abandon queued work immediately.
    killed: AtomicBool,
    /// The canonical telemetry stream (journal stages, WAL ops, lifecycle
    /// transitions all fan out through here to attached sinks).
    telemetry: Arc<TelemetryBus>,
    /// Black-box ring of the most recent telemetry events, dumped on
    /// crash/drain and snapshotted by the chaos harness on faults.
    recorder: Arc<FlightRecorder>,
    /// Per-kind event counters for the Prometheus exposition
    /// (`iluvatar_telemetry_events_total`).
    tel_counts: Arc<CounterBridge>,
    /// Invocation result cache; `Some` only when `cfg.cache.enabled`.
    cache: Option<Arc<ResultCache>>,
    /// The periodic tasks, on one `iluvatar-timer` thread. Their ticks hold
    /// this `Shared`; `Worker::stop_background` drops them.
    tasks: TaskPool,
}

impl Shared {
    fn normalized_load(&self) -> f64 {
        (self.running.load(Ordering::Relaxed) + self.queue.len()) as f64
            / self.cfg.cores.max(1) as f64
    }

    /// The overload signal feeding best-effort shedding and `/status`: the
    /// wait of the most recent dequeue while anything is still queued, 0 on
    /// an empty queue — nobody is waiting, whatever the last one to leave
    /// saw. (The raw reading is only written by a dequeue, so on its own it
    /// latches: a worker shedding every arrival never dequeues again.)
    fn queue_delay_ms(&self) -> u64 {
        if self.queue.is_empty() {
            0
        } else {
            self.last_queue_delay_ms.load(Ordering::Relaxed)
        }
    }

    fn lifecycle_label(&self) -> &'static str {
        match self.lifecycle.load(Ordering::Relaxed) {
            LIFECYCLE_DRAINING => "draining",
            LIFECYCLE_STOPPED => "stopped",
            _ => "running",
        }
    }

    /// Append to the WAL; trivially succeeds when journaling is disabled —
    /// `rec` is only built when there is a log to write it to. Every
    /// *landed* record is mirrored onto the telemetry stream (a rejected or
    /// non-durable append is the WAL's verdict, not an event that happened).
    fn wal_append(&self, rec: impl FnOnce() -> WalRecord) -> AppendOutcome {
        let Some(w) = &self.wal else {
            return AppendOutcome::Landed;
        };
        let rec = rec();
        let outcome = w.append(&rec);
        if outcome.is_landed() {
            // Mirror the record payload onto the event so stream consumers
            // (the conformance checker in particular) can drive the WAL/DRR
            // reference models without the file.
            let (tenant, cost_ms, weight, done_ok, throttled) = match &rec {
                WalRecord::Enqueued { inv } => (
                    inv.tenant.clone(),
                    Some(inv.expected_exec_ms),
                    Some(inv.tenant_weight),
                    None,
                    None,
                ),
                WalRecord::Completed { tenant, ok, .. } => {
                    (tenant.clone(), None, None, Some(*ok), None)
                }
                WalRecord::Shed {
                    tenant, throttled, ..
                } => (tenant.clone(), None, None, None, Some(*throttled)),
                _ => (None, None, None, None, None),
            };
            self.telemetry.emit(
                rec.trace_id(),
                tenant.as_deref(),
                TelemetryKind::Wal {
                    op: rec.op_label().to_string(),
                    cost_ms,
                    weight,
                    ok: done_ok,
                    throttled,
                },
            );
        }
        outcome
    }

    /// The durable-accept step: an invocation is *accepted* only once its
    /// `Enqueued` record is durable (or explicitly flagged non-durable in
    /// degraded mode), so a crash can never silently lose an accepted
    /// invocation. A bypassed invocation is logged as enqueued+dequeued in
    /// one record. A rejected append maps to the caller-facing error:
    /// stall/ladder rejections become `WalUnavailable` (503 + Retry-After,
    /// so the balancer routes around the failing disk); a poisoned log
    /// keeps its crash-simulation semantics.
    fn wal_accept(&self, item: &QueuedInvocation, dequeued: bool) -> Result<(), InvokeError> {
        let outcome = self.wal_append(|| WalRecord::Enqueued {
            inv: PendingInvocation {
                id: item.trace_id,
                fqdn: item.fqdn.clone(),
                args: item.args.clone(),
                tenant: item.tenant.clone(),
                tenant_weight: item.tenant_weight,
                arrived_at: item.arrived_at,
                expected_exec_ms: item.expected_exec_ms,
                iat_ms: item.iat_ms,
                expect_warm: item.expect_warm,
                dequeued,
            },
        });
        match outcome {
            AppendOutcome::NotDurable => {
                self.wal_non_durable.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            o if o.accepted() => Ok(()),
            AppendOutcome::Stalled => {
                self.wal_stall_shed.fetch_add(1, Ordering::Relaxed);
                Err(InvokeError::WalUnavailable)
            }
            AppendOutcome::Unavailable => Err(InvokeError::WalUnavailable),
            _ => Err(InvokeError::ShuttingDown),
        }
    }

    /// Stage 1 — admit: lifecycle gate, registration lookup, tenant
    /// resolution, admission control (with the one reject path), arrival
    /// bookkeeping, and the trace mint, at the `ingest_us` stamp.
    fn admit<'a>(
        &self,
        fqdn: &'a str,
        args: &'a str,
        tenant: Option<&str>,
        ingest_us: u64,
    ) -> Result<Arrival<'a>, InvokeError> {
        if self.shutdown.load(Ordering::Relaxed)
            || self.lifecycle.load(Ordering::Relaxed) != LIFECYCLE_RUNNING
        {
            return Err(InvokeError::ShuttingDown);
        }
        let now = ingest_us / 1000;
        let reg = self
            .registry
            .get(fqdn)
            .ok_or_else(|| InvokeError::NotRegistered(fqdn.to_string()))?;
        // Tenant resolution: explicit label → registration default → None
        // (accounted to the platform default tenant when admission is on).
        let tenant: Option<String> = tenant
            .map(|t| t.to_string())
            .or_else(|| reg.spec.tenant.clone());
        let mut tenant_weight = 1.0;
        if self.admission.enabled() {
            let tname = tenant.as_deref().unwrap_or(DEFAULT_TENANT);
            tenant_weight = self.admission.weight_of(tname);
            let verdict = self.admission.admit(tname, self.queue_delay_ms());
            if verdict != AdmissionDecision::Admit {
                let throttled = verdict == AdmissionDecision::Throttled;
                let id = self.journal.begin(fqdn, ingest_us);
                self.journal.record(
                    id,
                    if throttled {
                        TraceEventKind::TenantThrottled
                    } else {
                        TraceEventKind::AdmissionRejected
                    },
                    ingest_us,
                );
                let event = TraceEventKind::ResultReturned { ok: false };
                self.journal.record(id, event, ingest_us);
                let _ = self.wal_append(|| WalRecord::Shed {
                    id,
                    tenant: Some(tname.to_string()),
                    throttled,
                });
                return Err(if throttled {
                    InvokeError::Throttled(tname.to_string())
                } else {
                    InvokeError::Shed(tname.to_string())
                });
            }
        }
        self.chars.on_arrival(fqdn, now);
        self.pool.note_arrival(fqdn);
        self.chars.on_memory(fqdn, reg.spec.limits.memory_mb);
        let expect_warm = self.pool.idle_count(fqdn) > 0;
        Ok(Arrival {
            fqdn,
            args,
            tenant,
            tenant_weight,
            arrived_at: now,
            expected_exec_ms: self.chars.expected_exec_ms(fqdn, expect_warm),
            iat_ms: self.chars.mean_iat_ms(fqdn),
            expect_warm,
            ingest_us,
            // Mint the end-to-end trace at ingest; every later stage appends
            // to this timeline, and the id crosses the agent hop as a header.
            id: self.journal.begin(fqdn, ingest_us),
        })
    }

    /// Queue bypass (§4.1): short functions run immediately when load
    /// allows and a run slot is free right now. A caller that waits for its
    /// result runs a bypass itself instead of handing it to an executor.
    fn route(&self, expected_exec_ms: f64, caller_waits: bool) -> Route {
        if self
            .queue
            .should_bypass(expected_exec_ms, self.normalized_load())
        {
            if let Some(permit) = self.regulator.try_acquire() {
                return if caller_waits {
                    Route::CallerRuns(permit)
                } else {
                    Route::Bypass(permit)
                };
            }
        }
        Route::Queue { caller_waits }
    }

    /// Stage 2 — accept: build the queue item, make it durable, then hand
    /// it to the queue, (bypass) straight to an executor, or back to a
    /// caller that runs it itself: a synchronous bypass, or a waiting
    /// caller that finds nothing queued and a run slot free once its
    /// record is durable (so no permit sits idle through the fsync).
    fn accept(self: &Arc<Self>, a: Arrival<'_>, route: Route) -> Result<Accepted, InvokeError> {
        let bypass = matches!(route, Route::Bypass(_) | Route::CallerRuns(_));
        let caller_waits = matches!(
            route,
            Route::CallerRuns(_) | Route::Queue { caller_waits: true }
        );
        let recovered = matches!(route, Route::Recovered);
        let enqueue_at = (!bypass).then(|| self.clock.now_us());
        // A caller-run's outcome is `complete`'s return value: no channel.
        // A waiting caller that ends up queued gets one before the push.
        let (tx, mut handle) = if caller_waits {
            (ResultSender::caller(), None)
        } else {
            let (tx, handle) = InvocationHandle::pair();
            (tx, Some(handle))
        };
        let id = a.id;
        let mut item = QueuedInvocation {
            fqdn: a.fqdn.to_string(),
            args: a.args.to_string(),
            trace_id: id,
            arrived_at: a.arrived_at,
            expected_exec_ms: a.expected_exec_ms,
            iat_ms: a.iat_ms,
            expect_warm: a.expect_warm,
            tenant: a.tenant,
            tenant_weight: a.tenant_weight,
            result_tx: tx,
        };
        item.result_tx.timeline.stamp(Stage::Ingest, a.ingest_us);
        // A recovered item is already durable in the replayed prefix.
        if !recovered {
            if let Err(e) = self.wal_accept(&item, bypass) {
                let event = TraceEventKind::ResultReturned { ok: false };
                self.journal.record(id, event, self.clock.now_us());
                if let Route::Bypass(permit) | Route::CallerRuns(permit) = route {
                    // A run permit released by a thread that is not an
                    // executor: tell the starved ones.
                    drop(permit);
                    self.queue.wake_all();
                }
                return Err(e);
            }
        }
        let logged = self.clock.now_us();
        item.result_tx.timeline.stamp(Stage::Logged, logged);
        if bypass {
            self.queue.note_bypass();
            self.journal.record(id, TraceEventKind::Bypassed, logged);
        } else {
            // Journal `Enqueued` before the push: once the item is in the
            // queue the executors race us, and a `Dequeued` landing first
            // would scramble the timeline (and the deterministic journal
            // digest). On the rare rejected push the event is immediately
            // contradicted by `ResultReturned(false)`, which reads fine.
            self.journal.record(id, TraceEventKind::Enqueued, logged);
        }
        // The spans that end here; a pushed item may be an executor's already.
        let accepted = |pushed: bool| {
            let done = self.clock.now_us();
            self.spans.record(&[
                (Span::Invoke, (!recovered).then(|| done - a.ingest_us)),
                (Span::EnqueueInvocation, enqueue_at.map(|t| done - t)),
                (Span::AddItemToQ, pushed.then(|| done - logged)),
            ]);
            done
        };
        match route {
            Route::CallerRuns(permit) => {
                // Its caller takes it as `accept` returns.
                let taken = accepted(false);
                item.result_tx.timeline.stamp(Stage::Dequeued, taken);
                return Ok(Accepted::CallerRuns {
                    item,
                    permit,
                    bypassed: true,
                });
            }
            Route::Bypass(permit) => {
                self.queue.hand_off(item, permit);
                self.grow_if_unattended();
                accepted(false);
                return Ok(Accepted::Handle(
                    handle.expect("an asynchronous caller has a handle"),
                ));
            }
            Route::Queue { caller_waits: true } => {
                if let Some(permit) = self.queue.claim_if_idle(|| self.regulator.try_acquire()) {
                    accepted(false);
                    return Ok(Accepted::CallerRuns {
                        item,
                        permit,
                        bypassed: false,
                    });
                }
                let (tx, waiter) = InvocationHandle::pair();
                item.result_tx.tx = tx.tx;
                handle = Some(waiter);
            }
            Route::Queue { .. } | Route::Recovered => {}
        }
        let handle = handle.expect("a queued invocation has a handle");
        let err = match self.queue.push(item) {
            Ok(()) => {
                accepted(true);
                self.grow_if_unattended();
                return Ok(Accepted::Handle(handle));
            }
            Err(PushError::Full) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                InvokeError::QueueFull
            }
            Err(PushError::Closed) => InvokeError::ShuttingDown,
        };
        // The enqueue record already landed (or was replayed); retract it
        // so replay doesn't resurrect a rejected invocation.
        let event = TraceEventKind::ResultReturned { ok: false };
        self.journal.record(id, event, self.clock.now_us());
        let _ = self.wal_append(|| WalRecord::Completed {
            id,
            ok: false,
            tenant: None,
        });
        Err(err)
    }

    /// Add an executor when work is waiting, none is parked to take it and
    /// the pool is below the concurrency limit. Called by whoever just added
    /// work and by an executor that took some and left more behind (two
    /// pushes can ride one wake-up). A failed spawn is not an error: the
    /// work stays where it is for a live executor — there is always at
    /// least the one the constructor made.
    fn grow_if_unattended(self: &Arc<Self>) {
        if self.executor_count.load(Ordering::Relaxed) >= self.regulator.limit()
            || !self.queue.unattended()
        {
            return;
        }
        let _ = self.spawn_executor();
    }

    fn spawn_executor(self: &Arc<Self>) -> std::io::Result<()> {
        let mut executors = self.executors.lock();
        // `shutdown` raises its flag before it takes the handles out from
        // under this lock, so no executor can be born behind its back.
        if self.shutdown.load(Ordering::SeqCst) || executors.len() >= self.regulator.limit() {
            return Ok(());
        }
        let s = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("iluvatar-exec-{}", executors.len()))
            .spawn(move || executor_loop(s))?;
        executors.push(handle);
        self.executor_count
            .store(executors.len(), Ordering::Relaxed);
        Ok(())
    }

    /// Stage 3 — dequeue, with the run permit taken at `permit_at` in hand.
    /// The dispatch mutex makes the pop and its bookkeeping one step, so two
    /// executors cannot journal their `Dequeued`s opposite to their pops.
    fn dequeue(&self, permit_at: u64) -> Option<QueuedInvocation> {
        let _in_pop_order = self.dispatch.lock();
        let mut item = self.queue.try_pop()?;
        item.result_tx.timeline.stamp(Stage::Permit, permit_at);
        self.book_dequeue(&mut item);
        Some(item)
    }

    /// The bookkeeping of a dequeue, under the dispatch mutex: its stamp, the
    /// queue delay and the journal's `Dequeued` — no WAL record, since
    /// recovery re-runs whatever has no `Completed`, dequeued or not.
    fn book_dequeue(&self, item: &mut QueuedInvocation) {
        let at = self.clock.now_us();
        item.result_tx.timeline.stamp(Stage::Dequeued, at);
        // Publish the observed queue delay — the overload-shedding signal.
        self.last_queue_delay_ms.store(
            (at / 1000).saturating_sub(item.arrived_at),
            Ordering::Relaxed,
        );
        self.journal
            .record(item.trace_id, TraceEventKind::Dequeued, at);
    }

    /// Stages 3 and 4 on the caller's own thread, under the run permit it
    /// claimed at `route` (a bypass) or `accept`: book the dequeue an
    /// executor would (a bypass has none), `complete`, release the permit.
    /// Its result comes back as the return value.
    fn run_in_place(
        &self,
        mut item: QueuedInvocation,
        permit: SemaphorePermit,
        bypassed: bool,
    ) -> Outcome {
        if !bypassed {
            let _in_pop_order = self.dispatch.lock();
            self.book_dequeue(&mut item);
        }
        let mut agent = self.caller_agents.lock().pop().unwrap_or_default();
        let outcome = self.complete(item, &mut agent);
        if agent.link.is_some() {
            self.caller_agents.lock().push(agent);
        }
        // A run permit released by a thread that is not an executor: tell
        // the starved ones.
        drop(permit);
        self.queue.wake_all();
        outcome.expect("a caller-run's outcome comes back to its caller")
    }

    /// Stage 4 — complete: execute, book the outcome, log the completion,
    /// release the result — to the item's handle, or, for a caller-run, as
    /// the return value — and fold the invocation's timeline.
    fn complete(&self, mut item: QueuedInvocation, agent: &mut AgentCompanion) -> Option<Outcome> {
        self.running.fetch_add(1, Ordering::Relaxed);
        let found_idle = self.running_fn.update_or_insert(
            item.fqdn.clone(),
            || 0,
            |n| {
                *n += 1;
                *n == 1
            },
        );
        let outcome = execute(self, &mut item, found_idle, agent);
        self.running_fn
            .update(&item.fqdn, |n| *n = n.saturating_sub(1));
        self.running.fetch_sub(1, Ordering::Relaxed);
        if item.result_tx.is_caller() && self.killed.load(Ordering::SeqCst) {
            // The worker crashed under a caller-run: like an executor that
            // wakes to find it killed, book nothing, so the invocation
            // replays after recovery.
            return Some(Err(InvokeError::ShuttingDown));
        }
        let ok = outcome.is_ok();
        match &outcome {
            Ok(result) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                self.chars
                    .on_completion(&item.fqdn, result.exec_ms, result.cold);
                if self.admission.enabled() {
                    self.admission
                        .on_served(item.tenant.as_deref().unwrap_or(DEFAULT_TENANT));
                }
            }
            Err(InvokeError::NoResources) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Book the completion before the client sees it: once this record
        // lands the invocation will never be replayed. An unlogged
        // completion (crash in between) is re-executed on recovery —
        // at-least-once execution, exactly-once accounting.
        let _ = self.wal_append(|| WalRecord::Completed {
            id: item.trace_id,
            ok,
            tenant: item.tenant.clone(),
        });
        let returned = item.result_tx.deliver(outcome);
        let at = self.clock.now_us();
        item.result_tx.timeline.stamp(Stage::Returned, at);
        self.spans.record_timeline(&item.result_tx.timeline);
        let event = TraceEventKind::ResultReturned { ok };
        self.journal.record(item.trace_id, event, at);
        if self.wal.as_ref().is_some_and(|w| w.snapshot_due()) {
            wal_snapshot_now(self);
        }
        maybe_finalize(self);
        returned
    }

    /// Emit a lifecycle transition on the telemetry stream.
    fn emit_lifecycle(&self, state: &str) {
        self.telemetry.emit(
            None,
            None,
            TelemetryKind::Lifecycle {
                state: state.to_string(),
            },
        );
    }

    /// Freeze the flight-recorder tail and leave a marker event in the
    /// stream so readers can see *that* (and why) a snapshot was taken.
    fn snapshot_recorder(&self, reason: &str) {
        self.recorder.snapshot(reason);
        self.telemetry.emit(
            None,
            None,
            TelemetryKind::RecorderSnapshot {
                reason: reason.to_string(),
            },
        );
    }
}

/// An invocation past admission, as `accept` takes it: built by `admit` on
/// ingest and from the replayed WAL image on recovery.
struct Arrival<'a> {
    id: u64,
    fqdn: &'a str,
    args: &'a str,
    tenant: Option<String>,
    tenant_weight: f64,
    arrived_at: TimeMs,
    expected_exec_ms: f64,
    iat_ms: f64,
    expect_warm: bool,
    ingest_us: u64,
}

/// How an accepted invocation reaches the thread that runs it.
enum Route {
    /// Through the queue; an executor pops it once it holds a run permit.
    /// A caller that waits runs it itself instead when `accept` finds
    /// nothing queued and claims a run permit.
    Queue { caller_waits: bool },
    /// Around the queue, handed to an executor with the run permit it will
    /// execute under.
    Bypass(SemaphorePermit),
    /// Around the queue, run by its synchronous caller on the caller's
    /// thread under this permit, with the bypass records.
    CallerRuns(SemaphorePermit),
    /// Back into the queue after a crash, keeping its id and arrival time.
    Recovered,
}

/// What `accept` hands back.
enum Accepted {
    /// Queued or handed off: the executor that runs it answers this handle.
    Handle(InvocationHandle),
    /// The caller's to run itself ([`Shared::run_in_place`]).
    CallerRuns {
        item: QueuedInvocation,
        permit: SemaphorePermit,
        bypassed: bool,
    },
}

/// The Ilúvatar worker.
pub struct Worker {
    shared: Arc<Shared>,
    /// Taken by whichever of `kill` and `shutdown` stops first, which sends
    /// the stop message down `destroy_tx` and joins it.
    destroyer: Mutex<Option<JoinHandle<()>>>,
    destroy_tx: Sender<Option<SharedContainer>>,
}

impl Worker {
    /// Build and start a worker over `backend`.
    pub fn new(
        cfg: WorkerConfig,
        backend: Arc<dyn ContainerBackend>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self::new_with_storage(cfg, backend, clock, Arc::new(RealStorage))
    }

    /// [`Worker::new`] with a pluggable storage layer under the WAL, so the
    /// chaos harness can inject disk faults (`FaultyStorage`).
    pub fn new_with_storage(
        cfg: WorkerConfig,
        backend: Arc<dyn ContainerBackend>,
        clock: Arc<dyn Clock>,
        storage: Arc<dyn Storage>,
    ) -> Self {
        // Async container destruction: eviction hands containers to a
        // dedicated destroyer thread, keeping teardown off every hot path.
        // `None` is the stop message: the pool's evict sink keeps a sender
        // for the worker's whole life, so the channel never disconnects.
        let (destroy_tx, destroy_rx) = unbounded::<Option<SharedContainer>>();
        let sink_tx = destroy_tx.clone();
        let sink: EvictSink = Arc::new(move |c: SharedContainer| {
            let _ = sink_tx.send(Some(c));
        });
        let policy = make_policy(cfg.keepalive, KEEPALIVE_TTL_MS);
        // FNV-1a of the worker name seeds the trace id space, so ids from
        // different workers in one cluster rarely collide.
        let trace_seed = fnv1a64(cfg.name.as_bytes());
        let wal = cfg.lifecycle.wal_path.as_ref().and_then(|p| {
            Wal::open_on(
                Path::new(p),
                cfg.lifecycle.wal_options(),
                Arc::clone(&storage),
                Arc::clone(&clock),
            )
            .ok()
        });
        // The canonical telemetry stream is always on; the flight recorder
        // is its first sink, so the last N events are always dumpable even
        // when no external sink was attached.
        let telemetry = TelemetryBus::new(&cfg.name, Arc::clone(&clock));
        let recorder = Arc::new(FlightRecorder::new(FLIGHT_RECORDER_CAPACITY));
        telemetry.add_sink(Arc::clone(&recorder) as Arc<dyn TelemetrySink>);
        let tel_counts = Arc::new(CounterBridge::new());
        telemetry.add_sink(Arc::clone(&tel_counts) as Arc<dyn TelemetrySink>);
        // The result cache shares the worker's clock (deterministic TTL
        // under an injected clock) and mirrors its ops onto the same
        // canonical stream.
        let cache = cfg.cache.enabled.then(|| {
            let c = Arc::new(ResultCache::new(cfg.cache.clone(), Arc::clone(&clock)));
            c.set_telemetry(Arc::clone(&telemetry));
            c
        });
        let shared = Arc::new(Shared {
            registry: Registry::new(Platform::LINUX_AMD64),
            chars: Characteristics::new(CHAR_WINDOW),
            pool: ContainerPool::new(cfg.memory_mb, policy, Arc::clone(&clock), sink),
            queue: InvocationQueue::new(cfg.queue.clone()),
            regulator: ConcurrencyRegulator::new(cfg.concurrency.clone()),
            executors: Mutex::new(Vec::new()),
            executor_count: AtomicUsize::new(0),
            dispatch: Mutex::new(()),
            caller_agents: Mutex::new(Vec::new()),
            backend: Arc::clone(&backend),
            spans: Spans::default(),
            journal: TraceJournal::new(TRACE_CAPACITY, trace_seed),
            metrics: SystemMetrics::new(PowerModel::default(), Arc::clone(&clock)),
            running_fn: iluvatar_sync::ShardedMap::new(),
            running: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cold_starts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            agent_timeouts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            dropped_retry_exhausted: AtomicU64::new(0),
            retrying: AtomicUsize::new(0),
            admission: AdmissionController::new(cfg.admission.clone(), Arc::clone(&clock)),
            last_queue_delay_ms: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            wal,
            wal_non_durable: AtomicU64::new(0),
            wal_stall_shed: AtomicU64::new(0),
            wal_quarantined_frames: AtomicU64::new(0),
            lifecycle: AtomicU8::new(LIFECYCLE_RUNNING),
            killed: AtomicBool::new(false),
            telemetry,
            recorder,
            tel_counts,
            cache,
            tasks: TaskPool::new("timer"),
            clock,
            cfg,
        });
        // The journal mirrors every trace stage onto the same stream.
        shared.journal.set_telemetry(Arc::clone(&shared.telemetry));
        // Bridge WAL I/O health transitions (rotations, retries, degraded /
        // re-armed, stall sheds) onto the canonical stream as `wal_io`. A
        // degraded log gets a re-arm task: appends retry lazily, but an idle
        // worker has none, so the task tries every 100 ms, pins the re-armed
        // log to live state with a fresh snapshot, and is then done. A
        // healthy log schedules nothing.
        if let Some(w) = &shared.wal {
            let bus = Arc::clone(&shared.telemetry);
            let weak = Arc::downgrade(&shared);
            w.set_io_notify(Arc::new(move |op: &'static str| {
                bus.emit(None, None, TelemetryKind::WalIo { op: op.to_string() });
                let Some(s) = weak.upgrade().filter(|_| op == "degraded") else {
                    return;
                };
                let rearm = Arc::clone(&s);
                s.tasks
                    .spawn_until(Duration::from_millis(100), move || match &rearm.wal {
                        Some(w) if w.is_degraded() => {
                            let armed = w.try_rearm();
                            if armed {
                                wal_snapshot_now(&rearm);
                            }
                            armed
                        }
                        _ => true,
                    });
            }));
        }

        let destroy_backend = Arc::clone(&backend);
        let destroyer = std::thread::Builder::new()
            .name("iluvatar-destroyer".into())
            .spawn(move || {
                while let Ok(Some(c)) = destroy_rx.recv() {
                    let _ = destroy_backend.destroy(&c);
                }
            })
            .expect("spawn destroyer");

        let tasks = &shared.tasks;
        // Background keep-alive eviction sweep (§3.3).
        {
            let s = Arc::clone(&shared);
            tasks.spawn_periodic(Duration::from_millis(s.cfg.eviction_period_ms), move || {
                s.pool.background_sweep(s.cfg.free_buffer_mb)
            });
        }
        // System metrics sampling (§5): load averages + energy model.
        {
            let s = Arc::clone(&shared);
            tasks.spawn_periodic(Duration::from_millis(250), move || {
                let busy = s.running.load(Ordering::Relaxed).min(s.cfg.cores) as f64;
                s.metrics.sample(busy);
                maybe_finalize(&s);
            });
        }
        // Predictive prewarm (§3.2): prepare containers the policy expects
        // to be needed soon. Only meaningful with a predictive keep-alive
        // policy (HIST); other policies never recommend.
        if shared.cfg.prewarm_horizon_ms > 0 {
            let s = Arc::clone(&shared);
            let period = (s.cfg.prewarm_horizon_ms / 2).max(50);
            tasks.spawn_periodic(Duration::from_millis(period), move || {
                for fqdn in s.pool.prewarm_recommendations(s.cfg.prewarm_horizon_ms) {
                    let _ = prewarm_inner(&s, &fqdn);
                }
            });
        }
        // AIMD control loop (§4.1), only when dynamic.
        if shared.regulator.is_dynamic() {
            let s = Arc::clone(&shared);
            tasks.spawn_periodic(
                Duration::from_millis(s.regulator.interval_ms()),
                move || {
                    let before = s.regulator.limit();
                    if s.regulator.tick(s.normalized_load()) > before {
                        // Run permits nobody released: starved executors
                        // should look again, and the pool may grow.
                        s.queue.wake_all();
                        s.grow_if_unattended();
                    }
                },
            );
        }

        // The first executor; the rest are grown on demand, up to the
        // concurrency limit (§3.3, "Function Queuing").
        shared.spawn_executor().expect("spawn first executor");

        Self {
            shared,
            destroyer: Mutex::new(Some(destroyer)),
            destroy_tx,
        }
    }

    /// Register a function (§3.2). Out-of-band of the invocation path.
    /// Re-registering an fqdn invalidates any cached results for it — new
    /// code must never be answered with the old version's outputs.
    pub fn register(&self, spec: FunctionSpec) -> Result<Arc<Registration>, RegisterError> {
        if let Some(cache) = &self.shared.cache {
            cache.note_spec(&spec);
        }
        self.shared.registry.register(spec)
    }

    /// Synchronous invocation: the same admission, records and cache
    /// consult as [`Worker::async_invoke_tenant`], redeemed before
    /// returning. On a worker with nothing queued and a run permit free —
    /// or on a queue bypass — the calling thread runs the invocation itself
    /// and gets its result back directly; otherwise it waits for the
    /// executor that runs it.
    pub fn invoke_tenant(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<InvocationResult, InvokeError> {
        let s = &self.shared;
        let ingest = s.clock.now_us();
        let outcome = self.submit(fqdn, args, tenant, true, ingest)?.wait();
        s.spans
            .record(&[(Span::SyncInvoke, Some(s.clock.now_us() - ingest))]);
        outcome
    }

    /// Asynchronous invocation: returns a handle immediately; an executor
    /// runs the invocation, never the caller.
    pub fn async_invoke_tenant(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<InvocationHandle, InvokeError> {
        self.submit(fqdn, args, tenant, false, self.shared.clock.now_us())
    }

    /// The one invocation pipeline behind both entries. A `None` tenant
    /// falls back to the function registration's tenant, then to the
    /// default tenant. With the result cache on, the consult comes first,
    /// under the caller's label: a hit is a handle already holding the
    /// cached result (no trace, admission token, queue, pool or container),
    /// a miss fills the cache when its result is redeemed — after the
    /// `Completed` record is durable. The verdict rides on
    /// [`InvocationResult::cache`]. A caller that waits (`caller_waits`)
    /// may run the invocation before this returns; its handle is then ready.
    fn submit(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
        caller_waits: bool,
        ingest_us: u64,
    ) -> Result<InvocationHandle, InvokeError> {
        let s = &self.shared;
        let fill = match s.cache.as_ref().map(|c| (c, c.lookup(fqdn, tenant, args))) {
            Some((_, CacheLookup::Hit(hit))) => {
                return Ok(InvocationHandle::ready(Ok(InvocationResult::from_cache(
                    hit,
                ))));
            }
            Some((cache, CacheLookup::Miss(_))) => Some(Box::new((
                Arc::clone(cache),
                fqdn.to_string(),
                args.to_string(),
                tenant.map(str::to_string),
            ))),
            _ => None,
        };
        let arrival = s.admit(fqdn, args, tenant, ingest_us)?;
        let route = s.route(arrival.expected_exec_ms, caller_waits);
        let accepted = s.accept(arrival, route)?;
        let mut handle = match accepted {
            Accepted::Handle(handle) => handle,
            Accepted::CallerRuns {
                item,
                permit,
                bypassed,
            } => InvocationHandle::ready(s.run_in_place(item, permit, bypassed)),
        };
        handle.fill = fill;
        Ok(handle)
    }

    /// Prewarm (§3.2): start a container + agent and park it in the pool,
    /// absorbing the cold-start cost ahead of the first invocation.
    pub fn prewarm(&self, fqdn: &str) -> Result<(), InvokeError> {
        prewarm_inner(&self.shared, fqdn)
    }

    pub fn status(&self) -> WorkerStatus {
        let s = &self.shared;
        let pool = s.pool.stats();
        let (cache_hits, cache_misses, cache_evictions) =
            s.cache.as_ref().map(|c| c.totals()).unwrap_or((0, 0, 0));
        // The vendored serde_json writes non-finite floats as null; clamp
        // so the wire form always parses back.
        let finite = |g: f64| if g.is_finite() { g } else { 0.0 };
        let warm_residency: Vec<WireWarm> = self
            .warm_residency()
            .into_iter()
            .map(|(fqdn, gb_s)| WireWarm {
                fqdn,
                gb_s: finite(gb_s),
            })
            .collect();
        let warm_gb_s = finite(warm_residency.iter().map(|w| w.gb_s).sum());
        WorkerStatus {
            name: s.cfg.name.clone(),
            queue_len: s.queue.len(),
            running: s.running.load(Ordering::Relaxed),
            concurrency_limit: s.regulator.limit(),
            used_mem_mb: pool.used_mb,
            free_mem_mb: s.pool.free_mb(),
            normalized_load: s.normalized_load(),
            cores: s.cfg.cores.max(1),
            completed: s.completed.load(Ordering::Relaxed),
            dropped: s.dropped.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            warm_hits: pool.warm_hits,
            cold_starts: s.cold_starts.load(Ordering::Relaxed),
            http_requests: 0,
            retries: s.retries.load(Ordering::Relaxed),
            agent_timeouts: s.agent_timeouts.load(Ordering::Relaxed),
            quarantined: s.quarantined.load(Ordering::Relaxed),
            dropped_retry_exhausted: s.dropped_retry_exhausted.load(Ordering::Relaxed),
            dropped_admission: s.admission.dropped_admission(),
            tenants: Vec::new(),
            lifecycle: s.lifecycle_label().to_string(),
            // Queue first: a permit is taken before the item leaves it (and
            // a hand-off carries one), so nothing accepted slips between.
            drain_pending: (s.queue.len() + s.regulator.running()) as u64,
            queue_delay_ms: s.queue_delay_ms(),
            cache_hits,
            cache_misses,
            cache_evictions,
            warm_gb_s,
            warm_residency,
            wal_degraded: s.wal.as_ref().is_some_and(|w| w.is_degraded()),
            wal_non_durable: s.wal_non_durable.load(Ordering::Relaxed),
            wal_stall_sheds: s.wal_stall_shed.load(Ordering::Relaxed),
            wal_rotations: s.wal.as_ref().map(|w| w.io_counts().rotations).unwrap_or(0),
            wal_quarantined: s.wal_quarantined_frames.load(Ordering::Relaxed),
        }
    }

    /// Per-tenant result-cache counters; empty while the cache is disabled.
    pub fn cache_stats(&self) -> Vec<TenantCacheStats> {
        self.shared
            .cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Warm-container residency per function, `(fqdn, GB·s)` — memory each
    /// idle pooled container holds, weighted by how long it has held it.
    /// The fleet reads this (via `/status`) to pick least-warm scale-down
    /// victims and to hand hot functions off to survivors.
    pub fn warm_residency(&self) -> Vec<(String, f64)> {
        self.shared.pool.warm_residency()
    }

    /// Per-tenant admission/serve counters; empty while admission control
    /// is disabled.
    pub fn tenant_stats(&self) -> Vec<TenantSnapshot> {
        if !self.shared.admission.enabled() {
            return Vec::new();
        }
        self.shared.admission.snapshot()
    }

    /// Per-component latency spans (Table 1).
    pub fn spans(&self) -> &Spans {
        &self.shared.spans
    }

    /// The worker's canonical telemetry stream. Attach sinks here to tap
    /// the unified event feed (journal stages, WAL ops, lifecycle).
    pub fn telemetry(&self) -> &Arc<TelemetryBus> {
        &self.shared.telemetry
    }

    /// The flight recorder — the bounded black box of recent telemetry
    /// events, served at `GET /debug/flightrecorder`.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.shared.recorder
    }

    /// Per-kind telemetry event counts `(kind, tenant, count)` for the
    /// Prometheus exposition.
    pub fn telemetry_counts(&self) -> Vec<(String, String, u64)> {
        self.shared.tel_counts.counts()
    }

    /// The critical-path breakdown (`GET /breakdown`): stage histograms
    /// and Table-1 group histograms, both folded from every completed
    /// invocation's timeline, and per-tenant completion counts.
    pub fn breakdown(&self) -> BreakdownReport {
        let s = &self.shared;
        let (stages, cold, warm) = s.spans.stage_report();
        let mut tenants: Vec<TenantBreakdown> = self
            .tenant_stats()
            .into_iter()
            .map(|t| TenantBreakdown {
                tenant: t.tenant,
                completed: t.served,
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        BreakdownReport {
            source: s.cfg.name.clone(),
            invocations: cold + warm,
            cold,
            warm,
            stages,
            groups: groups_from_spans(&s.spans.export()),
            tenants,
        }
    }

    /// The full timeline of one invocation, if still journaled.
    pub fn trace(&self, id: u64) -> Option<TraceRecord> {
        self.shared.journal.get(id)
    }

    /// The `n` most recent invocation traces, newest first.
    pub fn recent_traces(&self, n: usize) -> Vec<TraceRecord> {
        self.shared.journal.recent(n)
    }

    /// Per-function characteristics (§3.1 data-driven policy API).
    pub fn characteristics(&self) -> &Characteristics {
        &self.shared.chars
    }

    /// Keep-alive pool statistics.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.shared.pool.stats()
    }

    /// System metrics: load averages and modelled energy (§5).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    pub fn config(&self) -> &WorkerConfig {
        &self.shared.cfg
    }

    /// Begin a graceful drain: new invocations are rejected with
    /// `ShuttingDown` (503 + `Retry-After` over HTTP) while queued and
    /// in-flight ones finish. Once idle, the worker writes a final WAL
    /// snapshot and reports `stopped` on `/status`. Idempotent; does not
    /// stop the worker's threads — use [`Worker::shutdown`] for that.
    pub fn drain(&self) {
        let s = &self.shared;
        if s.lifecycle
            .compare_exchange(
                LIFECYCLE_RUNNING,
                LIFECYCLE_DRAINING,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            return;
        }
        s.emit_lifecycle("draining");
        s.snapshot_recorder("drain");
        maybe_finalize(s);
    }

    /// Hard stop simulating a crash: the WAL is poisoned first (no further
    /// record lands), queued invocations are abandoned, and no final
    /// snapshot is written — recovery must rebuild from the pre-kill log
    /// image. In-flight invocations may still execute, but their unlogged
    /// completions are replayed after restart (at-least-once execution,
    /// exactly-once accounting); a caller running its own invocation gets
    /// `ShuttingDown`. A crash does not wait for callers to leave, so it
    /// takes `&self`.
    pub fn kill(&self) {
        let s = &self.shared;
        s.killed.store(true, Ordering::SeqCst);
        if let Some(w) = &s.wal {
            w.poison();
            s.telemetry.emit(None, None, TelemetryKind::WalPoisoned);
        }
        s.lifecycle.store(LIFECYCLE_STOPPED, Ordering::SeqCst);
        s.emit_lifecycle("killed");
        // Freeze the black box at the moment of death — this is the dump a
        // post-mortem `GET /debug/flightrecorder` reads.
        s.snapshot_recorder("kill");
        // A dead process publishes nothing more: what its detached executors
        // still do never reaches a sink, so a recovered incarnation's
        // stream does not interleave with the corpse's.
        s.telemetry.close();
        if s.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        s.queue.close();
        // Executors see `killed` as they wake and leave without popping.
        // They are detached, not joined: one may be inside an agent call
        // that outlives the crash.
        s.executors.lock().clear();
        self.stop_background();
    }

    /// Stop the periodic tasks, then join the destroyer, which leaves at
    /// the stop message once every container evicted before it is gone.
    fn stop_background(&self) {
        self.shared.tasks.shutdown();
        let destroyer = self.destroyer.lock().take();
        if let Some(d) = destroyer {
            let _ = self.destroy_tx.send(None);
            let _ = d.join();
        }
    }

    /// Rebuild a worker from its write-ahead log: replay the last snapshot
    /// plus tail (idempotent, deduplicated by invocation id), restore the
    /// counter baselines, tenant books, token-bucket levels, and DRR
    /// deficits, then re-enqueue every incomplete invocation with its
    /// original arrival time and tenant label. `specs` re-registers the
    /// function set — registration is control-plane configuration, not
    /// queue state, and is re-applied on boot exactly like the load
    /// balancer re-registers a re-admitted worker.
    ///
    /// `sinks` are attached *before* the replayed invocations are
    /// re-enqueued: replay starts executing the moment items hit the queue,
    /// so a sink attached after `recover` returns races the re-execution
    /// and observes a torn stream; stream consumers that must see the
    /// complete recovered timeline (the conformance checker) pass them here.
    /// Recovery-path reads (and the recovered worker's appends) run under
    /// `storage` (`RealStorage` in production), so the chaos harness can
    /// inject a fault plan.
    pub fn recover(
        cfg: WorkerConfig,
        backend: Arc<dyn ContainerBackend>,
        clock: Arc<dyn Clock>,
        specs: &[FunctionSpec],
        sinks: &[Arc<dyn TelemetrySink>],
        storage: Arc<dyn Storage>,
    ) -> (Worker, RecoveryReport) {
        let st = cfg
            .lifecycle
            .wal_path
            .as_ref()
            .and_then(|p| crate::wal::replay_with(Path::new(p), storage.as_ref()).ok())
            .unwrap_or_default();
        let worker = Worker::new_with_storage(cfg, backend, clock, storage);
        for sink in sinks {
            worker.shared.telemetry.add_sink(Arc::clone(sink));
        }
        for spec in specs {
            let _ = worker.register(spec.clone());
        }
        let s = &worker.shared;
        // Fresh ids must mint above every replayed id.
        s.journal.ensure_ids_above(st.max_id);
        let c = &st.counters;
        s.completed.store(c.completed, Ordering::Relaxed);
        s.dropped.store(c.dropped, Ordering::Relaxed);
        s.failed.store(c.failed, Ordering::Relaxed);
        s.cold_starts.store(c.cold_starts, Ordering::Relaxed);
        s.retries.store(c.retries, Ordering::Relaxed);
        s.agent_timeouts.store(c.agent_timeouts, Ordering::Relaxed);
        s.quarantined.store(c.quarantined, Ordering::Relaxed);
        s.dropped_retry_exhausted
            .store(c.dropped_retry_exhausted, Ordering::Relaxed);
        if s.admission.enabled() {
            s.admission.restore_counters(&st.tenants);
            for bl in &st.bucket_levels {
                s.admission.restore_bucket_level(&bl.tenant, bl.tokens);
            }
        }
        if let Some(w) = &s.wal {
            // The re-enqueued invocations are already durable in the
            // replayed prefix; they must reappear in the next snapshot
            // without re-appending their records.
            w.prime_pending(&st.pending);
        }
        let mut handles = Vec::with_capacity(st.pending.len());
        for p in &st.pending {
            let at = s.clock.now_us();
            s.journal.begin_recovered(p.id, &p.fqdn, at);
            let arrival = Arrival {
                id: p.id,
                fqdn: &p.fqdn,
                args: &p.args,
                tenant: p.tenant.clone(),
                tenant_weight: p.tenant_weight,
                arrived_at: p.arrived_at,
                expected_exec_ms: p.expected_exec_ms,
                iat_ms: p.iat_ms,
                expect_warm: p.expect_warm,
                ingest_us: at,
            };
            // A push over a smaller queue bound is not silently lost:
            // `accept` books the drop and retracts the record.
            if let Ok(Accepted::Handle(handle)) = s.accept(arrival, Route::Recovered) {
                handles.push((p.id, handle));
            }
        }
        let deficits: Vec<(String, f64)> = st
            .drr_deficits
            .iter()
            .map(|d| (d.tenant.clone(), d.deficit))
            .collect();
        s.queue.restore_drr_deficits(&deficits);
        // Quarantined damage is sticky across the worker's lifetime: it is
        // what `/status` reports so an operator can see the disk lied.
        s.wal_quarantined_frames
            .store(st.torn_lines + st.corrupt_frames, Ordering::Relaxed);
        // Compact immediately: the recovered state becomes the new
        // baseline, so a second crash replays from here, not from genesis.
        wal_snapshot_now(s);
        s.emit_lifecycle("recovered");
        let report = RecoveryReport {
            replayed: handles.len(),
            handles,
            records_read: st.records_read,
            torn_lines: st.torn_lines,
            corrupt_frames: st.corrupt_frames,
            max_trace_id: st.max_id,
        };
        (worker, report)
    }

    /// Drain and stop. Queued invocations are completed first and every
    /// executor is joined, so on return nothing accepted is still running;
    /// a final compacted snapshot is written unless the worker was killed.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let s = Arc::clone(&self.shared);
        let _ = s.lifecycle.compare_exchange(
            LIFECYCLE_RUNNING,
            LIFECYCLE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        s.queue.close();
        let executors = std::mem::take(&mut *s.executors.lock());
        for e in executors {
            let _ = e.join();
        }
        if !s.killed.load(Ordering::SeqCst) {
            // Final compaction + flush (the WAL flushes per append; this
            // folds the tail into one authoritative snapshot).
            wal_snapshot_now(&s);
            if s.lifecycle.swap(LIFECYCLE_STOPPED, Ordering::SeqCst) != LIFECYCLE_STOPPED {
                s.emit_lifecycle("stopped");
            }
        }
        self.stop_background();
    }
}

/// What [`Worker::recover`] rebuilt from the write-ahead log.
pub struct RecoveryReport {
    /// Incomplete invocations re-enqueued with their original ids.
    pub replayed: usize,
    /// Completion handles for the re-enqueued invocations, by trace id, so
    /// a caller can await the replayed executions.
    pub handles: Vec<(u64, InvocationHandle)>,
    pub records_read: u64,
    /// Unparseable log lines skipped (torn tail writes).
    pub torn_lines: u64,
    /// Framed records quarantined for CRC mismatch / bad magic (bit-rot).
    pub corrupt_frames: u64,
    /// Highest trace id found in the log; fresh ids mint above it.
    pub max_trace_id: u64,
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One executor of the run stage: wait for work → take a run permit → pop
/// → journal `Dequeued` → `complete` → release. It pops only with a permit
/// in hand, so everything still waiting stays ordered by the queue policy,
/// and holds none while idle, so `regulator.running()` counts invocations.
fn executor_loop(s: Arc<Shared>) {
    let mut agent = AgentCompanion::default();
    // When the last permit was taken: the dequeue starts there.
    let granted = Cell::new(0);
    loop {
        let work = s.queue.wait_work(|| {
            let asked = s.clock.now_us();
            let permit = s.regulator.try_acquire()?;
            granted.set(s.clock.now_us());
            s.spans
                .record(&[(Span::SpawnWorker, Some(granted.get() - asked))]);
            Some(permit)
        });
        if s.killed.load(Ordering::Relaxed) {
            // Crash semantics: abandon what is queued (and a hand-off in
            // flight). With no Completed record it replays after recovery.
            return;
        }
        let (item, permit) = match work {
            Work::Closed => return,
            Work::Handoff(mut item, permit) => {
                let now = s.clock.now_us();
                item.result_tx.timeline.stamp(Stage::Dequeued, now);
                (item, permit)
            }
            Work::Queued(permit) => match s.dequeue(granted.get()) {
                Some(item) => (item, permit),
                // A sibling emptied the queue first.
                None => continue,
            },
        };
        s.grow_if_unattended();
        s.complete(item, &mut agent);
        drop(permit);
    }
}

/// An agent call handed to a companion thread.
struct AgentCall {
    container: SharedContainer,
    args: String,
    trace_hex: String,
    tenant: Option<String>,
}

type AgentReply = Result<InvokeOutput, BackendError>;

impl AgentCall {
    fn make(&self, backend: &dyn ContainerBackend) -> AgentReply {
        backend.invoke_ctx(
            &self.container,
            &self.args,
            Some(&self.trace_hex),
            self.tenant.as_deref(),
        )
    }
}

/// The agent-call timeout helper of one executor, or lent to one caller-run
/// (`agent_timeout_ms > 0`): a companion thread that makes the blocking
/// call so the runner can stop waiting at the deadline. It is made on first
/// use and replaced only after a timeout abandoned it, so a healthy call
/// spawns nothing.
#[derive(Default)]
struct AgentCompanion {
    link: Option<(Sender<AgentCall>, Receiver<AgentReply>, JoinHandle<()>)>,
}

impl AgentCompanion {
    /// Make `call` with a deadline; `None` when it passed. The abandoned
    /// companion finishes its call against a container the caller is about
    /// to discard, finds its channels gone and exits.
    fn call(
        &mut self,
        backend: &Arc<dyn ContainerBackend>,
        call: AgentCall,
        timeout: Duration,
    ) -> Option<AgentReply> {
        if self.link.is_none() {
            let (call_tx, call_rx) = bounded::<AgentCall>(1);
            let (reply_tx, reply_rx) = bounded::<AgentReply>(1);
            let b = Arc::clone(backend);
            let spawned = std::thread::Builder::new()
                .name("iluvatar-agent-call".into())
                .spawn(move || {
                    while let Ok(call) = call_rx.recv() {
                        if reply_tx.send(call.make(b.as_ref())).is_err() {
                            return;
                        }
                    }
                });
            match spawned {
                Ok(thread) => self.link = Some((call_tx, reply_rx, thread)),
                // No helper to be had: call inline, unbounded.
                Err(_) => return Some(call.make(backend.as_ref())),
            }
        }
        let (call_tx, reply_rx, _) = self.link.as_ref().expect("made above");
        call_tx
            .send(call)
            .expect("the companion outlives its link unless abandoned");
        let reply = reply_rx.recv_timeout(timeout).ok();
        if reply.is_none() {
            // Dropping the link detaches the thread.
            self.link = None;
        }
        reply
    }
}

impl Drop for AgentCompanion {
    fn drop(&mut self) {
        if let Some((call_tx, _, thread)) = self.link.take() {
            drop(call_tx);
            let _ = thread.join();
        }
    }
}

fn prewarm_inner(s: &Arc<Shared>, fqdn: &str) -> Result<(), InvokeError> {
    let reg = s
        .registry
        .get(fqdn)
        .ok_or_else(|| InvokeError::NotRegistered(fqdn.to_string()))?;
    let mb = reg.spec.limits.memory_mb;
    if !s.pool.reserve(mb) {
        return Err(InvokeError::NoResources);
    }
    match s.backend.create(&reg.spec) {
        Ok(c) => {
            // Pre-initialize: a prewarmed container should serve its first
            // invocation warm, so absorb init here when the backend models
            // init lazily (null backend).
            let container = Arc::new(c);
            s.pool.release(container, init_cost(s, &reg));
            Ok(())
        }
        Err(e) => {
            s.pool.unreserve(mb);
            Err(InvokeError::Backend(e.to_string()))
        }
    }
}

fn init_cost(s: &Shared, reg: &Registration) -> f64 {
    let measured = s.chars.init_cost_ms(&reg.spec.fqdn);
    if measured > 0.0 {
        measured
    } else {
        reg.spec.init_ms as f64
    }
}

/// Append a compacted snapshot of all recoverable state. The state reads
/// run under the WAL writer lock (see [`Wal::snapshot_with`]) so no
/// mutation record can interleave between reading the live counters and
/// writing the snapshot.
fn wal_snapshot_now(s: &Shared) {
    let Some(wal) = &s.wal else { return };
    wal.snapshot_with(|| WalSnapshot {
        pending: Vec::new(), // filled from the WAL's own book
        counters: CounterBaselines {
            completed: s.completed.load(Ordering::Relaxed),
            dropped: s.dropped.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            cold_starts: s.cold_starts.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            agent_timeouts: s.agent_timeouts.load(Ordering::Relaxed),
            quarantined: s.quarantined.load(Ordering::Relaxed),
            dropped_retry_exhausted: s.dropped_retry_exhausted.load(Ordering::Relaxed),
        },
        tenants: if s.admission.enabled() {
            s.admission.snapshot()
        } else {
            Vec::new()
        },
        bucket_levels: s
            .admission
            .bucket_levels()
            .into_iter()
            .map(|(tenant, tokens)| BucketLevel { tenant, tokens })
            .collect(),
        drr_deficits: s
            .queue
            .drr_deficits()
            .into_iter()
            .map(|(tenant, deficit)| DrrDeficit { tenant, deficit })
            .collect(),
    });
}

/// Drain completion check: once draining and idle (nothing queued, running,
/// retrying, or incomplete in the WAL book), write the final snapshot and
/// move to Stopped. Called from the completion path and the periodic
/// metrics task, so a drain with an empty queue still terminates.
fn maybe_finalize(s: &Shared) {
    if s.lifecycle.load(Ordering::SeqCst) != LIFECYCLE_DRAINING {
        return;
    }
    if !s.queue.is_empty()
        || s.running.load(Ordering::Relaxed) > 0
        || s.retrying.load(Ordering::Relaxed) > 0
    {
        return;
    }
    if let Some(w) = &s.wal {
        if w.pending_len() > 0 {
            return;
        }
    }
    if s.lifecycle
        .compare_exchange(
            LIFECYCLE_DRAINING,
            LIFECYCLE_STOPPED,
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
        .is_ok()
    {
        wal_snapshot_now(s);
        s.emit_lifecycle("stopped");
    }
}

/// One invocation, hardened: transient backend failures (cold-start
/// failures, agent errors, agent timeouts) are retried on a **fresh**
/// container with seeded exponential backoff — the failed container was
/// quarantined by the attempt. The retry budget is bounded two ways:
/// `max_retries`, and a saturation shed that fails fast when too many
/// invocations are already waiting out backoffs (a fault storm must
/// degrade, not amplify).
fn execute(
    s: &Shared,
    item: &mut QueuedInvocation,
    found_idle: bool,
    agent: &mut AgentCompanion,
) -> Result<InvocationResult, InvokeError> {
    let reg = s
        .registry
        .get(&item.fqdn)
        .ok_or_else(|| InvokeError::NotRegistered(item.fqdn.clone()))?;
    let res = &s.cfg.resilience;
    if res.max_retries == 0 {
        return attempt_invoke(s, &reg, item, found_idle, agent);
    }
    // Seeding with the trace id keeps the whole schedule deterministic per
    // invocation while decorrelating concurrent retriers.
    let backoff = Backoff::new(
        BackoffConfig {
            base_ms: res.backoff_base_ms,
            cap_ms: res.backoff_cap_ms,
            jitter: BACKOFF_JITTER,
        },
        item.trace_id,
    );
    let mut attempt: u32 = 0;
    loop {
        let err = match attempt_invoke(s, &reg, item, found_idle, agent) {
            Ok(r) => return Ok(r),
            // Backend failures are transient by assumption (the container
            // was quarantined); everything else is a control-plane verdict.
            Err(e @ InvokeError::Backend(_)) => e,
            Err(e) => return Err(e),
        };
        if attempt >= res.max_retries {
            return retries_exhausted(s, item, err);
        }
        let shed_at = ((s.regulator.limit() as f64) * RETRY_SATURATION).max(1.0) as usize;
        if s.retrying.load(Ordering::Relaxed) >= shed_at {
            return retries_exhausted(s, item, err);
        }
        let delay = backoff.delay_ms(attempt);
        s.journal.record(
            item.trace_id,
            TraceEventKind::RetryScheduled {
                attempt,
                delay_ms: delay,
            },
            s.clock.now_us(),
        );
        s.retries.fetch_add(1, Ordering::Relaxed);
        s.retrying.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(delay));
        s.retrying.fetch_sub(1, Ordering::Relaxed);
        attempt += 1;
    }
}

fn retries_exhausted(
    s: &Shared,
    item: &QueuedInvocation,
    err: InvokeError,
) -> Result<InvocationResult, InvokeError> {
    s.dropped_retry_exhausted.fetch_add(1, Ordering::Relaxed);
    let now = s.clock.now_us();
    s.journal
        .record(item.trace_id, TraceEventKind::RetriesExhausted, now);
    Err(err)
}

fn attempt_invoke(
    s: &Shared,
    reg: &Registration,
    item: &mut QueuedInvocation,
    found_idle: bool,
    agent: &mut AgentCompanion,
) -> Result<InvocationResult, InvokeError> {
    // --- acquire_container: warm hit or cold start -----------------------
    let warm = s.pool.acquire(&item.fqdn);
    let now = s.clock.now_us();
    item.result_tx.timeline.stamp(Stage::Locked, now);
    let (container, cold) = match warm {
        Some(c) => (c, false),
        None => {
            // Herd suppression (§4): if another invocation of this function
            // is running, briefly wait for its warm container rather than
            // paying a concurrent ("spawn start") cold start. The invocation
            // that found the function idle never waits: of a simultaneous
            // burst exactly one saw zero, and it must create the container
            // the others wait for.
            let herd_ms = s.cfg.queue.herd_wait_ms;
            let mut herd_hit = None;
            if herd_ms > 0 && !found_idle && s.running_fn.get(&item.fqdn).unwrap_or(0) > 1 {
                herd_hit = s.pool.wait_warm(&item.fqdn, s.clock.now_ms() + herd_ms);
            }
            match herd_hit {
                Some(c) => (c, false),
                None => {
                    let mb = reg.spec.limits.memory_mb;
                    if !s.pool.reserve(mb) {
                        return Err(InvokeError::NoResources);
                    }
                    match s.backend.create(&reg.spec) {
                        Ok(c) => {
                            s.cold_starts.fetch_add(1, Ordering::Relaxed);
                            (Arc::new(c), true)
                        }
                        Err(e) => {
                            s.pool.unreserve(mb);
                            return Err(InvokeError::Backend(e.to_string()));
                        }
                    }
                }
            }
        }
    };
    let acquired = s.clock.now_us();
    let timeline = &mut item.result_tx.timeline;
    timeline.stamp(Stage::Acquired, acquired);
    timeline.cold |= cold;
    let event = TraceEventKind::ContainerAcquired { cold };
    s.journal.record(item.trace_id, event, acquired);
    finish_invoke(s, reg, item, container, cold, agent)
}

/// The post-acquisition half of the hot path: agent round trip, container
/// return, result assembly.
fn finish_invoke(
    s: &Shared,
    reg: &Registration,
    item: &mut QueuedInvocation,
    container: SharedContainer,
    cold: bool,
    agent: &mut AgentCompanion,
) -> Result<InvocationResult, InvokeError> {
    // --- agent communication ---------------------------------------------
    let called = s.clock.now_us();
    item.result_tx.timeline.stamp(Stage::Called, called);
    s.journal
        .record(item.trace_id, TraceEventKind::AgentCalled, called);
    let args: &str = &item.args;
    let trace_hex = format!("{:016x}", item.trace_id);
    let tenant = item.tenant.as_deref();
    let timeout_ms = s.cfg.resilience.agent_timeout_ms;
    let invoked = if timeout_ms == 0 {
        s.backend
            .invoke_ctx(&container, args, Some(&trace_hex), tenant)
    } else {
        // Bound the agent hop: the runner's companion makes the call and
        // is abandoned on timeout. The container is quarantined below, so
        // the orphaned call can only touch a container already leaving the
        // pool.
        let call = AgentCall {
            container: Arc::clone(&container),
            args: args.to_string(),
            trace_hex,
            tenant: item.tenant.clone(),
        };
        match agent.call(&s.backend, call, Duration::from_millis(timeout_ms)) {
            Some(r) => r,
            None => {
                s.agent_timeouts.fetch_add(1, Ordering::Relaxed);
                let now = s.clock.now_us();
                s.journal
                    .record(item.trace_id, TraceEventKind::AgentTimeout, now);
                Err(BackendError::InvokeFailed(format!(
                    "agent call timed out after {timeout_ms}ms"
                )))
            }
        }
    };
    let now = s.clock.now_us();
    item.result_tx.timeline.stamp(Stage::Answered, now);
    let output = match invoked {
        Ok(o) => o,
        Err(e) => {
            // A failed container is not returned to the pool: quarantine it
            // (memory freed, container routed to the destroyer).
            s.quarantined.fetch_add(1, Ordering::Relaxed);
            let now = s.clock.now_us();
            s.journal
                .record(item.trace_id, TraceEventKind::ContainerQuarantined, now);
            s.pool.discard(container);
            return Err(InvokeError::Backend(e.to_string()));
        }
    };
    let body = output.body;
    let now = s.clock.now_us();
    item.result_tx.timeline.stamp(Stage::Downloaded, now);

    // --- return container to keep-alive pool ------------------------------
    s.pool.release(container, init_cost(s, reg));
    let released = s.clock.now_us();
    let timeline = &mut item.result_tx.timeline;
    timeline.stamp(Stage::Released, released);
    let dequeued_ms = timeline.get(Stage::Dequeued).unwrap_or(released) / 1000;
    Ok(InvocationResult {
        body,
        exec_ms: output.exec_ms,
        e2e_ms: (released / 1000).saturating_sub(item.arrived_at),
        cold,
        queue_ms: dequeued_ms.saturating_sub(item.arrived_at),
        arrived_at: item.arrived_at,
        trace_id: item.trace_id,
        tenant: item.tenant.clone(),
        cache: CacheStatus::Bypass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KeepalivePolicyKind, QueuePolicyKind};
    use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
    use iluvatar_containers::ResourceLimits;
    use iluvatar_sync::SystemClock;

    /// A worker over the null backend with real (system) time, with all
    /// modelled latencies shrunk 100× so tests run in milliseconds.
    fn test_worker(cfg: WorkerConfig) -> Worker {
        let clock = SystemClock::shared();
        let backend = Arc::new(SimBackend::new(
            Arc::clone(&clock),
            SimBackendConfig {
                time_scale: 0.05,
                ..Default::default()
            },
        ));
        Worker::new(cfg, backend, clock)
    }

    fn spec(name: &str, warm: u64, init: u64, mb: u64) -> FunctionSpec {
        FunctionSpec::new(name, "1")
            .with_timing(warm, init)
            .with_limits(ResourceLimits {
                cpus: 1.0,
                memory_mb: mb,
            })
    }

    #[test]
    fn invoke_unregistered_fails() {
        let w = test_worker(WorkerConfig::for_testing());
        assert!(matches!(
            w.invoke_tenant("ghost-1", "{}", None),
            Err(InvokeError::NotRegistered(_))
        ));
    }

    #[test]
    fn cold_then_warm_invocation() {
        let w = test_worker(WorkerConfig::for_testing());
        w.register(spec("f", 100, 900, 128)).unwrap();
        let r1 = w.invoke_tenant("f-1", "{}", None).unwrap();
        assert!(r1.cold, "first invocation is a cold start");
        assert_eq!(r1.exec_ms, 50, "cold = (warm + init) at 0.05 time scale");
        let r2 = w.invoke_tenant("f-1", "{}", None).unwrap();
        assert!(!r2.cold, "second hits the warm container");
        assert_eq!(r2.exec_ms, 5, "warm at 0.05 time scale");
        let st = w.status();
        assert_eq!(st.completed, 2);
        assert_eq!(st.cold_starts, 1);
        assert_eq!(st.warm_hits, 1);
    }

    #[test]
    fn prewarm_absorbs_cold_start() {
        let w = test_worker(WorkerConfig::for_testing());
        w.register(spec("f", 100, 900, 128)).unwrap();
        w.prewarm("f-1").unwrap();
        let r = w.invoke_tenant("f-1", "{}", None).unwrap();
        assert!(!r.cold, "prewarmed container serves a warm start");
        // Note: the null backend charges init on the first *invoke*; the
        // control plane still counts it warm because no sandbox was created
        // on the critical path.
        assert_eq!(w.status().cold_starts, 0);
    }

    #[test]
    fn async_invoke_returns_immediately() {
        let w = test_worker(WorkerConfig::for_testing());
        w.register(spec("f", 200, 0, 128)).unwrap();
        let h = w.async_invoke_tenant("f-1", "{}", None).unwrap();
        let r = h.wait().unwrap();
        assert_eq!(r.exec_ms, 10, "200ms at 0.05 time scale");
    }

    #[test]
    fn concurrent_invocations_bounded_by_limit() {
        let mut cfg = WorkerConfig::for_testing();
        cfg.concurrency.limit = 2;
        let w = Arc::new(test_worker(cfg));
        w.register(spec("f", 500, 0, 64)).unwrap();
        let handles: Vec<_> = (0..6)
            .map(|_| w.async_invoke_tenant("f-1", "{}", None).unwrap())
            .collect();
        // While in flight, running may never exceed the limit.
        let mut peak = 0;
        for _ in 0..50 {
            peak = peak.max(w.status().running);
            std::thread::sleep(Duration::from_millis(2));
        }
        for h in handles {
            h.wait().unwrap();
        }
        assert!(peak <= 2, "running peaked at {peak} > limit 2");
        assert_eq!(w.status().completed, 6);
    }

    #[test]
    fn queue_full_drops() {
        let mut cfg = WorkerConfig::for_testing();
        cfg.queue.max_len = 1;
        cfg.concurrency.limit = 1;
        let w = test_worker(cfg);
        w.register(spec("f", 300, 0, 64)).unwrap();
        let _h1 = w.async_invoke_tenant("f-1", "{}", None).unwrap();
        // Fill: one running (may still be queued briefly), one queued, rest dropped.
        let mut dropped = 0;
        let mut handles = Vec::new();
        for _ in 0..12 {
            match w.async_invoke_tenant("f-1", "{}", None) {
                Ok(h) => handles.push(h),
                Err(InvokeError::QueueFull) => dropped += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(dropped > 0, "backpressure must trigger");
        assert!(w.status().dropped >= dropped as u64);
    }

    #[test]
    fn memory_exhaustion_drops_invocation() {
        let mut cfg = WorkerConfig::for_testing();
        cfg.memory_mb = 100; // too small for even one container
        let w = test_worker(cfg);
        w.register(spec("f", 10, 0, 128)).unwrap();
        assert!(matches!(
            w.invoke_tenant("f-1", "{}", None),
            Err(InvokeError::NoResources)
        ));
        assert_eq!(w.status().dropped, 1);
    }

    #[test]
    fn keepalive_eviction_under_memory_pressure() {
        let mut cfg = WorkerConfig::for_testing();
        cfg.memory_mb = 256;
        cfg.free_buffer_mb = 0;
        cfg.keepalive = KeepalivePolicyKind::Lru;
        let w = test_worker(cfg);
        w.register(spec("a", 10, 0, 128)).unwrap();
        w.register(spec("b", 10, 0, 128)).unwrap();
        w.register(spec("c", 10, 0, 128)).unwrap();
        w.invoke_tenant("a-1", "{}", None).unwrap();
        w.invoke_tenant("b-1", "{}", None).unwrap();
        w.invoke_tenant("c-1", "{}", None).unwrap(); // forces eviction of a
        let r = w.invoke_tenant("b-1", "{}", None).unwrap();
        assert!(!r.cold, "b stayed warm");
        let r = w.invoke_tenant("a-1", "{}", None).unwrap();
        assert!(r.cold, "a was evicted (LRU)");
    }

    #[test]
    fn bypass_short_functions() {
        let mut cfg = WorkerConfig::for_testing();
        cfg.queue.bypass_threshold_ms = 1000;
        cfg.queue.policy = QueuePolicyKind::Eedf;
        let w = test_worker(cfg);
        w.register(spec("tiny", 100, 0, 64)).unwrap();
        w.invoke_tenant("tiny-1", "{}", None).unwrap(); // first: unseen, expected 0 → queued
        w.invoke_tenant("tiny-1", "{}", None).unwrap(); // now known-short → bypass
        w.invoke_tenant("tiny-1", "{}", None).unwrap();
        let s = &w.shared;
        assert!(s.queue.bypassed() >= 2, "bypassed {}", s.queue.bypassed());
    }

    #[test]
    fn status_reports_load() {
        let w = test_worker(WorkerConfig::for_testing());
        w.register(spec("f", 50, 0, 64)).unwrap();
        let st = w.status();
        assert_eq!(st.name, "test-worker");
        assert_eq!(st.normalized_load, 0.0);
        assert_eq!(st.free_mem_mb, 1024);
        let _h: Vec<_> = (0..4)
            .map(|_| w.async_invoke_tenant("f-1", "{}", None).unwrap())
            .collect();
        // Some load should be visible while in flight (best effort).
        let _ = w.status();
    }

    #[test]
    fn status_walks_the_warm_pool_once() {
        let w = test_worker(WorkerConfig::for_testing());
        w.register(spec("f", 50, 0, 64)).unwrap();
        w.register(spec("g", 50, 0, 128)).unwrap();
        w.prewarm("f-1").unwrap();
        w.prewarm("g-1").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let st = w.status();
        // The list and its total come from the same walk, so they agree to
        // the bit — two walks would each read their own clock.
        let listed: Vec<&str> = st.warm_residency.iter().map(|r| r.fqdn.as_str()).collect();
        assert_eq!(listed, ["f-1", "g-1"]);
        let sum: f64 = st.warm_residency.iter().map(|r| r.gb_s).sum();
        assert!(st.warm_gb_s > 0.0);
        assert_eq!(sum, st.warm_gb_s);
        // The balancer's per-invocation step rides the same status.
        assert_eq!(st.cores, WorkerConfig::for_testing().cores);
    }

    #[test]
    fn spans_populated_after_invocations() {
        let w = test_worker(WorkerConfig::for_testing());
        w.register(spec("f", 20, 0, 64)).unwrap();
        for _ in 0..3 {
            w.invoke_tenant("f-1", "{}", None).unwrap();
        }
        for name in [
            "invoke",
            "sync_invoke",
            "enqueue_invocation",
            "acquire_container",
            "call_container",
            "return_container",
            "return_results",
        ] {
            assert!(
                w.spans().export().iter().any(|e| e.name == name),
                "span {name} missing after invocations"
            );
        }
    }

    #[test]
    fn shutdown_then_invoke_fails() {
        let mut w = test_worker(WorkerConfig::for_testing());
        w.register(spec("f", 10, 0, 64)).unwrap();
        w.invoke_tenant("f-1", "{}", None).unwrap();
        w.shutdown();
        assert!(matches!(
            w.invoke_tenant("f-1", "{}", None),
            Err(InvokeError::ShuttingDown)
        ));
    }

    #[test]
    fn an_idle_worker_shuts_down_and_dies_at_once() {
        for kill in [false, true] {
            let mut w = test_worker(WorkerConfig::default());
            // Let the timer and the destroyer reach their waits.
            std::thread::sleep(Duration::from_millis(50));
            let t0 = std::time::Instant::now();
            if kill {
                w.kill();
            } else {
                w.shutdown();
            }
            let took = t0.elapsed();
            assert!(
                took <= Duration::from_millis(100),
                "{} took {took:?}",
                if kill { "kill" } else { "shutdown" }
            );
        }
    }

    #[test]
    fn herd_suppression_waits_for_warm_container() {
        // Limit 2 so the herd invocations can run concurrently; the herd
        // waiter should reuse the first invocation's container instead of
        // paying a second ("spawn start") cold start.
        let mut cfg = WorkerConfig::for_testing();
        cfg.queue.herd_wait_ms = 2_000;
        cfg.concurrency.limit = 4;
        let w = test_worker(cfg);
        w.register(spec("f", 1000, 4000, 128)).unwrap();
        // Two near-simultaneous invocations of the same cold function.
        let h1 = w.async_invoke_tenant("f-1", "{}", None).unwrap();
        let h2 = w.async_invoke_tenant("f-1", "{}", None).unwrap();
        let r1 = h1.wait().unwrap();
        let r2 = h2.wait().unwrap();
        let colds = [r1.cold, r2.cold].iter().filter(|&&c| c).count();
        assert_eq!(
            colds, 1,
            "herd suppression avoids the concurrent cold start"
        );
        assert_eq!(w.status().cold_starts, 1);
    }

    #[test]
    fn herd_third_invocation_waits_behind_a_running_waiter() {
        let mut cfg = WorkerConfig::for_testing();
        cfg.queue.herd_wait_ms = 2_000;
        cfg.concurrency.limit = 4;
        let w = test_worker(cfg);
        w.register(spec("f", 1000, 4000, 128)).unwrap();
        // Whichever of the two found the function idle creates the
        // container and answers first; the other needs that container for
        // a 50 ms warm run, so the third arrives while it still runs.
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..2 {
            let (tx, h) = (
                tx.clone(),
                w.async_invoke_tenant("f-1", "{}", None).unwrap(),
            );
            std::thread::spawn(move || tx.send(h.wait().unwrap()).unwrap());
        }
        let r1 = rx.recv().unwrap();
        let r3 = w.invoke_tenant("f-1", "{}", None).unwrap();
        let r2 = rx.recv().unwrap();
        let colds = [r1.cold, r2.cold, r3.cold].iter().filter(|&&c| c).count();
        assert_eq!(colds, 1, "one cold start serves the whole herd");
        assert_eq!(w.status().cold_starts, 1);
    }

    #[test]
    fn herd_disabled_spawn_starts() {
        let mut cfg = WorkerConfig::for_testing();
        cfg.queue.herd_wait_ms = 0;
        cfg.concurrency.limit = 4;
        let w = test_worker(cfg);
        w.register(spec("f", 1000, 4000, 128)).unwrap();
        let h1 = w.async_invoke_tenant("f-1", "{}", None).unwrap();
        let h2 = w.async_invoke_tenant("f-1", "{}", None).unwrap();
        let r1 = h1.wait().unwrap();
        let r2 = h2.wait().unwrap();
        assert!(r1.cold && r2.cold, "without suppression both cold-start");
    }

    #[test]
    fn predictive_prewarm_with_hist_policy() {
        let mut cfg = WorkerConfig::for_testing();
        cfg.keepalive = KeepalivePolicyKind::Hist;
        cfg.prewarm_horizon_ms = 200;
        let w = test_worker(cfg);
        w.register(spec("p", 100, 2000, 128)).unwrap();
        // HIST needs enough arrivals to call the function predictable; it
        // only observes arrivals through invoke, so the prediction test is
        // limited to: recommendations are empty for unpredictable fns and
        // the periodic task doesn't crash while running.
        for _ in 0..3 {
            w.invoke_tenant("p-1", "{}", None).unwrap();
        }
        std::thread::sleep(Duration::from_millis(300));
        assert!(w.status().completed == 3);
    }

    #[test]
    fn metrics_collected_in_background() {
        let w = test_worker(WorkerConfig::for_testing());
        w.register(spec("f", 200, 0, 64)).unwrap();
        w.invoke_tenant("f-1", "{}", None).unwrap();
        std::thread::sleep(Duration::from_millis(600));
        let m = w.metrics();
        assert!(m.samples >= 1, "metrics task must run");
        assert!(m.power_w >= 100.0, "at least idle power");
    }

    #[test]
    fn admission_throttles_rate_limited_tenant() {
        use iluvatar_admission::{AdmissionConfig, TenantSpec};
        let mut cfg = WorkerConfig::for_testing();
        // Burst of 1 and a negligible refill rate: the first invocation is
        // admitted, the second deterministically throttled.
        cfg.admission =
            AdmissionConfig::enabled_with(vec![TenantSpec::new("free").with_rate(0.001, 1.0)]);
        let w = test_worker(cfg);
        w.register(spec("f", 20, 0, 64)).unwrap();
        let r = w.invoke_tenant("f-1", "{}", Some("free")).unwrap();
        assert_eq!(r.tenant.as_deref(), Some("free"));
        match w.invoke_tenant("f-1", "{}", Some("free")) {
            Err(InvokeError::Throttled(t)) => assert_eq!(t, "free"),
            other => panic!("expected Throttled, got {other:?}"),
        }
        let st = w.status();
        assert_eq!(st.dropped_admission, 1);
        let tstats = w.tenant_stats();
        let free = tstats.iter().find(|t| t.tenant == "free").unwrap();
        assert_eq!(free.admitted, 1);
        assert_eq!(free.throttled, 1);
        assert_eq!(free.served, 1);
        // Unlimited tenants are unaffected.
        w.invoke_tenant("f-1", "{}", Some("other")).unwrap();
    }

    #[test]
    fn admission_sheds_best_effort_but_not_guaranteed() {
        use iluvatar_admission::{AdmissionConfig, PriorityClass, TenantSpec};
        let mut cfg = WorkerConfig::for_testing();
        cfg.concurrency.limit = 1;
        cfg.admission = AdmissionConfig {
            enabled: true,
            shed_queue_delay_ms: 5,
            tenants: vec![
                TenantSpec::new("paid").with_class(PriorityClass::Guaranteed),
                TenantSpec::new("free"),
            ],
        };
        let w = test_worker(cfg);
        w.register(spec("slow", 1500, 0, 64)).unwrap(); // 75ms at 0.05 scale
                                                        // Saturate: one runs, the rest queue behind it.
        let handles: Vec<_> = (0..4)
            .map(|_| w.async_invoke_tenant("slow-1", "{}", Some("paid")).unwrap())
            .collect();
        // Wait until a queued invocation has been dequeued, so the observed
        // queue delay (≥ one execution, 75ms) exceeds the 5ms threshold.
        for _ in 0..500 {
            if w.status().completed >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(w.status().completed >= 2, "saturation did not develop");
        match w.invoke_tenant("slow-1", "{}", Some("free")) {
            Err(InvokeError::Shed(t)) => assert_eq!(t, "free"),
            other => panic!("expected Shed for best-effort, got {other:?}"),
        }
        // Guaranteed class is still admitted under the same overload.
        let h = w.async_invoke_tenant("slow-1", "{}", Some("paid")).unwrap();
        for hh in handles {
            hh.wait().unwrap();
        }
        h.wait().unwrap();
        let tstats = w.tenant_stats();
        let freet = tstats.iter().find(|t| t.tenant == "free").unwrap();
        let paid = tstats.iter().find(|t| t.tenant == "paid").unwrap();
        assert_eq!(freet.shed, 1);
        assert_eq!(paid.shed, 0);
        assert_eq!(paid.served, 5);
    }

    #[test]
    fn registration_tenant_is_the_default_label() {
        use iluvatar_admission::AdmissionConfig;
        let mut cfg = WorkerConfig::for_testing();
        cfg.admission = AdmissionConfig {
            enabled: true,
            ..Default::default()
        };
        let w = test_worker(cfg);
        w.register(spec("f", 20, 0, 64).with_tenant("acme"))
            .unwrap();
        let r = w.invoke_tenant("f-1", "{}", None).unwrap();
        assert_eq!(
            r.tenant.as_deref(),
            Some("acme"),
            "spec tenant used by default"
        );
        // An explicit per-invocation label overrides the registration.
        let r = w.invoke_tenant("f-1", "{}", Some("umbrella")).unwrap();
        assert_eq!(r.tenant.as_deref(), Some("umbrella"));
        let tstats = w.tenant_stats();
        assert!(tstats.iter().any(|t| t.tenant == "acme" && t.served == 1));
        assert!(tstats
            .iter()
            .any(|t| t.tenant == "umbrella" && t.served == 1));
    }

    #[test]
    fn admission_disabled_reports_no_tenants() {
        let w = test_worker(WorkerConfig::for_testing());
        w.register(spec("f", 20, 0, 64)).unwrap();
        let r = w.invoke_tenant("f-1", "{}", Some("acme")).unwrap();
        // The label still threads through to the result and agent hop...
        assert_eq!(r.tenant.as_deref(), Some("acme"));
        // ...but no accounting happens on the disabled hot path.
        assert!(w.tenant_stats().is_empty());
        assert_eq!(w.status().dropped_admission, 0);
    }

    #[test]
    fn drr_worker_serves_tenants_by_weight() {
        use iluvatar_admission::{AdmissionConfig, TenantSpec};
        let mut cfg = WorkerConfig::for_testing();
        cfg.queue.policy = QueuePolicyKind::Drr;
        cfg.concurrency.limit = 1;
        cfg.admission = AdmissionConfig::enabled_with(vec![
            TenantSpec::new("gold").with_weight(3.0),
            TenantSpec::new("bronze").with_weight(1.0),
        ]);
        let w = test_worker(cfg);
        w.register(spec("f", 200, 0, 64)).unwrap();
        // Prime the characteristics store so queued items carry a cost.
        w.invoke_tenant("f-1", "{}", Some("gold")).unwrap();
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let t = if i % 2 == 0 { "gold" } else { "bronze" };
                w.async_invoke_tenant("f-1", "{}", Some(t)).unwrap()
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let tstats = w.tenant_stats();
        let gold = tstats.iter().find(|t| t.tenant == "gold").unwrap();
        let bronze = tstats.iter().find(|t| t.tenant == "bronze").unwrap();
        // Everything completes eventually (work-conserving, no starvation).
        assert_eq!(gold.served + bronze.served, 13);
    }

    #[test]
    fn characteristics_learned_from_invocations() {
        let w = test_worker(WorkerConfig::for_testing());
        w.register(spec("f", 100, 400, 64)).unwrap();
        w.invoke_tenant("f-1", "{}", None).unwrap();
        w.invoke_tenant("f-1", "{}", None).unwrap();
        let s = w.characteristics().summary("f-1");
        assert_eq!(s.invocations, 2);
        assert_eq!(s.cold_starts, 1);
        assert_eq!(s.cold_ms, 25.0, "(100+400)ms at 0.05 scale");
        assert_eq!(s.warm_ms, 5.0);
        assert_eq!(w.characteristics().init_cost_ms("f-1"), 20.0);
    }

    #[test]
    fn aimd_raise_grows_the_pool_but_never_past_max_limit() {
        let mut cfg = WorkerConfig::for_testing();
        cfg.concurrency = crate::config::ConcurrencyConfig {
            limit: 1,
            dynamic: true,
            congestion_load: 1e9, // never congested: the limit only rises
            interval_ms: 5,
            max_limit: 3,
            ..Default::default()
        };
        let w = test_worker(cfg);
        w.register(spec("f", 400, 0, 64)).unwrap(); // 20 ms real
        let handles: Vec<_> = (0..24)
            .map(|_| w.async_invoke_tenant("f-1", "{}", None).unwrap())
            .collect();
        for h in handles {
            h.wait().unwrap();
            assert!(w.shared.executor_count.load(Ordering::Relaxed) <= 3);
        }
        assert_eq!(w.shared.regulator.limit(), 3);
        assert_eq!(
            w.shared.executor_count.load(Ordering::Relaxed),
            3,
            "the backlog behind one executor drew the pool up with the limit"
        );
    }

    /// `SimBackend` that notes the thread making each agent call and hangs
    /// the calls it is told to.
    struct CallerNoting {
        sim: SimBackend,
        callers: Mutex<Vec<(std::thread::ThreadId, String)>>,
        hang_ms: AtomicU64,
    }

    impl ContainerBackend for CallerNoting {
        fn name(&self) -> &'static str {
            "caller-noting"
        }
        fn create(
            &self,
            spec: &FunctionSpec,
        ) -> Result<iluvatar_containers::Container, BackendError> {
            self.sim.create(spec)
        }
        fn invoke(
            &self,
            c: &iluvatar_containers::Container,
            args: &str,
        ) -> Result<InvokeOutput, BackendError> {
            let me = std::thread::current();
            self.callers
                .lock()
                .push((me.id(), me.name().unwrap_or("?").to_string()));
            std::thread::sleep(Duration::from_millis(
                self.hang_ms.swap(0, Ordering::SeqCst),
            ));
            self.sim.invoke(c, args)
        }
        fn destroy(&self, c: &iluvatar_containers::Container) -> Result<(), BackendError> {
            self.sim.destroy(c)
        }
    }

    #[test]
    fn agent_timeout_reuses_one_companion_until_a_timeout_abandons_it() {
        let clock = SystemClock::shared();
        let backend = Arc::new(CallerNoting {
            sim: SimBackend::new(
                Arc::clone(&clock),
                SimBackendConfig {
                    time_scale: 0.05,
                    ..Default::default()
                },
            ),
            callers: Mutex::new(Vec::new()),
            hang_ms: AtomicU64::new(0),
        });
        let mut cfg = WorkerConfig::for_testing();
        cfg.concurrency.limit = 1;
        cfg.resilience.agent_timeout_ms = 100;
        let w = Worker::new(cfg, Arc::clone(&backend) as _, clock);
        w.register(spec("f", 20, 0, 64)).unwrap();

        for _ in 0..10 {
            w.invoke_tenant("f-1", "{}", None).unwrap();
        }
        let healthy = backend.callers.lock().clone();
        assert!(healthy.iter().all(|(_, n)| n == "iluvatar-agent-call"));
        assert!(
            healthy.iter().all(|(id, _)| *id == healthy[0].0),
            "ten healthy calls, one executor: one companion, spawned once"
        );

        backend.hang_ms.store(400, Ordering::SeqCst);
        assert!(matches!(
            w.invoke_tenant("f-1", "{}", None),
            Err(InvokeError::Backend(m)) if m.contains("timed out")
        ));
        w.invoke_tenant("f-1", "{}", None).unwrap();
        let after = backend.callers.lock().last().unwrap().0;
        assert_ne!(after, healthy[0].0, "the hung companion was replaced");
        assert_eq!(w.status().agent_timeouts, 1);
    }

    #[test]
    fn caller_runs_borrow_the_workers_companion_whatever_thread_calls() {
        let clock = SystemClock::shared();
        let backend = Arc::new(CallerNoting {
            sim: SimBackend::new(Arc::clone(&clock), SimBackendConfig::default()),
            callers: Mutex::new(Vec::new()),
            hang_ms: AtomicU64::new(0),
        });
        let mut cfg = WorkerConfig::for_testing();
        cfg.resilience.agent_timeout_ms = 1_000;
        let w = Worker::new(cfg, Arc::clone(&backend) as _, clock);
        w.register(spec("f", 1, 0, 64)).unwrap();
        // A fresh thread per call, as a client that opens a connection per
        // request makes: each runs its call in place on the idle worker.
        for _ in 0..5 {
            std::thread::scope(|t| {
                t.spawn(|| w.invoke_tenant("f-1", "{}", None).unwrap());
            });
        }
        let calls = backend.callers.lock().clone();
        assert_eq!(calls.len(), 5);
        assert!(calls.iter().all(|(_, n)| n == "iluvatar-agent-call"));
        assert!(
            calls.iter().all(|(id, _)| *id == calls[0].0),
            "five calling threads, one companion, spawned once"
        );
        assert_eq!(w.shared.caller_agents.lock().len(), 1);
    }

    /// Storage whose fsyncs park while the gate is held: `(held, entered)`.
    #[derive(Default)]
    struct SyncGate {
        st: Mutex<(bool, usize)>,
        cv: parking_lot::Condvar,
    }

    struct GatedStorage(Arc<SyncGate>);

    struct GatedFile(Box<dyn iluvatar_sync::storage::StorageFile>, Arc<SyncGate>);

    impl iluvatar_sync::storage::StorageFile for GatedFile {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            self.0.write_all(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.0.flush()
        }
        fn sync(&mut self) -> std::io::Result<()> {
            let mut st = self.1.st.lock();
            st.1 += 1;
            self.1.cv.notify_all();
            while st.0 {
                self.1.cv.wait(&mut st);
            }
            drop(st);
            self.0.sync()
        }
    }

    impl Storage for GatedStorage {
        fn open_append(
            &self,
            path: &Path,
        ) -> std::io::Result<Box<dyn iluvatar_sync::storage::StorageFile>> {
            Ok(Box::new(GatedFile(
                RealStorage.open_append(path)?,
                Arc::clone(&self.0),
            )))
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            RealStorage.read(path)
        }
        fn remove(&self, path: &Path) -> std::io::Result<()> {
            RealStorage.remove(path)
        }
        fn list(&self, dir: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
            RealStorage.list(dir)
        }
    }

    /// Storage that fails every write and open while `full` is set (ENOSPC).
    struct FullStorage(Arc<AtomicBool>);

    struct FullFile(
        Box<dyn iluvatar_sync::storage::StorageFile>,
        Arc<AtomicBool>,
    );

    fn enospc(full: &AtomicBool) -> std::io::Result<()> {
        if full.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("no space left on device"));
        }
        Ok(())
    }

    impl iluvatar_sync::storage::StorageFile for FullFile {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            enospc(&self.1)?;
            self.0.write_all(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.0.flush()
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.0.sync()
        }
    }

    impl Storage for FullStorage {
        fn open_append(
            &self,
            path: &Path,
        ) -> std::io::Result<Box<dyn iluvatar_sync::storage::StorageFile>> {
            enospc(&self.0)?;
            Ok(Box::new(FullFile(
                RealStorage.open_append(path)?,
                Arc::clone(&self.0),
            )))
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            RealStorage.read(path)
        }
        fn remove(&self, path: &Path) -> std::io::Result<()> {
            RealStorage.remove(path)
        }
        fn list(&self, dir: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
            RealStorage.list(dir)
        }
    }

    #[test]
    fn an_idle_degraded_wal_rearms_without_appends() {
        let dir =
            std::env::temp_dir().join(format!("iluvatar-worker-idle-rearm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = WorkerConfig::for_testing();
        cfg.lifecycle =
            crate::config::LifecycleConfig::with_wal(dir.join("q.wal").to_str().unwrap());
        cfg.lifecycle.wal.on_error = "degrade".into();
        cfg.lifecycle.wal.retry_limit = 0;
        // No append re-arms lazily within the test: the task must.
        cfg.lifecycle.wal.rearm_after_ms = 600_000;
        let full = Arc::new(AtomicBool::new(false));
        let clock = SystemClock::shared();
        let backend = Arc::new(SimBackend::new(
            Arc::clone(&clock),
            SimBackendConfig {
                time_scale: 0.05,
                ..Default::default()
            },
        ));
        let w = Worker::new_with_storage(
            cfg,
            backend,
            clock,
            Arc::new(FullStorage(Arc::clone(&full))),
        );
        w.register(spec("f", 10, 0, 64)).unwrap();
        full.store(true, Ordering::SeqCst);
        w.invoke_tenant("f-1", "{}", None).unwrap();
        assert!(w.status().wal_degraded, "a full disk degrades the log");
        full.store(false, Ordering::SeqCst);
        let t0 = std::time::Instant::now();
        while w.status().wal_degraded && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!w.status().wal_degraded, "the idle log never re-armed");
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_synchronous_caller_holds_no_run_permit_through_its_durable_accept() {
        let wal = std::env::temp_dir().join(format!(
            "iluvatar-worker-caller-fsync-{}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&wal);
        let mut cfg = WorkerConfig::for_testing();
        cfg.concurrency.limit = 1;
        cfg.queue.bypass_threshold_ms = 0;
        cfg.lifecycle = crate::config::LifecycleConfig::with_wal(wal.to_str().unwrap());
        cfg.lifecycle.wal.fsync = "always".into();
        let gate = Arc::new(SyncGate::default());
        let clock = SystemClock::shared();
        let backend = Arc::new(SimBackend::new(
            Arc::clone(&clock),
            SimBackendConfig {
                time_scale: 0.05,
                ..Default::default()
            },
        ));
        let w = Worker::new_with_storage(
            cfg,
            backend,
            clock,
            Arc::new(GatedStorage(Arc::clone(&gate))),
        );
        w.register(spec("f", 20, 0, 64)).unwrap();
        let entered = {
            let mut st = gate.st.lock();
            st.0 = true;
            st.1
        };
        std::thread::scope(|t| {
            let caller = t.spawn(|| w.invoke_tenant("f-1", "{}", None));
            let mut st = gate.st.lock();
            while st.1 == entered {
                gate.cv.wait(&mut st);
            }
            // The caller is inside the fsync of its `Enqueued` record.
            let running = w.shared.regulator.running();
            st.0 = false;
            gate.cv.notify_all();
            drop(st);
            caller.join().unwrap().unwrap();
            assert_eq!(
                running, 0,
                "no run permit is held while the accept waits for the disk"
            );
        });
        drop(w);
        let _ = std::fs::remove_file(&wal);
    }

    /// A dequeue writes nothing to the log, so it never waits for the disk:
    /// while another append's group fsync is held (and the writer lock with
    /// it), an executor pops a queued durable invocation and reaches its
    /// agent call.
    #[test]
    fn a_dequeue_does_not_wait_behind_a_held_fsync() {
        let dir = std::env::temp_dir().join(format!(
            "iluvatar-worker-dequeue-fsync-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = WorkerConfig::for_testing();
        cfg.concurrency.limit = 1;
        cfg.queue.bypass_threshold_ms = 0;
        cfg.lifecycle =
            crate::config::LifecycleConfig::with_wal(dir.join("q.wal").to_str().unwrap());
        cfg.lifecycle.wal.fsync = "group".into();
        let gate = Arc::new(SyncGate::default());
        let clock = SystemClock::shared();
        let backend = Arc::new(CallerNoting {
            sim: SimBackend::new(
                Arc::clone(&clock),
                SimBackendConfig {
                    time_scale: 0.05,
                    ..Default::default()
                },
            ),
            callers: Mutex::new(Vec::new()),
            hang_ms: AtomicU64::new(0),
        });
        let w = Worker::new_with_storage(
            cfg,
            Arc::clone(&backend) as _,
            clock,
            Arc::new(GatedStorage(Arc::clone(&gate))),
        );
        w.register(spec("f", 20, 0, 64)).unwrap();
        // Hold the only run permit: the next submission is durable and stays
        // queued.
        let permit = w.shared.regulator.try_acquire().expect("an idle permit");
        let queued = w.async_invoke_tenant("f-1", "{}", None).unwrap();
        let entered = {
            let mut st = gate.st.lock();
            st.0 = true;
            st.1
        };
        std::thread::scope(|t| {
            // A second submission leads a group commit and parks in its
            // fsync, holding the writer lock.
            let parked = t.spawn(|| w.async_invoke_tenant("f-1", "{}", None));
            let mut st = gate.st.lock();
            while st.1 == entered {
                gate.cv.wait(&mut st);
            }
            drop(st);
            // A permit released by a thread that is not an executor.
            drop(permit);
            w.shared.queue.wake_all();
            let t0 = std::time::Instant::now();
            while backend.callers.lock().is_empty() && t0.elapsed() < Duration::from_secs(2) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let reached = !backend.callers.lock().is_empty();
            let mut st = gate.st.lock();
            st.0 = false;
            gate.cv.notify_all();
            drop(st);
            parked.join().unwrap().unwrap().wait().unwrap();
            assert!(reached, "the dequeue waited behind another append's fsync");
        });
        queued.wait().unwrap();
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
