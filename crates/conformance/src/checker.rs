//! The conformance checker: replays a canonical telemetry stream (or a raw
//! WAL file) against the reference models and reports the first violating
//! event with a bounded window of preceding context — the offline analogue
//! of the flight recorder.
//!
//! One [`Checker`] multiplexes each event onto the model it belongs to:
//!
//! * `wal:*` / `wal_poisoned`  → [`WalModel`] (and optionally [`DrrModel`])
//! * `breaker:*`               → [`BreakerModel`]
//! * `membership:*` / `scale:*` / `lifecycle:*` → [`FleetModel`]
//! * `trace:*`                 → a per-invocation timeline machine (below);
//!   `trace:dequeued` is also [`DrrModel`]'s pop
//!
//! The timeline machine enforces the cross-model contracts that make the
//! durability story end-to-end: an accepted invocation's `trace:enqueued`
//! must follow a durable `wal:enqueued` (**accepted ⟹ durable**), a
//! dispatched invocation may not report a result before its completion
//! record landed (**no result before durable**, suspended per source once
//! that source's WAL is poisoned), and the WAL's `ok` must agree with the
//! reported result (**exactly-once accounting**).

use crate::breaker_model::BreakerModel;
use crate::cache_model::CacheModel;
use crate::dispatch_model::DispatchModel;
use crate::drr_model::{DrrMode, DrrModel};
use crate::fleet_model::FleetModel;
use crate::wal_model::{TenantBook, WalModel};
use crate::ModelError;
use iluvatar_core::wal::WalRecord;
use iluvatar_telemetry::{TelemetryEvent, TelemetryKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A conformance violation: which model, which rule, the offending event,
/// and the window of events that led up to it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which reference model flagged it (`wal`, `drr`, `breaker`, `fleet`,
    /// `timeline`, `stream`).
    pub model: &'static str,
    /// The stable rule identifier from [`ModelError`].
    pub rule: &'static str,
    pub detail: String,
    /// The violating event (absent for end-of-stream checks).
    pub event: Option<TelemetryEvent>,
    /// Up to `context_window` events preceding the violation, oldest first.
    pub context: Vec<TelemetryEvent>,
}

fn render_event(ev: &TelemetryEvent) -> String {
    format!(
        "seq={} src={} trace={} tenant={} {}",
        ev.seq,
        ev.source,
        ev.trace_id
            .map(|t| t.to_string())
            .unwrap_or_else(|| "-".into()),
        ev.tenant.as_deref().unwrap_or("-"),
        ev.kind.label()
    )
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "violation [{}/{}]: {}",
            self.model, self.rule, self.detail
        )?;
        if let Some(ev) = &self.event {
            writeln!(f, "  at: {}", render_event(ev))?;
        }
        if !self.context.is_empty() {
            writeln!(f, "  preceding {} events:", self.context.len())?;
            for ev in &self.context {
                writeln!(f, "    {}", render_event(ev))?;
            }
        }
        Ok(())
    }
}

/// End-of-stream summary.
#[derive(Debug, Default)]
pub struct ConformanceReport {
    pub events: u64,
    pub violations: Vec<Violation>,
    /// Per-label event counts (deterministic digest input).
    pub label_counts: BTreeMap<String, u64>,
    /// Ids the WAL model holds accepted-but-not-terminal.
    pub wal_pending: Vec<u64>,
    /// The WAL model's per-tenant accounting books.
    pub wal_books: BTreeMap<String, TenantBook>,
    /// Dequeues checked against the DRR model (0 without one).
    pub drr_pops: u64,
}

impl ConformanceReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-invocation timeline state, driven by `trace:*` stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Fresh,
    Queued,
    Dispatched,
    Acquired,
    Called,
    RetryWait,
    Exhausted,
    Rejected,
    Done,
}

#[derive(Debug)]
struct Timeline {
    state: TState,
    source: String,
    dispatched: bool,
    wal_enqueued: bool,
    wal_completed_ok: Option<bool>,
    result_ok: Option<bool>,
}

/// The stream conformance checker. See the module docs for the mapping.
pub struct Checker {
    wal: WalModel,
    drr: Option<DrrModel>,
    breaker: BreakerModel,
    fleet: FleetModel,
    cache: CacheModel,
    dispatch: DispatchModel,
    timelines: BTreeMap<u64, Timeline>,
    /// Per-source seqs seen in the current epoch (duplicates are torn
    /// streams; ordering is not enforced because independent emitter
    /// threads may interleave between seq assignment and sink delivery).
    seqs: BTreeMap<String, BTreeSet<u64>>,
    /// Sources known to run with a write-ahead log (any `wal:*` seen).
    wal_sources: BTreeSet<String>,
    label_counts: BTreeMap<String, u64>,
    ctx: VecDeque<TelemetryEvent>,
    context_window: usize,
    require_terminal: bool,
    violations: Vec<Violation>,
    events: u64,
}

impl Default for Checker {
    fn default() -> Self {
        Self::new()
    }
}

impl Checker {
    pub fn new() -> Self {
        Self {
            wal: WalModel::new(),
            drr: None,
            breaker: BreakerModel::new(),
            fleet: FleetModel::new(),
            cache: CacheModel::new(),
            dispatch: DispatchModel::new(),
            timelines: BTreeMap::new(),
            seqs: BTreeMap::new(),
            wal_sources: BTreeSet::new(),
            label_counts: BTreeMap::new(),
            ctx: VecDeque::new(),
            context_window: 12,
            require_terminal: true,
            violations: Vec::new(),
            events: 0,
        }
    }

    /// Check DRR strictly: the stream's dequeue order must refine the
    /// model's pop order (single-threaded drivers only).
    pub fn with_drr_strict(mut self, quantum_ms: f64) -> Self {
        self.drr = Some(DrrModel::new(DrrMode::Strict, quantum_ms));
        self
    }

    /// Check DRR leniently: FIFO order within each tenant only (safe for
    /// live multi-threaded workers).
    pub fn with_drr_fifo(mut self, quantum_ms: f64) -> Self {
        self.drr = Some(DrrModel::new(DrrMode::FifoWithinTenant, quantum_ms));
        self
    }

    /// How many preceding events a violation carries as context.
    pub fn with_context_window(mut self, n: usize) -> Self {
        self.context_window = n;
        self
    }

    /// Whether `finish` demands every observed trace reached
    /// `result_returned` (disable for streams cut mid-flight).
    pub fn with_require_terminal(mut self, yes: bool) -> Self {
        self.require_terminal = yes;
        self
    }

    /// Declare a worker present before the stream began (constructor-seeded
    /// cluster slot): occupies a membership slot, breaker starts Closed.
    pub fn seed_worker(mut self, target: &str) -> Self {
        self.fleet.seed(target);
        self.breaker.seed(target);
        self
    }

    /// A source legitimately restarted (recovered incarnation): its seq
    /// numbering begins again at 1 and its WAL poison is lifted.
    pub fn note_restart(&mut self, source: &str) {
        self.seqs.remove(source);
        self.wal.unpoison(source);
    }

    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    pub fn wal(&self) -> &WalModel {
        &self.wal
    }

    pub fn dispatch(&self) -> &DispatchModel {
        &self.dispatch
    }

    fn record(&mut self, model: &'static str, err: ModelError, ev: Option<&TelemetryEvent>) {
        self.violations.push(Violation {
            model,
            rule: err.rule,
            detail: err.detail,
            event: ev.cloned(),
            context: self.ctx.iter().cloned().collect(),
        });
    }

    /// Feed one canonical event. All applicable models advance; the first
    /// failed guard per event is recorded as a [`Violation`].
    pub fn ingest(&mut self, ev: &TelemetryEvent) {
        self.events += 1;
        *self.label_counts.entry(ev.kind.label()).or_default() += 1;
        if !self
            .seqs
            .entry(ev.source.clone())
            .or_default()
            .insert(ev.seq)
        {
            self.record(
                "stream",
                ModelError::new(
                    "seq-duplicate",
                    format!("source `{}` reused seq {}", ev.source, ev.seq),
                ),
                Some(ev),
            );
        }
        if let Err((model, err)) = self.apply(ev) {
            self.record(model, err, Some(ev));
        }
        if self.context_window > 0 {
            if self.ctx.len() == self.context_window {
                self.ctx.pop_front();
            }
            self.ctx.push_back(ev.clone());
        }
    }

    fn apply(&mut self, ev: &TelemetryEvent) -> Result<(), (&'static str, ModelError)> {
        let src = ev.source.as_str();
        match &ev.kind {
            TelemetryKind::Wal {
                op,
                cost_ms,
                weight,
                ok,
                throttled,
            } => {
                self.wal_sources.insert(src.to_string());
                if self.wal.is_poisoned(src) {
                    // A landed append's telemetry emit happens after the WAL
                    // lock is released, so it can legitimately arrive on the
                    // stream *after* kill's WalPoisoned marker. The append
                    // itself raced ahead of the poison; only ops appearing
                    // after the source recovers are held to the model again.
                    // Append-after-poison stays enforced in file mode and in
                    // the WalModel unit tests.
                    return Ok(());
                }
                if op == "snapshot" {
                    // Stream snapshots are compaction markers; the live
                    // stream never replays across them, so the cumulative
                    // model just keeps going.
                    return Ok(());
                }
                let Some(id) = ev.trace_id else {
                    return Err((
                        "wal",
                        ModelError::new(
                            "wal-missing-id",
                            format!("wal:{op} event carries no trace id"),
                        ),
                    ));
                };
                match op.as_str() {
                    "enqueued" => {
                        self.wal
                            .enqueued(
                                src,
                                id,
                                ev.tenant.as_deref(),
                                cost_ms.unwrap_or(0.0),
                                weight.unwrap_or(1.0),
                            )
                            .map_err(|e| ("wal", e))?;
                        if let Some(t) = self.timelines.get_mut(&id) {
                            t.wal_enqueued = true;
                        }
                        if let Some(drr) = self.drr.as_mut() {
                            drr.push(
                                id,
                                ev.tenant.as_deref(),
                                cost_ms.unwrap_or(0.0),
                                weight.unwrap_or(1.0),
                            );
                        }
                    }
                    "completed" => {
                        let ok = ok.unwrap_or(false);
                        self.wal
                            .completed(src, id, ok, ev.tenant.as_deref())
                            .map_err(|e| ("wal", e))?;
                        if let Some(drr) = self.drr.as_mut() {
                            // Push-full / bypass retraction: the item never
                            // lived in the real queue.
                            drr.retract(id);
                        }
                        let mut mismatch = None;
                        if let Some(t) = self.timelines.get_mut(&id) {
                            t.wal_completed_ok = Some(ok);
                            if let Some(res) = t.result_ok {
                                if res != ok {
                                    mismatch = Some((res, ok));
                                }
                            }
                        }
                        if let Some((res, ok)) = mismatch {
                            return Err((
                                "timeline",
                                ModelError::new(
                                    "accounting-mismatch",
                                    format!(
                                        "trace {id}: WAL books ok={ok} but the caller saw ok={res}"
                                    ),
                                ),
                            ));
                        }
                    }
                    "shed" => {
                        self.wal
                            .shed(src, id, ev.tenant.as_deref(), throttled.unwrap_or(false))
                            .map_err(|e| ("wal", e))?;
                    }
                    other => {
                        return Err((
                            "wal",
                            ModelError::new("wal-unknown-op", format!("unknown wal op `{other}`")),
                        ));
                    }
                }
                Ok(())
            }
            TelemetryKind::WalPoisoned => {
                self.wal.poison(src);
                // Crash-adjacent race: an invocation thread that lost the
                // append race can report its (unjournaled) result in the
                // instants between the poison flag landing and this marker
                // reaching the sink. Those results are crash casualties, not
                // durability bugs — forgive `result-before-durable` findings
                // whose offending event is still inside the context window.
                let recent: BTreeSet<u64> = self
                    .ctx
                    .iter()
                    .filter(|e| e.source == *src)
                    .map(|e| e.seq)
                    .collect();
                self.violations.retain(|v| {
                    !(v.rule == "result-before-durable"
                        && v.event
                            .as_ref()
                            .is_some_and(|e| e.source == src && recent.contains(&e.seq)))
                });
                Ok(())
            }
            TelemetryKind::Trace { stage } => {
                let Some(id) = ev.trace_id else {
                    return Err((
                        "timeline",
                        ModelError::new(
                            "trace-missing-id",
                            format!("trace:{stage} event carries no trace id"),
                        ),
                    ));
                };
                self.step_timeline(id, src, stage)
                    .map_err(|e| ("timeline", e))?;
                // The DRR pop, for an id a durable `wal:enqueued` put in.
                let popped = |d: &DrrModel| stage == "dequeued" && d.holds(id);
                if let Some(drr) = self.drr.as_mut().filter(|d| popped(d)) {
                    let tenant = self.wal.meta_of(id).and_then(|m| m.tenant.as_deref());
                    drr.expect_pop(id, tenant).map_err(|e| ("drr", e))?;
                    drr.check_deficit_bound().map_err(|e| ("drr", e))?;
                }
                Ok(())
            }
            TelemetryKind::Lifecycle { state } => {
                if state == "recovered" {
                    // A recovered incarnation legitimately reopens the log.
                    self.wal.unpoison(src);
                }
                self.fleet.lifecycle(src, state).map_err(|e| ("fleet", e))
            }
            TelemetryKind::Breaker { target, state } => self
                .breaker
                .observe(target, state)
                .map_err(|e| ("breaker", e)),
            TelemetryKind::Membership { target, change } => match change.as_str() {
                "attach" => {
                    self.breaker.attached(target);
                    self.fleet.attach(target).map_err(|e| ("fleet", e))
                }
                "draining" => {
                    self.breaker.draining(target);
                    self.fleet.draining(target).map_err(|e| ("fleet", e))
                }
                "detach" => {
                    self.breaker.detached(target);
                    self.fleet.detach(target).map_err(|e| ("fleet", e))
                }
                other => Err((
                    "fleet",
                    ModelError::new(
                        "membership-unknown-change",
                        format!("unknown membership change `{other}`"),
                    ),
                )),
            },
            TelemetryKind::Scale {
                direction,
                from,
                to,
                ..
            } => self
                .fleet
                .scale(direction, *from, *to)
                .map_err(|e| ("fleet", e)),
            TelemetryKind::Cache {
                op,
                key,
                expires_at_ms,
            } => {
                let tenant = ev.tenant.as_deref().unwrap_or("default");
                match op.as_str() {
                    "fill" => {
                        // Install first so later hits on this key are judged
                        // against the entry even when the fill itself is bad.
                        self.cache.fill(key, tenant, *expires_at_ms);
                        // Durable-before-served: on a WAL-backed source the
                        // fill must correlate to an invocation whose `ok`
                        // completion record already landed.
                        if let Some(id) = ev.trace_id {
                            if self.wal_sources.contains(src)
                                && self
                                    .timelines
                                    .get(&id)
                                    .is_none_or(|t| t.wal_completed_ok != Some(true))
                            {
                                return Err((
                                    "cache",
                                    ModelError::new(
                                        "cache-fill-not-durable",
                                        format!(
                                            "fill for key `{key}` from trace {id} with no \
                                             durable ok completion"
                                        ),
                                    ),
                                ));
                            }
                        }
                        Ok(())
                    }
                    "hit" => self
                        .cache
                        .hit(key, tenant, ev.at_ms)
                        .map_err(|e| ("cache", e)),
                    // Misses are informational: nothing was served.
                    "miss" => Ok(()),
                    "evict" | "expire" | "invalidate" => {
                        self.cache.remove(op, key).map_err(|e| ("cache", e))
                    }
                    other => Err((
                        "cache",
                        ModelError::new("cache-unknown-op", format!("unknown cache op `{other}`")),
                    )),
                }
            }
            TelemetryKind::WalIo { op } => match op.as_str() {
                // The degraded-mode gauge is a per-source two-state
                // machine; while it is set, the durability obligations
                // (`accepted-not-durable`, `result-before-durable`) are
                // relaxed — that is exactly what degraded mode advertises.
                "degraded" => self.wal.enter_degraded(src).map_err(|e| ("wal", e)),
                "rearmed" => self.wal.rearmed(src).map_err(|e| ("wal", e)),
                // retry / rotate / compact / fsync_error / stall_shed are
                // informational health signals.
                _ => Ok(()),
            },
            TelemetryKind::Lease {
                op,
                worker,
                expires_at_ms,
                class,
            } => {
                let Some(id) = ev.trace_id else {
                    return Err((
                        "dispatch",
                        ModelError::new(
                            "dispatch-missing-id",
                            format!("lease:{op} event carries no trace id"),
                        ),
                    ));
                };
                self.dispatch
                    .observe(
                        id,
                        ev.tenant.as_deref(),
                        ev.at_ms,
                        op,
                        worker,
                        *expires_at_ms,
                        class.as_deref(),
                    )
                    .map_err(|e| ("dispatch", e))
            }
            // Informational kinds: counted, no machine to advance.
            TelemetryKind::Dispatch { .. }
            | TelemetryKind::Reroute { .. }
            | TelemetryKind::Fault { .. }
            | TelemetryKind::RecorderSnapshot { .. } => Ok(()),
        }
    }

    fn step_timeline(&mut self, id: u64, src: &str, stage: &str) -> Result<(), ModelError> {
        let (base, arg) = match stage.split_once('(') {
            Some((b, rest)) => (b, rest.trim_end_matches(')')),
            None => (stage, ""),
        };
        // Origin stages mint (or re-mint) the timeline.
        if base == "ingested" || base == "recovered" {
            if base == "ingested" && self.timelines.contains_key(&id) {
                return Err(ModelError::new(
                    "timeline-origin",
                    format!("trace {id} ingested twice"),
                ));
            }
            let wal_enqueued = self
                .timelines
                .get(&id)
                .map(|t| t.wal_enqueued)
                .unwrap_or(false);
            self.timelines.insert(
                id,
                Timeline {
                    state: TState::Fresh,
                    source: src.to_string(),
                    dispatched: false,
                    wal_enqueued,
                    wal_completed_ok: None,
                    result_ok: None,
                },
            );
            return Ok(());
        }
        let Some(t) = self.timelines.get_mut(&id) else {
            return Err(ModelError::new(
                "timeline-origin",
                format!("trace {id} emitted `{base}` before ingested/recovered"),
            ));
        };
        t.source = src.to_string();
        use TState::*;
        if t.state == Done {
            return Err(ModelError::new(
                "event-after-terminal",
                format!("trace {id} emitted `{base}` after result_returned"),
            ));
        }
        let next = match (t.state, base) {
            (Fresh, "enqueued") => {
                // Accepted ⟹ durable: on a WAL-backed worker the Enqueued
                // record must land before the timeline accepts — unless
                // the source is serving degraded (explicitly non-durable).
                if self.wal_sources.contains(src) && !t.wal_enqueued && !self.wal.is_degraded(src) {
                    return Err(ModelError::new(
                        "accepted-not-durable",
                        format!("trace {id} accepted with no durable wal:enqueued record"),
                    ));
                }
                Queued
            }
            (Fresh, "bypassed") => {
                t.dispatched = true;
                Dispatched
            }
            (Fresh, "admission_rejected") | (Fresh, "tenant_throttled") => Rejected,
            (Queued, "dequeued") => {
                t.dispatched = true;
                Dispatched
            }
            (Dispatched | RetryWait, "container_acquired") => Acquired,
            (Acquired, "agent_called") => Called,
            (Called, "agent_timeout") => Called,
            (Called, "container_quarantined") => Called,
            (Dispatched | Acquired | Called | RetryWait, "retry_scheduled") => RetryWait,
            (Dispatched | Acquired | Called | RetryWait, "retries_exhausted") => Exhausted,
            (state, "result_returned") => {
                // The result *did* reach the caller whatever else is wrong,
                // so the timeline still terminates: flag the first broken
                // obligation but land in Done (no cascading
                // incomplete-timeline on top).
                let ok = arg == "true";
                let mut pending: Option<ModelError> = None;
                if ok && state != Called {
                    pending = Some(ModelError::new(
                        "result-without-execution",
                        format!("trace {id} returned ok=true from state {state:?}"),
                    ));
                } else if t.dispatched
                    && t.wal_enqueued
                    && t.wal_completed_ok.is_none()
                    && !self.wal.is_poisoned(src)
                    && !self.wal.is_degraded(src)
                {
                    pending = Some(ModelError::new(
                        "result-before-durable",
                        format!(
                            "trace {id} reported a result before its wal:completed record landed"
                        ),
                    ));
                }
                t.result_ok = Some(ok);
                if pending.is_none() {
                    if let Some(walled) = t.wal_completed_ok {
                        if walled != ok {
                            pending = Some(ModelError::new(
                                "accounting-mismatch",
                                format!(
                                    "trace {id}: WAL books ok={walled} but the caller saw ok={ok}"
                                ),
                            ));
                        }
                    }
                }
                t.state = Done;
                return match pending {
                    Some(err) => Err(err),
                    None => Ok(()),
                };
            }
            (state, other) => {
                return Err(ModelError::new(
                    "timeline-illegal-stage",
                    format!("trace {id}: `{other}` is not legal from state {state:?}"),
                ));
            }
        };
        t.state = next;
        Ok(())
    }

    /// Feed one raw WAL record (offline file replay; `source` names the
    /// log). Exercises the same [`WalModel`] rules as the stream path.
    pub fn ingest_wal_record(&mut self, source: &str, rec: &WalRecord) {
        self.events += 1;
        *self
            .label_counts
            .entry(format!("wal:{}", rec.op_label()))
            .or_default() += 1;
        let res = match rec {
            WalRecord::Enqueued { inv } => self.wal.enqueued(
                source,
                inv.id,
                inv.tenant.as_deref(),
                inv.expected_exec_ms,
                inv.tenant_weight,
            ),
            WalRecord::Dequeued { id } => self.wal.dequeued(source, *id),
            WalRecord::Completed { id, ok, tenant } => {
                self.wal.completed(source, *id, *ok, tenant.as_deref())
            }
            WalRecord::Shed {
                id,
                tenant,
                throttled,
            } => self.wal.shed(source, *id, tenant.as_deref(), *throttled),
            // Lease records exist so *recovery* can requeue in-flight work;
            // file replay treats them as informational (the book effects
            // are exercised end-to-end by `wal::replay`).
            WalRecord::LeaseIssued { .. } | WalRecord::LeaseRequeued { .. } => Ok(()),
            WalRecord::Snapshot { snap } => {
                let pending: Vec<(u64, bool)> =
                    snap.pending.iter().map(|p| (p.id, p.dequeued)).collect();
                self.wal.snapshot(source, &pending)
            }
        };
        if let Err(err) = res {
            let detail = format!("{} (wal record: {})", err.detail, rec.op_label());
            self.violations.push(Violation {
                model: "wal",
                rule: err.rule,
                detail,
                event: None,
                context: self.ctx.iter().cloned().collect(),
            });
        }
    }

    /// Close the stream: end-of-stream obligations (terminal timelines,
    /// long-run fairness) and the final report.
    pub fn finish(mut self) -> ConformanceReport {
        if self.require_terminal {
            let stuck: Vec<u64> = self
                .timelines
                .iter()
                .filter(|(_, t)| t.state != TState::Done && t.state != TState::Fresh)
                .map(|(&id, _)| id)
                .collect();
            for id in stuck {
                let state = self.timelines[&id].state;
                self.violations.push(Violation {
                    model: "timeline",
                    rule: "incomplete-timeline",
                    detail: format!(
                        "trace {id} ended the stream in state {state:?} without a result"
                    ),
                    event: None,
                    context: Vec::new(),
                });
            }
        }
        if let Some(drr) = self.drr.as_mut() {
            for err in drr.check_fairness(0.10) {
                self.violations.push(Violation {
                    model: "drr",
                    rule: err.rule,
                    detail: err.detail,
                    event: None,
                    context: Vec::new(),
                });
            }
        }
        ConformanceReport {
            events: self.events,
            violations: self.violations,
            label_counts: self.label_counts,
            wal_pending: self.wal.pending_ids(),
            wal_books: self.wal.books().clone(),
            drr_pops: self.drr.as_ref().map_or(0, |d| d.pops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        seq: u64,
        source: &str,
        trace: Option<u64>,
        tenant: Option<&str>,
        kind: TelemetryKind,
    ) -> TelemetryEvent {
        TelemetryEvent {
            seq,
            at_ms: seq,
            source: source.to_string(),
            trace_id: trace,
            tenant: tenant.map(str::to_string),
            kind,
        }
    }

    fn wal_ev(op: &str) -> TelemetryKind {
        TelemetryKind::Wal {
            op: op.into(),
            cost_ms: None,
            weight: None,
            ok: None,
            throttled: None,
        }
    }

    fn trace_ev(stage: &str) -> TelemetryKind {
        TelemetryKind::Trace {
            stage: stage.to_string(),
        }
    }

    #[test]
    fn clean_invocation_stream_passes() {
        let mut c = Checker::new();
        let id = Some(7);
        let mut seq = 0..;
        let mut s = || seq.next().unwrap() + 1;
        c.ingest(&ev(s(), "w", id, None, trace_ev("ingested")));
        c.ingest(&ev(
            s(),
            "w",
            id,
            Some("a"),
            TelemetryKind::Wal {
                op: "enqueued".into(),
                cost_ms: Some(10.0),
                weight: Some(1.0),
                ok: None,
                throttled: None,
            },
        ));
        c.ingest(&ev(s(), "w", id, None, trace_ev("enqueued")));
        c.ingest(&ev(s(), "w", id, None, trace_ev("dequeued")));
        c.ingest(&ev(
            s(),
            "w",
            id,
            None,
            trace_ev("container_acquired(true)"),
        ));
        c.ingest(&ev(s(), "w", id, None, trace_ev("agent_called")));
        c.ingest(&ev(
            s(),
            "w",
            id,
            Some("a"),
            TelemetryKind::Wal {
                op: "completed".into(),
                cost_ms: None,
                weight: None,
                ok: Some(true),
                throttled: None,
            },
        ));
        c.ingest(&ev(s(), "w", id, None, trace_ev("result_returned(true)")));
        let report = c.finish();
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.wal_pending.is_empty());
        assert_eq!(report.wal_books["a"].served, 1);
    }

    /// The DRR pop is the timeline's `dequeued` stage, for the ids a
    /// durable `wal:enqueued` put in the model: with no `wal:dequeued` on
    /// the stream, a tenant's younger invocation dequeued ahead of its
    /// older one is still caught.
    #[test]
    fn timeline_dequeues_out_of_drr_order_are_a_drr_violation() {
        let run = |order: [u64; 3]| {
            let mut c = Checker::new()
                .with_drr_fifo(50.0)
                .with_require_terminal(false);
            let mut seq = 0..;
            let mut s = || seq.next().unwrap() + 1;
            for id in [1, 2] {
                c.ingest(&ev(s(), "w", Some(id), None, trace_ev("ingested")));
                c.ingest(&ev(
                    s(),
                    "w",
                    Some(id),
                    Some("a"),
                    TelemetryKind::Wal {
                        op: "enqueued".into(),
                        cost_ms: Some(10.0),
                        weight: Some(1.0),
                        ok: None,
                        throttled: None,
                    },
                ));
                c.ingest(&ev(s(), "w", Some(id), None, trace_ev("enqueued")));
            }
            // Id 3 runs on a worker without a log: nothing for the model.
            c.ingest(&ev(s(), "v", Some(3), None, trace_ev("ingested")));
            c.ingest(&ev(s(), "v", Some(3), None, trace_ev("enqueued")));
            for id in order {
                let src = if id == 3 { "v" } else { "w" };
                c.ingest(&ev(s(), src, Some(id), None, trace_ev("dequeued")));
            }
            c.finish()
        };
        let in_order = run([3, 1, 2]);
        assert!(in_order.ok(), "{:?}", in_order.violations);
        assert_eq!(in_order.drr_pops, 2);
        let swapped = run([2, 3, 1]);
        let v = swapped.violations.first().expect("the swap is caught");
        assert_eq!((v.model, v.rule), ("drr", "fifo-within-tenant"));
        assert_eq!(v.event.as_ref().unwrap().trace_id, Some(2));
    }

    #[test]
    fn result_before_durable_is_flagged_with_context() {
        let mut c = Checker::new();
        let id = Some(9);
        c.ingest(&ev(1, "w", id, None, trace_ev("ingested")));
        c.ingest(&ev(2, "w", id, Some("a"), wal_ev("enqueued")));
        c.ingest(&ev(3, "w", id, None, trace_ev("enqueued")));
        c.ingest(&ev(5, "w", id, None, trace_ev("dequeued")));
        c.ingest(&ev(6, "w", id, None, trace_ev("container_acquired(false)")));
        c.ingest(&ev(7, "w", id, None, trace_ev("agent_called")));
        // No wal:completed before the result.
        c.ingest(&ev(8, "w", id, None, trace_ev("result_returned(true)")));
        let report = c.finish();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.rule, "result-before-durable");
        assert!(!v.context.is_empty(), "violation must carry context");
        assert_eq!(v.event.as_ref().unwrap().seq, 8);
    }

    #[test]
    fn poisoned_wal_suspends_the_durability_rule() {
        let mut c = Checker::new().with_require_terminal(false);
        let id = Some(3);
        c.ingest(&ev(1, "w", id, None, trace_ev("ingested")));
        c.ingest(&ev(2, "w", id, Some("a"), wal_ev("enqueued")));
        c.ingest(&ev(3, "w", id, None, trace_ev("enqueued")));
        c.ingest(&ev(5, "w", id, None, trace_ev("dequeued")));
        c.ingest(&ev(6, "w", id, None, trace_ev("container_acquired(true)")));
        c.ingest(&ev(7, "w", id, None, trace_ev("agent_called")));
        c.ingest(&ev(8, "w", None, None, TelemetryKind::WalPoisoned));
        // The in-flight thread still reports, but the Completed append was
        // dropped by the poisoned log — legal.
        c.ingest(&ev(9, "w", id, None, trace_ev("result_returned(true)")));
        let report = c.finish();
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn accounting_mismatch_is_flagged() {
        let mut c = Checker::new().with_require_terminal(false);
        let id = Some(4);
        c.ingest(&ev(1, "w", id, None, trace_ev("ingested")));
        c.ingest(&ev(2, "w", id, Some("a"), wal_ev("enqueued")));
        c.ingest(&ev(3, "w", id, None, trace_ev("enqueued")));
        c.ingest(&ev(5, "w", id, None, trace_ev("dequeued")));
        c.ingest(&ev(6, "w", id, None, trace_ev("container_acquired(true)")));
        c.ingest(&ev(7, "w", id, None, trace_ev("agent_called")));
        c.ingest(&ev(
            8,
            "w",
            id,
            Some("a"),
            TelemetryKind::Wal {
                op: "completed".into(),
                cost_ms: None,
                weight: None,
                ok: Some(false),
                throttled: None,
            },
        ));
        c.ingest(&ev(9, "w", id, None, trace_ev("result_returned(true)")));
        let report = c.finish();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "accounting-mismatch");
    }

    #[test]
    fn incomplete_timeline_reported_at_finish() {
        let mut c = Checker::new();
        let id = Some(11);
        c.ingest(&ev(1, "w", id, None, trace_ev("ingested")));
        c.ingest(&ev(2, "w", id, Some("a"), wal_ev("enqueued")));
        c.ingest(&ev(3, "w", id, None, trace_ev("enqueued")));
        let report = c.finish();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "incomplete-timeline");
        assert_eq!(report.wal_pending, vec![11]);
    }

    #[test]
    fn membership_and_breaker_flow_through() {
        let mut c = Checker::new().seed_worker("w0");
        c.ingest(&ev(
            1,
            "lb",
            None,
            None,
            TelemetryKind::Membership {
                target: "w1".into(),
                change: "attach".into(),
            },
        ));
        c.ingest(&ev(
            2,
            "lb",
            None,
            None,
            TelemetryKind::Breaker {
                target: "w1".into(),
                state: "half_open".into(),
            },
        ));
        c.ingest(&ev(
            3,
            "lb",
            None,
            None,
            TelemetryKind::Breaker {
                target: "w1".into(),
                state: "closed".into(),
            },
        ));
        c.ingest(&ev(
            4,
            "lb",
            None,
            None,
            TelemetryKind::Membership {
                target: "w1".into(),
                change: "detach".into(),
            },
        ));
        let report = c.finish();
        // detach without draining = drain-never-kill violation.
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "drain-never-kill");
    }

    #[test]
    fn cache_stream_rules_flow_through() {
        let cache_ev = |op: &str, key: &str, exp: Option<u64>| TelemetryKind::Cache {
            op: op.to_string(),
            key: key.to_string(),
            expires_at_ms: exp,
        };
        // Clean: fill, hit before expiry, invalidate.
        let mut c = Checker::new().with_require_terminal(false);
        c.ingest(&ev(1, "lb", None, Some("a"), cache_ev("miss", "k1", None)));
        c.ingest(&ev(
            2,
            "lb",
            None,
            Some("a"),
            cache_ev("fill", "k1", Some(60_000)),
        ));
        c.ingest(&ev(3, "lb", None, Some("a"), cache_ev("hit", "k1", None)));
        c.ingest(&ev(
            4,
            "lb",
            None,
            Some("a"),
            cache_ev("invalidate", "k1", None),
        ));
        let report = c.finish();
        assert!(report.ok(), "{:?}", report.violations);

        // A hit with no live fill is flagged.
        let mut c = Checker::new().with_require_terminal(false);
        c.ingest(&ev(
            1,
            "lb",
            None,
            Some("a"),
            cache_ev("hit", "ghost", None),
        ));
        let report = c.finish();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "cache-hit-unknown-key");

        // A hit past the fill's advertised expiry is a stale serve.
        let mut c = Checker::new().with_require_terminal(false);
        c.ingest(&ev(
            1,
            "lb",
            None,
            Some("a"),
            cache_ev("fill", "k1", Some(500)),
        ));
        let mut stale = ev(2, "lb", None, Some("a"), cache_ev("hit", "k1", None));
        stale.at_ms = 5_000;
        c.ingest(&stale);
        let report = c.finish();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "cache-stale-hit");

        // On a WAL-backed source a fill must ride a durable ok completion.
        let mut c = Checker::new().with_require_terminal(false);
        let id = Some(7);
        c.ingest(&ev(1, "w", id, None, trace_ev("ingested")));
        c.ingest(&ev(2, "w", id, Some("a"), wal_ev("enqueued")));
        c.ingest(&ev(3, "w", id, None, trace_ev("enqueued")));
        c.ingest(&ev(5, "w", id, None, trace_ev("dequeued")));
        // Fill lands before wal:completed booked the result: flagged.
        c.ingest(&ev(
            6,
            "w",
            id,
            Some("a"),
            cache_ev("fill", "k1", Some(60_000)),
        ));
        let report = c.finish();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "cache-fill-not-durable");
    }

    #[test]
    fn degraded_window_relaxes_durability_rules() {
        let mut c = Checker::new().with_require_terminal(false);
        let id = Some(5);
        // Establish the source as WAL-backed with a clean invocation.
        c.ingest(&ev(1, "w", Some(1), Some("a"), wal_ev("enqueued")));
        c.ingest(&ev(
            2,
            "w",
            None,
            None,
            TelemetryKind::WalIo {
                op: "degraded".into(),
            },
        ));
        // Accepted with no durable record: legal inside the window.
        c.ingest(&ev(3, "w", id, None, trace_ev("ingested")));
        c.ingest(&ev(4, "w", id, None, trace_ev("enqueued")));
        c.ingest(&ev(5, "w", id, None, trace_ev("dequeued")));
        c.ingest(&ev(6, "w", id, None, trace_ev("container_acquired(true)")));
        c.ingest(&ev(7, "w", id, None, trace_ev("agent_called")));
        c.ingest(&ev(8, "w", id, None, trace_ev("result_returned(true)")));
        c.ingest(&ev(
            9,
            "w",
            None,
            None,
            TelemetryKind::WalIo {
                op: "rearmed".into(),
            },
        ));
        let report = c.finish();
        assert!(report.ok(), "{:?}", report.violations);

        // Outside the window the same pattern is a violation again.
        let mut c = Checker::new().with_require_terminal(false);
        c.ingest(&ev(1, "w", Some(1), Some("a"), wal_ev("enqueued")));
        c.ingest(&ev(2, "w", Some(2), None, trace_ev("ingested")));
        c.ingest(&ev(3, "w", Some(2), None, trace_ev("enqueued")));
        let report = c.finish();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "accepted-not-durable");
    }

    #[test]
    fn degraded_gauge_must_alternate() {
        let mut c = Checker::new().with_require_terminal(false);
        c.ingest(&ev(
            1,
            "w",
            None,
            None,
            TelemetryKind::WalIo {
                op: "rearmed".into(),
            },
        ));
        assert_eq!(c.violations()[0].rule, "rearm-without-degrade");
        let mut c = Checker::new().with_require_terminal(false);
        c.ingest(&ev(
            1,
            "w",
            None,
            None,
            TelemetryKind::WalIo {
                op: "degraded".into(),
            },
        ));
        c.ingest(&ev(
            2,
            "w",
            None,
            None,
            TelemetryKind::WalIo {
                op: "degraded".into(),
            },
        ));
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].rule, "degraded-reentry");
    }

    #[test]
    fn seq_restart_needs_a_note() {
        let mut c = Checker::new().with_require_terminal(false);
        c.ingest(&ev(
            1,
            "w",
            None,
            None,
            TelemetryKind::Lifecycle {
                state: "draining".into(),
            },
        ));
        c.ingest(&ev(
            1,
            "w",
            None,
            None,
            TelemetryKind::Lifecycle {
                state: "stopped".into(),
            },
        ));
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].rule, "seq-duplicate");
        let mut c = Checker::new().with_require_terminal(false);
        c.ingest(&ev(
            1,
            "w",
            None,
            None,
            TelemetryKind::Lifecycle {
                state: "killed".into(),
            },
        ));
        c.note_restart("w");
        c.ingest(&ev(
            1,
            "w",
            None,
            None,
            TelemetryKind::Lifecycle {
                state: "recovered".into(),
            },
        ));
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }
}
