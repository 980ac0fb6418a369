//! End-to-end invocation tracing.
//!
//! §5: the paper instruments "the passage of invocations through the control
//! plane components". Here each invocation is minted a `trace_id` at ingest;
//! every hot-path stage appends a timestamped [`TraceEvent`] to the
//! invocation's [`TraceRecord`]. The journal reads no clock: each event
//! keeps, in ms, the µs time its caller passes — on the hot path the
//! invocation's timeline stamp for that stage ([`crate::spans`]), so a
//! milestone is read from the clock once. The journal keeps the labels and
//! their order (the digest's unit); the durations that Table 1 and
//! `/breakdown` report are folded from the stamps, not from this record.
//! The journal is a lock-sharded, bounded ring
//! addressed by trace id — recording is O(1) and old traces age out, so it
//! is safe to leave on under sustained load. The worker serves records over
//! `GET /trace/{id}` and `GET /traces?last=N`; the same id crosses the worker
//! → agent HTTP hop as the `X-Iluvatar-Trace` header, tying agent-side time
//! to the record.

use iluvatar_sync::{Fnv1a, KeyedRing, TimeMs};
use iluvatar_telemetry::{TelemetryBus, TelemetryKind as TelKind};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One stage of an invocation's passage through the control plane.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TraceEventKind {
    /// The request entered `invoke`/`async_invoke`.
    Ingested,
    /// Placed on the invocation queue.
    Enqueued,
    /// Skipped the queue via the short-function bypass.
    Bypassed,
    /// Popped off the queue by the dispatch loop.
    Dequeued,
    /// A container was acquired — `cold` says whether one had to be created.
    ContainerAcquired { cold: bool },
    /// The in-container agent was called over HTTP.
    AgentCalled,
    /// The agent call exceeded the configured timeout and was abandoned.
    AgentTimeout,
    /// The failed container was removed from circulation (destroyed rather
    /// than returned to the keep-alive pool).
    ContainerQuarantined,
    /// A retry was scheduled after a transient failure.
    RetryScheduled { attempt: u32, delay_ms: u64 },
    /// The retry budget was exhausted (or shed under saturation); the
    /// invocation fails with the last error.
    RetriesExhausted,
    /// Rejected at ingest by overload shedding (best-effort tenant, queue
    /// delay past the configured threshold).
    AdmissionRejected,
    /// Rejected at ingest by the tenant's token-bucket rate limit.
    TenantThrottled,
    /// Restored from the write-ahead log after a restart and re-enqueued
    /// (crash recovery; see [`crate::wal`]).
    Recovered,
    /// The result (or error) was delivered back to the caller.
    ResultReturned { ok: bool },
}

impl TraceEventKind {
    /// Stable timestamp-free label, the unit of [`journal_digest`].
    pub fn label(&self) -> String {
        match self {
            TraceEventKind::Ingested => "ingested".into(),
            TraceEventKind::Enqueued => "enqueued".into(),
            TraceEventKind::Bypassed => "bypassed".into(),
            TraceEventKind::Dequeued => "dequeued".into(),
            TraceEventKind::ContainerAcquired { cold } => format!("container_acquired({cold})"),
            TraceEventKind::AgentCalled => "agent_called".into(),
            TraceEventKind::AgentTimeout => "agent_timeout".into(),
            TraceEventKind::ContainerQuarantined => "container_quarantined".into(),
            TraceEventKind::RetryScheduled { attempt, delay_ms } => {
                format!("retry_scheduled({attempt},{delay_ms})")
            }
            TraceEventKind::RetriesExhausted => "retries_exhausted".into(),
            TraceEventKind::AdmissionRejected => "admission_rejected".into(),
            TraceEventKind::TenantThrottled => "tenant_throttled".into(),
            TraceEventKind::Recovered => "recovered".into(),
            TraceEventKind::ResultReturned { ok } => format!("result_returned({ok})"),
        }
    }
}

/// Timestamp-free digest over a set of timelines: FNV-1a of each record's
/// fqdn and event labels, records ordered by trace id. Two chaos runs with
/// the same seed and workload produce the same digest even though their
/// wall-clock timestamps differ — the flake detector in `scripts/check.sh`
/// diffs this value across runs.
pub fn journal_digest(records: &[TraceRecord]) -> u64 {
    let mut sorted: Vec<&TraceRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.trace_id);
    let mut h = Fnv1a::new();
    for r in sorted {
        h.write(r.fqdn.as_bytes());
        h.write(b"|");
        for e in &r.events {
            h.write(e.kind.label().as_bytes());
            h.write(b";");
        }
        h.write(b"\n");
    }
    h.finish()
}

/// A timestamped stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Worker-clock timestamp, ms.
    pub at_ms: TimeMs,
    #[serde(flatten)]
    pub kind: TraceEventKind,
}

/// The full ordered timeline of one invocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRecord {
    pub trace_id: u64,
    pub fqdn: String,
    /// When the trace was minted (worker clock, ms).
    pub ingest_ms: TimeMs,
    /// Events in recording order.
    pub events: Vec<TraceEvent>,
}

impl TraceRecord {
    /// Whether this invocation paid a cold start (`None` if it never
    /// acquired a container).
    pub fn cold(&self) -> Option<bool> {
        self.events.iter().find_map(|e| match e.kind {
            TraceEventKind::ContainerAcquired { cold } => Some(cold),
            _ => None,
        })
    }

    /// Whether the result has been delivered.
    pub fn completed(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::ResultReturned { .. }))
    }
}

/// Bounded journal of recent invocation traces.
pub struct TraceJournal {
    /// Recent traces by id; each record has its own lock so stages of
    /// different invocations never contend.
    ring: KeyedRing<Arc<Mutex<TraceRecord>>>,
    next_id: AtomicU64,
    /// Canonical stream mirror: every journaled stage is also emitted as
    /// a `TelemetryKind::Trace` event once a bus is attached, making this
    /// the single choke point between the hot path and telemetry.
    telemetry: OnceLock<Arc<TelemetryBus>>,
}

impl TraceJournal {
    /// A journal remembering roughly `capacity` recent traces. `seed`
    /// offsets the id space so two workers' ids rarely collide (derive it
    /// from the worker name).
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            ring: KeyedRing::new(capacity),
            // Spread seeds across the id space; low bits stay sequential.
            next_id: AtomicU64::new((seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)) << 20 | 1),
            telemetry: OnceLock::new(),
        }
    }

    /// Attach the canonical-stream bus. Every stage journaled from now on
    /// is mirrored as a `trace:<stage>` telemetry event. Set once, at
    /// worker construction; later calls are ignored.
    pub fn set_telemetry(&self, bus: Arc<TelemetryBus>) {
        let _ = self.telemetry.set(bus);
    }

    fn mirror(&self, id: u64, kind: &TraceEventKind) {
        if let Some(bus) = self.telemetry.get() {
            bus.emit(
                Some(id),
                None,
                TelKind::Trace {
                    stage: kind.label(),
                },
            );
        }
    }

    /// Open trace `id`'s timeline with `first` as its only event, at `at_us`.
    fn open(&self, id: u64, fqdn: &str, first: TraceEventKind, at_us: u64) {
        let at = at_us / 1000;
        let record = TraceRecord {
            trace_id: id,
            fqdn: fqdn.to_string(),
            ingest_ms: at,
            events: vec![TraceEvent {
                at_ms: at,
                kind: first.clone(),
            }],
        };
        self.ring.insert(id, Arc::new(Mutex::new(record)));
        self.mirror(id, &first);
    }

    /// Mint a trace for a new invocation and record `Ingested` at `at_us`.
    pub fn begin(&self, fqdn: &str, at_us: u64) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.open(id, fqdn, TraceEventKind::Ingested, at_us);
        id
    }

    /// Re-mint a trace under an id recovered from the write-ahead log,
    /// opening its timeline with [`TraceEventKind::Recovered`] so replayed
    /// invocations are distinguishable from fresh ingests.
    pub fn begin_recovered(&self, id: u64, fqdn: &str, at_us: u64) {
        self.open(id, fqdn, TraceEventKind::Recovered, at_us);
    }

    /// Ensure future minted ids are strictly greater than `floor` — called
    /// on recovery so new invocations cannot collide with ids already
    /// present in the write-ahead log.
    pub fn ensure_ids_above(&self, floor: u64) {
        self.next_id.fetch_max(floor + 1, Ordering::Relaxed);
    }

    /// Append an event at `at_us` to trace `id`. A no-op if the trace has
    /// aged out.
    pub fn record(&self, id: u64, kind: TraceEventKind, at_us: u64) {
        if let Some(r) = self.ring.get(id) {
            self.mirror(id, &kind);
            let at_ms = at_us / 1000;
            r.lock().events.push(TraceEvent { at_ms, kind });
        }
    }

    /// The full timeline of trace `id`, if still in the journal.
    pub fn get(&self, id: u64) -> Option<TraceRecord> {
        self.ring.get(id).map(|r| r.lock().clone())
    }

    /// The most recent `n` traces, newest first.
    pub fn recent(&self, n: usize) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self
            .ring
            .values()
            .iter()
            .map(|r| r.lock().clone())
            .collect();
        // Newest first by ingest time, trace id as the tiebreak. Sorting
        // by id alone is wrong across recoveries: replayed invocations
        // keep their (low) pre-crash ids while freshly minted ids sit far
        // above them, so an id-ordered tail would bury the traces that
        // were actually recorded last.
        out.sort_by_key(|r| std::cmp::Reverse((r.ingest_ms, r.trace_id)));
        out.truncate(n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iluvatar_sync::{Clock, ManualClock};

    fn journal() -> TraceJournal {
        TraceJournal::new(64, 1)
    }

    #[test]
    fn begin_records_ingest() {
        let j = journal();
        let id = j.begin("echo-1", 3_000);
        let r = j.get(id).unwrap();
        assert_eq!(r.trace_id, id);
        assert_eq!(r.fqdn, "echo-1");
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].kind, TraceEventKind::Ingested);
        assert!(!r.completed());
        assert_eq!(r.cold(), None);
    }

    #[test]
    fn events_stay_ordered() {
        let j = TraceJournal::new(64, 7);
        let id = j.begin("f-1", 1_000_000);
        j.record(id, TraceEventKind::Enqueued, 1_005_000);
        j.record(id, TraceEventKind::Dequeued, 1_010_999);
        j.record(
            id,
            TraceEventKind::ContainerAcquired { cold: true },
            1_015_000,
        );
        j.record(id, TraceEventKind::AgentCalled, 1_015_500);
        j.record(id, TraceEventKind::ResultReturned { ok: true }, 1_020_000);
        let r = j.get(id).unwrap();
        let kinds: Vec<_> = r.events.iter().map(|e| e.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                TraceEventKind::Ingested,
                TraceEventKind::Enqueued,
                TraceEventKind::Dequeued,
                TraceEventKind::ContainerAcquired { cold: true },
                TraceEventKind::AgentCalled,
                TraceEventKind::ResultReturned { ok: true },
            ]
        );
        let times: Vec<_> = r.events.iter().map(|e| e.at_ms).collect();
        assert_eq!(times, [1000, 1005, 1010, 1015, 1015, 1020]);
        assert_eq!(r.cold(), Some(true));
        assert!(r.completed());
    }

    #[test]
    fn distinct_ids() {
        let j = journal();
        let a = j.begin("f-1", 0);
        let b = j.begin("f-1", 0);
        assert_ne!(a, b);
    }

    #[test]
    fn bounded_capacity_ages_out_oldest() {
        let j = TraceJournal::new(16, 1);
        let first = j.begin("f-1", 0);
        let ids: Vec<u64> = (0..200).map(|_| j.begin("f-1", 0)).collect();
        let held = j.recent(usize::MAX).len();
        assert!(held <= 16, "{held} traces held: must stay bounded");
        assert!(j.get(first).is_none(), "oldest trace must age out");
        // Recording into an aged-out trace is a silent no-op.
        j.record(first, TraceEventKind::Dequeued, 1);
        // The newest survive.
        assert!(j.get(*ids.last().unwrap()).is_some());
    }

    #[test]
    fn recent_is_newest_first() {
        let j = journal();
        let ids: Vec<u64> = (0..10).map(|_| j.begin("f-1", 0)).collect();
        let recent = j.recent(3);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].trace_id, ids[9]);
        assert!(recent.windows(2).all(|w| w[0].trace_id > w[1].trace_id));
    }

    #[test]
    fn recent_orders_recovered_low_ids_by_ingest_time() {
        // After a crash the journal re-mints traces under their (low)
        // pre-crash ids while fresh ingests mint far-higher ids. The tail
        // must order by ingest time, not id.
        let j = TraceJournal::new(64, 99);
        let fresh = j.begin("f-1", 1_000_000); // high id
        j.begin_recovered(3, "f-1", 1_010_000); // low id, newest
        let recent = j.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(
            recent[0].trace_id, 3,
            "the recovered trace was ingested last and must lead the tail"
        );
        assert_eq!(recent[1].trace_id, fresh);
    }

    #[test]
    fn journal_mirrors_stages_onto_the_telemetry_bus() {
        use iluvatar_telemetry::{TelemetrySink, VecSink};
        let clock = Arc::new(ManualClock::starting_at(50));
        let j = TraceJournal::new(64, 1);
        let bus = TelemetryBus::new("w0", Arc::clone(&clock) as Arc<dyn Clock>);
        let sink = Arc::new(VecSink::new());
        bus.add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        j.set_telemetry(Arc::clone(&bus));
        let id = j.begin("f-1", 50);
        j.record(id, TraceEventKind::Enqueued, 50);
        j.record(id, TraceEventKind::ResultReturned { ok: true }, 50);
        // Aged-out / unknown traces do not emit.
        j.record(id ^ 0x5555, TraceEventKind::Dequeued, 50);
        let labels: Vec<String> = sink.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels,
            vec![
                "trace:ingested".to_string(),
                "trace:enqueued".to_string(),
                "trace:result_returned(true)".to_string(),
            ]
        );
        assert!(sink.events().iter().all(|e| e.trace_id == Some(id)));
    }

    #[test]
    fn seeds_separate_id_spaces() {
        let a = TraceJournal::new(8, 1);
        let b = TraceJournal::new(8, 2);
        assert_ne!(a.begin("f-1", 0), b.begin("f-1", 0));
    }

    #[test]
    fn record_serde_roundtrip() {
        let j = journal();
        let id = j.begin("f-1", 0);
        j.record(id, TraceEventKind::ContainerAcquired { cold: false }, 1);
        j.record(id, TraceEventKind::ResultReturned { ok: false }, 2);
        let r = j.get(id).unwrap();
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            json.contains("\"kind\":\"container_acquired\""),
            "json: {json}"
        );
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trace_id, r.trace_id);
        assert_eq!(back.events, r.events);
        assert_eq!(back.cold(), Some(false));
    }
}
