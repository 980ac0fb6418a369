//! Canonical telemetry event stream for the Ilúvatar control plane.
//!
//! §5 of the paper asks for "a single consistent view of the system
//! performance". Before this crate existed the repo had four disjoint
//! event streams — the worker's `TraceJournal`, the queue write-ahead log,
//! the load balancer's dispatch/fleet journals, and the chaos injector's
//! fault log — none of which could be correlated or replayed together.
//!
//! This crate defines the one event type they all now emit:
//! [`TelemetryEvent`], a tagged enum ([`TelemetryKind`]) stamped with a
//! monotone per-source sequence number, an injected-clock timestamp, and
//! `trace_id`/`tenant`/`worker` correlation fields. Components publish
//! through a [`TelemetryBus`], which fans events out to pluggable
//! [`TelemetrySink`]s:
//!
//! * [`FlightRecorder`] — a lock-sharded bounded ring of the last N
//!   events, dumpable on crash/drain/fault (`GET /debug/flightrecorder`),
//!   with frozen [`FlightSnapshot`]s taken automatically by the chaos
//!   harness on every injected fault;
//! * [`CounterBridge`] — per-kind (and per-tenant) counters bridged into
//!   the Prometheus exposition;
//! * [`VecSink`] — an unbounded collector for tests and the deterministic
//!   `session --scenario telemetry` digest.
//!
//! Ordering contract: `seq` is strictly monotone *per source* (per bus).
//! Events from different sources — or from different threads of one
//! source — interleave nondeterministically; deterministic digests must
//! therefore fold per-trace event sequences (ordered, keyed by
//! `trace_id`) and per-kind counts, never the raw cross-trace order.

pub mod event;
pub mod recorder;
pub mod sink;

pub use event::{TelemetryEvent, TelemetryKind};
pub use recorder::{FlightDump, FlightRecorder, FlightSnapshot};
pub use sink::{CounterBridge, TelemetrySink, VecSink};

use iluvatar_sync::Clock;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A per-source publication point: stamps events with a monotone sequence
/// number and the injected clock, then fans them out to every attached
/// sink.
///
/// One bus per source (worker, balancer, fleet, chaos harness). Emitting
/// with no sinks attached costs one atomic increment and one `RwLock`
/// read, so components keep their bus always-on.
pub struct TelemetryBus {
    source: String,
    clock: Arc<dyn Clock>,
    seq: AtomicU64,
    sinks: RwLock<Vec<Arc<dyn TelemetrySink>>>,
}

impl TelemetryBus {
    pub fn new(source: impl Into<String>, clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(Self {
            source: source.into(),
            clock,
            seq: AtomicU64::new(0),
            sinks: RwLock::new(Vec::new()),
        })
    }

    /// The source label stamped on every event from this bus.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Attach a sink; it receives every event emitted from now on.
    pub fn add_sink(&self, sink: Arc<dyn TelemetrySink>) {
        self.sinks.write().push(sink);
    }

    /// The sequence number of the most recently emitted event (0 before
    /// the first emit). This is what crosses HTTP hops in the
    /// `X-Iluvatar-Seq` header, letting a client order its observation
    /// against the source's stream.
    pub fn latest_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Stamp and publish one event.
    pub fn emit(&self, trace_id: Option<u64>, tenant: Option<&str>, kind: TelemetryKind) {
        let ev = TelemetryEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            at_ms: self.clock.now_ms(),
            source: self.source.clone(),
            trace_id,
            tenant: tenant.map(str::to_string),
            kind,
        };
        for sink in self.sinks.read().iter() {
            sink.emit(&ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iluvatar_sync::ManualClock;

    fn bus() -> (Arc<TelemetryBus>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::starting_at(100));
        let b = TelemetryBus::new("w0", Arc::clone(&clock) as Arc<dyn Clock>);
        (b, clock)
    }

    #[test]
    fn seq_is_monotone_and_clock_stamped() {
        let (b, clock) = bus();
        let sink = Arc::new(VecSink::new());
        b.add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        b.emit(
            Some(7),
            None,
            TelemetryKind::Trace {
                stage: "ingested".into(),
            },
        );
        clock.advance(5);
        b.emit(
            Some(7),
            Some("t0"),
            TelemetryKind::Trace {
                stage: "enqueued".into(),
            },
        );
        let evs = sink.events();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].seq, evs[1].seq), (1, 2));
        assert_eq!((evs[0].at_ms, evs[1].at_ms), (100, 105));
        assert_eq!(evs[0].source, "w0");
        assert_eq!(evs[1].tenant.as_deref(), Some("t0"));
        assert_eq!(b.latest_seq(), 2);
    }

    #[test]
    fn emit_without_sinks_is_a_cheap_noop() {
        let (b, _) = bus();
        for _ in 0..1000 {
            b.emit(
                None,
                None,
                TelemetryKind::Lifecycle {
                    state: "running".into(),
                },
            );
        }
        assert_eq!(b.latest_seq(), 1000);
    }

    #[test]
    fn sinks_attached_late_miss_earlier_events() {
        let (b, _) = bus();
        b.emit(
            None,
            None,
            TelemetryKind::Lifecycle {
                state: "running".into(),
            },
        );
        let sink = Arc::new(VecSink::new());
        b.add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        b.emit(
            None,
            None,
            TelemetryKind::Lifecycle {
                state: "draining".into(),
            },
        );
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.events()[0].seq, 2);
    }
}
