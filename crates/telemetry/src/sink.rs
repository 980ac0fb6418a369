//! Pluggable sinks: where the canonical stream lands.

use crate::event::TelemetryEvent;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// A consumer of the canonical stream. Implementations must be cheap and
/// non-blocking: `emit` runs on the hot path of whatever emitted.
pub trait TelemetrySink: Send + Sync {
    fn emit(&self, ev: &TelemetryEvent);
}

/// An unbounded in-memory collector, for tests and deterministic session
/// digests.
#[derive(Default)]
pub struct VecSink {
    events: Mutex<Vec<TelemetryEvent>>,
}

impl VecSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything collected so far, in arrival order.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl TelemetrySink for VecSink {
    fn emit(&self, ev: &TelemetryEvent) {
        self.events.lock().push(ev.clone());
    }
}

/// Per-kind (and per-tenant) event counters, bridged into the Prometheus
/// exposition as `iluvatar_telemetry_events_total{kind,tenant}`.
#[derive(Default)]
pub struct CounterBridge {
    /// `(kind label, tenant-or-empty) → count`. BTreeMap for a stable
    /// render order.
    counts: Mutex<BTreeMap<(String, String), u64>>,
}

impl CounterBridge {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorted `(kind, tenant, count)` tuples for exposition.
    pub fn counts(&self) -> Vec<(String, String, u64)> {
        self.counts
            .lock()
            .iter()
            .map(|((k, t), &c)| (k.clone(), t.clone(), c))
            .collect()
    }

    /// Total events seen across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.lock().values().sum()
    }
}

impl TelemetrySink for CounterBridge {
    fn emit(&self, ev: &TelemetryEvent) {
        let tenant = ev.tenant.clone().unwrap_or_default();
        *self
            .counts
            .lock()
            .entry((ev.kind.label(), tenant))
            .or_default() += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TelemetryKind;

    fn ev(seq: u64, tenant: Option<&str>, kind: TelemetryKind) -> TelemetryEvent {
        TelemetryEvent {
            seq,
            at_ms: seq * 10,
            source: "w0".into(),
            trace_id: Some(seq),
            tenant: tenant.map(str::to_string),
            kind,
        }
    }

    #[test]
    fn counter_bridge_counts_by_kind_and_tenant() {
        let b = CounterBridge::new();
        b.emit(&ev(
            1,
            Some("a"),
            TelemetryKind::Trace {
                stage: "ingested".into(),
            },
        ));
        b.emit(&ev(
            2,
            Some("a"),
            TelemetryKind::Trace {
                stage: "ingested".into(),
            },
        ));
        b.emit(&ev(
            3,
            Some("b"),
            TelemetryKind::Trace {
                stage: "ingested".into(),
            },
        ));
        b.emit(&ev(4, None, TelemetryKind::WalPoisoned));
        let counts = b.counts();
        assert_eq!(
            counts,
            vec![
                ("trace:ingested".to_string(), "a".to_string(), 2),
                ("trace:ingested".to_string(), "b".to_string(), 1),
                ("wal_poisoned".to_string(), String::new(), 1),
            ]
        );
        assert_eq!(b.total(), 4);
    }
}
