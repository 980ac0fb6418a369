//! The canonical event: one tagged enum for every subsystem's telemetry.

use iluvatar_sync::TimeMs;
use serde::{Deserialize, Serialize};

/// What happened. One tagged enum across the whole control plane; each
/// variant carries only the fields that are not correlation metadata
/// (those live on [`TelemetryEvent`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TelemetryKind {
    /// A worker hot-path trace stage; `stage` is the stable
    /// `TraceEventKind::label()` string (`ingested`, `enqueued`,
    /// `container_acquired(true)`, `result_returned(false)`, …).
    Trace { stage: String },
    /// A record appended to the queue write-ahead log; `op` is the
    /// record's tag (`enqueued`, `completed`, `shed`, `lease_issued`,
    /// `snapshot`, …). The optional fields mirror the record payload so a
    /// conformance checker can drive reference models (DRR, WAL) from the
    /// event stream alone: `cost_ms`/`weight` ride `enqueued`, `ok` rides
    /// `completed`, `throttled` rides `shed`.
    Wal {
        op: String,
        #[serde(default)]
        cost_ms: Option<f64>,
        #[serde(default)]
        weight: Option<f64>,
        #[serde(default)]
        ok: Option<bool>,
        #[serde(default)]
        throttled: Option<bool>,
    },
    /// The write-ahead log was poisoned (crash simulation / kill).
    WalPoisoned,
    /// A WAL I/O health transition: `op` is `retry`, `rotate`, `compact`,
    /// `fsync_error`, `stall_shed`, `degraded`, or `rearmed`. Distinct
    /// from [`TelemetryKind::Wal`], which mirrors logical records — this
    /// stream reports how the disk underneath them is behaving.
    WalIo { op: String },
    /// A worker lifecycle transition: `running`, `draining`, `stopped`,
    /// `killed`, `recovered`.
    Lifecycle { state: String },
    /// The balancer dispatched an invocation to `target`.
    Dispatch { target: String },
    /// The balancer re-dispatched after a mid-call failure.
    Reroute { from: String, to: String },
    /// A circuit-breaker transition for `target`: `closed`, `open`,
    /// `half_open`.
    Breaker { target: String, state: String },
    /// Cluster membership changed: `change` is `attach`, `detach`, or
    /// `draining`.
    Membership { target: String, change: String },
    /// The fleet applied a scaling decision.
    Scale {
        direction: String,
        reason: String,
        from: u64,
        to: u64,
    },
    /// A result-cache operation: `op` is `hit`, `miss`, `fill`, `evict`,
    /// `expire`, or `invalidate`; `key` is the idempotency key
    /// (`fqdn@tenant#arghash`). `expires_at_ms` rides `fill` so stream
    /// consumers (the conformance checker) can audit TTL legality of later
    /// hits without the cache's internal state.
    Cache {
        op: String,
        key: String,
        #[serde(default)]
        expires_at_ms: Option<u64>,
    },
    /// A pull-dispatch lease transition: `op` is `queued`, `issued`,
    /// `stolen`, `completed`, `expired`, or `requeued`; `worker` is the
    /// holder (the victim shard for `stolen`, empty for `queued` and
    /// `requeued`). `expires_at_ms` rides `issued` so stream consumers can
    /// audit expiry legality; `class` (priority-class name) rides `queued`
    /// and `issued` so the conformance model can bound starvation.
    Lease {
        op: String,
        worker: String,
        #[serde(default)]
        expires_at_ms: Option<u64>,
        #[serde(default)]
        class: Option<String>,
    },
    /// The chaos harness fired an injected fault at `site`.
    Fault { site: String },
    /// A flight-recorder snapshot was frozen (`reason`: `kill`, `drain`,
    /// `fault:<site>`, …).
    RecorderSnapshot { reason: String },
}

impl TelemetryKind {
    /// Stable, timestamp-free label — the unit of deterministic digests
    /// and of the [`crate::CounterBridge`] counter keys.
    pub fn label(&self) -> String {
        match self {
            TelemetryKind::Trace { stage } => format!("trace:{stage}"),
            TelemetryKind::Wal { op, .. } => format!("wal:{op}"),
            TelemetryKind::WalPoisoned => "wal_poisoned".into(),
            TelemetryKind::WalIo { op } => format!("wal_io:{op}"),
            TelemetryKind::Lifecycle { state } => format!("lifecycle:{state}"),
            TelemetryKind::Dispatch { .. } => "dispatch".into(),
            TelemetryKind::Reroute { .. } => "reroute".into(),
            TelemetryKind::Breaker { state, .. } => format!("breaker:{state}"),
            TelemetryKind::Membership { change, .. } => format!("membership:{change}"),
            TelemetryKind::Scale { direction, .. } => format!("scale:{direction}"),
            TelemetryKind::Cache { op, .. } => format!("cache:{op}"),
            TelemetryKind::Lease { op, .. } => format!("lease:{op}"),
            TelemetryKind::Fault { site } => format!("fault:{site}"),
            TelemetryKind::RecorderSnapshot { .. } => "recorder_snapshot".into(),
        }
    }
}

/// One canonical telemetry event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryEvent {
    /// Monotone per-source sequence number, starting at 1.
    pub seq: u64,
    /// Injected-clock timestamp, ms.
    pub at_ms: TimeMs,
    /// The emitting source (worker name, `lb`, `fleet`, `chaos`, …).
    pub source: String,
    /// The invocation this event belongs to, when there is one.
    #[serde(default)]
    pub trace_id: Option<u64>,
    /// The tenant label, when known at the emission site.
    #[serde(default)]
    pub tenant: Option<String>,
    #[serde(flatten)]
    pub kind: TelemetryKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let kinds = [
            TelemetryKind::Trace {
                stage: "ingested".into(),
            },
            TelemetryKind::Wal {
                op: "enqueued".into(),
                cost_ms: None,
                weight: None,
                ok: None,
                throttled: None,
            },
            TelemetryKind::WalPoisoned,
            TelemetryKind::Lifecycle {
                state: "draining".into(),
            },
            TelemetryKind::Dispatch {
                target: "w0".into(),
            },
            TelemetryKind::Reroute {
                from: "w0".into(),
                to: "w1".into(),
            },
            TelemetryKind::Breaker {
                target: "w0".into(),
                state: "open".into(),
            },
            TelemetryKind::Membership {
                target: "w2".into(),
                change: "attach".into(),
            },
            TelemetryKind::Scale {
                direction: "up".into(),
                reason: "burst".into(),
                from: 1,
                to: 3,
            },
            TelemetryKind::Cache {
                op: "hit".into(),
                key: "f-1@gold#00".into(),
                expires_at_ms: None,
            },
            TelemetryKind::Fault {
                site: "invoke_error".into(),
            },
            TelemetryKind::RecorderSnapshot {
                reason: "kill".into(),
            },
            TelemetryKind::WalIo {
                op: "rotate".into(),
            },
            TelemetryKind::Lease {
                op: "issued".into(),
                worker: "w0".into(),
                expires_at_ms: Some(2_000),
                class: Some("best_effort".into()),
            },
        ];
        let labels: Vec<String> = kinds.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "labels collide: {labels:?}");
        assert_eq!(labels[0], "trace:ingested");
        assert_eq!(labels[9], "cache:hit");
        assert_eq!(labels[10], "fault:invoke_error");
        assert_eq!(labels[12], "wal_io:rotate");
        assert_eq!(labels[13], "lease:issued");
    }

    #[test]
    fn event_serde_roundtrip() {
        let ev = TelemetryEvent {
            seq: 42,
            at_ms: 1234,
            source: "w0".into(),
            trace_id: Some(99),
            tenant: Some("gold".into()),
            kind: TelemetryKind::Breaker {
                target: "w1".into(),
                state: "half_open".into(),
            },
        };
        let json = serde_json::to_string(&ev).unwrap();
        assert!(json.contains("\"kind\":\"breaker\""), "json: {json}");
        let back: TelemetryEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn optional_correlation_fields_default() {
        let ev = TelemetryEvent {
            seq: 1,
            at_ms: 0,
            source: "lb".into(),
            trace_id: None,
            tenant: None,
            kind: TelemetryKind::Dispatch {
                target: "w0".into(),
            },
        };
        let json = serde_json::to_string(&ev).unwrap();
        let back: TelemetryEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trace_id, None);
        assert_eq!(back.tenant, None);
    }
}
