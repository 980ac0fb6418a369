//! The flight recorder: a lock-sharded bounded ring of recent events.
//!
//! Kept always-on (recording is one shard lock plus a ring insert), the
//! recorder answers "what were the last N things this component did?"
//! at the moment something went wrong. [`FlightRecorder::dump`] returns
//! the live tail; [`FlightRecorder::snapshot`] freezes a copy — the
//! worker snapshots on kill/drain, and the chaos harness snapshots on
//! every injected fault so post-mortems see the events *leading up to*
//! the fault, not the state minutes later.

use crate::event::TelemetryEvent;
use crate::sink::TelemetrySink;
use iluvatar_sync::KeyedRing;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Most frozen snapshots retained; older ones age out first.
const MAX_SNAPSHOTS: usize = 16;

/// A frozen copy of the recorder's tail at an interesting moment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlightSnapshot {
    /// Why the snapshot was taken (`kill`, `drain`, `fault:<site>`, …).
    pub reason: String,
    /// The recorder tail at freeze time, oldest first.
    pub events: Vec<TelemetryEvent>,
}

/// Wire form of `GET /debug/flightrecorder`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlightDump {
    /// Ring capacity (events retained per source at most).
    pub capacity: usize,
    /// The live tail, oldest first.
    pub events: Vec<TelemetryEvent>,
    /// Frozen snapshots, oldest first.
    pub snapshots: Vec<FlightSnapshot>,
}

/// Lock-sharded bounded ring of the last ~`capacity` events, keyed by
/// sequence number so concurrent emitters stay off each other's locks.
pub struct FlightRecorder {
    events: KeyedRing<TelemetryEvent>,
    /// Keyed (and ordered) by the snapshot counter.
    snapshots: KeyedRing<(u64, FlightSnapshot)>,
    snapshots_taken: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining roughly `capacity` recent events.
    pub fn new(capacity: usize) -> Self {
        Self {
            events: KeyedRing::new(capacity),
            snapshots: KeyedRing::new(MAX_SNAPSHOTS),
            snapshots_taken: AtomicU64::new(0),
        }
    }

    /// Events retained at most (across all shards).
    pub fn capacity(&self) -> usize {
        self.events.capacity()
    }

    /// The live tail, globally ordered oldest-first by `(at_ms, source,
    /// seq)` — shard assignment never shows.
    pub fn dump(&self) -> Vec<TelemetryEvent> {
        let mut out = self.events.values();
        out.sort_by(|a, b| (a.at_ms, &a.source, a.seq).cmp(&(b.at_ms, &b.source, b.seq)));
        out
    }

    /// Freeze the current tail under `reason`. Callers that own a bus
    /// should follow up with a `RecorderSnapshot` marker event so the
    /// stream itself records when dumps happened.
    pub fn snapshot(&self, reason: &str) -> FlightSnapshot {
        let snap = FlightSnapshot {
            reason: reason.to_string(),
            events: self.dump(),
        };
        // Relaxed: the counter only numbers snapshots, it publishes nothing.
        let n = self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        self.snapshots.insert(n, (n, snap.clone()));
        snap
    }

    /// Frozen snapshots, oldest first.
    pub fn snapshots(&self) -> Vec<FlightSnapshot> {
        let mut snaps = self.snapshots.values();
        snaps.sort_by_key(|(n, _)| *n);
        snaps.into_iter().map(|(_, s)| s).collect()
    }

    /// The full wire dump for `GET /debug/flightrecorder`.
    pub fn wire_dump(&self) -> FlightDump {
        FlightDump {
            capacity: self.capacity(),
            events: self.dump(),
            snapshots: self.snapshots(),
        }
    }
}

impl TelemetrySink for FlightRecorder {
    fn emit(&self, ev: &TelemetryEvent) {
        self.events.insert(ev.seq, ev.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TelemetryKind;

    fn ev(seq: u64, at_ms: u64) -> TelemetryEvent {
        TelemetryEvent {
            seq,
            at_ms,
            source: "w0".into(),
            trace_id: None,
            tenant: None,
            kind: TelemetryKind::Trace {
                stage: format!("s{seq}"),
            },
        }
    }

    #[test]
    fn dump_is_globally_ordered_across_shards() {
        let r = FlightRecorder::new(64);
        // Emit out of timestamp order; seqs hit different shards.
        for (seq, at) in [(3u64, 30u64), (1, 10), (8, 80), (2, 20), (5, 50)] {
            r.emit(&ev(seq, at));
        }
        let dump = r.dump();
        assert_eq!(dump.len(), 5);
        let times: Vec<u64> = dump.iter().map(|e| e.at_ms).collect();
        assert_eq!(times, vec![10, 20, 30, 50, 80]);
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let r = FlightRecorder::new(16);
        for seq in 1..=1000u64 {
            r.emit(&ev(seq, seq));
        }
        let dump = r.dump();
        assert!(dump.len() <= r.capacity(), "len {}", dump.len());
        // The most recent event always survives.
        assert!(dump.iter().any(|e| e.seq == 1000));
        // Ancient ones have aged out.
        assert!(!dump.iter().any(|e| e.seq == 1));
    }

    #[test]
    fn snapshots_freeze_the_tail_and_age_out() {
        let r = FlightRecorder::new(32);
        r.emit(&ev(1, 1));
        let snap = r.snapshot("fault:invoke_error");
        assert_eq!(snap.reason, "fault:invoke_error");
        assert_eq!(snap.events.len(), 1);
        // Later events do not rewrite the frozen copy.
        r.emit(&ev(2, 2));
        assert_eq!(r.snapshots()[0].events.len(), 1);
        for i in 0..(MAX_SNAPSHOTS + 5) {
            r.snapshot(&format!("s{i}"));
        }
        assert_eq!(r.snapshots().len(), MAX_SNAPSHOTS);
        let dump = r.wire_dump();
        assert_eq!(dump.capacity, r.capacity());
        let json = serde_json::to_string(&dump).unwrap();
        let back: FlightDump = serde_json::from_str(&json).unwrap();
        assert_eq!(back.snapshots.len(), MAX_SNAPSHOTS);
        assert_eq!(back.events.len(), 2);
    }
}
