//! DRR lockstep driver: the real [`DrrQueue`] and the strict-mode
//! [`Checker`] consume the *same* command sequence.
//!
//! Every push and pop on the real queue is mirrored as the synthesized
//! stream a live worker would emit (a pop is `trace:dequeued`; nothing
//! runs, so no result is asked for), so the checker re-derives the
//! reference model's pop and any divergence between queue and model
//! surfaces as a violation. Shared by the differential proptests and the
//! seeded conformance session.

use crate::{Checker, ConformanceReport};
use iluvatar_core::queue::QueuedInvocation;
use iluvatar_core::{DrrQueue, InvocationHandle};
use iluvatar_telemetry::{TelemetryEvent, TelemetryKind};

fn trace(stage: &str) -> TelemetryKind {
    TelemetryKind::Trace {
        stage: stage.to_string(),
    }
}

/// One item served by [`DrrLockstep::pop`].
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub id: u64,
    pub tenant: String,
    pub cost_ms: f64,
}

pub struct DrrLockstep {
    queue: DrrQueue,
    checker: Checker,
    seq: u64,
    next_id: u64,
    /// Result handles must outlive their senders in the queued items.
    keep_alive: Vec<InvocationHandle>,
}

impl DrrLockstep {
    pub fn new(quantum_ms: u64) -> Self {
        Self {
            queue: DrrQueue::new(quantum_ms),
            checker: Checker::new()
                .with_drr_strict(quantum_ms as f64)
                .with_require_terminal(false),
            seq: 0,
            next_id: 1,
            keep_alive: Vec::new(),
        }
    }

    fn emit(&mut self, id: u64, tenant: &str, kind: TelemetryKind) {
        self.seq += 1;
        self.checker.ingest(&TelemetryEvent {
            seq: self.seq,
            at_ms: self.seq, // synthetic stream: logical time is the event index
            source: "drr-lockstep".to_string(),
            trace_id: Some(id),
            tenant: Some(tenant.to_string()),
            kind,
        });
    }

    /// Enqueue one item (ids count up from 1).
    pub fn push(&mut self, tenant: &str, weight: f64, cost_ms: f64) {
        let id = self.next_id;
        self.next_id += 1;
        let (tx, handle) = InvocationHandle::pair();
        self.keep_alive.push(handle);
        self.emit(id, tenant, trace("ingested"));
        self.emit(
            id,
            tenant,
            TelemetryKind::Wal {
                op: "enqueued".to_string(),
                cost_ms: Some(cost_ms),
                weight: Some(weight),
                ok: None,
                throttled: None,
            },
        );
        self.emit(id, tenant, trace("enqueued"));
        self.queue.push(QueuedInvocation {
            fqdn: "f-1".to_string(),
            args: String::new(),
            trace_id: id,
            arrived_at: id,
            expected_exec_ms: cost_ms,
            iat_ms: 0.0,
            expect_warm: true,
            tenant: Some(tenant.to_string()),
            tenant_weight: weight,
            result_tx: tx,
        });
    }

    /// Pop from the real queue; `None` when it is empty.
    pub fn pop(&mut self) -> Option<Served> {
        let item = self.queue.pop()?;
        let tenant = item.tenant.clone().unwrap_or_default();
        self.emit(item.trace_id, &tenant, trace("dequeued"));
        self.emit(
            item.trace_id,
            &tenant,
            TelemetryKind::Wal {
                op: "completed".to_string(),
                cost_ms: None,
                weight: None,
                ok: Some(true),
                throttled: None,
            },
        );
        Some(Served {
            id: item.trace_id,
            tenant,
            cost_ms: item.expected_exec_ms,
        })
    }

    /// Close the stream and return the checker's verdict.
    pub fn finish(self) -> ConformanceReport {
        self.checker.finish()
    }
}
