//! Reference model for the write-ahead log / recovery contract.
//!
//! Per-invocation guarded state machine, keyed by trace id:
//!
//! ```text
//!            enqueued                      completed
//!   Absent ───────────▶ Pending ──────────────────────────────────▶ Completed
//!      │                   │                                          ▲
//!      │ shed              │ dequeued (older logs)        completed   │
//!      ▼                   └──────────────▶ InFlight ─────────────────┘
//!    Shed                            (repeatable: at-least-once)
//! ```
//! A worker logs no dequeue, so its ids go Pending → Completed; `InFlight`
//! comes from an older log's `Dequeued` or a snapshot's in-flight mark.
//!
//! Rules enforced (the names are the stable `ModelError::rule` strings):
//!
//! * `double-enqueue` — an id is accepted (Enqueued) at most once per
//!   snapshot epoch.
//! * `dequeue-of-unknown` / `complete-of-unknown` / `shed-of-known` — every
//!   record refers to an id in the legal prior state.
//! * `double-complete` — exactly-once accounting: one Completed per id.
//! * `append-after-poison` — a poisoned log accepts no further records.
//! * `degraded-reentry` / `rearm-without-degrade` — the degraded-mode
//!   gauge is a two-state machine: `wal_io:degraded` and `wal_io:rearmed`
//!   must strictly alternate per source.
//!
//! The model also keeps per-tenant books mirroring `wal::replay` (admitted /
//! served / throttled / shed) so callers can differentially compare the
//! model's accounting against `ReplayState` or live `tenant_stats()`.

use crate::ModelError;
use std::collections::{BTreeMap, BTreeSet};

/// Lifecycle of one invocation id, as far as the WAL can observe it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvState {
    /// Accepted: `Enqueued` is durable, the invocation must eventually be
    /// completed or survive in the pending set.
    Pending,
    /// Dequeued at least once (an older log); execution may die and be
    /// re-driven (at-least-once), so `dequeued` from here is idempotent.
    InFlight,
    /// Finished either way; terminal for accounting (exactly-once).
    Completed,
    /// Rejected at admission; never entered the pending set.
    Shed,
}

/// Per-tenant accounting mirror of `wal::replay`'s books.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantBook {
    pub admitted: u64,
    pub served: u64,
    pub throttled: u64,
    pub shed: u64,
}

/// Metadata remembered from an `Enqueued` record, so downstream models
/// (DRR) can be driven from the event stream alone.
#[derive(Debug, Clone, Default)]
pub struct InvMeta {
    pub tenant: Option<String>,
    pub cost_ms: f64,
    pub weight: f64,
}

/// The executable WAL/recovery reference model.
#[derive(Debug, Default)]
pub struct WalModel {
    state: BTreeMap<u64, InvState>,
    meta: BTreeMap<u64, InvMeta>,
    books: BTreeMap<String, TenantBook>,
    poisoned: BTreeSet<String>,
    degraded: BTreeSet<String>,
    pub records: u64,
}

fn tenant_key(tenant: Option<&str>) -> String {
    tenant.unwrap_or("default").to_string()
}

impl WalModel {
    pub fn new() -> Self {
        Self::default()
    }

    fn guard_poison(&self, source: &str, op: &str) -> Result<(), ModelError> {
        if self.poisoned.contains(source) {
            return Err(ModelError::new(
                "append-after-poison",
                format!("source `{source}` appended `{op}` after its WAL was poisoned"),
            ));
        }
        Ok(())
    }

    /// `Enqueued { inv }` landed: Absent → Pending.
    pub fn enqueued(
        &mut self,
        source: &str,
        id: u64,
        tenant: Option<&str>,
        cost_ms: f64,
        weight: f64,
    ) -> Result<(), ModelError> {
        self.guard_poison(source, "enqueued")?;
        self.records += 1;
        match self.state.get(&id) {
            None => {
                self.state.insert(id, InvState::Pending);
                self.meta.insert(
                    id,
                    InvMeta {
                        tenant: tenant.map(str::to_string),
                        cost_ms,
                        weight,
                    },
                );
                self.books.entry(tenant_key(tenant)).or_default().admitted += 1;
                Ok(())
            }
            Some(s) => Err(ModelError::new(
                "double-enqueue",
                format!("id {id} enqueued while already {s:?}"),
            )),
        }
    }

    /// `Dequeued { id }` landed: Pending|InFlight → InFlight. Repeats are
    /// legal (at-least-once re-drive after recovery).
    pub fn dequeued(&mut self, source: &str, id: u64) -> Result<(), ModelError> {
        self.guard_poison(source, "dequeued")?;
        self.records += 1;
        match self.state.get(&id) {
            Some(InvState::Pending) | Some(InvState::InFlight) => {
                self.state.insert(id, InvState::InFlight);
                Ok(())
            }
            None => Err(ModelError::new(
                "dequeue-of-unknown",
                format!("id {id} dequeued but was never accepted (no durable Enqueued)"),
            )),
            Some(s) => Err(ModelError::new(
                "dequeue-of-terminal",
                format!("id {id} dequeued while already {s:?}"),
            )),
        }
    }

    /// `Completed { id, ok }` landed: Pending|InFlight → Completed, exactly
    /// once. (Pending → Completed covers push-full / shutdown retractions,
    /// which complete without ever dequeuing.)
    pub fn completed(
        &mut self,
        source: &str,
        id: u64,
        ok: bool,
        tenant: Option<&str>,
    ) -> Result<(), ModelError> {
        self.guard_poison(source, "completed")?;
        self.records += 1;
        match self.state.get(&id) {
            Some(InvState::Pending) | Some(InvState::InFlight) => {
                self.state.insert(id, InvState::Completed);
                if ok {
                    self.books.entry(tenant_key(tenant)).or_default().served += 1;
                }
                Ok(())
            }
            Some(InvState::Completed) => Err(ModelError::new(
                "double-complete",
                format!("id {id} completed twice — exactly-once accounting broken"),
            )),
            Some(InvState::Shed) => Err(ModelError::new(
                "complete-of-shed",
                format!("id {id} completed but was shed at admission"),
            )),
            None => Err(ModelError::new(
                "complete-of-unknown",
                format!("id {id} completed but was never accepted (no durable Enqueued)"),
            )),
        }
    }

    /// `Shed { id, throttled }` landed: Absent → Shed. A shed id never
    /// entered the pending set, so any prior state is a violation.
    pub fn shed(
        &mut self,
        source: &str,
        id: u64,
        tenant: Option<&str>,
        throttled: bool,
    ) -> Result<(), ModelError> {
        self.guard_poison(source, "shed")?;
        self.records += 1;
        match self.state.get(&id) {
            None => {
                self.state.insert(id, InvState::Shed);
                let book = self.books.entry(tenant_key(tenant)).or_default();
                if throttled {
                    book.throttled += 1;
                } else {
                    book.shed += 1;
                }
                Ok(())
            }
            Some(s) => Err(ModelError::new(
                "shed-of-known",
                format!("id {id} shed while already {s:?}"),
            )),
        }
    }

    /// A `Snapshot` record: authoritative reset of the pending set (replay
    /// restarts from here, so the model does too). Ids in `pending` become
    /// Pending/InFlight; everything else is forgotten, matching
    /// `wal::replay`'s epoch reset of its dedup sets.
    pub fn snapshot(&mut self, source: &str, pending: &[(u64, bool)]) -> Result<(), ModelError> {
        self.guard_poison(source, "snapshot")?;
        self.records += 1;
        self.state.clear();
        for &(id, dequeued) in pending {
            self.state.insert(
                id,
                if dequeued {
                    InvState::InFlight
                } else {
                    InvState::Pending
                },
            );
        }
        Ok(())
    }

    /// The WAL for `source` was poisoned (kill). Later records from that
    /// source are `append-after-poison` violations.
    pub fn poison(&mut self, source: &str) {
        self.poisoned.insert(source.to_string());
    }

    /// Clear the poison for `source` — a recovered incarnation reopens the
    /// log legitimately.
    pub fn unpoison(&mut self, source: &str) {
        self.poisoned.remove(source);
        // A recovered incarnation reopens on a fresh segment, never
        // degraded.
        self.degraded.remove(source);
    }

    pub fn is_poisoned(&self, source: &str) -> bool {
        self.poisoned.contains(source)
    }

    /// `wal_io:degraded`: the source's WAL entered degraded (non-durable)
    /// mode. The Wal emits this only on the transition, so seeing it while
    /// already degraded means the emitter's state machine is broken.
    pub fn enter_degraded(&mut self, source: &str) -> Result<(), ModelError> {
        if !self.degraded.insert(source.to_string()) {
            return Err(ModelError::new(
                "degraded-reentry",
                format!("source `{source}` entered degraded mode while already degraded"),
            ));
        }
        Ok(())
    }

    /// `wal_io:rearmed`: the source's WAL re-armed onto a fresh segment.
    pub fn rearmed(&mut self, source: &str) -> Result<(), ModelError> {
        if !self.degraded.remove(source) {
            return Err(ModelError::new(
                "rearm-without-degrade",
                format!("source `{source}` re-armed without being degraded"),
            ));
        }
        Ok(())
    }

    /// Is the source currently serving non-durably? Stream rules that
    /// demand durable records (`accepted-not-durable`,
    /// `result-before-durable`) are relaxed inside this window — that is
    /// exactly what degraded mode advertises.
    pub fn is_degraded(&self, source: &str) -> bool {
        self.degraded.contains(source)
    }

    pub fn state_of(&self, id: u64) -> Option<InvState> {
        self.state.get(&id).copied()
    }

    pub fn meta_of(&self, id: u64) -> Option<&InvMeta> {
        self.meta.get(&id)
    }

    /// Ids accepted but not yet terminal — must match `ReplayState::pending`
    /// after replaying the same log.
    pub fn pending_ids(&self) -> Vec<u64> {
        self.state
            .iter()
            .filter(|(_, s)| matches!(s, InvState::Pending | InvState::InFlight))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Per-tenant accounting books accumulated from transitions (tail
    /// mutations only — snapshot baselines are the caller's business).
    pub fn books(&self) -> &BTreeMap<String, TenantBook> {
        &self.books
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_and_at_least_once() {
        let mut m = WalModel::new();
        m.enqueued("w", 1, Some("a"), 10.0, 1.0).unwrap();
        m.dequeued("w", 1).unwrap();
        // Re-drive after a crash: a second dequeue is legal.
        m.dequeued("w", 1).unwrap();
        m.completed("w", 1, true, Some("a")).unwrap();
        assert_eq!(m.state_of(1), Some(InvState::Completed));
        assert_eq!(
            m.books()["a"],
            TenantBook {
                admitted: 1,
                served: 1,
                throttled: 0,
                shed: 0
            }
        );
    }

    #[test]
    fn exactly_once_accounting() {
        let mut m = WalModel::new();
        m.enqueued("w", 1, None, 1.0, 1.0).unwrap();
        m.dequeued("w", 1).unwrap();
        m.completed("w", 1, true, None).unwrap();
        let err = m.completed("w", 1, true, None).unwrap_err();
        assert_eq!(err.rule, "double-complete");
    }

    #[test]
    fn accepted_means_durable() {
        let mut m = WalModel::new();
        assert_eq!(m.dequeued("w", 7).unwrap_err().rule, "dequeue-of-unknown");
        assert_eq!(
            m.completed("w", 7, false, None).unwrap_err().rule,
            "complete-of-unknown"
        );
    }

    #[test]
    fn push_full_retraction_completes_from_pending() {
        let mut m = WalModel::new();
        m.enqueued("w", 3, Some("b"), 5.0, 2.0).unwrap();
        // Queue rejected the push: Completed(false) without a Dequeued.
        m.completed("w", 3, false, Some("b")).unwrap();
        assert_eq!(m.books()["b"].served, 0);
    }

    #[test]
    fn poison_blocks_appends_until_recovery() {
        let mut m = WalModel::new();
        m.enqueued("w", 1, None, 1.0, 1.0).unwrap();
        m.poison("w");
        assert_eq!(
            m.completed("w", 1, true, None).unwrap_err().rule,
            "append-after-poison"
        );
        m.unpoison("w");
        m.completed("w", 1, true, None).unwrap();
    }

    #[test]
    fn snapshot_resets_the_epoch() {
        let mut m = WalModel::new();
        m.enqueued("w", 1, None, 1.0, 1.0).unwrap();
        m.completed("w", 1, true, None).unwrap();
        m.snapshot("w", &[(2, false), (3, true)]).unwrap();
        assert_eq!(m.pending_ids(), vec![2, 3]);
        assert_eq!(m.state_of(3), Some(InvState::InFlight));
        // Id 1 is forgotten — a fresh epoch may reuse nothing about it.
        assert_eq!(m.state_of(1), None);
    }
}
