//! Reference model for the pull-based dispatch plane.
//!
//! The plane's contract, as seen on the canonical stream (`lease:*`):
//!
//! * **Lease exclusivity** — an invocation is never issued while a lease
//!   on it is live: `issued` is legal only from the queued state.
//! * **Requeue exactly once** — an expired lease's invocation is
//!   requeued exactly once per expiry: `requeued` requires a preceding
//!   `expired` that has not already been requeued, and a second
//!   `requeued` without a fresh expiry is flagged.
//! * **No phantom completions** — `completed` requires a live lease; the
//!   plane drops a dead worker's late completion, so one reaching the
//!   stream means accounting double-counted.
//! * **No early expiry** — `expired` may not land before the
//!   `expires_at_ms` the issue advertised.
//! * **Class priority / fairness bounds** — while guaranteed work is
//!   queued, best-effort issues are bounded ([`CLASS_STARVATION_BOUND`]);
//!   while any tenant has queued work, consecutive issues serving *other*
//!   tenants are bounded ([`TENANT_STARVATION_BOUND`]) — the bound a
//!   broken steal policy (bypassing the victim's DRR order) would blow.
//!
//! `queued` is idempotent by design: a recovered plane legitimately
//! re-announces every invocation its WAL replay brought back, including
//! ones that were mid-lease when it died.

use crate::ModelError;
use std::collections::BTreeMap;

/// Max consecutive best-effort issues while guaranteed work waits. The
/// plane drains guaranteed strictly first, so any sustained run means the
/// class order broke; the bound leaves room for emit/sink interleaving.
const CLASS_STARVATION_BOUND: u32 = 64;

/// Max consecutive issues serving other tenants while one tenant has
/// queued work. DRR with the minimum weight (0.05 vs a heavyweight
/// sibling) still visits every backlogged tenant within a bounded number
/// of grants; a steal path that bypassed DRR would not.
const TENANT_STARVATION_BOUND: u32 = 256;

/// Forgiveness for expiry-vs-deadline comparisons: the sweep decides under
/// its own clock an instant before the bus stamps the event.
const EXPIRY_SLACK_MS: u64 = 100;

#[derive(Debug, Clone, PartialEq)]
enum LeaseState {
    /// In a central queue, eligible for issue.
    Queued,
    /// Leased to `worker` until `expires_at_ms`.
    Live {
        worker: String,
        expires_at_ms: Option<u64>,
    },
    /// Lease expired; the plane owes exactly one requeue.
    AwaitingRequeue,
}

#[derive(Debug, Clone)]
struct Task {
    state: LeaseState,
    tenant: String,
    /// Priority-class name from the `queued`/`issued` events, when carried.
    class: Option<String>,
}

/// The dispatch reference state: every invocation the lease stream has
/// announced, with per-class and per-tenant starvation counters.
#[derive(Debug, Default)]
pub struct DispatchModel {
    tasks: BTreeMap<u64, Task>,
    /// Consecutive best-effort issues while guaranteed work was queued.
    best_effort_run: u32,
    /// Per-tenant: consecutive issues serving *someone else* while this
    /// tenant had queued work.
    passed_over: BTreeMap<String, u32>,
}

impl DispatchModel {
    pub fn new() -> Self {
        Self::default()
    }

    fn queued_in_class(&self, class: &str) -> bool {
        self.tasks
            .iter()
            .any(|(_, t)| t.state == LeaseState::Queued && t.class.as_deref() == Some(class))
    }

    /// Advance on one `lease:{op}` event.
    #[allow(clippy::too_many_arguments)]
    pub fn observe(
        &mut self,
        id: u64,
        tenant: Option<&str>,
        at_ms: u64,
        op: &str,
        worker: &str,
        expires_at_ms: Option<u64>,
        class: Option<&str>,
    ) -> Result<(), ModelError> {
        let tenant = tenant.unwrap_or("default").to_string();
        match op {
            "queued" => {
                // Idempotent: first announcement, a recovery re-announcement
                // (possibly while the dead plane's lease looked live), or a
                // re-enqueue the stream already explained via `requeued`.
                self.tasks.insert(
                    id,
                    Task {
                        state: LeaseState::Queued,
                        tenant,
                        class: class.map(str::to_string),
                    },
                );
                Ok(())
            }
            "stolen" => {
                // The marker preceding a cross-shard issue: the task must
                // still be queued (the issue itself transitions it).
                match self.tasks.get(&id).map(|t| &t.state) {
                    Some(LeaseState::Queued) => Ok(()),
                    Some(state) => Err(ModelError::new(
                        "dispatch-steal-not-queued",
                        format!("trace {id} stolen from `{worker}` while {state:?}"),
                    )),
                    None => Err(ModelError::new(
                        "dispatch-steal-not-queued",
                        format!("trace {id} stolen from `{worker}` but never queued"),
                    )),
                }
            }
            "issued" => {
                let state = self.tasks.get(&id).map(|t| t.state.clone());
                match state {
                    Some(LeaseState::Queued) => {}
                    Some(LeaseState::Live { worker: holder, .. }) => {
                        return Err(ModelError::new(
                            "dispatch-double-lease",
                            format!(
                                "trace {id} issued to `{worker}` while `{holder}`'s lease is live"
                            ),
                        ));
                    }
                    Some(LeaseState::AwaitingRequeue) => {
                        return Err(ModelError::new(
                            "dispatch-lease-not-queued",
                            format!("trace {id} issued to `{worker}` after expiry with no requeue"),
                        ));
                    }
                    None => {
                        return Err(ModelError::new(
                            "dispatch-lease-not-queued",
                            format!("trace {id} issued to `{worker}` but never queued"),
                        ));
                    }
                }
                let issued_class = {
                    let t = self.tasks.get_mut(&id).expect("checked above");
                    t.state = LeaseState::Live {
                        worker: worker.to_string(),
                        expires_at_ms,
                    };
                    if class.is_some() {
                        t.class = class.map(str::to_string);
                    }
                    t.class.clone()
                };
                self.audit_starvation(id, &tenant, issued_class.as_deref())
            }
            "completed" => match self.tasks.get(&id).map(|t| t.state.clone()) {
                Some(LeaseState::Live { .. }) => {
                    self.tasks.remove(&id);
                    self.passed_over.remove(&tenant);
                    Ok(())
                }
                Some(state) => Err(ModelError::new(
                    "dispatch-complete-unleased",
                    format!(
                        "trace {id} completed by `{worker}` while {state:?} — a dead \
                         worker's completion must be dropped, not booked"
                    ),
                )),
                None => Err(ModelError::new(
                    "dispatch-complete-unleased",
                    format!("trace {id} completed by `{worker}` with no live lease"),
                )),
            },
            "expired" => match self.tasks.get(&id).map(|t| t.state.clone()) {
                Some(LeaseState::Live { expires_at_ms, .. }) => {
                    if let Some(deadline) = expires_at_ms {
                        if at_ms.saturating_add(EXPIRY_SLACK_MS) < deadline {
                            return Err(ModelError::new(
                                "dispatch-early-expiry",
                                format!(
                                    "trace {id} expired at t={at_ms}ms before its \
                                     t={deadline}ms deadline"
                                ),
                            ));
                        }
                    }
                    self.tasks.get_mut(&id).expect("checked").state = LeaseState::AwaitingRequeue;
                    Ok(())
                }
                Some(state) => Err(ModelError::new(
                    "dispatch-expire-unleased",
                    format!("trace {id} expired while {state:?}"),
                )),
                None => Err(ModelError::new(
                    "dispatch-expire-unleased",
                    format!("trace {id} expired but was never leased"),
                )),
            },
            "requeued" => match self.tasks.get(&id).map(|t| t.state.clone()) {
                Some(LeaseState::AwaitingRequeue) => {
                    self.tasks.get_mut(&id).expect("checked").state = LeaseState::Queued;
                    Ok(())
                }
                Some(LeaseState::Queued) => Err(ModelError::new(
                    "dispatch-double-requeue",
                    format!("trace {id} requeued twice for one expiry"),
                )),
                Some(state) => Err(ModelError::new(
                    "dispatch-requeue-without-expiry",
                    format!("trace {id} requeued while {state:?}"),
                )),
                None => Err(ModelError::new(
                    "dispatch-requeue-without-expiry",
                    format!("trace {id} requeued but was never queued"),
                )),
            },
            other => Err(ModelError::new(
                "dispatch-unknown-op",
                format!("unknown lease op `{other}`"),
            )),
        }
    }

    /// Starvation counters, updated after a legal issue: the grant serves
    /// `tenant` in `class`.
    fn audit_starvation(
        &mut self,
        id: u64,
        tenant: &str,
        class: Option<&str>,
    ) -> Result<(), ModelError> {
        if class == Some("best_effort") && self.queued_in_class("guaranteed") {
            self.best_effort_run += 1;
            if self.best_effort_run > CLASS_STARVATION_BOUND {
                return Err(ModelError::new(
                    "dispatch-starvation",
                    format!(
                        "trace {id}: {} consecutive best-effort issues while \
                         guaranteed work is queued",
                        self.best_effort_run
                    ),
                ));
            }
        } else if class == Some("guaranteed") {
            self.best_effort_run = 0;
        }
        // Tenant fairness bound: every backlogged tenant other than the one
        // served slips one grant further behind. Deduplicated per tenant —
        // the counter measures grants passed over, not queue depth, so a
        // deep backlog must not multiply each miss.
        let backlogged: std::collections::BTreeSet<String> = self
            .tasks
            .values()
            .filter(|t| t.state == LeaseState::Queued && t.tenant != tenant)
            .map(|t| t.tenant.clone())
            .collect();
        self.passed_over.insert(tenant.to_string(), 0);
        for other in backlogged {
            let n = self.passed_over.entry(other.clone()).or_default();
            *n += 1;
            if *n > TENANT_STARVATION_BOUND {
                return Err(ModelError::new(
                    "dispatch-tenant-starvation",
                    format!(
                        "tenant `{other}` passed over {n} consecutive grants \
                         while backlogged (last grant: trace {id} for `{tenant}`)"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Leases currently live.
    pub fn live(&self) -> usize {
        self.tasks
            .values()
            .filter(|t| matches!(t.state, LeaseState::Live { .. }))
            .count()
    }

    /// Invocations queued (announced, not leased, not completed).
    pub fn queued(&self) -> usize {
        self.tasks
            .values()
            .filter(|t| t.state == LeaseState::Queued)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(m: &mut DispatchModel, id: u64, op: &str, worker: &str) -> Result<(), ModelError> {
        m.observe(id, Some("a"), 0, op, worker, None, None)
    }

    #[test]
    fn clean_lifecycle_passes() {
        let mut m = DispatchModel::new();
        assert!(step(&mut m, 1, "queued", "").is_ok());
        assert!(step(&mut m, 1, "issued", "w0").is_ok());
        assert_eq!(m.live(), 1);
        assert!(step(&mut m, 1, "completed", "w0").is_ok());
        assert_eq!((m.live(), m.queued()), (0, 0));
    }

    #[test]
    fn expiry_requeue_reissue_passes() {
        let mut m = DispatchModel::new();
        for op in [
            "queued",
            "issued",
            "expired",
            "requeued",
            "issued",
            "completed",
        ] {
            assert!(step(&mut m, 1, op, "w0").is_ok(), "op {op}");
        }
    }

    #[test]
    fn double_lease_is_flagged() {
        let mut m = DispatchModel::new();
        step(&mut m, 1, "queued", "").unwrap();
        step(&mut m, 1, "issued", "w0").unwrap();
        let err = step(&mut m, 1, "issued", "w1").unwrap_err();
        assert_eq!(err.rule, "dispatch-double-lease");
    }

    #[test]
    fn reissue_without_requeue_is_flagged() {
        let mut m = DispatchModel::new();
        for op in ["queued", "issued", "expired"] {
            step(&mut m, 1, op, "w0").unwrap();
        }
        let err = step(&mut m, 1, "issued", "w1").unwrap_err();
        assert_eq!(err.rule, "dispatch-lease-not-queued");
    }

    #[test]
    fn double_requeue_is_flagged() {
        let mut m = DispatchModel::new();
        for op in ["queued", "issued", "expired", "requeued"] {
            step(&mut m, 1, op, "w0").unwrap();
        }
        let err = step(&mut m, 1, "requeued", "").unwrap_err();
        assert_eq!(err.rule, "dispatch-double-requeue");
    }

    #[test]
    fn dead_workers_completion_is_flagged() {
        let mut m = DispatchModel::new();
        for op in ["queued", "issued", "expired"] {
            step(&mut m, 1, op, "w0").unwrap();
        }
        let err = step(&mut m, 1, "completed", "w0").unwrap_err();
        assert_eq!(err.rule, "dispatch-complete-unleased");
    }

    #[test]
    fn early_expiry_is_flagged() {
        let mut m = DispatchModel::new();
        m.observe(1, Some("a"), 0, "queued", "", None, None)
            .unwrap();
        m.observe(1, Some("a"), 100, "issued", "w0", Some(2_000), None)
            .unwrap();
        let err = m
            .observe(1, Some("a"), 500, "expired", "w0", None, None)
            .unwrap_err();
        assert_eq!(err.rule, "dispatch-early-expiry");
        assert!(m
            .observe(1, Some("a"), 2_000, "expired", "w0", None, None)
            .is_ok());
    }

    #[test]
    fn recovery_requeue_of_live_lease_is_legal() {
        let mut m = DispatchModel::new();
        step(&mut m, 1, "queued", "").unwrap();
        step(&mut m, 1, "issued", "w0").unwrap();
        // The plane crashed and its replay re-announces the task.
        assert!(step(&mut m, 1, "queued", "").is_ok());
        assert!(step(&mut m, 1, "issued", "w1").is_ok());
        assert!(step(&mut m, 1, "completed", "w1").is_ok());
    }

    #[test]
    fn best_effort_starvation_is_bounded() {
        let mut m = DispatchModel::new();
        m.observe(1, Some("gold"), 0, "queued", "", None, Some("guaranteed"))
            .unwrap();
        let mut tripped = None;
        for i in 0..200u64 {
            let id = 100 + i;
            m.observe(id, Some("b"), 0, "queued", "", None, Some("best_effort"))
                .unwrap();
            if let Err(e) = m.observe(id, Some("b"), 0, "issued", "w0", None, Some("best_effort")) {
                tripped = Some(e);
                break;
            }
            m.observe(id, Some("b"), 0, "completed", "w0", None, None)
                .unwrap();
        }
        let err = tripped.expect("starvation bound must trip");
        assert_eq!(err.rule, "dispatch-starvation");
    }

    #[test]
    fn tenant_passover_is_bounded() {
        let mut m = DispatchModel::new();
        m.observe(1, Some("starved"), 0, "queued", "", None, None)
            .unwrap();
        let mut tripped = None;
        for i in 0..400u64 {
            let id = 100 + i;
            m.observe(id, Some("greedy"), 0, "queued", "", None, None)
                .unwrap();
            if let Err(e) = m.observe(id, Some("greedy"), 0, "issued", "w0", None, None) {
                tripped = Some(e);
                break;
            }
            m.observe(id, Some("greedy"), 0, "completed", "w0", None, None)
                .unwrap();
        }
        let err = tripped.expect("tenant fairness bound must trip");
        assert_eq!(err.rule, "dispatch-tenant-starvation");
    }
}
