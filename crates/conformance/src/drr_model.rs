//! Reference model for deficit-weighted round robin.
//!
//! An independent re-statement of the `DrrQueue` serving discipline: each
//! backlogged tenant is visited in rotation; a visit credits
//! `quantum × weight` milliseconds of deficit once; the head item is served
//! while the deficit covers its cost (`expected_exec_ms`, floored at 1 ms);
//! a drained tenant forfeits its credit; an uncredited tenant rotates.
//!
//! Three checkable claims come out of this:
//!
//! * **Refinement** (`drr-refinement`) — driven single-threaded with the
//!   same push/pop sequence, the implementation must pop exactly the ids
//!   the model pops.
//! * **Deficit bound** (`deficit-bound`) — every tenant's deficit stays
//!   below `quantum × weight + max_cost`, and an idle tenant's deficit is
//!   exactly 0.
//! * **Weighted fairness** (`weighted-fairness`) — over any window where
//!   the set of backlogged tenants is stable and long enough, per-tenant
//!   service normalised by weight is equal within a tolerance.
//!
//! Live multi-threaded workers cannot be checked against the strict
//! refinement (the WAL `enqueued` append and the queue push are not atomic,
//! so the stream's order is not the queue's order); for those the model
//! offers a race-immune FIFO-within-tenant mode.

use crate::ModelError;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

#[derive(Debug, Default)]
struct Sub {
    items: VecDeque<(u64, f64)>, // (id, cost_ms)
    deficit: f64,
    weight: f64,
    credited: bool,
}

/// One fairness-accounting window: a maximal run of pops during which the
/// set of backlogged tenants did not change.
#[derive(Debug, Clone)]
pub struct Window {
    pub tenants: BTreeSet<String>,
    /// Per-tenant served cost normalised by weight (ms of service ÷ weight).
    pub norm_served: BTreeMap<String, f64>,
}

/// How pops are checked against the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrrMode {
    /// Full refinement: the model simulates the rotation and the observed
    /// pop must match the model's pop exactly. Requires a single-threaded
    /// driver (push order in the stream == push order into the queue).
    Strict,
    /// Race-immune: only FIFO order *within* each tenant is enforced.
    FifoWithinTenant,
}

/// The executable DRR reference model.
#[derive(Debug)]
pub struct DrrModel {
    mode: DrrMode,
    quantum_ms: f64,
    subs: BTreeMap<String, Sub>,
    active: VecDeque<String>,
    len: usize,
    max_cost: f64,
    min_weight: f64,
    window: Option<Window>,
    pub closed_windows: Vec<Window>,
    /// Pops served (in FIFO mode: dequeues that passed the check).
    pub pops: u64,
}

fn key_of(tenant: Option<&str>) -> String {
    tenant.unwrap_or("default").to_string()
}

impl DrrModel {
    pub fn new(mode: DrrMode, quantum_ms: f64) -> Self {
        Self {
            mode,
            quantum_ms: if quantum_ms > 0.0 { quantum_ms } else { 50.0 },
            subs: BTreeMap::new(),
            active: VecDeque::new(),
            len: 0,
            max_cost: 1.0,
            min_weight: f64::INFINITY,
            window: None,
            closed_windows: Vec::new(),
            pops: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` is queued in the model.
    pub fn holds(&self, id: u64) -> bool {
        self.subs
            .values()
            .any(|s| s.items.iter().any(|&(i, _)| i == id))
    }

    /// Mirror of `DrrQueue::push`.
    pub fn push(&mut self, id: u64, tenant: Option<&str>, cost_ms: f64, weight: f64) {
        let key = key_of(tenant);
        let weight = if weight > 0.0 { weight } else { 1.0 };
        self.max_cost = self.max_cost.max(cost_ms.max(1.0));
        self.min_weight = self.min_weight.min(weight);
        let sub = self.subs.entry(key.clone()).or_default();
        sub.weight = weight;
        if sub.items.is_empty() {
            self.active.push_back(key);
        }
        sub.items.push_back((id, cost_ms));
        self.len += 1;
    }

    /// Mirror of `DrrQueue::pop`: simulate the rotation and return the id
    /// the discipline must serve next.
    pub fn pop(&mut self) -> Option<(u64, String)> {
        if self.len == 0 {
            return None;
        }
        self.account_window_boundary();
        loop {
            let key = self.active.front()?.clone();
            let sub = self.subs.get_mut(&key).expect("active tenant has a sub");
            if !sub.credited {
                sub.deficit += self.quantum_ms * sub.weight;
                sub.credited = true;
            }
            let cost = sub
                .items
                .front()
                .map(|(_, c)| c.max(1.0))
                .expect("non-empty");
            if sub.deficit >= cost {
                let (id, raw_cost) = sub.items.pop_front().expect("non-empty");
                sub.deficit -= cost;
                self.len -= 1;
                if sub.items.is_empty() {
                    sub.deficit = 0.0;
                    sub.credited = false;
                    self.active.pop_front();
                }
                self.pops += 1;
                if let Some(w) = self.window.as_mut() {
                    *w.norm_served.entry(key.clone()).or_default() +=
                        raw_cost.max(1.0) / self.subs[&key].weight.max(f64::MIN_POSITIVE);
                }
                return Some((id, key));
            }
            sub.credited = false;
            let k = self.active.pop_front().expect("checked front above");
            self.active.push_back(k);
        }
    }

    /// The observed stream dequeued `id` (tenant label from the event).
    /// Strict mode replays the model's own pop and demands identity; FIFO
    /// mode demands `id` be the oldest queued item of its tenant.
    pub fn expect_pop(&mut self, id: u64, tenant: Option<&str>) -> Result<(), ModelError> {
        match self.mode {
            DrrMode::Strict => match self.pop() {
                Some((got, _)) if got == id => Ok(()),
                Some((got, t)) => Err(ModelError::new(
                    "drr-refinement",
                    format!("implementation popped id {id}, model pops id {got} (tenant `{t}`)"),
                )),
                None => Err(ModelError::new(
                    "drr-refinement",
                    format!("implementation popped id {id} from a queue the model holds empty"),
                )),
            },
            DrrMode::FifoWithinTenant => {
                let key = key_of(tenant);
                let Some(sub) = self.subs.get_mut(&key) else {
                    return Err(ModelError::new(
                        "fifo-within-tenant",
                        format!("id {id} dequeued for tenant `{key}` with no queued items"),
                    ));
                };
                match sub.items.front() {
                    Some(&(front, _)) if front == id => {
                        sub.items.pop_front();
                        self.len -= 1;
                        self.pops += 1;
                        if sub.items.is_empty() {
                            self.active.retain(|k| k != &key);
                        }
                        Ok(())
                    }
                    Some(&(front, _)) => Err(ModelError::new(
                        "fifo-within-tenant",
                        format!("tenant `{key}` dequeued id {id} ahead of older queued id {front}"),
                    )),
                    None => Err(ModelError::new(
                        "fifo-within-tenant",
                        format!("id {id} dequeued for tenant `{key}` with no queued items"),
                    )),
                }
            }
        }
    }

    /// Remove a queued id that never actually entered the implementation's
    /// queue (push-full / shutdown retraction: `Completed` with no
    /// `Dequeued`). No-op when absent.
    pub fn retract(&mut self, id: u64) {
        let mut emptied: Option<String> = None;
        for (key, sub) in self.subs.iter_mut() {
            if let Some(pos) = sub.items.iter().position(|&(i, _)| i == id) {
                sub.items.remove(pos);
                self.len -= 1;
                if sub.items.is_empty() {
                    sub.deficit = 0.0;
                    sub.credited = false;
                    emptied = Some(key.clone());
                }
                break;
            }
        }
        if let Some(key) = emptied {
            self.active.retain(|k| k != &key);
        }
    }

    /// The two deficit invariants, checkable after any transition.
    pub fn check_deficit_bound(&self) -> Result<(), ModelError> {
        for (key, sub) in &self.subs {
            let bound = self.quantum_ms * sub.weight.max(1.0) + self.max_cost;
            if sub.items.is_empty() && sub.deficit != 0.0 {
                return Err(ModelError::new(
                    "deficit-bound",
                    format!("idle tenant `{key}` carries deficit {}", sub.deficit),
                ));
            }
            if sub.deficit >= bound {
                return Err(ModelError::new(
                    "deficit-bound",
                    format!(
                        "tenant `{key}` deficit {} ≥ bound {bound} (quantum×weight + max_cost)",
                        sub.deficit
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Close the current fairness window and audit every closed window:
    /// windows long enough to amortise quantisation must show per-tenant
    /// weight-normalised service within `tol` (e.g. 0.10 = ±10%).
    pub fn check_fairness(&mut self, tol: f64) -> Vec<ModelError> {
        self.close_window();
        let min_weight = if self.min_weight.is_finite() {
            self.min_weight
        } else {
            1.0
        };
        // One rotation can misalign tenants by up to quantum + max_cost/w
        // normalised ms each (in opposite directions); only windows that
        // dwarf that bound make a ±tol claim meaningful.
        let min_span = 20.0 * (self.quantum_ms + self.max_cost / min_weight);
        let mut errs = Vec::new();
        for w in &self.closed_windows {
            if w.tenants.len() < 2 {
                continue;
            }
            let max = w.norm_served.values().cloned().fold(0.0, f64::max);
            if max < min_span {
                continue;
            }
            for t in &w.tenants {
                let got = w.norm_served.get(t).copied().unwrap_or(0.0);
                if got < max * (1.0 - tol) {
                    errs.push(ModelError::new(
                        "weighted-fairness",
                        format!(
                            "tenant `{t}` got {got:.1} normalised ms vs leader {max:.1} \
                             over a stable window of {} tenants (tolerance ±{:.0}%)",
                            w.tenants.len(),
                            tol * 100.0
                        ),
                    ));
                }
            }
        }
        errs
    }

    fn backlogged(&self) -> BTreeSet<String> {
        self.subs
            .iter()
            .filter(|(_, s)| !s.items.is_empty())
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn account_window_boundary(&mut self) {
        let now = self.backlogged();
        let same = self
            .window
            .as_ref()
            .map(|w| w.tenants == now)
            .unwrap_or(false);
        if !same {
            self.close_window();
            if now.len() >= 2 {
                self.window = Some(Window {
                    tenants: now,
                    norm_served: BTreeMap::new(),
                });
            }
        }
    }

    fn close_window(&mut self) {
        if let Some(w) = self.window.take() {
            if !w.norm_served.is_empty() {
                self.closed_windows.push(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(m: &mut DrrModel) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        while let Some(p) = m.pop() {
            m.check_deficit_bound().unwrap();
            out.push(p);
        }
        out
    }

    #[test]
    fn weighted_service_is_proportional() {
        let mut m = DrrModel::new(DrrMode::Strict, 50.0);
        for i in 0..40 {
            m.push(i, Some("gold"), 10.0, 3.0);
            m.push(100 + i, Some("bronze"), 10.0, 1.0);
        }
        let order = drain(&mut m);
        // Two full rotations serve 15 gold + 5 bronze each (quantum 50 ×
        // weight ÷ cost 10): exactly 3:1 over the first 40 pops.
        let gold_early = order[..40].iter().filter(|(_, t)| t == "gold").count();
        assert_eq!(gold_early, 30, "gold got {gold_early}/40 early pops");
        let errs = m.check_fairness(0.10);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn strict_refinement_flags_wrong_pop() {
        let mut m = DrrModel::new(DrrMode::Strict, 50.0);
        m.push(1, Some("a"), 5.0, 1.0);
        m.push(2, Some("a"), 5.0, 1.0);
        let err = m.expect_pop(2, Some("a")).unwrap_err();
        assert_eq!(err.rule, "drr-refinement");
    }

    #[test]
    fn fifo_mode_only_orders_within_tenant() {
        let mut m = DrrModel::new(DrrMode::FifoWithinTenant, 50.0);
        m.push(1, Some("a"), 5.0, 1.0);
        m.push(2, Some("b"), 5.0, 1.0);
        m.push(3, Some("a"), 5.0, 1.0);
        // Cross-tenant order is free: b may go first.
        m.expect_pop(2, Some("b")).unwrap();
        // Within a, id 3 before id 1 is a violation.
        assert_eq!(
            m.expect_pop(3, Some("a")).unwrap_err().rule,
            "fifo-within-tenant"
        );
    }

    #[test]
    fn idle_tenant_carries_no_deficit() {
        let mut m = DrrModel::new(DrrMode::Strict, 50.0);
        m.push(1, Some("a"), 120.0, 1.0);
        m.push(2, Some("b"), 1.0, 1.0);
        drain(&mut m);
        m.check_deficit_bound().unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn retraction_keeps_rotation_consistent() {
        let mut m = DrrModel::new(DrrMode::Strict, 50.0);
        m.push(1, Some("a"), 5.0, 1.0);
        m.push(2, Some("b"), 5.0, 1.0);
        m.retract(2);
        let order = drain(&mut m);
        assert_eq!(order.len(), 1);
        assert_eq!(order[0].0, 1);
    }
}
