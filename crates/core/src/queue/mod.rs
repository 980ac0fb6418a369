//! The per-worker invocation queue (§4).
//!
//! "Function invocations go through this queuing system before reaching the
//! container manager ... Each worker manages its own queue, differentiating
//! our design from OpenWhisk's shared Kafka queue."
//!
//! Components, right to left in Figure 2:
//!
//! * [`regulator::ConcurrencyRegulator`] — bounds concurrently running
//!   functions; fixed or AIMD-dynamic limit.
//! * [`InvocationQueue`] — priority queue under a mutex (§5 found a mutex
//!   good enough here) with the FCFS/SJF/EEDF/RARE disciplines of §4.2,
//!   plus the multi-tenant [`DrrQueue`] (deficit-weighted round robin over
//!   per-tenant sub-queues).
//! * the executors' wait point — [`InvocationQueue::wait_work`] parks an
//!   idle executor on the queue's own condvar until a push or `close` gives
//!   it something to do; a synchronous caller that finds nothing waiting
//!   skips it and runs its own invocation
//!   ([`InvocationQueue::claim_if_idle`]).

pub mod regulator;

use crate::config::{QueueConfig, QueuePolicyKind};
use crate::invocation::ResultSender;
use iluvatar_sync::{SemaphorePermit, TimeMs};
use parking_lot::{Condvar, Mutex};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Quantum used when `QueueConfig::drr_quantum_ms` is 0 (unset).
pub const DEFAULT_DRR_QUANTUM_MS: u64 = 50;

/// An invocation waiting for dispatch.
pub struct QueuedInvocation {
    pub fqdn: String,
    pub args: String,
    /// End-to-end trace id minted at ingest (see [`crate::journal`]).
    pub trace_id: u64,
    pub arrived_at: TimeMs,
    /// Expected execution time (moving-window), ms. 0 for unseen functions,
    /// which prioritizes them (§4.2).
    pub expected_exec_ms: f64,
    /// Mean inter-arrival time, ms (RARE input).
    pub iat_ms: f64,
    /// Whether a warm container is expected (picks warm vs cold estimate).
    pub expect_warm: bool,
    /// Tenant label for the DRR fair queue and per-tenant accounting;
    /// `None` lands in the default tenant's sub-queue.
    pub tenant: Option<String>,
    /// DRR weight of the tenant at enqueue time (`<= 0` means 1.0).
    pub tenant_weight: f64,
    pub result_tx: ResultSender,
}

/// Compute the dequeue priority; LOWER dequeues first.
pub fn priority_of(policy: QueuePolicyKind, q: &QueuedInvocation) -> f64 {
    match policy {
        QueuePolicyKind::Fcfs => q.arrived_at as f64,
        QueuePolicyKind::Sjf => q.expected_exec_ms,
        // Effective deadline = arrival + expected execution (§4.2).
        QueuePolicyKind::Eedf => q.arrived_at as f64 + q.expected_exec_ms,
        // Most unexpected (highest IAT) first.
        QueuePolicyKind::Rare => -q.iat_ms,
        // DRR does not use a scalar priority (it is a multi-queue
        // structure); arrival order is the total-order fallback.
        QueuePolicyKind::Drr => q.arrived_at as f64,
    }
}

struct HeapItem {
    priority: f64,
    seq: u64,
    item: QueuedInvocation,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert so the LOWEST priority pops
        // first, with FIFO (seq) tiebreak.
        other
            .priority
            .total_cmp(&self.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

struct SubQueue {
    items: VecDeque<QueuedInvocation>,
    /// Remaining cost credit, in expected-exec milliseconds.
    deficit: f64,
    weight: f64,
    /// Whether this sub-queue already received its quantum for the current
    /// visit at the head of the active rotation.
    credited: bool,
}

impl SubQueue {
    fn new(weight: f64) -> Self {
        Self {
            items: VecDeque::new(),
            deficit: 0.0,
            weight,
            credited: false,
        }
    }
}

/// Deficit-weighted round robin over per-tenant sub-queues.
///
/// Each backlogged tenant sits in a rotation; on reaching the head it is
/// credited `quantum × weight` milliseconds of cost and serves invocations
/// (cost = expected execution time, floored at 1 ms) while its deficit
/// covers them, then rotates to the back. Unspent deficit carries over
/// while the tenant stays backlogged, so long-run service converges to the
/// weight ratio; it resets to zero when the sub-queue drains, so an idle
/// tenant cannot hoard credit and later starve others.
pub struct DrrQueue {
    quantum_ms: f64,
    active: VecDeque<String>,
    subs: HashMap<String, SubQueue>,
    len: usize,
}

/// Sub-queue key for invocations without a tenant label.
const UNLABELLED: &str = "default";

impl DrrQueue {
    /// `quantum_ms` of 0 selects [`DEFAULT_DRR_QUANTUM_MS`].
    pub fn new(quantum_ms: u64) -> Self {
        let q = if quantum_ms == 0 {
            DEFAULT_DRR_QUANTUM_MS
        } else {
            quantum_ms
        };
        Self {
            quantum_ms: q as f64,
            active: VecDeque::new(),
            subs: HashMap::new(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current deficit of a tenant (0 for unknown/idle tenants).
    pub fn deficit_of(&self, tenant: &str) -> f64 {
        self.subs.get(tenant).map(|s| s.deficit).unwrap_or(0.0)
    }

    /// Dump every tenant's deficit, sorted by tenant id (snapshot input).
    pub fn deficits(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .subs
            .iter()
            .map(|(k, s)| (k.clone(), s.deficit))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Restore a tenant's deficit from a snapshot. Only applies to tenants
    /// that are currently backlogged — an idle tenant carries no credit
    /// (same rule as the drain-time reset), so restoring credit to one
    /// would let it burst ahead after recovery.
    pub fn restore_deficit(&mut self, tenant: &str, deficit: f64) {
        if let Some(sub) = self.subs.get_mut(tenant) {
            if !sub.items.is_empty() {
                sub.deficit = deficit.max(0.0);
            }
        }
    }

    pub fn push(&mut self, item: QueuedInvocation) {
        let key = item
            .tenant
            .clone()
            .unwrap_or_else(|| UNLABELLED.to_string());
        let weight = if item.tenant_weight > 0.0 {
            item.tenant_weight
        } else {
            1.0
        };
        let sub = self
            .subs
            .entry(key.clone())
            .or_insert_with(|| SubQueue::new(weight));
        sub.weight = weight;
        if sub.items.is_empty() {
            // Invariant: a tenant is in the rotation iff its sub-queue is
            // non-empty, so an empty sub-queue is never in `active`.
            self.active.push_back(key);
        }
        sub.items.push_back(item);
        self.len += 1;
    }

    pub fn pop(&mut self) -> Option<QueuedInvocation> {
        if self.len == 0 {
            return None;
        }
        // Terminates: some sub-queue is non-empty, and every full rotation
        // grows its deficit by quantum × weight > 0 until it covers the
        // head item's cost.
        loop {
            let key = self.active.front()?.clone();
            let sub = self
                .subs
                .get_mut(&key)
                .expect("active tenant has a sub-queue");
            if !sub.credited {
                sub.deficit += self.quantum_ms * sub.weight;
                sub.credited = true;
            }
            let cost = sub
                .items
                .front()
                .map(|i| i.expected_exec_ms.max(1.0))
                .expect("active sub-queue is non-empty");
            if sub.deficit >= cost {
                let item = sub.items.pop_front().expect("non-empty");
                sub.deficit -= cost;
                self.len -= 1;
                if sub.items.is_empty() {
                    // Idle tenants carry no credit.
                    sub.deficit = 0.0;
                    sub.credited = false;
                    self.active.pop_front();
                }
                return Some(item);
            }
            // Out of credit: rotate to the back; fresh quantum next visit.
            sub.credited = false;
            let k = self.active.pop_front().expect("checked front above");
            self.active.push_back(k);
        }
    }
}

enum QueueImpl {
    Heap(BinaryHeap<HeapItem>),
    Drr(DrrQueue),
}

impl QueueImpl {
    fn len(&self) -> usize {
        match self {
            QueueImpl::Heap(h) => h.len(),
            QueueImpl::Drr(d) => d.len(),
        }
    }

    fn pop(&mut self) -> Option<QueuedInvocation> {
        match self {
            QueueImpl::Heap(h) => h.pop().map(|hi| hi.item),
            QueueImpl::Drr(d) => d.pop(),
        }
    }
}

struct QueueState {
    q: QueueImpl,
    /// Executors parked in [`InvocationQueue::wait_work`].
    parked: usize,
    closed: bool,
}

/// Reasons a push can fail.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError {
    /// Backpressure: the queue is at its configured bound.
    Full,
    /// The worker is shutting down.
    Closed,
}

/// The priority invocation queue.
pub struct InvocationQueue {
    cfg: QueueConfig,
    state: Mutex<QueueState>,
    cv: Condvar,
    seq: AtomicU64,
}

impl InvocationQueue {
    pub fn new(cfg: QueueConfig) -> Self {
        let q = match cfg.policy {
            QueuePolicyKind::Drr => QueueImpl::Drr(DrrQueue::new(cfg.drr_quantum_ms)),
            _ => QueueImpl::Heap(BinaryHeap::new()),
        };
        Self {
            cfg,
            state: Mutex::new(QueueState {
                q,
                parked: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            seq: AtomicU64::new(0),
        }
    }

    pub fn policy(&self) -> QueuePolicyKind {
        self.cfg.policy
    }

    /// Enqueue; fails when the bound is hit (backpressure) or closed.
    pub fn push(&self, item: QueuedInvocation) -> Result<(), PushError> {
        let priority = priority_of(self.cfg.policy, &item);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.q.len() >= self.cfg.max_len {
            return Err(PushError::Full);
        }
        match &mut st.q {
            QueueImpl::Heap(h) => h.push(HeapItem {
                priority,
                seq,
                item,
            }),
            QueueImpl::Drr(d) => d.push(item),
        }
        drop(st);
        self.cv.notify_one();
        Ok(())
    }

    /// The executors' wait point: park until the policy queue is non-empty
    /// and `try_permit` — asked under the queue lock — grants a run permit
    /// to pop under, or until the queue is closed and drained (`None`: the
    /// executor exits). An executor that gets no permit parks "starved" on
    /// the same condvar. No wake-up is lost that way: a permit is released
    /// either by an executor, which comes straight back here itself, or —
    /// by a caller that ran its invocation itself or an AIMD raise — is
    /// followed by [`InvocationQueue::wake_all`], which takes the lock this
    /// executor holds from its failed attempt until it is parked.
    pub fn wait_work(
        &self,
        try_permit: impl Fn() -> Option<SemaphorePermit>,
    ) -> Option<SemaphorePermit> {
        let mut st = self.state.lock();
        loop {
            if st.q.len() > 0 {
                if let Some(permit) = try_permit() {
                    return Some(permit);
                }
            } else if st.closed {
                drop(st);
                // A starved sibling parked behind the backlog that has just
                // been drained must see the close too.
                self.cv.notify_all();
                return None;
            }
            st.parked += 1;
            self.cv.wait(&mut st);
            st.parked -= 1;
        }
    }

    /// A synchronous caller's claim to run its invocation itself: a run
    /// permit from `try_permit`, asked for — under the queue lock, as
    /// [`InvocationQueue::wait_work`] asks — only while nothing is queued,
    /// so a caller-run never overtakes work already waiting.
    pub fn claim_if_idle(
        &self,
        try_permit: impl FnOnce() -> Option<SemaphorePermit>,
    ) -> Option<SemaphorePermit> {
        let st = self.state.lock();
        if st.closed || st.q.len() > 0 {
            return None;
        }
        try_permit()
    }

    /// Work is waiting and no executor is parked to be woken for it — the
    /// pool's cue to grow.
    pub fn unattended(&self) -> bool {
        let st = self.state.lock();
        st.parked == 0 && st.q.len() > 0
    }

    /// Wake every parked executor to look again: run permits appeared
    /// without an executor releasing them. Call it after they did. Only
    /// queued work can have starved an executor, so on an empty queue it
    /// wakes nobody.
    pub fn wake_all(&self) {
        let st = self.state.lock();
        if st.q.len() > 0 {
            self.cv.notify_all();
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<QueuedInvocation> {
        self.state.lock().q.pop()
    }

    pub fn len(&self) -> usize {
        self.state.lock().q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current DRR deficit of a tenant; `None` unless the DRR policy is
    /// active (diagnostics / tests).
    pub fn drr_deficit(&self, tenant: &str) -> Option<f64> {
        match &self.state.lock().q {
            QueueImpl::Drr(d) => Some(d.deficit_of(tenant)),
            QueueImpl::Heap(_) => None,
        }
    }

    /// Dump all DRR tenant deficits, sorted by tenant id; empty unless the
    /// DRR policy is active (WAL snapshot input).
    pub fn drr_deficits(&self) -> Vec<(String, f64)> {
        match &self.state.lock().q {
            QueueImpl::Drr(d) => d.deficits(),
            QueueImpl::Heap(_) => Vec::new(),
        }
    }

    /// Restore DRR deficits from a snapshot. No-op for non-DRR policies and
    /// for tenants without a current backlog (idle tenants carry no credit).
    pub fn restore_drr_deficits(&self, deficits: &[(String, f64)]) {
        if let QueueImpl::Drr(d) = &mut self.state.lock().q {
            for (tenant, deficit) in deficits {
                d.restore_deficit(tenant, *deficit);
            }
        }
    }

    /// Close the queue: pushes fail, executors drain what is left and then
    /// get `None` from [`InvocationQueue::wait_work`].
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::InvocationHandle;
    use iluvatar_sync::Semaphore;

    fn item(fqdn: &str, arrived: TimeMs, exec: f64, iat: f64) -> QueuedInvocation {
        titem(fqdn, arrived, exec, iat, None, 1.0)
    }

    fn titem(
        fqdn: &str,
        arrived: TimeMs,
        exec: f64,
        iat: f64,
        tenant: Option<&str>,
        weight: f64,
    ) -> QueuedInvocation {
        let (tx, _h) = InvocationHandle::pair();
        // Keep the handle alive is unnecessary; sender send may fail later.
        std::mem::forget(_h);
        QueuedInvocation {
            fqdn: fqdn.into(),
            args: String::new(),
            trace_id: 0,
            arrived_at: arrived,
            expected_exec_ms: exec,
            iat_ms: iat,
            expect_warm: true,
            tenant: tenant.map(|t| t.to_string()),
            tenant_weight: weight,
            result_tx: tx,
        }
    }

    fn queue(policy: QueuePolicyKind) -> InvocationQueue {
        InvocationQueue::new(QueueConfig {
            policy,
            ..Default::default()
        })
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let q = queue(QueuePolicyKind::Fcfs);
        q.push(item("b", 20, 1.0, 0.0)).unwrap();
        q.push(item("a", 10, 100.0, 0.0)).unwrap();
        assert_eq!(q.try_pop().unwrap().fqdn, "a");
        assert_eq!(q.try_pop().unwrap().fqdn, "b");
    }

    #[test]
    fn sjf_orders_by_exec_time() {
        let q = queue(QueuePolicyKind::Sjf);
        q.push(item("long", 0, 5000.0, 0.0)).unwrap();
        q.push(item("short", 100, 10.0, 0.0)).unwrap();
        q.push(item("new", 200, 0.0, 0.0)).unwrap(); // unseen → highest prio
        assert_eq!(q.try_pop().unwrap().fqdn, "new");
        assert_eq!(q.try_pop().unwrap().fqdn, "short");
        assert_eq!(q.try_pop().unwrap().fqdn, "long");
    }

    #[test]
    fn eedf_balances_arrival_and_size() {
        let q = queue(QueuePolicyKind::Eedf);
        // Early long job: deadline 0+1000=1000. Later short: 300+10=310.
        q.push(item("early-long", 0, 1000.0, 0.0)).unwrap();
        q.push(item("late-short", 300, 10.0, 0.0)).unwrap();
        assert_eq!(q.try_pop().unwrap().fqdn, "late-short");
        assert_eq!(q.try_pop().unwrap().fqdn, "early-long", "drain part 1");
        // But a short job can't starve an old one forever: deadline grows
        // with arrival time.
        q.push(item("old-long", 0, 1000.0, 0.0)).unwrap();
        q.push(item("new-short", 2000, 10.0, 0.0)).unwrap();
        assert_eq!(q.try_pop().unwrap().fqdn, "old-long");
    }

    #[test]
    fn rare_prioritizes_high_iat() {
        let q = queue(QueuePolicyKind::Rare);
        q.push(item("popular", 0, 10.0, 50.0)).unwrap();
        q.push(item("rare", 10, 10.0, 60_000.0)).unwrap();
        assert_eq!(q.try_pop().unwrap().fqdn, "rare");
    }

    #[test]
    fn fifo_tiebreak_on_equal_priority() {
        let q = queue(QueuePolicyKind::Sjf);
        for name in ["first", "second", "third"] {
            q.push(item(name, 0, 42.0, 0.0)).unwrap();
        }
        assert_eq!(q.try_pop().unwrap().fqdn, "first");
        assert_eq!(q.try_pop().unwrap().fqdn, "second");
        assert_eq!(q.try_pop().unwrap().fqdn, "third");
    }

    #[test]
    fn backpressure_at_bound() {
        let q = InvocationQueue::new(QueueConfig {
            policy: QueuePolicyKind::Fcfs,
            max_len: 2,
            ..Default::default()
        });
        q.push(item("a", 0, 0.0, 0.0)).unwrap();
        q.push(item("b", 0, 0.0, 0.0)).unwrap();
        assert_eq!(q.push(item("c", 0, 0.0, 0.0)).unwrap_err(), PushError::Full);
        q.try_pop().unwrap();
        assert!(q.push(item("c", 0, 0.0, 0.0)).is_ok());
    }

    #[test]
    fn wait_work_parks_until_push() {
        let q = std::sync::Arc::new(queue(QueuePolicyKind::Fcfs));
        let q2 = std::sync::Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let sem = Semaphore::new(1);
            q2.wait_work(|| sem.try_acquire()).is_some()
        });
        q.push(item("x", 0, 0.0, 0.0)).unwrap();
        assert!(t.join().unwrap(), "a push wakes the parked executor");
        assert!(q.unattended(), "queued work, nobody parked");
        assert_eq!(q.try_pop().unwrap().fqdn, "x");
        assert!(!q.unattended(), "nothing waiting");
    }

    #[test]
    fn starved_waiter_sleeps_on_the_backlog_until_woken() {
        let q = std::sync::Arc::new(queue(QueuePolicyKind::Fcfs));
        q.push(item("x", 0, 0.0, 0.0)).unwrap();
        let sem = Semaphore::new(0);
        let (q2, sem2) = (std::sync::Arc::clone(&q), sem.clone());
        let t = std::thread::spawn(move || q2.wait_work(|| sem2.try_acquire()).is_some());
        // Parked although the queue is non-empty: there is no permit.
        while q.unattended() {
            std::thread::yield_now();
        }
        assert!(!t.is_finished());
        sem.resize(1);
        q.wake_all();
        assert!(
            t.join().unwrap(),
            "woken, it finds the permit and the backlog"
        );
    }

    #[test]
    fn close_rejects_push_and_drains() {
        let q = queue(QueuePolicyKind::Fcfs);
        let sem = Semaphore::new(1);
        q.push(item("x", 0, 0.0, 0.0)).unwrap();
        q.close();
        assert_eq!(
            q.push(item("y", 0, 0.0, 0.0)).unwrap_err(),
            PushError::Closed
        );
        assert!(q.wait_work(|| sem.try_acquire()).is_some(), "drains");
        assert!(q.try_pop().is_some());
        assert!(q.wait_work(|| sem.try_acquire()).is_none(), "closed");
    }

    /// Serve `n` pops and count how many went to each of two tenants.
    fn drain_counts(q: &InvocationQueue, n: usize, a: &str, b: &str) -> (usize, usize) {
        let (mut ca, mut cb) = (0, 0);
        for _ in 0..n {
            match q.try_pop() {
                Some(i) if i.tenant.as_deref() == Some(a) => ca += 1,
                Some(i) if i.tenant.as_deref() == Some(b) => cb += 1,
                _ => {}
            }
        }
        (ca, cb)
    }

    #[test]
    fn drr_equal_weights_serve_equally_under_flood() {
        // Tenant "flood" offers 10× the load of "meek" at equal weight;
        // while both stay backlogged, service must stay ~1:1.
        let q = queue(QueuePolicyKind::Drr);
        for i in 0..400 {
            q.push(titem("f", i, 10.0, 0.0, Some("flood"), 1.0))
                .unwrap();
        }
        for i in 0..40 {
            q.push(titem("m", i, 10.0, 0.0, Some("meek"), 1.0)).unwrap();
        }
        // Serve only while both are backlogged: meek has 40 items, so take
        // 60 pops — at fair 1:1 that consumes ≤ 35 of meek's backlog.
        let (flood, meek) = drain_counts(&q, 60, "flood", "meek");
        assert_eq!(flood + meek, 60);
        let ratio = flood as f64 / meek as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "equal weights must serve ~1:1 under 10:1 offered load, got {flood}:{meek}"
        );
    }

    #[test]
    fn drr_weighted_service_matches_ratio() {
        let q = queue(QueuePolicyKind::Drr);
        for i in 0..300 {
            q.push(titem("g", i, 10.0, 0.0, Some("gold"), 3.0)).unwrap();
            q.push(titem("b", i, 10.0, 0.0, Some("bronze"), 1.0))
                .unwrap();
        }
        let (gold, bronze) = drain_counts(&q, 200, "gold", "bronze");
        assert_eq!(gold + bronze, 200);
        let ratio = gold as f64 / bronze as f64;
        assert!(
            (2.7..=3.3).contains(&ratio),
            "3:1 weights must serve ~3:1, got {gold}:{bronze} ({ratio:.2})"
        );
    }

    #[test]
    fn drr_idle_tenant_deficit_resets() {
        let mut d = DrrQueue::new(10);
        for i in 0..5 {
            d.push(titem("a", i, 3.0, 0.0, Some("t1"), 1.0));
        }
        while d.pop().is_some() {}
        assert_eq!(d.deficit_of("t1"), 0.0, "drained tenant keeps no credit");
        assert!(d.is_empty());
        // After idling, t1 cannot burst ahead of a newly active tenant.
        d.push(titem("a", 100, 3.0, 0.0, Some("t1"), 1.0));
        d.push(titem("b", 100, 3.0, 0.0, Some("t2"), 1.0));
        assert_eq!(d.pop().unwrap().tenant.as_deref(), Some("t1"));
        assert_eq!(d.pop().unwrap().tenant.as_deref(), Some("t2"));
    }

    #[test]
    fn drr_unlabelled_items_share_default_subqueue() {
        let q = queue(QueuePolicyKind::Drr);
        q.push(item("x", 0, 5.0, 0.0)).unwrap();
        q.push(item("y", 1, 5.0, 0.0)).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop().unwrap().fqdn, "x", "FIFO within a sub-queue");
        assert_eq!(q.try_pop().unwrap().fqdn, "y");
        assert!(q.drr_deficit("default").is_some());
        assert!(queue(QueuePolicyKind::Fcfs)
            .drr_deficit("default")
            .is_none());
    }

    #[test]
    fn drr_no_starvation_with_expensive_items() {
        // An item costing many quanta must still be served eventually.
        let mut d = DrrQueue::new(10);
        d.push(titem("big", 0, 500.0, 0.0, Some("heavy"), 1.0));
        d.push(titem("small", 0, 1.0, 0.0, Some("light"), 1.0));
        let mut seen = Vec::new();
        while let Some(i) = d.pop() {
            seen.push(i.fqdn);
        }
        assert_eq!(seen.len(), 2);
        assert!(
            seen.contains(&"big".to_string()),
            "expensive item not starved"
        );
    }

    #[test]
    fn drr_respects_bound_and_close() {
        let q = InvocationQueue::new(QueueConfig {
            policy: QueuePolicyKind::Drr,
            max_len: 1,
            ..Default::default()
        });
        q.push(titem("a", 0, 1.0, 0.0, Some("t"), 1.0)).unwrap();
        assert_eq!(
            q.push(titem("b", 0, 1.0, 0.0, Some("t"), 1.0)).unwrap_err(),
            PushError::Full
        );
        q.close();
        let sem = Semaphore::new(1);
        assert!(q.wait_work(|| sem.try_acquire()).is_some(), "drains");
        assert!(q.try_pop().is_some());
        assert!(q.wait_work(|| sem.try_acquire()).is_none(), "closed");
    }
}
