//! Invocation request/response types and the async invocation handle.

use crossbeam::channel::{bounded, Receiver, Sender};
use iluvatar_cache::{CacheStatus, CachedResult, ResultCache};
use iluvatar_sync::TimeMs;
use parking_lot::Mutex;
use std::sync::Arc;

/// Why an invocation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeError {
    /// The function was never registered.
    NotRegistered(String),
    /// The queue hit its length bound — explicit backpressure.
    QueueFull,
    /// The container backend failed the invocation.
    Backend(String),
    /// No memory could be freed for a cold start — the request is dropped.
    NoResources,
    /// The worker is shutting down.
    ShuttingDown,
    /// Rejected by admission control: the tenant's rate limit fired.
    Throttled(String),
    /// Rejected by admission control: best-effort tenant shed under
    /// overload (queue delay past the configured threshold).
    Shed(String),
    /// The write-ahead log cannot accept the record right now (stalling or
    /// erroring disk with `on_error = reject`). Retryable: the next append
    /// re-runs the recovery ladder from the top.
    WalUnavailable,
}

impl std::fmt::Display for InvokeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvokeError::NotRegistered(f_) => write!(f, "function not registered: {f_}"),
            InvokeError::QueueFull => write!(f, "invocation queue full"),
            InvokeError::Backend(m) => write!(f, "backend error: {m}"),
            InvokeError::NoResources => write!(f, "insufficient memory for cold start"),
            InvokeError::ShuttingDown => write!(f, "worker shutting down"),
            InvokeError::Throttled(t) => write!(f, "tenant throttled: {t}"),
            InvokeError::Shed(t) => write!(f, "tenant shed under overload: {t}"),
            InvokeError::WalUnavailable => write!(f, "write-ahead log unavailable"),
        }
    }
}

impl std::error::Error for InvokeError {}

/// The completed invocation, with the latency breakdown of Figure 3:
/// end-to-end *flow time* = control-plane overhead + execution time.
#[derive(Debug, Clone)]
pub struct InvocationResult {
    /// Function result payload.
    pub body: String,
    /// Function-code execution time, ms (the *stretch* denominator).
    pub exec_ms: u64,
    /// End-to-end latency from `invoke` entry to result, ms.
    pub e2e_ms: u64,
    /// Whether this run paid a cold start.
    pub cold: bool,
    /// Time spent queued, ms (part of the overhead).
    pub queue_ms: u64,
    /// Arrival timestamp (worker clock).
    pub arrived_at: TimeMs,
    /// End-to-end trace id; redeem via `GET /trace/{id}` on the worker.
    pub trace_id: u64,
    /// Tenant the invocation was accounted to (None when admission control
    /// is disabled and no label was supplied).
    pub tenant: Option<String>,
    /// What the result cache did for this invocation; rides the
    /// `X-Iluvatar-Cache` response header. `Bypass` unless a cache served
    /// (`Hit`) or was filled from (`Miss`) this result.
    pub cache: CacheStatus,
}

impl InvocationResult {
    /// The result a cache hit is served as, on the worker and the balancer
    /// alike: the original run's body and execution time, and zeros for
    /// everything this serve skipped (no trace, queue, or container).
    pub fn from_cache(hit: CachedResult) -> Self {
        Self {
            body: hit.body,
            exec_ms: hit.exec_ms,
            e2e_ms: 0,
            cold: false,
            queue_ms: 0,
            arrived_at: 0,
            trace_id: 0,
            tenant: Some(hit.tenant),
            cache: CacheStatus::Hit,
        }
    }

    /// Control-plane overhead: everything that was not function execution.
    pub fn overhead_ms(&self) -> u64 {
        self.e2e_ms.saturating_sub(self.exec_ms)
    }

    /// The paper's *stretch*: end-to-end latency normalized by execution
    /// time. Returns `None` for zero-length executions.
    pub fn stretch(&self) -> Option<f64> {
        if self.exec_ms == 0 {
            None
        } else {
            Some(self.e2e_ms as f64 / self.exec_ms as f64)
        }
    }
}

/// What an invocation ends in.
pub type Outcome = Result<InvocationResult, InvokeError>;

/// Where `complete` delivers a queue item's outcome: the channel behind an
/// [`InvocationHandle`] — or, for an invocation its synchronous caller runs
/// itself, nowhere: `complete` hands the outcome back up the caller's own
/// stack.
pub struct ResultSender(Option<Sender<Outcome>>);

impl ResultSender {
    /// The sender of an invocation its caller runs in place.
    pub(crate) fn caller() -> Self {
        Self(None)
    }

    /// Whether the outcome goes back to a caller running in place.
    pub(crate) fn is_caller(&self) -> bool {
        self.0.is_none()
    }

    /// Send `outcome` to the handle; a caller-run's outcome is handed back.
    pub(crate) fn deliver(&self, outcome: Outcome) -> Option<Outcome> {
        match &self.0 {
            Some(tx) => {
                let _ = tx.send(outcome);
                None
            }
            None => Some(outcome),
        }
    }
}

/// Handle returned by `async_invoke_tenant`; redeem with
/// [`InvocationHandle::wait`] or [`InvocationHandle::poll`].
pub struct InvocationHandle {
    slot: Slot,
    /// Set on a cache miss.
    pub(crate) fill: Option<Box<CacheFill>>,
}

/// Where a handle's outcome comes from.
enum Slot {
    /// Sent by the executor that runs the invocation.
    Channel(Receiver<Outcome>),
    /// Known when the handle was made: a cache hit, or the outcome of a run
    /// the caller made itself. Taken once, like a received message. Boxed,
    /// so a channel-backed handle stays the size of its receiver.
    Ready(Mutex<Option<Box<Outcome>>>),
}

/// The cache a missed invocation's successful result fills once redeemed,
/// and the call that keys the entry: fqdn, args, tenant label.
pub(crate) type CacheFill = (Arc<ResultCache>, String, String, Option<String>);

impl InvocationHandle {
    /// Create a connected (sender, handle) pair — public so external queue
    /// drivers and benchmarks can construct `QueuedInvocation`s.
    pub fn pair() -> (ResultSender, Self) {
        let (tx, rx) = bounded(1);
        let handle = Self {
            slot: Slot::Channel(rx),
            fill: None,
        };
        (ResultSender(Some(tx)), handle)
    }

    /// A handle already holding its outcome: no channel, nothing to wait on.
    pub(crate) fn ready(outcome: Outcome) -> Self {
        Self {
            slot: Slot::Ready(Mutex::new(Some(Box::new(outcome)))),
            fill: None,
        }
    }

    /// Block until the invocation completes.
    pub fn wait(self) -> Outcome {
        let outcome = match &self.slot {
            Slot::Channel(rx) => rx.recv().ok(),
            Slot::Ready(outcome) => outcome.lock().take().map(|o| *o),
        };
        self.redeem(outcome.unwrap_or(Err(InvokeError::ShuttingDown)))
    }

    /// Non-blocking poll; `None` while still in flight.
    pub fn poll(&self) -> Option<Outcome> {
        let outcome = match &self.slot {
            Slot::Channel(rx) => rx.try_recv().ok(),
            Slot::Ready(outcome) => outcome.lock().take().map(|o| *o),
        };
        outcome.map(|outcome| self.redeem(outcome))
    }

    /// Hand over a received outcome, filling the cache first on a miss —
    /// so a served hit always repeats a completion already logged.
    fn redeem(&self, outcome: Outcome) -> Outcome {
        match (&self.fill, outcome) {
            (Some(fill), Ok(mut r)) => {
                let (cache, fqdn, args, tenant) = &**fill;
                let trace = Some(r.trace_id);
                cache.fill(fqdn, tenant.as_deref(), args, &r.body, r.exec_ms, trace);
                r.cache = CacheStatus::Miss;
                Ok(r)
            }
            (_, outcome) => outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(e2e: u64, exec: u64) -> InvocationResult {
        InvocationResult {
            body: String::new(),
            exec_ms: exec,
            e2e_ms: e2e,
            cold: false,
            queue_ms: 0,
            arrived_at: 0,
            trace_id: 0,
            tenant: None,
            cache: CacheStatus::Bypass,
        }
    }

    #[test]
    fn overhead_and_stretch() {
        let r = result(150, 100);
        assert_eq!(r.overhead_ms(), 50);
        assert_eq!(r.stretch(), Some(1.5));
        let zero = result(10, 0);
        assert_eq!(zero.stretch(), None);
        assert_eq!(zero.overhead_ms(), 10);
    }

    #[test]
    fn overhead_saturates() {
        // exec reported larger than e2e (clock skew) must not underflow.
        let r = result(5, 9);
        assert_eq!(r.overhead_ms(), 0);
    }

    #[test]
    fn handle_wait_receives() {
        let (tx, handle) = InvocationHandle::pair();
        assert!(
            tx.deliver(Ok(result(10, 5))).is_none(),
            "sent, not handed back"
        );
        let r = handle.wait().unwrap();
        assert_eq!(r.e2e_ms, 10);
    }

    #[test]
    fn handle_poll_pending_then_ready() {
        let (tx, handle) = InvocationHandle::pair();
        assert!(handle.poll().is_none());
        tx.deliver(Err(InvokeError::QueueFull));
        assert_eq!(handle.poll().unwrap().unwrap_err(), InvokeError::QueueFull);
    }

    #[test]
    fn a_caller_run_gets_its_outcome_back() {
        let tx = ResultSender::caller();
        assert!(tx.is_caller());
        assert_eq!(tx.deliver(Ok(result(10, 5))).unwrap().unwrap().e2e_ms, 10);
    }

    #[test]
    fn ready_handle_answers_once() {
        let handle = InvocationHandle::ready(Ok(result(10, 5)));
        assert_eq!(handle.poll().unwrap().unwrap().e2e_ms, 10);
        assert!(handle.poll().is_none(), "taken, like a received message");
        assert_eq!(
            InvocationHandle::ready(Err(InvokeError::QueueFull))
                .wait()
                .unwrap_err(),
            InvokeError::QueueFull
        );
    }

    #[test]
    fn dropped_sender_means_shutdown() {
        let (tx, handle) = InvocationHandle::pair();
        drop(tx);
        assert_eq!(handle.wait().unwrap_err(), InvokeError::ShuttingDown);
    }
}
