//! Integration: the invocation pipeline's observable contract.
//!
//! * every route through `accept` (queue, bypass, full-queue reject,
//!   throttled reject, recovered re-enqueue) leaves exactly the journal
//!   label sequence and WAL op sequence the session digests fold, one
//!   sample in each Table-1 span its route crosses (none in the others)
//!   and one more `/breakdown` invocation per completion;
//! * which thread runs an invocation: its synchronous caller when nothing
//!   is queued and a run slot is free (and on a bypass), one of the
//!   executors otherwise — never a thread of its own;
//! * the `InvokeError` ↔ HTTP status table and its lossy return trip;
//! * `X-Iluvatar-Tenant` beats the body's `tenant` on worker and balancer.

use iluvatar::prelude::*;
use iluvatar_containers::{BackendError, Container, ContainerBackend, InvokeOutput};
use iluvatar_core::api::{error_resp, InvokeBody, WireResult, WorkerApi};
use iluvatar_core::config::QueuePolicyKind;
use iluvatar_core::{
    AdmissionConfig, InvokeError, LifecycleConfig, TelemetryKind, TelemetrySink, TenantSpec,
};
use iluvatar_http::{HttpClient, HttpServer, Method, Request, Response, Status, TENANT_HEADER};
use iluvatar_lb::cluster::{RemoteWorker, WorkerHandle};
use iluvatar_lb::LbApi;
use iluvatar_sync::storage::RealStorage;
use iluvatar_telemetry::VecSink;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

fn backend(clock: &Arc<dyn Clock>) -> Arc<SimBackend> {
    Arc::new(SimBackend::new(
        Arc::clone(clock),
        SimBackendConfig {
            time_scale: 0.05,
            ..Default::default()
        },
    ))
}

/// A WAL-journaled worker with `sink` tapping its telemetry stream.
fn tapped_worker(cfg: WorkerConfig) -> (Worker, Arc<VecSink>) {
    let clock: Arc<dyn Clock> = SystemClock::shared();
    tapped_worker_on(cfg, backend(&clock), clock)
}

fn tapped_worker_on(
    cfg: WorkerConfig,
    backend: Arc<dyn ContainerBackend>,
    clock: Arc<dyn Clock>,
) -> (Worker, Arc<VecSink>) {
    let worker = Worker::new(cfg, backend, clock);
    let sink = Arc::new(VecSink::new());
    worker
        .telemetry()
        .add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
    (worker, sink)
}

/// One trace's journal labels and WAL ops, in stream order. The cold flag
/// of `container_acquired` is dropped: which invocation pays the cold start
/// is the pool's business, not the pipeline's.
fn timeline(sink: &VecSink, id: u64) -> (Vec<String>, Vec<String>) {
    let (mut journal, mut wal) = (Vec::new(), Vec::new());
    for ev in sink.events() {
        if ev.trace_id != Some(id) {
            continue;
        }
        match ev.kind {
            TelemetryKind::Trace { stage } => journal.push(match stage.split_once('(') {
                Some(("container_acquired", _)) => "container_acquired".to_string(),
                _ => stage,
            }),
            TelemetryKind::Wal { op, .. } => wal.push(op),
            _ => {}
        }
    }
    (journal, wal)
}

/// Wait until trace `id` has journaled its `result_returned` (it lands just
/// after the result is delivered), then return its timeline.
fn finished_timeline(sink: &VecSink, id: u64) -> (Vec<String>, Vec<String>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let t = timeline(sink, id);
        if t.0.last().is_some_and(|l| l.starts_with("result_returned")) {
            return t;
        }
        assert!(
            Instant::now() < deadline,
            "trace {id} never returned: {t:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The one rejected trace in the stream: its last journal label.
fn rejected_trace(sink: &VecSink) -> u64 {
    sink.events()
        .iter()
        .find_map(|ev| match &ev.kind {
            TelemetryKind::Trace { stage } if stage == "result_returned(false)" => ev.trace_id,
            _ => None,
        })
        .expect("a rejected trace")
}

fn labels(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

const EXECUTED: [&str; 3] = [
    "container_acquired",
    "agent_called",
    "result_returned(true)",
];

/// Span sample counts, by name.
fn span_counts(w: &Worker) -> BTreeMap<String, u64> {
    w.spans()
        .export()
        .into_iter()
        .map(|e| (e.name, e.count))
        .collect()
}

/// Watches one worker's spans and `/breakdown` across one route.
struct SpanWatch {
    spans: BTreeMap<String, u64>,
    invocations: u64,
}

impl SpanWatch {
    fn new(w: &Worker) -> Self {
        Self {
            spans: span_counts(w),
            invocations: w.breakdown().invocations,
        }
    }

    /// Since the last check, `n` completions each left one sample in every
    /// span of `route` plus the executing spans, and none in any other.
    fn check(&mut self, w: &Worker, route: &str, spans: &[&str], n: u64) {
        let now = span_counts(w);
        let grew: BTreeMap<String, u64> = now
            .iter()
            .map(|(name, c)| (name.clone(), c - self.spans.get(name).unwrap_or(&0)))
            .filter(|(_, d)| *d > 0)
            .collect();
        let want: BTreeMap<String, u64> = spans
            .iter()
            .chain(if n > 0 { &EXECUTING[..] } else { &[] })
            .map(|name| (name.to_string(), n))
            .collect();
        assert_eq!(grew, want, "{route}: span samples");
        let invocations = w.breakdown().invocations;
        assert_eq!(invocations - self.invocations, n, "{route}: /breakdown");
        *self = Self {
            spans: now,
            invocations,
        };
    }
}

/// The spans every route that reaches a container crosses.
const EXECUTING: [&str; 7] = [
    "acquire_container",
    "try_lock_container",
    "prepare_invoke",
    "call_container",
    "download_result",
    "return_container",
    "return_results",
];

#[test]
fn every_route_leaves_its_journal_and_wal_timeline() {
    let dir = std::env::temp_dir().join(format!("iluvatar-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = |name: &str| LifecycleConfig::with_wal(dir.join(name).to_str().unwrap());
    let spec = |warm_ms| FunctionSpec::new("f", "1").with_timing(warm_ms, 0);

    // --- queue, bypass and a throttled reject on one worker ---------------
    let mut cfg = WorkerConfig::for_testing();
    cfg.lifecycle = wal("routes.wal");
    cfg.queue.policy = QueuePolicyKind::Eedf;
    cfg.queue.bypass_threshold_ms = 1000;
    cfg.admission =
        AdmissionConfig::enabled_with(vec![TenantSpec::new("free").with_rate(0.001, 1.0)]);
    let (w, sink) = tapped_worker(cfg);
    w.register(spec(100)).unwrap();
    w.register(FunctionSpec::new("g", "1").with_timing(100, 0))
        .unwrap();
    let mut watch = SpanWatch::new(&w);

    // Unseen function: no expected runtime yet, so it queues — and, the
    // worker being idle, its synchronous caller runs it.
    let queued = w.invoke_tenant("f-1", "{}", None).unwrap().trace_id;
    let (journal, wal_ops) = finished_timeline(&sink, queued);
    assert_eq!(
        journal,
        [&["ingested", "enqueued", "dequeued"][..], &EXECUTED].concat()
    );
    // A dequeue is journaled, not logged: two records per invocation.
    assert_eq!(wal_ops, labels(&["enqueued", "completed"]));
    let caller_run = ["invoke", "sync_invoke", "enqueue_invocation"];
    watch.check(&w, "caller-run", &caller_run, 1);

    // An asynchronous call on an unseen function queues for an executor.
    let id = w
        .async_invoke_tenant("g-1", "{}", None)
        .unwrap()
        .wait()
        .unwrap()
        .trace_id;
    let (journal, _) = finished_timeline(&sink, id);
    assert_eq!(
        journal,
        [&["ingested", "enqueued", "dequeued"][..], &EXECUTED].concat()
    );
    let executor_run = [
        "invoke",
        "enqueue_invocation",
        "add_item_to_q",
        "spawn_worker",
        "dequeue",
    ];
    watch.check(&w, "queued", &executor_run, 1);

    // Now known-short: around the queue. One WAL record covers both the
    // enqueue and the dequeue.
    let bypassed = w.invoke_tenant("f-1", "{}", None).unwrap().trace_id;
    let (journal, wal_ops) = finished_timeline(&sink, bypassed);
    assert_eq!(journal, [&["ingested", "bypassed"][..], &EXECUTED].concat());
    assert_eq!(wal_ops, labels(&["enqueued", "completed"]));
    watch.check(&w, "sync bypass", &["invoke", "sync_invoke"], 1);

    // Asynchronous, the bypass is handed to an executor: no permit taken,
    // nothing popped.
    let id = w
        .async_invoke_tenant("f-1", "{}", None)
        .unwrap()
        .wait()
        .unwrap()
        .trace_id;
    let (journal, _) = finished_timeline(&sink, id);
    assert_eq!(journal, [&["ingested", "bypassed"][..], &EXECUTED].concat());
    watch.check(&w, "async bypass", &["invoke"], 1);

    // Burst of one: the second `free` invocation is throttled at `admit`.
    w.invoke_tenant("f-1", "{}", Some("free")).unwrap();
    watch.check(&w, "sync bypass", &["invoke", "sync_invoke"], 1);
    match w.invoke_tenant("f-1", "{}", Some("free")) {
        Err(InvokeError::Throttled(t)) => assert_eq!(t, "free"),
        other => panic!("expected Throttled, got {other:?}"),
    }
    // A rejected invocation records no span and completes nothing.
    watch.check(&w, "throttled", &[], 0);
    let (journal, wal_ops) = timeline(&sink, rejected_trace(&sink));
    assert_eq!(
        journal,
        labels(&["ingested", "tenant_throttled", "result_returned(false)"])
    );
    assert_eq!(wal_ops, labels(&["shed"]));
    drop(w);

    // --- a full queue retracts the accepted record ------------------------
    let mut cfg = WorkerConfig::for_testing();
    cfg.lifecycle = wal("full.wal");
    cfg.queue.max_len = 1;
    cfg.concurrency.limit = 1;
    let (w, sink) = tapped_worker(cfg);
    w.register(spec(1500)).unwrap();
    // One runs, one waits on the run permit, one sits in the queue: by the
    // fourth submission the bound must have fired.
    let mut handles = Vec::new();
    let mut full = 0;
    for _ in 0..8 {
        match w.async_invoke_tenant("f-1", "{}", None) {
            Ok(h) => handles.push(h),
            Err(InvokeError::QueueFull) => full += 1,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert!(full > 0, "backpressure must trigger");
    let (journal, wal_ops) = timeline(&sink, rejected_trace(&sink));
    assert_eq!(
        journal,
        labels(&["ingested", "enqueued", "result_returned(false)"])
    );
    assert_eq!(wal_ops, labels(&["enqueued", "completed"]));
    for h in handles {
        h.wait().unwrap();
    }
    drop(w);

    // --- kill with work queued, recover: the re-enqueue route -------------
    let mut cfg = WorkerConfig::for_testing();
    cfg.lifecycle = wal("recover.wal");
    cfg.concurrency.limit = 1;
    let (w, _) = tapped_worker(cfg.clone());
    w.register(spec(1500)).unwrap();
    let accepted: Vec<_> = (0..3)
        .map(|_| w.async_invoke_tenant("f-1", "{}", None).unwrap())
        .collect();
    w.kill();
    drop(accepted);
    drop(w);
    let sink = Arc::new(VecSink::new());
    let clock: Arc<dyn Clock> = SystemClock::shared();
    let (recovered, report) = Worker::recover(
        cfg,
        backend(&clock),
        clock,
        &[spec(1500)],
        &[Arc::clone(&sink) as Arc<dyn TelemetrySink>],
        Arc::new(RealStorage),
    );
    assert!(report.replayed > 0, "the kill left nothing to replay");
    let replayed = report.replayed as u64;
    let mut watch = SpanWatch {
        spans: BTreeMap::new(),
        invocations: 0,
    };
    for (id, handle) in report.handles {
        handle.wait().unwrap();
        let (journal, wal_ops) = finished_timeline(&sink, id);
        assert_eq!(
            journal,
            [&["recovered", "enqueued", "dequeued"][..], &EXECUTED].concat()
        );
        // Already durable in the replayed prefix: no second `enqueued`.
        assert_eq!(wal_ops, labels(&["completed"]));
    }
    // No caller ingested them: every span of the queued route but `invoke`.
    watch.check(&recovered, "recovered", &executor_run[1..], replayed);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `SimBackend`, noting the thread that makes each agent call and, while
/// `hold` is up, holding the calls it gets until it comes down.
struct NotingBackend {
    sim: Arc<SimBackend>,
    callers: Mutex<Vec<(ThreadId, String)>>,
    hold: AtomicBool,
}

impl NotingBackend {
    fn new(clock: &Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(Self {
            sim: backend(clock),
            callers: Mutex::new(Vec::new()),
            hold: AtomicBool::new(false),
        })
    }

    fn calls(&self) -> usize {
        self.callers.lock().unwrap().len()
    }

    /// Who made the agent call with index `i`.
    fn caller(&self, i: usize) -> (ThreadId, String) {
        self.callers.lock().unwrap()[i].clone()
    }
}

impl ContainerBackend for NotingBackend {
    fn name(&self) -> &'static str {
        "noting"
    }
    fn create(&self, spec: &FunctionSpec) -> Result<Container, BackendError> {
        self.sim.create(spec)
    }
    fn invoke(&self, c: &Container, args: &str) -> Result<InvokeOutput, BackendError> {
        let me = std::thread::current();
        let caller = (me.id(), me.name().unwrap_or("?").to_string());
        self.callers.lock().unwrap().push(caller);
        while self.hold.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.sim.invoke(c, args)
    }
    fn destroy(&self, c: &Container) -> Result<(), BackendError> {
        self.sim.destroy(c)
    }
}

/// A WAL-journaled worker over a [`NotingBackend`], with `f-1` registered
/// at a 5 ms warm run.
fn noting_worker(
    name: &str,
    tune: impl FnOnce(&mut WorkerConfig),
) -> (Worker, Arc<VecSink>, Arc<NotingBackend>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("iluvatar-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = WorkerConfig::for_testing();
    cfg.lifecycle = LifecycleConfig::with_wal(dir.join("queue.wal").to_str().unwrap());
    tune(&mut cfg);
    let clock: Arc<dyn Clock> = SystemClock::shared();
    let noting = NotingBackend::new(&clock);
    let (w, sink) = tapped_worker_on(cfg, Arc::clone(&noting) as _, clock);
    w.register(FunctionSpec::new("f", "1").with_timing(100, 0))
        .unwrap();
    (w, sink, noting, dir)
}

fn on_an_executor((_, name): &(ThreadId, String)) -> bool {
    name.starts_with("iluvatar-exec-")
}

/// The queue route's timeline, and its WAL records: the dequeue is
/// journaled, not logged.
fn queued_timeline() -> (Vec<String>, Vec<String>) {
    (
        labels(&[&["ingested", "enqueued", "dequeued"][..], &EXECUTED].concat()),
        labels(&["enqueued", "completed"]),
    )
}

/// The bypass route's timeline: one WAL record covers the enqueue and the
/// dequeue.
fn bypassed_timeline() -> (Vec<String>, Vec<String>) {
    (
        labels(&[&["ingested", "bypassed"][..], &EXECUTED].concat()),
        labels(&["enqueued", "completed"]),
    )
}

/// A bypass leaves the same timeline whoever runs it, and runs where its
/// caller's kind says: an asynchronous caller's is handed off to an
/// executor (no thread of its own), a synchronous caller runs its own in
/// place.
#[test]
fn bypass_runs_on_an_executor_with_the_same_timeline() {
    let (w, sink, noting, dir) = noting_worker("bypass", |cfg| {
        cfg.queue.bypass_threshold_ms = 1000;
        cfg.concurrency.limit = 2;
    });

    // Unseen, the function queues once; from then on it is known-short and
    // a sequential caller always finds one of the two run slots free.
    w.invoke_tenant("f-1", "{}", None).unwrap();
    let me = std::thread::current().id();
    let mut executors = Vec::new();
    for _ in 0..10 {
        let id = w.invoke_tenant("f-1", "{}", None).unwrap().trace_id;
        assert_eq!(finished_timeline(&sink, id), bypassed_timeline());
        assert_eq!(noting.caller(noting.calls() - 1).0, me, "ran in place");

        let handle = w.async_invoke_tenant("f-1", "{}", None).unwrap();
        let id = handle.wait().unwrap().trace_id;
        assert_eq!(finished_timeline(&sink, id), bypassed_timeline());
        let caller = noting.caller(noting.calls() - 1);
        assert!(on_an_executor(&caller), "handed off, but ran on {caller:?}");
        executors.push(caller.1);
    }
    assert_eq!(noting.calls(), 21);
    executors.sort();
    executors.dedup();
    assert!(
        executors.len() <= 2,
        "asynchronous bypasses ran on {executors:?}, not on at most two executors"
    );
    drop(w);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A synchronous call on an idle worker takes the queue's place: the
/// calling thread makes the agent call, and the trace and the WAL read as
/// if an executor had popped it. No executor wakes, so neither of the
/// executor's own spans is recorded.
#[test]
fn a_synchronous_call_on_an_idle_worker_runs_on_the_calling_thread() {
    let (w, sink, noting, dir) = noting_worker("idle-sync", |_| {});
    let me = std::thread::current().id();
    for i in 0..5 {
        let r = w.invoke_tenant("f-1", "{}", None).unwrap();
        assert_eq!(finished_timeline(&sink, r.trace_id), queued_timeline());
        assert_eq!(
            noting.caller(i).0,
            me,
            "call {i} ran on {:?}",
            noting.caller(i)
        );
    }
    let timed = span_counts(&w);
    for executor_only in ["spawn_worker", "dequeue"] {
        assert!(
            !timed.contains_key(executor_only),
            "`{executor_only}` timed for a caller-run"
        );
    }
    assert!(timed.contains_key("call_container"));
    drop(w);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Limit 1, held by a gated asynchronous call: a synchronous caller finds
/// no run permit, queues, and is served by the executor once the gate
/// opens.
#[test]
fn a_synchronous_call_on_a_busy_worker_goes_through_an_executor() {
    let (w, sink, noting, dir) = noting_worker("busy-sync", |cfg| cfg.concurrency.limit = 1);
    noting.hold.store(true, Ordering::SeqCst);
    let held = w.async_invoke_tenant("f-1", "{}", None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while noting.calls() == 0 {
        assert!(Instant::now() < deadline, "the gated call never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (r, caller_thread) = std::thread::scope(|scope| {
        let sync = scope.spawn(|| {
            let r = w.invoke_tenant("f-1", "{}", None);
            (r, std::thread::current().id())
        });
        while w.status().queue_len == 0 {
            assert!(
                Instant::now() < deadline,
                "the synchronous call never queued"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        noting.hold.store(false, Ordering::SeqCst);
        sync.join().unwrap()
    });
    held.wait().unwrap();
    let r = r.unwrap();
    assert_eq!(finished_timeline(&sink, r.trace_id), queued_timeline());
    assert_eq!(noting.calls(), 2);
    let served_by = noting.caller(1);
    assert!(
        on_an_executor(&served_by) && served_by.0 != caller_thread,
        "the queued synchronous call ran on {served_by:?}"
    );
    drop(w);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An asynchronous caller gets its handle back at once and never runs the
/// invocation itself, idle worker or not.
#[test]
fn an_asynchronous_call_never_runs_on_its_caller() {
    let (w, sink, noting, dir) = noting_worker("async", |_| {});
    for i in 0..5 {
        let r = w
            .async_invoke_tenant("f-1", "{}", None)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(finished_timeline(&sink, r.trace_id), queued_timeline());
        let caller = noting.caller(i);
        assert!(on_an_executor(&caller), "call {i} ran on {caller:?}");
    }
    drop(w);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker-shaped HTTP stub answering every `/invoke` with `err` exactly
/// as the worker routes would.
fn failing_worker(err: InvokeError) -> HttpServer {
    HttpServer::start(Arc::new(move |_req: Request| error_resp(&err, Some(7)))).unwrap()
}

#[test]
fn invoke_error_status_table_round_trips() {
    use InvokeError::*;
    let t = |s: &str| s.to_string();
    // (what the worker fails with, its status, what the balancer sees)
    let table = [
        (NotRegistered(t("f-1")), 404, NotRegistered(t("f-1"))),
        (QueueFull, 429, QueueFull),
        (NoResources, 429, QueueFull),
        (Throttled(t("acme")), 429, Throttled(t("acme"))),
        (Shed(t("acme")), 429, Shed(t("acme"))),
        (ShuttingDown, 503, ShuttingDown),
        (WalUnavailable, 503, ShuttingDown),
    ];
    for (sent, status, seen) in table {
        assert_eq!(sent.http_status(), Status(status), "{sent:?}");
        let resp = error_resp(&sent, Some(7));
        assert_eq!(
            resp.header("Retry-After"),
            (status == 503).then_some("7"),
            "{sent:?}: Retry-After rides 503 only"
        );
        assert_eq!(
            error_resp(&sent, None).header("Retry-After"),
            None,
            "the balancer tier sends no hint"
        );
        let server = failing_worker(sent.clone());
        let remote = RemoteWorker::connect(server.addr());
        let got = remote.invoke_tenant("f-1", "{}", Some("acme")).unwrap_err();
        assert_eq!(got, seen, "{sent:?} over the wire");
        assert_eq!(
            remote.retry_after_hint_ms(),
            if status == 503 { 7_000 } else { 0 },
            "{sent:?}: the hint is kept"
        );
    }
    // `Backend` comes back as `Backend`; only the message is re-wrapped.
    let sent = Backend(t("agent died"));
    assert_eq!(sent.http_status(), Status(500));
    let server = failing_worker(sent);
    match RemoteWorker::connect(server.addr()).invoke_tenant("f-1", "{}", None) {
        Err(Backend(m)) => assert!(m.contains("500") && m.contains("agent died"), "{m}"),
        other => panic!("expected Backend, got {other:?}"),
    }
    // Without a label the 429 verdicts fall back to the default tenant.
    let server = failing_worker(Throttled(t("acme")));
    assert_eq!(
        RemoteWorker::connect(server.addr())
            .invoke_tenant("f-1", "{}", None)
            .unwrap_err(),
        Throttled(t("default"))
    );
}

#[test]
fn tenant_header_beats_body_on_both_tiers() {
    let clock: Arc<dyn Clock> = SystemClock::shared();
    let worker = Arc::new(Worker::new(
        WorkerConfig::for_testing(),
        backend(&clock),
        clock,
    ));
    worker
        .register(FunctionSpec::new("f", "1").with_timing(20, 0))
        .unwrap();
    let wapi = WorkerApi::serve(Arc::clone(&worker)).unwrap();
    let cluster = Arc::new(Cluster::new(
        vec![Arc::clone(&worker) as Arc<dyn WorkerHandle>],
        LbPolicy::RoundRobin,
    ));
    let lapi = LbApi::serve(cluster, Duration::from_secs(60)).unwrap();

    let body = serde_json::to_vec(&InvokeBody {
        fqdn: "f-1".into(),
        args: "{}".into(),
        tenant: Some("from-body".into()),
    })
    .unwrap();
    let accounted_to = |addr, header: Option<&str>| {
        let mut req = Request::new(Method::Post, "/invoke").with_body(body.clone());
        if let Some(h) = header {
            req = req.with_header(TENANT_HEADER, h.to_string());
        }
        let resp: Response = HttpClient::send(addr, &req, Duration::from_secs(10)).unwrap();
        assert_eq!(resp.status, Status::OK, "body: {}", resp.body_str());
        serde_json::from_str::<WireResult>(resp.body_str())
            .unwrap()
            .tenant
    };
    for addr in [wapi.addr(), lapi.addr()] {
        assert_eq!(
            accounted_to(addr, Some("from-header")).as_deref(),
            Some("from-header")
        );
        assert_eq!(accounted_to(addr, None).as_deref(), Some("from-body"));
    }
}
