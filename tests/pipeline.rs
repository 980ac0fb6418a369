//! Integration: the invocation pipeline's observable contract.
//!
//! * every route through `accept` (queue, bypass, full-queue reject,
//!   throttled reject, recovered re-enqueue) leaves exactly the journal
//!   label sequence and WAL op sequence the session digests fold;
//! * a bypassed invocation runs on one of the executors, not on a thread
//!   of its own;
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
use std::sync::{Arc, Mutex};
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

    // Unseen function: no expected runtime yet, so it queues.
    let queued = w.invoke_tenant("f-1", "{}", None).unwrap().trace_id;
    let (journal, wal_ops) = finished_timeline(&sink, queued);
    assert_eq!(
        journal,
        [&["ingested", "enqueued", "dequeued"][..], &EXECUTED].concat()
    );
    assert_eq!(wal_ops, labels(&["enqueued", "dequeued", "completed"]));

    // Now known-short: around the queue. One WAL record covers both the
    // enqueue and the dequeue.
    let bypassed = w.invoke_tenant("f-1", "{}", None).unwrap().trace_id;
    let (journal, wal_ops) = finished_timeline(&sink, bypassed);
    assert_eq!(journal, [&["ingested", "bypassed"][..], &EXECUTED].concat());
    assert_eq!(wal_ops, labels(&["enqueued", "completed"]));

    // Burst of one: the second `free` invocation is throttled at `admit`.
    w.invoke_tenant("f-1", "{}", Some("free")).unwrap();
    match w.invoke_tenant("f-1", "{}", Some("free")) {
        Err(InvokeError::Throttled(t)) => assert_eq!(t, "free"),
        other => panic!("expected Throttled, got {other:?}"),
    }
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
    let (mut w, _) = tapped_worker(cfg.clone());
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
    for (id, handle) in report.handles {
        handle.wait().unwrap();
        let (journal, wal_ops) = finished_timeline(&sink, id);
        assert_eq!(
            journal,
            [&["recovered", "enqueued", "dequeued"][..], &EXECUTED].concat()
        );
        // Already durable in the replayed prefix: no second `enqueued`.
        assert_eq!(wal_ops, labels(&["dequeued", "completed"]));
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `SimBackend`, noting the name of the thread that makes each agent call.
struct NotingBackend {
    sim: Arc<SimBackend>,
    callers: Mutex<Vec<String>>,
}

impl ContainerBackend for NotingBackend {
    fn name(&self) -> &'static str {
        "noting"
    }
    fn create(&self, spec: &FunctionSpec) -> Result<Container, BackendError> {
        self.sim.create(spec)
    }
    fn invoke(&self, c: &Container, args: &str) -> Result<InvokeOutput, BackendError> {
        let caller = std::thread::current().name().unwrap_or("?").to_string();
        self.callers.lock().unwrap().push(caller);
        self.sim.invoke(c, args)
    }
    fn destroy(&self, c: &Container) -> Result<(), BackendError> {
        self.sim.destroy(c)
    }
}

#[test]
fn bypass_runs_on_an_executor_with_the_same_timeline() {
    let dir = std::env::temp_dir().join(format!("iluvatar-bypass-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = WorkerConfig::for_testing();
    cfg.lifecycle = LifecycleConfig::with_wal(dir.join("bypass.wal").to_str().unwrap());
    cfg.queue.bypass_threshold_ms = 1000;
    cfg.concurrency.limit = 2;
    let clock: Arc<dyn Clock> = SystemClock::shared();
    let noting = Arc::new(NotingBackend {
        sim: backend(&clock),
        callers: Mutex::new(Vec::new()),
    });
    let (w, sink) = tapped_worker_on(cfg, Arc::clone(&noting) as _, clock);
    w.register(FunctionSpec::new("f", "1").with_timing(100, 0))
        .unwrap();

    // Unseen, the function queues once; from then on it is known-short and
    // a sequential caller always finds one of the two run slots free.
    w.invoke_tenant("f-1", "{}", None).unwrap();
    for _ in 0..20 {
        let id = w.invoke_tenant("f-1", "{}", None).unwrap().trace_id;
        let (journal, wal_ops) = finished_timeline(&sink, id);
        assert_eq!(journal, [&["ingested", "bypassed"][..], &EXECUTED].concat());
        assert_eq!(wal_ops, labels(&["enqueued", "completed"]));
    }
    let mut callers = noting.callers.lock().unwrap().clone();
    assert_eq!(callers.len(), 21);
    callers.sort();
    callers.dedup();
    assert!(
        callers.len() <= 2 && callers.iter().all(|c| c.starts_with("iluvatar-exec-")),
        "agent calls were made by {callers:?}, not by at most two executors"
    );
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
