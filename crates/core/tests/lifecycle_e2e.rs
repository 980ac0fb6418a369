//! Worker lifecycle end-to-end: graceful drain over HTTP and crash
//! recovery from the queue write-ahead log.

use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
use iluvatar_containers::{BackendError, Container, ContainerBackend, FunctionSpec, InvokeOutput};
use iluvatar_core::api::{WorkerApi, WorkerApiClient};
use iluvatar_core::wal::{discover_segments, scan_frames};
use iluvatar_core::{
    AdmissionConfig, InvokeError, LifecycleConfig, TenantSpec, WalRecord, Worker, WorkerConfig,
};
use iluvatar_http::{Method, Request};
use iluvatar_sync::{RealStorage, SystemClock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static UNIQ: AtomicU64 = AtomicU64::new(0);

fn temp_wal() -> String {
    let p = std::env::temp_dir().join(format!(
        "iluvatar-lifecycle-e2e-{}-{}.wal",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&p);
    p.to_str().unwrap().to_string()
}

fn backend(clock: &Arc<dyn iluvatar_sync::Clock>) -> Arc<dyn ContainerBackend> {
    Arc::new(SimBackend::new(
        Arc::clone(clock),
        SimBackendConfig {
            time_scale: 0.02,
            ..Default::default()
        },
    ))
}

fn lifecycle_cfg(name: &str, wal: &str) -> WorkerConfig {
    WorkerConfig {
        name: name.to_string(),
        lifecycle: LifecycleConfig::with_wal(wal),
        admission: AdmissionConfig::enabled_with(vec![
            TenantSpec::new("ten-a"),
            TenantSpec::new("ten-b"),
        ]),
        ..WorkerConfig::for_testing()
    }
}

/// Graceful drain over the HTTP API: in-flight invocations complete, new
/// ones get 503 + `Retry-After`, and the worker lands in `stopped` with
/// zero drain backlog.
#[test]
fn drain_finishes_in_flight_and_rejects_new_with_retry_after() {
    let clock: Arc<dyn iluvatar_sync::Clock> = SystemClock::shared();
    let wal = temp_wal();
    let worker = Arc::new(Worker::new(
        lifecycle_cfg("drainee", &wal),
        backend(&clock),
        Arc::clone(&clock),
    ));
    let api = WorkerApi::serve(Arc::clone(&worker)).unwrap();
    let client = WorkerApiClient::new(api.addr());
    // Long enough (2000 ms × 0.02 scale = 40 ms real) that the drain lands
    // while the invocation is still running.
    client
        .register(&FunctionSpec::new("slow", "1").with_timing(2_000, 3_000))
        .unwrap();

    let cookie = client.async_invoke_tenant("slow-1", "{}", None).unwrap();
    let pending = client.drain().unwrap();
    assert!(
        pending >= 1,
        "the in-flight invocation counts toward the drain"
    );

    // New work is refused with 503 and a Retry-After hint, on both the
    // sync and async paths.
    for path in ["/invoke", "/async_invoke"] {
        let resp = client
            .call(
                Request::new(Method::Post, path)
                    .with_body(&br#"{"fqdn":"slow-1","args":"{}"}"#[..]),
            )
            .unwrap();
        assert_eq!(
            resp.status.0,
            503,
            "{path} while draining: {}",
            resp.body_str()
        );
        assert_eq!(
            resp.header("Retry-After"),
            Some("1"),
            "{path} advertises Retry-After"
        );
    }

    // The in-flight invocation still completes.
    let deadline = Instant::now() + Duration::from_secs(10);
    let result = loop {
        if let Some(r) = client.result(cookie).unwrap() {
            break r;
        }
        assert!(
            Instant::now() < deadline,
            "in-flight invocation lost to the drain"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(result.exec_ms > 0, "the invocation actually ran");

    // Once idle the worker reports `stopped` with nothing pending; a second
    // drain is an idempotent no-op reporting the same.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let st = client.status().unwrap();
        if st.lifecycle == "stopped" && st.drain_pending == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "drain never completed: lifecycle={} pending={}",
            st.lifecycle,
            st.drain_pending
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(client.drain().unwrap(), 0, "drain is idempotent");
    let _ = std::fs::remove_file(&wal);
}

/// Crash recovery reconstructs exactly the books a crash-free run produces:
/// same per-tenant counters, same completion totals, nothing lost and
/// nothing double-counted.
#[test]
fn recovered_tenant_counters_match_a_no_kill_run() {
    let clock: Arc<dyn iluvatar_sync::Clock> = SystemClock::shared();
    let spec = FunctionSpec::new("f", "1").with_timing(100, 400);
    let invocations = 12usize;

    let run = |kill: bool| {
        let wal = temp_wal();
        let worker = Worker::new(
            lifecycle_cfg("crashy", &wal),
            backend(&clock),
            Arc::clone(&clock),
        );
        worker.register(spec.clone()).unwrap();
        let mut handles = Vec::new();
        for i in 0..invocations {
            let tenant = if i % 2 == 0 { "ten-a" } else { "ten-b" };
            handles.push(
                worker
                    .async_invoke_tenant("f-1", &format!("{{\"i\":{i}}}"), Some(tenant))
                    .expect("accepted"),
            );
        }
        let (tstats, completed) = if kill {
            // Crash with the trace part-done, then recover on a fresh
            // backend and run the replayed remainder to completion.
            worker.kill();
            drop(worker);
            drop(handles);
            let (recovered, report) = Worker::recover(
                lifecycle_cfg("crashy", &wal),
                backend(&clock),
                Arc::clone(&clock),
                std::slice::from_ref(&spec),
                &[],
                Arc::new(RealStorage),
            );
            for (_id, h) in report.handles {
                h.wait().expect("replayed invocation completes");
            }
            let st = recovered.status();
            (recovered.tenant_stats(), st.completed)
        } else {
            for h in handles {
                h.wait().expect("invocation completes");
            }
            let st = worker.status();
            (worker.tenant_stats(), st.completed)
        };
        let _ = std::fs::remove_file(&wal);
        let mut tstats = tstats;
        tstats.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let books: Vec<(String, u64, u64, u64, u64)> = tstats
            .into_iter()
            .map(|t| (t.tenant, t.admitted, t.throttled, t.shed, t.served))
            .collect();
        (books, completed)
    };

    let (clean_books, clean_completed) = run(false);
    let (crash_books, crash_completed) = run(true);
    assert_eq!(clean_completed, invocations as u64);
    assert_eq!(
        crash_completed, clean_completed,
        "every accepted invocation completed"
    );
    assert_eq!(
        crash_books, clean_books,
        "recovery reconstructed the tenant books"
    );
}

/// `shutdown()` joins the executors, so when it returns nothing accepted is
/// still running: every handle answers at once, the final snapshot holds no
/// pending invocation, and `stopped` means stopped.
#[test]
fn shutdown_returns_only_once_everything_accepted_has_finished() {
    let clock: Arc<dyn iluvatar_sync::Clock> = SystemClock::shared();
    let wal = temp_wal();
    let mut cfg = lifecycle_cfg("stopper", &wal);
    cfg.concurrency.limit = 2;
    let mut worker = Worker::new(cfg, backend(&clock), clock);
    // 40 ms real per call, three calls deep behind two run slots.
    worker
        .register(FunctionSpec::new("slow", "1").with_timing(2_000, 0))
        .unwrap();
    let handles: Vec<_> = (0..6)
        .map(|_| worker.async_invoke_tenant("slow-1", "{}", None).unwrap())
        .collect();

    worker.shutdown();

    for h in &handles {
        let done = h.poll().expect("shutdown returned with a call in flight");
        done.expect("a drained invocation succeeds");
    }
    let st = worker.status();
    assert_eq!((st.lifecycle.as_str(), st.running), ("stopped", 0));
    let replayed = iluvatar_core::wal::replay(std::path::Path::new(&wal)).unwrap();
    assert!(
        replayed.pending.is_empty(),
        "the final snapshot lists {} pending",
        replayed.pending.len()
    );
    assert_eq!(replayed.counters.completed, 6);
}

/// `kill()` is a crash: it does not wait for the call an executor is in.
#[test]
fn kill_returns_while_a_call_is_still_in_flight() {
    let clock: Arc<dyn iluvatar_sync::Clock> = SystemClock::shared();
    let wal = temp_wal();
    let worker = Worker::new(lifecycle_cfg("victim", &wal), backend(&clock), clock);
    // 1 s real: far longer than anything `kill` itself does.
    worker
        .register(FunctionSpec::new("slow", "1").with_timing(50_000, 0))
        .unwrap();
    let handle = worker.async_invoke_tenant("slow-1", "{}", None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while worker.status().running == 0 {
        assert!(Instant::now() < deadline, "the call never started");
        std::thread::sleep(Duration::from_millis(1));
    }

    let t0 = Instant::now();
    worker.kill();
    let took = t0.elapsed();

    assert!(handle.poll().is_none(), "the call outlives the kill");
    assert!(
        took < Duration::from_millis(500),
        "kill() waited {took:?} for the in-flight call"
    );
}

/// `SimBackend` counting its agent calls and holding them while `held`.
struct Gated {
    sim: Arc<dyn ContainerBackend>,
    held: AtomicBool,
    calls: AtomicU64,
}

impl ContainerBackend for Gated {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn create(&self, spec: &FunctionSpec) -> Result<Container, BackendError> {
        self.sim.create(spec)
    }
    fn invoke(&self, c: &Container, args: &str) -> Result<InvokeOutput, BackendError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        while self.held.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.sim.invoke(c, args)
    }
    fn destroy(&self, c: &Container) -> Result<(), BackendError> {
        self.sim.destroy(c)
    }
}

/// Every record in the WAL at `base`, in log order.
fn wal_records(base: &str) -> Vec<WalRecord> {
    discover_segments(&RealStorage, std::path::Path::new(base))
        .into_iter()
        .flat_map(|(_, seg)| scan_frames(&std::fs::read(seg).unwrap()).records)
        .collect()
}

/// A crash under a synchronous caller running its own invocation: the
/// caller gets `ShuttingDown`, the log holds the accept and no completion
/// (a dequeue is never logged), and recovery runs the invocation exactly
/// once more.
#[test]
fn kill_during_a_caller_run_books_no_completion_and_recovery_runs_it_once() {
    let clock: Arc<dyn iluvatar_sync::Clock> = SystemClock::shared();
    let wal = temp_wal();
    let gated = Arc::new(Gated {
        sim: backend(&clock),
        held: AtomicBool::new(true),
        calls: AtomicU64::new(0),
    });
    let spec = FunctionSpec::new("f", "1").with_timing(100, 0);
    let worker = Worker::new(
        lifecycle_cfg("caller-run", &wal),
        Arc::clone(&gated) as _,
        Arc::clone(&clock),
    );
    worker.register(spec.clone()).unwrap();
    let outcome = std::thread::scope(|scope| {
        let caller = scope.spawn(|| worker.invoke_tenant("f-1", "{}", Some("ten-a")));
        let deadline = Instant::now() + Duration::from_secs(10);
        while gated.calls.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the call never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        worker.kill();
        gated.held.store(false, Ordering::SeqCst);
        caller.join().unwrap()
    });
    assert_eq!(outcome.unwrap_err(), InvokeError::ShuttingDown);
    drop(worker);

    let records = wal_records(&wal);
    let id = records
        .iter()
        .find_map(|r| match r {
            WalRecord::Enqueued { inv } => Some(inv.id),
            _ => None,
        })
        .expect("the accept is durable");
    let ops: Vec<&str> = records
        .iter()
        .filter(|r| r.trace_id() == Some(id))
        .map(|r| r.op_label())
        .collect();
    assert_eq!(ops, ["enqueued"], "no completion is booked");

    let (recovered, report) = Worker::recover(
        lifecycle_cfg("caller-run", &wal),
        Arc::clone(&gated) as _,
        Arc::clone(&clock),
        &[spec],
        &[],
        Arc::new(RealStorage),
    );
    assert_eq!(report.replayed, 1);
    let (replayed_id, handle) = report.handles.into_iter().next().unwrap();
    assert_eq!(replayed_id, id);
    handle.wait().expect("the replayed invocation completes");
    assert_eq!(recovered.status().completed, 1);
    assert_eq!(
        gated.calls.load(Ordering::SeqCst),
        2,
        "one call under the crash, one replay"
    );
    drop(recovered);
    let _ = std::fs::remove_file(&wal);
}
