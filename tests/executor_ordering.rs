//! Pop order == stream order, with eight executors popping at once.
//!
//! A DRR worker under a deep two-tenant backlog, its telemetry stream fed to
//! the conformance checker exactly as `session --scenario conformance` D1
//! does. `FifoWithinTenant` demands that every `dequeued` on the stream is
//! its tenant's oldest queued invocation; two executors publishing their
//! dequeues in the opposite order to their pops is the swap it reports —
//! what the dispatch mutex in `Shared::dequeue` exists to prevent.
//!
//! Synchronous callers of both tenants race the flood. One that finds the
//! queue empty and a run permit free runs its invocation itself; checking
//! the queue and taking the permit in one step under the queue lock is what
//! keeps such a caller-run from overtaking an invocation already queued,
//! which the same rule would report.

use iluvatar::prelude::*;
use iluvatar_conformance::Checker;
use iluvatar_containers::{BackendError, Container, ContainerBackend, InvokeOutput};
use iluvatar_core::config::QueuePolicyKind;
use iluvatar_core::{AdmissionConfig, LifecycleConfig, TelemetrySink, TenantSpec};
use iluvatar_telemetry::VecSink;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const PER_THREAD: usize = 750;

/// Synchronous calls per tenant racing the flood, and made after it on the
/// idle worker.
const SYNC_RACING: usize = 40;
const SYNC_AFTER: usize = 5;

/// `SimBackend`, counting the agent calls made off the executor pool.
struct CallerRuns {
    sim: SimBackend,
    in_place: AtomicUsize,
}

impl ContainerBackend for CallerRuns {
    fn name(&self) -> &'static str {
        "caller-runs"
    }
    fn create(&self, spec: &FunctionSpec) -> Result<Container, BackendError> {
        self.sim.create(spec)
    }
    fn invoke(&self, c: &Container, args: &str) -> Result<InvokeOutput, BackendError> {
        let me = std::thread::current();
        if !me.name().unwrap_or("").starts_with("iluvatar-exec-") {
            self.in_place.fetch_add(1, Ordering::Relaxed);
        }
        self.sim.invoke(c, args)
    }
    fn destroy(&self, c: &Container) -> Result<(), BackendError> {
        self.sim.destroy(c)
    }
}

#[test]
fn dequeues_reach_the_stream_in_pop_order_under_eight_executors() {
    let dir = std::env::temp_dir().join(format!("iluvatar-exec-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let clock: Arc<dyn Clock> = SystemClock::shared();
    let backend = Arc::new(CallerRuns {
        sim: SimBackend::new(
            Arc::clone(&clock),
            SimBackendConfig {
                time_scale: 0.05,
                ..Default::default()
            },
        ),
        in_place: AtomicUsize::new(0),
    });
    let mut cfg = WorkerConfig::for_testing();
    cfg.concurrency.limit = 8;
    cfg.queue.policy = QueuePolicyKind::Drr;
    cfg.queue.drr_quantum_ms = 50;
    cfg.admission = AdmissionConfig::enabled_with(vec![
        TenantSpec::new("gold").with_weight(3.0),
        TenantSpec::new("bronze"),
    ]);
    cfg.lifecycle = LifecycleConfig::with_wal(dir.join("queue.wal").to_str().unwrap());
    let mut worker = Worker::new(cfg, Arc::clone(&backend) as _, clock);
    let sink = Arc::new(VecSink::new());
    worker
        .telemetry()
        .add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
    worker
        .register(FunctionSpec::new("f", "1").with_timing(20, 0))
        .unwrap();

    // Four submitters, two per tenant, and a synchronous caller per tenant.
    // The checker reads enqueue order off the stream (`wal:enqueued`), which
    // is queue order only if one tenant's accept → push steps do not
    // interleave: a lock per tenant sees to that — a synchronous caller
    // holds it for its whole call — and leaves the tenants, and the
    // executors, racing each other.
    let submit_locks = [Mutex::new(()), Mutex::new(())];
    let sync_call = |t: usize, i: usize| {
        let _in_stream_order = submit_locks[t].lock().unwrap();
        worker
            .invoke_tenant(
                "f-1",
                &format!("{{\"sync\":{i}}}"),
                Some(["gold", "bronze"][t]),
            )
            .expect("synchronous invocation");
    };
    let handles: Vec<_> = std::thread::scope(|scope| {
        for t in 0..2 {
            scope.spawn(move || (0..SYNC_RACING).for_each(|i| sync_call(t, i)));
        }
        let submitters: Vec<_> = (0..4)
            .map(|t| {
                let (worker, lock) = (&worker, &submit_locks[t % 2]);
                let tenant = ["gold", "bronze"][t % 2];
                scope.spawn(move || {
                    (0..PER_THREAD)
                        .map(|i| {
                            let _in_stream_order = lock.lock().unwrap();
                            worker
                                .async_invoke_tenant("f-1", &format!("{{\"i\":{i}}}"), Some(tenant))
                                .expect("enqueue")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        submitters
            .into_iter()
            .flat_map(|s| s.join().expect("submitter"))
            .collect()
    });
    assert_eq!(handles.len(), 4 * PER_THREAD);
    for h in handles {
        h.wait().expect("invocation");
    }
    // Idle now: these run on the calling thread.
    for i in 0..SYNC_AFTER {
        (0..2).for_each(|t| sync_call(t, SYNC_RACING + i));
    }
    let in_place = backend.in_place.load(Ordering::Relaxed);
    assert!(
        in_place >= 2 * SYNC_AFTER,
        "only {in_place} calls ran on their caller"
    );
    worker.shutdown();

    let mut checker = Checker::new().with_drr_fifo(50.0);
    for ev in sink.events() {
        checker.ingest(&ev);
    }
    let report = checker.finish();
    let found: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("[{}/{}] {}", v.model, v.rule, v.detail))
        .collect();
    assert!(found.is_empty(), "{} violations: {found:#?}", found.len());
    assert!(report.wal_pending.is_empty(), "{:?}", report.wal_pending);
    let _ = std::fs::remove_dir_all(&dir);
}
