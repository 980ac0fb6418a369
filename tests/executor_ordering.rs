//! Pop order == stream order, with eight executors popping at once.
//!
//! A DRR worker under a deep two-tenant backlog, its telemetry stream fed to
//! the conformance checker exactly as `session --scenario conformance` D1
//! does. `FifoWithinTenant` demands that every `dequeued` on the stream is
//! its tenant's oldest queued invocation; two executors publishing their
//! dequeues in the opposite order to their pops is the swap it reports —
//! what the dispatch mutex in `Shared::dequeue` exists to prevent.

use iluvatar::prelude::*;
use iluvatar_conformance::Checker;
use iluvatar_core::config::QueuePolicyKind;
use iluvatar_core::{AdmissionConfig, LifecycleConfig, TelemetrySink, TenantSpec};
use iluvatar_telemetry::VecSink;
use std::sync::{Arc, Mutex};

const PER_THREAD: usize = 750;

#[test]
fn dequeues_reach_the_stream_in_pop_order_under_eight_executors() {
    let dir = std::env::temp_dir().join(format!("iluvatar-exec-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let clock: Arc<dyn Clock> = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.05,
            ..Default::default()
        },
    ));
    let mut cfg = WorkerConfig::for_testing();
    cfg.concurrency.limit = 8;
    cfg.queue.policy = QueuePolicyKind::Drr;
    cfg.queue.drr_quantum_ms = 50;
    cfg.admission = AdmissionConfig::enabled_with(vec![
        TenantSpec::new("gold").with_weight(3.0),
        TenantSpec::new("bronze"),
    ]);
    cfg.lifecycle = LifecycleConfig::with_wal(dir.join("queue.wal").to_str().unwrap());
    let mut worker = Worker::new(cfg, backend, clock);
    let sink = Arc::new(VecSink::new());
    worker
        .telemetry()
        .add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
    worker
        .register(FunctionSpec::new("f", "1").with_timing(20, 0))
        .unwrap();

    // Four submitters, two per tenant. The checker reads enqueue order off
    // the stream (`wal:enqueued`), which is queue order only if one tenant's
    // accept → push steps do not interleave: a lock per tenant sees to that
    // and leaves the tenants, and the executors, racing each other.
    let submit_locks = [Mutex::new(()), Mutex::new(())];
    let handles: Vec<_> = std::thread::scope(|scope| {
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
