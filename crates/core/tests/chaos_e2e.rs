//! Deterministic chaos harness: a worker over a fault-injecting backend.
//!
//! Three properties are pinned down end to end:
//!
//! 1. An injected cold-start failure is retried exactly `max_retries` times
//!    and then fails cleanly, with the whole story in the trace journal.
//! 2. A hung agent trips the agent-call deadline; the container is
//!    quarantined and the invocation completes on a fresh one.
//! 3. Two runs with identical seeds produce identical journal timelines
//!    (`journal_digest`), the property `scripts/check.sh` diffs for flakes.

use iluvatar_chaos::{sites, FaultInjector, FaultPlanConfig, FaultSpec};
use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
use iluvatar_containers::{ContainerBackend, FunctionSpec};
use iluvatar_core::{
    journal_digest, InvokeError, ResilienceConfig, TraceEventKind, Worker, WorkerConfig,
};
use iluvatar_sync::SystemClock;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn chaos_worker(
    faults: FaultPlanConfig,
    resilience: ResilienceConfig,
) -> (Worker, Arc<FaultInjector>) {
    let clock = SystemClock::shared();
    let sim = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.02,
            ..Default::default()
        },
    ));
    let injector = Arc::new(FaultInjector::new(sim, faults));
    let cfg = WorkerConfig {
        resilience,
        ..WorkerConfig::for_testing()
    };
    let worker = Worker::new(
        cfg,
        Arc::clone(&injector) as Arc<dyn ContainerBackend>,
        clock,
    );
    worker
        .register(FunctionSpec::new("f", "1").with_timing(100, 400))
        .unwrap();
    (worker, injector)
}

/// `ResultReturned` lands just after the result reaches the caller; poll so
/// assertions never race the journaling of the final event.
fn completed_trace(worker: &Worker, id: u64) -> iluvatar_core::TraceRecord {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let r = worker.trace(id).expect("trace must be journaled");
        if r.completed() || Instant::now() > deadline {
            return r;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn count_kind(r: &iluvatar_core::TraceRecord, pred: impl Fn(&TraceEventKind) -> bool) -> usize {
    r.events.iter().filter(|e| pred(&e.kind)).count()
}

#[test]
fn cold_start_failures_retry_exactly_n_then_fail_cleanly() {
    // Every create fails; max_retries = 2 → exactly 3 attempts.
    let faults = FaultPlanConfig {
        seed: 7,
        create_fail: FaultSpec::on_occurrences(vec![0, 1, 2]),
        ..Default::default()
    };
    let resilience = ResilienceConfig {
        max_retries: 2,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
        ..Default::default()
    };
    let (mut worker, injector) = chaos_worker(faults, resilience);

    let err = worker.invoke_tenant("f-1", "{}", None).unwrap_err();
    match &err {
        InvokeError::Backend(msg) => {
            assert!(
                msg.contains("injected cold-start failure"),
                "clean error: {msg}"
            )
        }
        other => panic!("expected a backend error, got {other:?}"),
    }

    // The backend saw exactly the 3 attempts and no more.
    let stats = injector.plan().stats();
    assert_eq!(stats.fired(sites::CREATE_FAIL), 3);

    let st = worker.status();
    assert_eq!(st.retries, 2, "one retry per allowed attempt");
    assert_eq!(st.dropped_retry_exhausted, 1);
    assert_eq!(st.completed, 0);

    // The journal tells the whole story for the single invocation.
    let tr = &worker.recent_traces(1)[0];
    let tr = completed_trace(&worker, tr.trace_id);
    assert_eq!(
        count_kind(&tr, |k| matches!(k, TraceEventKind::RetryScheduled { .. })),
        2,
        "events: {:?}",
        tr.events
    );
    assert_eq!(
        count_kind(&tr, |k| *k == TraceEventKind::RetriesExhausted),
        1
    );
    assert_eq!(
        count_kind(&tr, |k| *k == TraceEventKind::ResultReturned { ok: false }),
        1
    );

    worker.shutdown();
}

#[test]
fn hung_agent_trips_deadline_and_completes_on_fresh_container() {
    // First invoke hangs far past the agent timeout; the retry runs clean.
    let faults = FaultPlanConfig {
        seed: 11,
        invoke_hang: FaultSpec::on_occurrences(vec![0]),
        hang_ms: 1_500,
        ..Default::default()
    };
    let resilience = ResilienceConfig {
        max_retries: 2,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
        agent_timeout_ms: 100,
    };
    let (mut worker, _injector) = chaos_worker(faults, resilience);

    let started = Instant::now();
    let r = worker.invoke_tenant("f-1", "{}", None).unwrap();
    assert!(
        started.elapsed() < Duration::from_millis(1_400),
        "deadline must fire long before the 1.5s hang resolves"
    );
    assert!(
        r.cold,
        "the quarantined container forces a fresh cold start"
    );

    let st = worker.status();
    assert_eq!(st.agent_timeouts, 1);
    assert_eq!(st.quarantined, 1, "hung container left circulation");
    assert_eq!(st.retries, 1);
    assert_eq!(st.completed, 1);

    let tr = completed_trace(&worker, r.trace_id);
    assert_eq!(count_kind(&tr, |k| *k == TraceEventKind::AgentTimeout), 1);
    assert_eq!(
        count_kind(&tr, |k| *k == TraceEventKind::ContainerQuarantined),
        1
    );
    assert_eq!(
        count_kind(&tr, |k| *k
            == TraceEventKind::ContainerAcquired { cold: true }),
        2,
        "both attempts cold-started: {:?}",
        tr.events
    );
    assert_eq!(
        count_kind(&tr, |k| *k == TraceEventKind::ResultReturned { ok: true }),
        1
    );

    worker.shutdown();
}

/// One sequential chaos run; returns the digest of all journaled timelines.
fn run_digest(seed: u64, invocations: usize) -> u64 {
    let faults = FaultPlanConfig {
        seed,
        // The acceptance mix: cold-start failures plus occasional hangs.
        create_fail: FaultSpec::with_prob(0.05),
        invoke_hang: FaultSpec::with_prob(0.02),
        invoke_error: FaultSpec::with_prob(0.10),
        hang_ms: 150,
        ..Default::default()
    };
    let resilience = ResilienceConfig {
        max_retries: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
        agent_timeout_ms: 40,
    };
    let (mut worker, _injector) = chaos_worker(faults, resilience);
    let mut ids = Vec::new();
    for i in 0..invocations {
        match worker.invoke_tenant("f-1", &format!("{{\"i\":{i}}}"), None) {
            Ok(r) => ids.push(r.trace_id),
            // Failures (retry exhaustion) are part of the timeline too; the
            // trace is the newest journaled record.
            Err(_) => ids.push(worker.recent_traces(1)[0].trace_id),
        }
    }
    let records: Vec<_> = ids.iter().map(|&id| completed_trace(&worker, id)).collect();
    worker.shutdown();
    journal_digest(&records)
}

#[test]
fn identical_seeds_produce_identical_journal_timelines() {
    let a = run_digest(42, 30);
    let b = run_digest(42, 30);
    assert_eq!(a, b, "same seed, same workload → same timeline digest");

    let c = run_digest(43, 30);
    assert_ne!(a, c, "a different seed must change the fault pattern");
}

/// The conformance checker running *online*, as a live bus sink, while both
/// the backend (invoke errors) and the disk (fsync failures, torn writes)
/// misbehave: the stream must stay violation-free at every step, and the
/// fault plan must demonstrably exercise the WAL retry ladder.
#[test]
fn online_checker_stays_clean_under_backend_and_disk_chaos() {
    use iluvatar_chaos::{DiskFaultPlanConfig, FaultyStorage};
    use iluvatar_conformance::{Checker, CheckerSink};
    use iluvatar_core::{LifecycleConfig, TelemetrySink, WalConfig};
    use iluvatar_sync::RealStorage;

    let dir = std::env::temp_dir().join(format!("iluvatar-online-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal_path = dir.join("queue.wal").to_str().unwrap().to_string();

    let clock = SystemClock::shared();
    let sim = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.02,
            ..Default::default()
        },
    ));
    let injector = Arc::new(FaultInjector::new(
        sim,
        FaultPlanConfig {
            seed: 11,
            invoke_error: FaultSpec::with_prob(0.15),
            ..Default::default()
        },
    ));
    let storage = Arc::new(FaultyStorage::new(
        Arc::new(RealStorage),
        DiskFaultPlanConfig {
            seed: 11,
            fsync_fail: FaultSpec::every_nth(3),
            write_torn: FaultSpec::every_nth(7),
            ..Default::default()
        },
    ));
    let cfg = WorkerConfig {
        resilience: ResilienceConfig {
            max_retries: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            ..Default::default()
        },
        lifecycle: LifecycleConfig {
            snapshot_every: 8,
            wal: WalConfig {
                fsync: "always".into(),
                ..Default::default()
            },
            ..LifecycleConfig::with_wal(&wal_path)
        },
        ..WorkerConfig::for_testing()
    };
    let mut worker =
        Worker::new_with_storage(cfg, injector as Arc<dyn ContainerBackend>, clock, storage);
    let sink = Arc::new(CheckerSink::new(Checker::new()));
    worker
        .telemetry()
        .add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
    worker
        .register(FunctionSpec::new("f", "1").with_timing(100, 400))
        .unwrap();

    for i in 0..24 {
        // Serialize: each trace completes before the next starts emitting,
        // so stream order is sound for the per-invocation timeline model.
        if let Ok(h) = worker.async_invoke_tenant("f-1", &format!("{{\"i\":{i}}}"), None) {
            let _ = h.wait();
        }
        let live = sink.violations();
        assert!(live.is_empty(), "live violation mid-run: {live:?}");
    }
    worker.shutdown();
    let report = sink.finish();
    assert!(
        report.ok(),
        "online checker found violations: {:?}",
        report.violations
    );
    assert!(
        report
            .label_counts
            .get("wal_io:retry")
            .copied()
            .unwrap_or(0)
            > 0,
        "the disk fault plan must exercise the WAL retry ladder"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
