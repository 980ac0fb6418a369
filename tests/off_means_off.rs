//! "Off means off": a default-config worker serving warm invocations —
//! through the sync entry and the async one alike — publishes the six
//! journal stages per invocation and nothing from any optional subsystem
//! (no `cache:*` event; every result reads `Bypass`), and runs only its
//! two standing threads (the destroyer and the timer) plus the executors its
//! load called for — no thread per invocation. Its periodic tasks are ticks
//! on the timer thread, not threads; idle, it wakes at most 8 times a
//! second, which leaves no room for a `wal-rearm` tick (ten a second). This
//! is the
//! in-tree zero-cost-when-off row the DESIGN.md keep-or-kill audit cites for
//! every subsystem it keeps. And idle means idle: a worker whose group-commit
//! WAL is *on* performs no fsync while nothing arrives — the log commits
//! when asked, not when a clock says.
//!
//! One `#[test]` in a file of its own: `/proc/self/task` lists every thread
//! of the process, so no sibling test may share it.

mod common;

use common::{thread_names, wakeups_over};
use iluvatar::chaos::{disk_sites, DiskFaultPlanConfig, FaultyStorage};
use iluvatar::core::config::{LifecycleConfig, WalConfig};
use iluvatar::prelude::*;
use iluvatar::sync::RealStorage;
use iluvatar_core::TelemetrySink;
use iluvatar_telemetry::VecSink;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const INVOCATIONS: usize = 50;

#[test]
fn default_worker_runs_no_optional_subsystem() {
    let clock: Arc<dyn Clock> = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.01,
            ..Default::default()
        },
    ));
    let worker = Worker::new(WorkerConfig::default(), backend, clock);
    worker
        .register(FunctionSpec::new("f", "1").with_timing(100, 0))
        .unwrap();
    worker.prewarm("f-1").unwrap();
    // Tap the stream only once set-up is over: what follows is the warm path.
    let sink = Arc::new(VecSink::new());
    worker
        .telemetry()
        .add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);

    // Half through the sync entry, half through the async one it wraps:
    // with the cache off, neither consults it and every result says so.
    for i in 0..INVOCATIONS {
        let r = if i % 2 == 0 {
            worker.invoke_tenant("f-1", "{}", None)
        } else {
            worker
                .async_invoke_tenant("f-1", "{}", None)
                .unwrap()
                .wait()
        }
        .unwrap();
        assert!(!r.cold, "prewarmed: every invocation is warm");
        assert_eq!(r.cache, CacheStatus::Bypass, "the cache is off");
    }
    // `result_returned` lands just after the caller is released; poll.
    let deadline = Instant::now() + Duration::from_secs(5);
    while sink.len() < 6 * INVOCATIONS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut per_trace: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for ev in sink.events() {
        let label = ev.kind.label();
        assert!(
            label.starts_with("trace:"),
            "a default worker published `{label}`: some optional subsystem is not off"
        );
        per_trace
            .entry(ev.trace_id.expect("journal events carry their trace"))
            .or_default()
            .push(label);
    }
    assert_eq!(per_trace.len(), INVOCATIONS);
    for (id, stages) in &per_trace {
        assert_eq!(
            stages.len(),
            6,
            "trace {id:x} published {stages:?}, not the six warm-path stages"
        );
    }

    let threads = thread_names();
    // A sequential client needs one executor; a second appears only if a
    // call arrived while the first was still on its way back to the queue.
    let executors = threads
        .iter()
        .filter(|t| t.starts_with("iluvatar-exec"))
        .count();
    assert!(
        (1..=2).contains(&executors),
        "{executors} executors for one sequential client: {threads:?}"
    );
    for standing in [
        "iluvatar-destro", // iluvatar-destroyer
        "iluvatar-timer",  // keepalive-evict and metrics-sample ticks
    ] {
        assert!(
            threads.iter().any(|t| t.starts_with(standing)),
            "no `{standing}*` thread among {threads:?}"
        );
    }
    for optional in [
        "iluvatar-invoke", // a thread per invocation
        "iluvatar-queue-", // a dispatcher in front of the executors
        "iluvatar-bg-",    // one-off job pool
        "iluvatar-quaran", // quarantine-sweep
        "iluvatar-agent-", // agent-call timeout helper
    ] {
        assert!(
            !threads.iter().any(|t| t.starts_with(optional)),
            "a default worker runs a `{optional}*` thread: {threads:?}"
        );
    }
    // Idle for 2 s: the 250 ms metrics sample and the 500 ms sweep tick six
    // times a second; a `wal-rearm` task would add ten.
    let woke = wakeups_over(Duration::from_secs(2));
    let own: u64 = woke
        .iter()
        .filter(|(t, _)| t.starts_with("iluvatar-"))
        .map(|(_, n)| n)
        .sum();
    assert!(
        own <= 16,
        "an idle default worker woke {own} times in 2 s: {woke:?}"
    );
    drop(worker);
    idle_group_commit_worker_performs_no_fsync();
}

/// A group-mode worker that has served (so its log has seen both records
/// of a durable invocation) and is then left alone for 100 ms: a
/// fault-free `FaultyStorage` counts the fsyncs.
fn idle_group_commit_worker_performs_no_fsync() {
    let dir = std::env::temp_dir().join(format!("iluvatar-idle-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let disk = Arc::new(FaultyStorage::new(
        Arc::new(RealStorage),
        DiskFaultPlanConfig::default(),
    ));
    let fsyncs = || {
        let seen = disk.plan().stats().sites;
        let site = seen.iter().find(|s| s.0 == disk_sites::WAL_FSYNC_FAIL);
        site.expect("the fsync site is registered").1
    };
    let clock: Arc<dyn Clock> = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.01,
            ..Default::default()
        },
    ));
    let cfg = WorkerConfig {
        lifecycle: LifecycleConfig {
            wal: WalConfig {
                fsync: "group".into(),
                group_ms: 2,
                ..Default::default()
            },
            ..LifecycleConfig::with_wal(dir.join("queue.wal").to_str().unwrap())
        },
        ..WorkerConfig::default()
    };
    let worker = Worker::new_with_storage(cfg, backend, clock, disk.clone());
    worker
        .register(FunctionSpec::new("f", "1").with_timing(100, 0))
        .unwrap();
    for _ in 0..5 {
        worker.invoke_tenant("f-1", "{}", None).unwrap();
    }
    // Ten sweep intervals for the sweeper to find the log clean and park.
    std::thread::sleep(Duration::from_millis(20));
    let busy = fsyncs();
    assert!(busy >= 10, "{busy} fsyncs for 5 durable invocations");
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        fsyncs(),
        busy,
        "an idle group-commit log fsynced on a timer"
    );
    drop(worker);
    let _ = std::fs::remove_dir_all(&dir);
}
