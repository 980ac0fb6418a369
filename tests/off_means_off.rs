//! "Off means off": a default-config worker serving warm invocations
//! publishes the six journal stages per invocation and nothing from any
//! optional subsystem, and runs only its four standing threads plus the
//! per-invocation run thread. This is the in-tree zero-cost-when-off row the
//! DESIGN.md keep-or-kill audit cites for every subsystem it keeps.
//!
//! One `#[test]` in a file of its own: `/proc/self/task` lists every thread
//! of the process, so no sibling test may share it.

use iluvatar::prelude::*;
use iluvatar_core::TelemetrySink;
use iluvatar_telemetry::VecSink;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const INVOCATIONS: usize = 50;

/// `comm` of every live thread of this process (the kernel cuts it to 15
/// bytes, so callers match prefixes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|c| c.trim().to_string())
        .collect()
}

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

    for _ in 0..INVOCATIONS {
        let r = worker.invoke("f-1", "{}").unwrap();
        assert!(!r.cold, "prewarmed: every invocation is warm");
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
    for standing in [
        "iluvatar-queue-", // iluvatar-queue-monitor
        "iluvatar-destro", // iluvatar-destroyer
        "iluvatar-keepal", // iluvatar-keepalive-evict
        "iluvatar-metric", // iluvatar-metrics-sample
    ] {
        assert!(
            threads.iter().any(|t| t.starts_with(standing)),
            "no `{standing}*` thread among {threads:?}"
        );
    }
    for optional in [
        "iluvatar-bg-",    // one-off job pool
        "iluvatar-quaran", // quarantine-sweep
        "iluvatar-wal-re", // wal-rearm
        "iluvatar-aimd-t", // aimd-tick
        "iluvatar-predic", // predictive-prewarm
        "iluvatar-agent-", // agent-call timeout helper
    ] {
        assert!(
            !threads.iter().any(|t| t.starts_with(optional)),
            "a default worker runs a `{optional}*` thread: {threads:?}"
        );
    }
}
