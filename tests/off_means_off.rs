//! "Off means off": a default-config worker serving warm invocations
//! publishes the six journal stages per invocation and nothing from any
//! optional subsystem, and runs only its three standing threads plus the
//! executors its load called for — no thread per invocation. This is the
//! in-tree zero-cost-when-off row the DESIGN.md keep-or-kill audit cites for
//! every subsystem it keeps.
//!
//! One `#[test]` in a file of its own: `/proc/self/task` lists every thread
//! of the process, so no sibling test may share it.

mod common;

use common::thread_names;
use iluvatar::prelude::*;
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
        "iluvatar-keepal", // iluvatar-keepalive-evict
        "iluvatar-metric", // iluvatar-metrics-sample
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
