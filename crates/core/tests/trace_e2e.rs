//! End-to-end trace propagation: the id minted at ingest must appear in the
//! worker's journal with the full ordered timeline AND cross the worker →
//! agent HTTP hop as the `X-Iluvatar-Trace` header, for both the sync and
//! async invocation paths.

use iluvatar_containers::agent::FunctionBehavior;
use iluvatar_containers::{ContainerBackend, InProcessBackend, NamespacePool};
use iluvatar_core::{FunctionSpec, TraceEventKind, Worker, WorkerConfig};
use iluvatar_sync::SystemClock;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn worker_over_inprocess() -> (Worker, Arc<InProcessBackend>) {
    let clock = SystemClock::shared();
    let netns = Arc::new(NamespacePool::new(2, 0, Arc::clone(&clock)));
    netns.prefill();
    let backend = Arc::new(InProcessBackend::new(netns));
    backend.register_behavior(
        "echo-1",
        FunctionBehavior::from_body(|args| format!("[{args}]")),
    );
    let worker = Worker::new(
        WorkerConfig::for_testing(),
        Arc::clone(&backend) as Arc<dyn ContainerBackend>,
        clock,
    );
    worker.register(FunctionSpec::new("echo", "1")).unwrap();
    (worker, backend)
}

/// `ResultReturned` is journaled just after the result is delivered to the
/// caller, so a test that raced `wait()` could observe an incomplete record.
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

fn kinds(r: &iluvatar_core::TraceRecord) -> Vec<TraceEventKind> {
    r.events.iter().map(|e| e.kind.clone()).collect()
}

#[test]
fn sync_invoke_journals_timeline_and_agent_sees_the_id() {
    let (mut worker, backend) = worker_over_inprocess();

    let cold = worker.invoke_tenant("echo-1", "7", None).unwrap();
    assert_eq!(cold.body, "[7]");
    assert_ne!(cold.trace_id, 0, "every invocation gets a trace id");
    assert!(cold.cold);

    let r = completed_trace(&worker, cold.trace_id);
    assert_eq!(r.fqdn, "echo-1");
    assert_eq!(
        kinds(&r),
        vec![
            TraceEventKind::Ingested,
            TraceEventKind::Enqueued,
            TraceEventKind::Dequeued,
            TraceEventKind::ContainerAcquired { cold: true },
            TraceEventKind::AgentCalled,
            TraceEventKind::ResultReturned { ok: true },
        ],
        "full ordered timeline for a cold sync invoke"
    );
    assert_eq!(r.cold(), Some(true));
    let times: Vec<_> = r.events.iter().map(|e| e.at_ms).collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "timestamps ordered: {times:?}"
    );

    // The agent inside the container observed exactly this id, hex-encoded.
    let hex = format!("{:016x}", cold.trace_id);
    assert!(
        backend.observed_traces().contains(&hex),
        "agent must see trace {hex}, got {:?}",
        backend.observed_traces()
    );

    // A second invocation is warm and gets its own, distinct trace.
    let warm = worker.invoke_tenant("echo-1", "8", None).unwrap();
    assert!(!warm.cold);
    assert_ne!(warm.trace_id, cold.trace_id);
    let r2 = completed_trace(&worker, warm.trace_id);
    assert_eq!(r2.cold(), Some(false), "warm attribution in the journal");
    assert!(backend
        .observed_traces()
        .contains(&format!("{:016x}", warm.trace_id)));

    // Newest-first listing surfaces the warm trace before the cold one.
    let recent = worker.recent_traces(2);
    assert_eq!(recent[0].trace_id, warm.trace_id);
    assert_eq!(recent[1].trace_id, cold.trace_id);

    worker.shutdown();
}

#[test]
fn tenant_label_crosses_the_agent_hop() {
    let (mut worker, backend) = worker_over_inprocess();

    // An explicit label rides the invocation all the way into the container:
    // the agent records the `X-Iluvatar-Tenant` header it was called with.
    let r = worker.invoke_tenant("echo-1", "7", Some("acme")).unwrap();
    assert_eq!(r.body, "[7]");
    assert_eq!(r.tenant.as_deref(), Some("acme"));
    assert!(
        backend.observed_tenants().contains(&"acme".to_string()),
        "agent must see the tenant label, got {:?}",
        backend.observed_tenants()
    );

    // A registration-level tenant is the default when the caller sends none.
    backend.register_behavior("billed-1", FunctionBehavior::from_body(|a| a.to_string()));
    worker
        .register(FunctionSpec::new("billed", "1").with_tenant("umbrella"))
        .unwrap();
    let r = worker.invoke_tenant("billed-1", "x", None).unwrap();
    assert_eq!(r.tenant.as_deref(), Some("umbrella"));
    assert!(backend.observed_tenants().contains(&"umbrella".to_string()));

    worker.shutdown();
}

#[test]
fn async_invoke_carries_the_same_id_end_to_end() {
    let (mut worker, backend) = worker_over_inprocess();

    let handle = worker.async_invoke_tenant("echo-1", "{}", None).unwrap();
    let result = handle.wait().unwrap();
    assert_ne!(result.trace_id, 0);

    let r = completed_trace(&worker, result.trace_id);
    assert_eq!(
        r.trace_id, result.trace_id,
        "journal and result agree on the id"
    );
    assert_eq!(r.cold(), Some(true));
    assert!(r.completed());
    // The queue path was taken.
    assert!(kinds(&r).contains(&TraceEventKind::Enqueued));
    assert!(kinds(&r).contains(&TraceEventKind::AgentCalled));

    let hex = format!("{:016x}", result.trace_id);
    assert!(
        backend.observed_traces().contains(&hex),
        "async path must propagate {hex} over the agent hop"
    );

    worker.shutdown();
}
