//! Chaos: one seeded fault-injected run, one digest.
//!
//! Drives a worker over a fault-injecting backend with the acceptance mix
//! (5% cold-start failures, 2% agent hangs, 10% agent errors) and retries
//! enabled, then digests the journal timeline of every invocation
//! (`--invocations`, default 30) plus the per-tenant books. The summary —
//! fault counts and recovery counters — goes to stderr.

use super::{sim_backend, tenant_books, Args};
use iluvatar_cache::CacheConfig;
use iluvatar_chaos::{sites, FaultInjector, FaultPlanConfig, FaultSpec};
use iluvatar_containers::{ContainerBackend, FunctionSpec};
use iluvatar_core::{
    journal_digest, AdmissionConfig, LifecycleConfig, ResilienceConfig, TelemetrySink, TenantSpec,
    Worker, WorkerConfig,
};
use iluvatar_sync::{Fnv1a, SystemClock};
use iluvatar_telemetry::VecSink;
use std::sync::Arc;

/// The tenant of the `i`-th invocation: the two chaos tenants alternate.
pub(super) fn tenant_of(i: usize) -> &'static str {
    if i.is_multiple_of(2) {
        "chaos-a"
    } else {
        "chaos-b"
    }
}

/// The chaos rig shared with the telemetry and conformance scenarios: a
/// worker with retries and two unlimited-rate tenants (faults must not
/// corrupt the per-tenant books) over the acceptance fault mix. `wal_path`
/// turns the write-ahead log on, `cache` the result cache. Callers attach
/// their sinks, then register [`f_spec`].
pub(super) fn chaos_worker(
    seed: u64,
    wal_path: Option<&str>,
    cache: bool,
) -> (Worker, Arc<FaultInjector>) {
    let clock = SystemClock::shared();
    let faults = FaultPlanConfig {
        seed,
        create_fail: FaultSpec::with_prob(0.05),
        invoke_hang: FaultSpec::with_prob(0.02),
        invoke_error: FaultSpec::with_prob(0.10),
        hang_ms: 150,
        ..Default::default()
    };
    let injector = Arc::new(FaultInjector::new(sim_backend(&clock), faults));
    let mut cfg = WorkerConfig {
        resilience: ResilienceConfig {
            max_retries: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            agent_timeout_ms: 40,
        },
        admission: AdmissionConfig::enabled_with(vec![
            TenantSpec::new("chaos-a"),
            TenantSpec::new("chaos-b"),
        ]),
        ..WorkerConfig::for_testing()
    };
    if let Some(path) = wal_path {
        cfg.lifecycle = LifecycleConfig {
            snapshot_every: 8,
            ..LifecycleConfig::with_wal(path)
        };
    }
    if cache {
        cfg.cache = CacheConfig::enabled_default();
    }
    let worker = Worker::new(
        cfg,
        Arc::clone(&injector) as Arc<dyn ContainerBackend>,
        clock,
    );
    (worker, injector)
}

/// The one function every worker scenario invokes, `f-1`.
pub(super) fn f_spec() -> FunctionSpec {
    FunctionSpec::new("f", "1").with_timing(100, 400)
}

/// Capture the worker's canonical stream, and wire the injector into the
/// worker's bus + recorder so every fired fault streams and auto-snapshots.
pub(super) fn tap(worker: &Worker, injector: &FaultInjector) -> Arc<VecSink> {
    let sink = Arc::new(VecSink::new());
    worker
        .telemetry()
        .add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
    let plan = injector.plan();
    plan.set_telemetry(Arc::clone(worker.telemetry()));
    plan.set_flight_recorder(Arc::clone(worker.flight_recorder()));
    sink
}

/// `ResultReturned` is journaled just after the result reaches the caller;
/// block until trace `id`'s timeline is complete.
pub(super) fn wait_completed(worker: &Worker, id: u64) -> iluvatar_core::TraceRecord {
    loop {
        let r = worker.trace(id).expect("trace journaled");
        if r.completed() {
            return r;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

pub fn run(args: &Args) -> u64 {
    let invocations = args.invocations.unwrap_or(30) as usize;
    let (mut worker, injector) = chaos_worker(args.seed, None, false);
    worker.register(f_spec()).expect("register");

    let mut ids = Vec::with_capacity(invocations);
    let mut failed = 0usize;
    for i in 0..invocations {
        match worker.invoke_tenant("f-1", &format!("{{\"i\":{i}}}"), Some(tenant_of(i))) {
            Ok(r) => ids.push(r.trace_id),
            // Retry-exhausted failures are part of the timeline too.
            Err(_) => {
                failed += 1;
                ids.push(worker.recent_traces(1)[0].trace_id);
            }
        }
    }
    let records: Vec<_> = ids.iter().map(|&id| wait_completed(&worker, id)).collect();
    // Per-tenant books are part of the determinism contract too: fold them
    // in as a continuation of the journal digest.
    let books = tenant_books(&worker);
    let mut digest = Fnv1a::resume(journal_digest(&records));
    digest.write(books.as_bytes());

    let st = worker.status();
    let stats = injector.plan().stats();
    eprintln!(
        "seed={} invocations={invocations} ok={} failed={failed}",
        args.seed,
        invocations - failed
    );
    for site in sites::ALL {
        eprintln!("  fault {site}: fired {}", stats.fired(site));
    }
    eprintln!(
        "  recovery: retries={} agent_timeouts={} quarantined={} dropped_retry_exhausted={}",
        st.retries, st.agent_timeouts, st.quarantined, st.dropped_retry_exhausted
    );
    eprintln!("  tenant books: {books}");
    worker.shutdown();
    digest.finish()
}
