//! Real agent protocol end-to-end: functions run as in-process agents —
//! genuine HTTP servers on loopback, spoken to through the worker's pooled
//! client, exactly like the paper's in-container Python agent (§3.2).
//!
//! Run with: `cargo run --release --example inprocess_agents`

use iluvatar::prelude::*;
use iluvatar_containers::NamespacePool;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let clock = SystemClock::shared();
    // Pre-created network namespaces hide the kernel's serialized
    // namespace-creation cost from cold starts (§3.3).
    let netns = Arc::new(NamespacePool::new(8, 0, Arc::clone(&clock)));
    netns.prefill();
    let backend = Arc::new(InProcessBackend::new(Arc::clone(&netns)));

    // Register real function bodies from the FunctionBench models.
    for app in [
        FbApp::PyAes,
        FbApp::MatrixMultiply,
        FbApp::FloatingPoint,
        FbApp::WebServing,
    ] {
        backend.register_behavior(format!("{}-1", app.name()), app.behavior());
    }

    let worker = Worker::new(WorkerConfig::default(), backend, clock);
    for app in [
        FbApp::PyAes,
        FbApp::MatrixMultiply,
        FbApp::FloatingPoint,
        FbApp::WebServing,
    ] {
        worker.register(app.spec()).unwrap();
    }

    for app in [
        FbApp::PyAes,
        FbApp::MatrixMultiply,
        FbApp::FloatingPoint,
        FbApp::WebServing,
    ] {
        let fqdn = format!("{}-1", app.name());
        let cold = worker
            .invoke_tenant(&fqdn, r#"{"demo":true}"#, None)
            .unwrap();
        let t = Instant::now();
        let warm = worker
            .invoke_tenant(&fqdn, r#"{"demo":true}"#, None)
            .unwrap();
        let wall = t.elapsed().as_micros();
        println!(
            "{:<16} cold e2e {:>4}ms | warm e2e {:>3}ms (wall {:>5}µs) overhead {:>2}ms | result: {:.40}...",
            app.name(),
            cold.e2e_ms,
            warm.e2e_ms,
            wall,
            warm.overhead_ms(),
            warm.body
        );
        assert!(cold.cold && !warm.cold);
    }

    // The whole warm path — queue, pool, HTTP round trip to a live agent —
    // should cost low single-digit milliseconds (Table 1's ~2ms).
    let mut overheads = Vec::new();
    for _ in 0..200 {
        let r = worker.invoke_tenant("pyaes-1", "{}", None).unwrap();
        overheads.push(r.overhead_ms() as f64);
    }
    println!(
        "\npyaes warm control-plane overhead over 200 invocations: p50 {:.2}ms p99 {:.2}ms",
        iluvatar_sync::stats::percentile(&overheads, 0.5),
        iluvatar_sync::stats::percentile(&overheads, 0.99),
    );
    println!(
        "namespaces created: {} (pool misses: {})",
        netns.created(),
        netns.pool_misses()
    );
}
