//! Quickstart: stand up an Ilúvatar worker, register a function, and watch
//! the cold→warm transition plus prewarming.
//!
//! Run with: `cargo run --release --example quickstart`

use iluvatar::prelude::*;
use std::sync::Arc;

fn main() {
    // A worker over the "null" simulation backend (§3.4): identical control
    // plane, no real containers needed.
    let clock = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.1,
            ..Default::default()
        }, // 10x compressed
    ));
    let worker = Worker::new(WorkerConfig::default(), backend, clock);

    // Register: prepares the container image out-of-band (§3.2).
    let reg = worker
        .register(
            FunctionSpec::new("hello", "1")
                .with_image("docker.io/examples/hello:1")
                .with_timing(120, 800) // 120ms warm, +800ms init
                .with_limits(ResourceLimits {
                    cpus: 1.0,
                    memory_mb: 256,
                }),
        )
        .expect("registration succeeds");
    println!(
        "registered {} ({} image layers prepared)",
        reg.spec.fqdn,
        reg.image.layers.len()
    );

    // First invocation: cold start (container create + init).
    let r1 = worker
        .invoke_tenant("hello-1", r#"{"name":"world"}"#, None)
        .unwrap();
    println!(
        "invocation 1: cold={} exec={}ms e2e={}ms control-plane overhead={}ms",
        r1.cold,
        r1.exec_ms,
        r1.e2e_ms,
        r1.overhead_ms()
    );

    // Second invocation: warm start from the keep-alive pool.
    let r2 = worker
        .invoke_tenant("hello-1", r#"{"name":"again"}"#, None)
        .unwrap();
    println!(
        "invocation 2: cold={} exec={}ms e2e={}ms overhead={}ms",
        r2.cold,
        r2.exec_ms,
        r2.e2e_ms,
        r2.overhead_ms()
    );
    assert!(r1.cold && !r2.cold);

    // Prewarm a second function so its first invocation is already warm.
    worker
        .register(FunctionSpec::new("ml", "1").with_timing(600, 4_000))
        .unwrap();
    worker.prewarm("ml-1").unwrap();
    let r3 = worker.invoke_tenant("ml-1", "{}", None).unwrap();
    println!("prewarmed ml-1: cold={} e2e={}ms", r3.cold, r3.e2e_ms);

    // Async invocations overlap.
    let handles: Vec<_> = (0..4)
        .map(|_| worker.async_invoke_tenant("hello-1", "{}", None).unwrap())
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.wait().unwrap();
        println!("async {}: warm={} e2e={}ms", i, !r.cold, r.e2e_ms);
    }

    let st = worker.status();
    println!(
        "\nworker status: completed={} cold_starts={} warm_hits={} used_mem={}MB queue={}",
        st.completed, st.cold_starts, st.warm_hits, st.used_mem_mb, st.queue_len
    );
    let s = worker.characteristics().summary("hello-1");
    println!(
        "learned characteristics of hello-1: warm={:.0}ms cold={:.0}ms IAT={:.0}ms",
        s.warm_ms, s.cold_ms, s.iat_ms
    );
}
