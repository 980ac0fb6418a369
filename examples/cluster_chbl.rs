//! A four-worker cluster behind consistent hashing with bounded loads:
//! locality keeps each function's invocations on its home worker (warm
//! starts) until the home saturates, then CH-BL forwards.
//!
//! Run with: `cargo run --release --example cluster_chbl`

use iluvatar::prelude::*;
use iluvatar_core::config::ConcurrencyConfig;
use iluvatar_lb::cluster::WorkerHandle;
use std::sync::Arc;

fn make_worker(name: &str) -> Arc<Worker> {
    let clock = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.05,
            ..Default::default()
        },
    ));
    let cfg = WorkerConfig {
        name: name.into(),
        cores: 8,
        memory_mb: 4 * 1024,
        concurrency: ConcurrencyConfig {
            limit: 16,
            ..Default::default()
        },
        ..Default::default()
    };
    Arc::new(Worker::new(cfg, backend, clock))
}

fn main() {
    let workers: Vec<Arc<Worker>> = (0..4)
        .map(|i| make_worker(&format!("worker-{i}")))
        .collect();
    let handles: Vec<Arc<dyn WorkerHandle>> = workers
        .iter()
        .map(|w| Arc::clone(w) as Arc<dyn WorkerHandle>)
        .collect();
    let cluster = Cluster::new(handles, LbPolicy::ChBl(ChBlConfig::default()));

    // Register 12 functions everywhere.
    for i in 0..12 {
        cluster
            .register_all(FunctionSpec::new(format!("fn{i}"), "1").with_timing(200, 1_000))
            .unwrap();
    }

    // Each function invoked repeatedly: locality should make all but the
    // first invocation of each function warm.
    let mut warm = 0;
    let mut total = 0;
    for round in 0..5 {
        for i in 0..12 {
            let r = cluster
                .invoke_tenant(&format!("fn{i}-1"), "{}", None)
                .unwrap();
            total += 1;
            if !r.cold {
                warm += 1;
            }
            if round == 0 {
                assert!(r.cold, "first round is all cold");
            }
        }
    }
    println!(
        "invocations: {total}, warm: {warm} (locality should give {}+)",
        total - 12
    );

    let st = cluster.stats();
    let dispatched: Vec<u64> = st.slots.iter().map(|s| s.dispatched).collect();
    println!("\nper-worker dispatch counts: {dispatched:?}");
    println!("forwarded (bounded-load overflow): {}", st.forwarded);
    for w in &workers {
        let s = w.status();
        println!(
            "  {}: completed={} warm_hits={} cold_starts={} used_mem={}MB",
            s.name, s.completed, s.warm_hits, s.cold_starts, s.used_mem_mb
        );
    }
    println!("\nExpected: every function pinned to one worker; zero or near-zero forwards at this load; warm hits dominate after round one.");
}
