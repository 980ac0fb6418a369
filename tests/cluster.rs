//! Integration: CH-BL load balancing over live workers.

use iluvatar::prelude::*;
use iluvatar_core::config::ConcurrencyConfig;
use iluvatar_lb::cluster::WorkerHandle;
use std::sync::Arc;

fn worker(name: &str, memory_mb: u64) -> Arc<Worker> {
    let clock = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.02,
            ..Default::default()
        },
    ));
    let cfg = WorkerConfig {
        name: name.into(),
        cores: 4,
        memory_mb,
        concurrency: ConcurrencyConfig {
            limit: 8,
            ..Default::default()
        },
        ..WorkerConfig::for_testing()
    };
    Arc::new(Worker::new(cfg, backend, clock))
}

fn cluster_of(n: usize, policy: LbPolicy) -> (Vec<Arc<Worker>>, Cluster) {
    let workers: Vec<Arc<Worker>> = (0..n).map(|i| worker(&format!("w{i}"), 2048)).collect();
    let handles: Vec<Arc<dyn WorkerHandle>> = workers
        .iter()
        .map(|w| Arc::clone(w) as Arc<dyn WorkerHandle>)
        .collect();
    (workers, Cluster::new(handles, policy))
}

#[test]
fn chbl_locality_maximizes_warm_starts() {
    let (workers, cluster) = cluster_of(3, LbPolicy::ChBl(ChBlConfig::default()));
    for i in 0..6 {
        cluster
            .register_all(FunctionSpec::new(format!("fn{i}"), "1").with_timing(50, 500))
            .unwrap();
    }
    let mut cold = 0;
    for round in 0..4 {
        for i in 0..6 {
            let r = cluster
                .invoke_tenant(&format!("fn{i}-1"), "{}", None)
                .unwrap();
            if r.cold {
                cold += 1;
                assert_eq!(round, 0, "cold starts only in the first round");
            }
        }
    }
    assert_eq!(
        cold, 6,
        "exactly one cold start per function — perfect locality"
    );
    // Every function's invocations landed on a single worker.
    let total: u64 = workers.iter().map(|w| w.status().completed).sum();
    assert_eq!(total, 24);
    let warm: u64 = workers.iter().map(|w| w.status().warm_hits).sum();
    assert_eq!(warm, 18);
}

#[test]
fn round_robin_spreads_and_loses_locality() {
    let (workers, cluster) = cluster_of(3, LbPolicy::RoundRobin);
    cluster
        .register_all(FunctionSpec::new("f", "1").with_timing(50, 500))
        .unwrap();
    for _ in 0..6 {
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
    }
    // Every worker saw the function → 3 cold starts (vs CH-BL's 1).
    let cold: u64 = workers.iter().map(|w| w.status().cold_starts).sum();
    assert_eq!(cold, 3, "round robin cold-starts on every worker");
}

#[test]
fn chbl_forwards_under_load_imbalance() {
    let (_workers, cluster) = cluster_of(2, LbPolicy::ChBl(ChBlConfig { c: 1.2, vnodes: 64 }));
    let cluster = Arc::new(cluster);
    cluster
        .register_all(FunctionSpec::new("busy", "1").with_timing(3_000, 10))
        .unwrap();
    // Saturate the home worker with slow concurrent invocations; CH-BL
    // must forward the overflow off the hot home.
    let threads: Vec<_> = (0..12)
        .map(|_| {
            let c = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let _ = c.invoke_tenant("busy-1", "{}", None);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let st = cluster.stats();
    assert!(
        st.forwarded > 0 && st.slots.iter().all(|s| s.dispatched > 0),
        "overload must spill to the second worker: slots={:?} forwarded={}",
        st.slots,
        st.forwarded
    );
}

#[test]
fn least_loaded_balances_closed_loop() {
    let workers: Vec<Arc<Worker>> = (0..2).map(|i| worker(&format!("ll{i}"), 2048)).collect();
    let handles: Vec<Arc<dyn WorkerHandle>> = workers
        .iter()
        .map(|w| Arc::clone(w) as Arc<dyn WorkerHandle>)
        .collect();
    let cluster = Arc::new(Cluster::new(handles, LbPolicy::LeastLoaded));
    cluster
        .register_all(FunctionSpec::new("f", "1").with_timing(100, 100))
        .unwrap();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let c = Arc::clone(&cluster);
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let _ = c.invoke_tenant("f-1", "{}", None);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let st = cluster.stats();
    assert_eq!(st.dispatched(), 40);
    // Both workers should participate under concurrent least-loaded.
    assert!(
        st.slots.iter().all(|s| s.dispatched > 0),
        "slots={:?}",
        st.slots
    );
}
