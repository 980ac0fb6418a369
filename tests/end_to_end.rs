//! End-to-end integration: the full worker over both real (in-process
//! agent) and simulated backends.

use iluvatar::prelude::*;
use iluvatar_containers::NamespacePool;
use iluvatar_core::config::ConcurrencyConfig;
use std::sync::Arc;

fn sim_worker(mut cfg: WorkerConfig) -> Worker {
    cfg.name = "it-sim".into();
    let clock = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.02,
            ..Default::default()
        },
    ));
    Worker::new(cfg, backend, clock)
}

fn inprocess_worker() -> (Arc<iluvatar_containers::InProcessBackend>, Worker) {
    let clock = SystemClock::shared();
    let netns = Arc::new(NamespacePool::new(2, 0, Arc::clone(&clock)));
    netns.prefill();
    let backend = Arc::new(iluvatar_containers::InProcessBackend::new(netns));
    let worker = Worker::new(
        WorkerConfig::for_testing(),
        Arc::clone(&backend) as Arc<dyn iluvatar_core::ContainerBackend>,
        clock,
    );
    (backend, worker)
}

#[test]
fn real_agent_full_lifecycle() {
    let (backend, worker) = inprocess_worker();
    backend.register_behavior(
        "echo-1",
        FunctionBehavior::from_body(|args| format!("[{args}]")),
    );
    worker.register(FunctionSpec::new("echo", "1")).unwrap();

    let r1 = worker.invoke_tenant("echo-1", "42", None).unwrap();
    assert!(r1.cold);
    assert_eq!(r1.body, "[42]");
    let r2 = worker.invoke_tenant("echo-1", "43", None).unwrap();
    assert!(!r2.cold, "keep-alive served the second invocation warm");
    assert_eq!(r2.body, "[43]");
    assert_eq!(backend.live_containers(), 1, "one warm container pooled");

    let st = worker.status();
    assert_eq!(st.completed, 2);
    assert_eq!(st.warm_hits, 1);
}

#[test]
fn real_agents_concurrent_functions() {
    let (backend, worker) = inprocess_worker();
    for i in 0..4 {
        let tag = format!("{i}");
        backend.register_behavior(
            format!("f{i}-1"),
            FunctionBehavior::from_body(move |_| tag.clone()),
        );
        worker
            .register(FunctionSpec::new(format!("f{i}"), "1"))
            .unwrap();
    }
    let handles: Vec<_> = (0..4)
        .flat_map(|i| (0..3).map(move |_| i).collect::<Vec<_>>())
        .map(|i| {
            (
                i,
                worker
                    .async_invoke_tenant(&format!("f{i}-1"), "{}", None)
                    .unwrap(),
            )
        })
        .collect();
    for (i, h) in handles {
        let r = h.wait().unwrap();
        assert_eq!(r.body, i.to_string(), "results routed to the right caller");
    }
    assert_eq!(worker.status().completed, 12);
}

#[test]
fn functionbench_behaviors_run_on_real_agents() {
    let (backend, worker) = inprocess_worker();
    for app in [FbApp::PyAes, FbApp::MatrixMultiply, FbApp::WebServing] {
        backend.register_behavior(format!("{}-1", app.name()), app.behavior());
        worker.register(app.spec()).unwrap();
        let r = worker
            .invoke_tenant(&format!("{}-1", app.name()), "{}", None)
            .unwrap();
        assert!(
            r.body.starts_with('{'),
            "{} returned {}",
            app.name(),
            r.body
        );
    }
}

#[test]
fn keepalive_policy_changes_eviction_order_end_to_end() {
    // GD keeps the expensive-to-init function; LRU would evict by recency.
    let mut cfg = WorkerConfig::for_testing();
    cfg.memory_mb = 256;
    cfg.free_buffer_mb = 0;
    cfg.keepalive = KeepalivePolicyKind::Gdsf;
    let w = sim_worker(cfg);
    w.register(
        FunctionSpec::new("dear", "1")
            .with_timing(50, 5_000)
            .with_limits(ResourceLimits {
                cpus: 1.0,
                memory_mb: 128,
            }),
    )
    .unwrap();
    w.register(
        FunctionSpec::new("cheap", "1")
            .with_timing(50, 10)
            .with_limits(ResourceLimits {
                cpus: 1.0,
                memory_mb: 128,
            }),
    )
    .unwrap();
    w.register(
        FunctionSpec::new("third", "1")
            .with_timing(50, 10)
            .with_limits(ResourceLimits {
                cpus: 1.0,
                memory_mb: 128,
            }),
    )
    .unwrap();
    w.invoke_tenant("dear-1", "{}", None).unwrap();
    w.invoke_tenant("cheap-1", "{}", None).unwrap();
    // Learn the init costs with one more round (both warm now).
    w.invoke_tenant("dear-1", "{}", None).unwrap();
    w.invoke_tenant("cheap-1", "{}", None).unwrap();
    // Third function forces an eviction: GD should sacrifice `cheap`
    // (low init cost) even though `dear` is older.
    w.invoke_tenant("third-1", "{}", None).unwrap();
    let r_dear = w.invoke_tenant("dear-1", "{}", None).unwrap();
    assert!(!r_dear.cold, "GD protected the high-init-cost function");
}

#[test]
fn queue_backpressure_and_recovery() {
    let mut cfg = WorkerConfig::for_testing();
    cfg.queue.max_len = 2;
    cfg.concurrency = ConcurrencyConfig {
        limit: 1,
        ..Default::default()
    };
    let w = sim_worker(cfg);
    w.register(FunctionSpec::new("slow", "1").with_timing(2_000, 0))
        .unwrap();
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for _ in 0..10 {
        match w.async_invoke_tenant("slow-1", "{}", None) {
            Ok(h) => accepted.push(h),
            Err(InvokeError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(rejected > 0, "bounded queue must reject under burst");
    for h in accepted {
        h.wait().unwrap();
    }
    // After draining, new work is accepted again.
    assert!(w.invoke_tenant("slow-1", "{}", None).is_ok());
}

#[test]
fn worker_config_json_drives_behavior() {
    let json = WorkerConfig::for_testing().to_json();
    let cfg = WorkerConfig::from_json(&json).unwrap();
    let w = sim_worker(cfg);
    w.register(FunctionSpec::new("f", "1").with_timing(10, 10))
        .unwrap();
    assert!(w.invoke_tenant("f-1", "{}", None).is_ok());
}
