//! Integration: the fully distributed deployment — workers behind their
//! HTTP APIs, a CH-BL balancer talking to them over real sockets.

use iluvatar::prelude::*;
use iluvatar_core::api::WorkerApi;
use iluvatar_core::config::ConcurrencyConfig;
use iluvatar_lb::cluster::{RemoteWorker, WorkerHandle};
use std::sync::Arc;

fn http_worker(name: &str) -> (Arc<Worker>, WorkerApi) {
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
        memory_mb: 2048,
        concurrency: ConcurrencyConfig {
            limit: 8,
            ..Default::default()
        },
        ..WorkerConfig::for_testing()
    };
    let worker = Arc::new(Worker::new(cfg, backend, clock));
    let api = WorkerApi::serve(Arc::clone(&worker)).unwrap();
    (worker, api)
}

#[test]
fn chbl_over_http_workers() {
    let (w0, api0) = http_worker("remote-0");
    let (w1, api1) = http_worker("remote-1");
    let handles: Vec<Arc<dyn WorkerHandle>> = vec![
        Arc::new(RemoteWorker::connect(api0.addr())),
        Arc::new(RemoteWorker::connect(api1.addr())),
    ];
    let cluster = Cluster::new(handles, LbPolicy::ChBl(ChBlConfig::default()));
    for i in 0..4 {
        cluster
            .register_all(FunctionSpec::new(format!("fn{i}"), "1").with_timing(50, 400))
            .unwrap();
    }
    // Repeated invocations: locality over the wire.
    let mut cold = 0;
    for _round in 0..3 {
        for i in 0..4 {
            let r = cluster
                .invoke_tenant(&format!("fn{i}-1"), "{}", None)
                .unwrap();
            if r.cold {
                cold += 1;
            }
        }
    }
    assert_eq!(cold, 4, "one cold start per function despite HTTP hops");
    let completed = w0.status().completed + w1.status().completed;
    assert_eq!(completed, 12);
    // Both workers are reachable and report status through the API.
    let st = cluster.stats();
    assert_eq!(st.dispatched(), 12);
}

/// Routing makes no request of its own: N invocations through a CH-BL
/// balancer cost the workers exactly N requests — the invokes — whatever
/// the fleet size. (Probing on every pick cost one `/status` per worker
/// per invocation on top.)
#[test]
fn routing_costs_no_worker_requests() {
    for n in [2, 4] {
        let (_workers, apis): (Vec<_>, Vec<_>) =
            (0..n).map(|i| http_worker(&format!("remote-{i}"))).unzip();
        let handles: Vec<Arc<dyn WorkerHandle>> = apis
            .iter()
            .map(|a| Arc::new(RemoteWorker::connect(a.addr())) as Arc<dyn WorkerHandle>)
            .collect();
        let cluster = Cluster::new(handles, LbPolicy::ChBl(ChBlConfig::default()));
        for i in 0..4 {
            cluster
                .register_all(FunctionSpec::new(format!("fn{i}"), "1").with_timing(10, 40))
                .unwrap();
        }
        let served = || apis.iter().map(|a| a.served()).sum::<u64>();
        let before = served();
        let invocations = 40;
        for k in 0..invocations {
            cluster
                .invoke_tenant(&format!("fn{}-1", k % 4), "{}", None)
                .unwrap();
        }
        assert_eq!(served() - before, invocations, "{n} workers");
        assert_eq!(cluster.stats().dispatched(), invocations);
    }
}

#[test]
fn remote_worker_surfaces_errors() {
    let (_w, api) = http_worker("remote-err");
    let remote = RemoteWorker::connect(api.addr());
    match remote.invoke_tenant("ghost-1", "{}", None) {
        Err(InvokeError::NotRegistered(f)) => assert_eq!(f, "ghost-1"),
        other => panic!("expected NotRegistered, got {other:?}"),
    }
    assert!(remote.load().is_finite());
    // A dead endpoint reports infinite load so the balancer avoids it.
    drop(api);
    std::thread::sleep(std::time::Duration::from_millis(400));
    let dead = RemoteWorker::connect("127.0.0.1:1".parse().unwrap());
    assert!(dead.load().is_infinite());
}
