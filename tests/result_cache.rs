//! Integration: the result cache is consulted by the one invocation entry of
//! each tier, whichever way the caller reaches it.
//!
//! * `POST /async_invoke` consults the worker cache like `POST /invoke`:
//!   the second `/result/<cookie>` of a repeated idempotent call is a hit;
//! * an in-process `Cluster` over `Worker` handles gets worker-cache hits —
//!   the balancer hop is `Worker::invoke_tenant`, the cached entry;
//! * a balancer over HTTP workers answers with the worker's verdict, which
//!   rides the hop in `X-Iluvatar-Cache`;
//! * a hit mints no trace and touches no admission token, queue or
//!   container.

use iluvatar::prelude::*;
use iluvatar_core::api::{WireResult, WorkerApi, WorkerApiClient};
use iluvatar_core::{AdmissionConfig, TenantSpec};
use iluvatar_http::{HttpClient, Method, Request, Response, CACHE_HEADER};
use iluvatar_lb::cluster::{RemoteWorker, WorkerHandle};
use iluvatar_lb::LbApi;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A worker with the result cache on and one idempotent function `f-1`.
fn cached_worker(name: &str, cfg: WorkerConfig) -> Arc<Worker> {
    let clock: Arc<dyn Clock> = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.02,
            ..Default::default()
        },
    ));
    let cfg = WorkerConfig {
        name: name.to_string(),
        cache: CacheConfig::enabled_default(),
        ..cfg
    };
    let worker = Arc::new(Worker::new(cfg, backend, clock));
    worker
        .register(
            FunctionSpec::new("f", "1")
                .with_timing(100, 400)
                .with_idempotent(),
        )
        .unwrap();
    worker
}

/// Submit through `POST /async_invoke` and poll `/result/<cookie>` until it
/// resolves.
fn async_round_trip(client: &WorkerApiClient, args: &str) -> Response {
    let cookie = client.async_invoke_tenant("f-1", args, None).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = client
            .call(Request::new(Method::Get, format!("/result/{cookie}")))
            .unwrap();
        if !resp.body_str().contains("pending") {
            return resp;
        }
        assert!(Instant::now() < deadline, "cookie {cookie} never resolved");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn async_invoke_over_http_consults_the_worker_cache() {
    let worker = cached_worker("w0", WorkerConfig::for_testing());
    let api = WorkerApi::serve(Arc::clone(&worker)).unwrap();
    let client = WorkerApiClient::new(api.addr());

    let first = async_round_trip(&client, "{\"k\":1}");
    assert_eq!(first.status.0, 200, "{}", first.body_str());
    assert_eq!(first.header(CACHE_HEADER), Some("miss"));
    let completed = worker.status().completed;

    let second = async_round_trip(&client, "{\"k\":1}");
    assert_eq!(second.header(CACHE_HEADER), Some("hit"));
    let miss: WireResult = serde_json::from_str(first.body_str()).unwrap();
    let hit: WireResult = serde_json::from_str(second.body_str()).unwrap();
    assert_eq!(hit.body, miss.body, "served body is the cached body");
    assert_eq!(hit.trace_id, 0, "a hit mints no trace");
    assert_eq!(
        worker.status().completed,
        completed,
        "the hit never reached a container"
    );
}

#[test]
fn an_in_process_cluster_gets_worker_cache_hits() {
    let workers = [
        cached_worker("w0", WorkerConfig::for_testing()),
        cached_worker("w1", WorkerConfig::for_testing()),
    ];
    let handles: Vec<Arc<dyn WorkerHandle>> = workers
        .iter()
        .map(|w| Arc::clone(w) as Arc<dyn WorkerHandle>)
        .collect();
    let cluster = Cluster::new(handles, LbPolicy::ChBl(ChBlConfig::default()));
    let completed = || -> Vec<u64> { workers.iter().map(|w| w.status().completed).collect() };

    let first = cluster.invoke_tenant("f-1", "{\"k\":7}", None).unwrap();
    assert_eq!(first.cache, CacheStatus::Miss);
    let before = completed();
    assert_eq!(before.iter().sum::<u64>(), 1);

    // CH-BL sends the repeat to the same home worker, whose cache answers.
    let second = cluster.invoke_tenant("f-1", "{\"k\":7}", None).unwrap();
    assert_eq!(second.cache, CacheStatus::Hit);
    assert_eq!(second.body, first.body);
    assert_eq!(completed(), before, "no worker ran the repeat");
}

#[test]
fn a_balancer_over_http_workers_reports_the_worker_cache_verdict() {
    // No balancer cache: the verdict at the LB is the worker's, carried
    // over the hop in `X-Iluvatar-Cache`.
    let worker = cached_worker("w0", WorkerConfig::for_testing());
    let api = WorkerApi::serve(Arc::clone(&worker)).unwrap();
    let remote: Arc<dyn WorkerHandle> = Arc::new(RemoteWorker::connect(api.addr()));
    let cluster = Arc::new(Cluster::new(
        vec![remote],
        LbPolicy::ChBl(ChBlConfig::default()),
    ));
    let lb = LbApi::serve(cluster, Duration::from_millis(50)).unwrap();
    let invoke = || {
        let body = r#"{"fqdn":"f-1","args":"{\"k\":3}"}"#;
        let req = Request::new(Method::Post, "/invoke").with_body(body);
        HttpClient::send(lb.addr(), &req, Duration::from_secs(10)).unwrap()
    };

    let first = invoke();
    assert_eq!(first.status.0, 200, "{}", first.body_str());
    assert_eq!(first.header(CACHE_HEADER), Some("miss"));
    let second = invoke();
    assert_eq!(second.header(CACHE_HEADER), Some("hit"));
    let miss: WireResult = serde_json::from_str(first.body_str()).unwrap();
    let hit: WireResult = serde_json::from_str(second.body_str()).unwrap();
    assert_eq!(hit.body, miss.body);
    assert_eq!(hit.trace_id, 0, "the worker's cache answered");
}

#[test]
fn a_hit_mints_no_trace_and_leaves_the_books_alone() {
    // Burst 1, no refill to speak of: a second admission would throttle.
    let mut cfg = WorkerConfig::for_testing();
    cfg.admission =
        AdmissionConfig::enabled_with(vec![TenantSpec::new("free").with_rate(0.001, 1.0)]);
    let worker = cached_worker("w0", cfg);

    let miss = worker.invoke_tenant("f-1", "{}", Some("free")).unwrap();
    assert_eq!(miss.cache, CacheStatus::Miss);
    let newest_trace = || worker.recent_traces(1)[0].trace_id;
    let traced = newest_trace();
    assert_eq!(traced, miss.trace_id);
    let books = || {
        let t = worker.tenant_stats();
        let free = t.iter().find(|t| t.tenant == "free").unwrap().clone();
        let st = worker.status();
        (free, st.cold_starts, st.completed, st.queue_len)
    };
    let before = books();

    // Through the async entry: a hit is a handle already holding its result.
    let handle = worker
        .async_invoke_tenant("f-1", "{}", Some("free"))
        .unwrap();
    let hit = handle.poll().expect("resolved at once").unwrap();
    assert_eq!(hit.cache, CacheStatus::Hit);
    assert_eq!((hit.trace_id, hit.body), (0, miss.body));
    // And through the sync one.
    let again = worker.invoke_tenant("f-1", "{}", Some("free")).unwrap();
    assert_eq!(again.cache, CacheStatus::Hit);

    assert_eq!(newest_trace(), traced, "a hit mints no trace");
    assert_eq!(books(), before, "no token, no queue, no container");
}
