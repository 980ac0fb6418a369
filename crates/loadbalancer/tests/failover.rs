//! Worker failover: kill one of two workers mid-run and require that the
//! cluster loses no invocations — the balancer evicts the dead worker,
//! re-routes its in-flight work, and reports the eviction on `/metrics`.

use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
use iluvatar_containers::FunctionSpec;
use iluvatar_core::api::WorkerApi;
use iluvatar_core::{CacheStatus, InvocationResult, InvokeError, Worker, WorkerConfig};
use iluvatar_http::{HttpClient, Method, Request};
use iluvatar_lb::cluster::RemoteWorker;
use iluvatar_lb::{ChBlConfig, Cluster, LbApi, LbPolicy, WorkerHandle};
use iluvatar_sync::SystemClock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A stub worker that can be "killed": invocations then fail like a dead
/// backend, deterministically — no TCP drain windows. The first status poll
/// after death still reports the old load (a real balancer always works from
/// a slightly stale status), so the balancer dispatches into the death once
/// and must recover via re-route rather than the health check.
struct KillableWorker {
    name: String,
    dead: AtomicBool,
    stale_status: AtomicBool,
    calls: AtomicU64,
}

impl KillableWorker {
    fn new(name: &str) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            dead: AtomicBool::new(false),
            stale_status: AtomicBool::new(false),
            calls: AtomicU64::new(0),
        })
    }

    fn kill(&self) {
        self.stale_status.store(true, Ordering::SeqCst);
        self.dead.store(true, Ordering::SeqCst);
    }
}

impl WorkerHandle for KillableWorker {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn load(&self) -> f64 {
        if self.dead.load(Ordering::SeqCst) {
            if self.stale_status.swap(false, Ordering::SeqCst) {
                0.1 // one stale read before the poll starts failing
            } else {
                f64::INFINITY
            }
        } else {
            0.1
        }
    }

    fn register(&self, _spec: FunctionSpec) -> Result<(), String> {
        Ok(())
    }

    fn invoke(&self, _fqdn: &str, _args: &str) -> Result<InvocationResult, InvokeError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(InvokeError::Backend("connection refused".into()));
        }
        self.calls.fetch_add(1, Ordering::SeqCst);
        Ok(InvocationResult {
            body: "ok".into(),
            exec_ms: 1,
            e2e_ms: 1,
            cold: false,
            queue_ms: 0,
            arrived_at: 0,
            trace_id: 0,
            tenant: None,
            cache: CacheStatus::Bypass,
        })
    }
}

/// The deterministic half: a worker that dies *between* the health check and
/// the dispatch is evicted on the failed call and its invocation re-routed
/// to the surviving worker — nothing is lost.
#[test]
fn mid_call_death_evicts_and_reroutes_without_loss() {
    let stubs = [KillableWorker::new("w0"), KillableWorker::new("w1")];
    let handles: Vec<Arc<dyn WorkerHandle>> = stubs
        .iter()
        .map(|s| Arc::clone(s) as Arc<dyn WorkerHandle>)
        .collect();
    let cluster = Cluster::new(handles, LbPolicy::ChBl(ChBlConfig::default()));
    cluster.register_all(FunctionSpec::new("f", "1")).unwrap();

    for _ in 0..5 {
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
    }
    let before = cluster.stats();
    let home = if before.slots[0].dispatched > 0 { 0 } else { 1 };
    assert_eq!(
        before.slots[home].dispatched, 5,
        "CH-BL locality: one home worker"
    );
    assert_eq!(before.evictions, 0);

    // The home dies mid-run. Its first status poll still reads healthy, so
    // CH-BL dispatches invocation #1 into the death — the failed call must
    // evict the worker and re-route without losing the invocation. Later
    // picks see the failing poll and route around it outright.
    stubs[home].kill();
    for i in 0..10 {
        let r = cluster
            .invoke_tenant("f-1", "{}", None)
            .unwrap_or_else(|e| panic!("invocation {i} lost: {e}"));
        assert_eq!(r.body, "ok");
    }

    let after = cluster.stats();
    assert_eq!(after.evictions, 1, "exactly one healthy→unhealthy edge");
    assert_eq!(
        after.rerouted, 1,
        "the in-flight invocation was re-dispatched"
    );
    assert!(!after.slots[home].healthy);
    assert!(after.slots[1 - home].healthy);
    assert_eq!(
        stubs[1 - home].calls.load(Ordering::SeqCst),
        10 + before.slots[1 - home].dispatched,
        "every post-kill invocation ran on the survivor"
    );

    // Revival: a healthy status poll readmits the worker.
    stubs[home].dead.store(false, Ordering::SeqCst);
    cluster.scrape();
    assert!(
        cluster.stats().slots[home].healthy,
        "recovered worker readmitted"
    );
}

fn served_worker(name: &str) -> (Arc<Worker>, WorkerApi) {
    served_worker_with(name, |_| {})
}

fn served_worker_with(
    name: &str,
    tweak: impl FnOnce(&mut WorkerConfig),
) -> (Arc<Worker>, WorkerApi) {
    let clock = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.02,
            ..Default::default()
        },
    ));
    let mut cfg = WorkerConfig::for_testing();
    cfg.name = name.to_string();
    tweak(&mut cfg);
    let worker = Arc::new(Worker::new(cfg, backend, clock));
    let api = WorkerApi::serve(Arc::clone(&worker)).unwrap();
    (worker, api)
}

fn lb_invoke(addr: std::net::SocketAddr, fqdn: &str) -> Result<String, String> {
    let body = format!("{{\"fqdn\":{fqdn:?},\"args\":\"{{}}\"}}");
    let resp = HttpClient::send(
        addr,
        &Request::new(Method::Post, "/invoke").with_body(body),
        Duration::from_secs(10),
    )
    .map_err(|e| e.to_string())?;
    if resp.status.0 == 200 {
        Ok(resp.body_str().to_string())
    } else {
        Err(format!("status {}: {}", resp.status.0, resp.body_str()))
    }
}

/// Counter value from a Prometheus text payload (label-free family).
fn metric_value(text: &str, family: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(family) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// The end-to-end half: a real worker API killed under a real balancer.
/// The TCP teardown makes exact eviction-edge counts racy (keep-alive
/// connections drain for up to ~200 ms), so this test pins the invariants
/// that must hold regardless: zero lost invocations, the dead worker ends
/// evicted, and `/metrics` reports the eviction.
#[test]
fn killing_a_worker_api_mid_run_loses_no_invocations() {
    let (_w0, api0) = served_worker("w0");
    let (_w1, api1) = served_worker("w1");
    let handles: Vec<Arc<dyn WorkerHandle>> = vec![
        Arc::new(RemoteWorker::connect(api0.addr())),
        Arc::new(RemoteWorker::connect(api1.addr())),
    ];
    let cluster = Arc::new(Cluster::new(handles, LbPolicy::ChBl(ChBlConfig::default())));
    cluster
        .register_all(FunctionSpec::new("f", "1").with_timing(100, 400))
        .unwrap();
    let mut lb = LbApi::serve(Arc::clone(&cluster), Duration::from_millis(20)).unwrap();

    for _ in 0..5 {
        lb_invoke(lb.addr(), "f-1").unwrap();
    }
    let before = cluster.stats();
    assert_eq!(before.dispatched(), 5);
    let home = if before.slots[0].dispatched > 0 { 0 } else { 1 };

    // Kill the home worker's API server mid-run and keep invoking through
    // the balancer: every invocation must complete on the survivor.
    let mut apis = [Some(api0), Some(api1)];
    apis[home] = None;
    for i in 0..10 {
        lb_invoke(lb.addr(), "f-1").unwrap_or_else(|e| panic!("invocation {i} lost: {e}"));
    }

    // Settle: let lingering keep-alive connections drain and the periodic
    // scrape register the death, then verify the terminal state.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let st = cluster.stats();
        if (!st.slots[home].healthy && st.evictions >= 1) || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let after = cluster.stats();
    assert!(after.evictions >= 1, "the dead worker was evicted");
    assert!(!after.slots[home].healthy, "dead worker stays evicted");
    assert!(after.slots[1 - home].healthy, "survivor stays healthy");

    // And invocations still flow after eviction.
    lb_invoke(lb.addr(), "f-1").expect("post-eviction invocation");

    // The eviction reaches /metrics once the periodic scrape lands.
    let deadline = Instant::now() + Duration::from_secs(5);
    let text = loop {
        let resp = HttpClient::send(
            lb.addr(),
            &Request::new(Method::Get, "/metrics"),
            Duration::from_secs(5),
        )
        .unwrap();
        let text = resp.body_str().to_string();
        let evicted = metric_value(&text, "iluvatar_lb_worker_evictions_total")
            .map(|v| v >= 1.0)
            .unwrap_or(false);
        if evicted || Instant::now() > deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        metric_value(&text, "iluvatar_lb_worker_evictions_total").unwrap_or(0.0) >= 1.0,
        "eviction counter exported:\n{text}"
    );
    assert!(
        text.contains("iluvatar_lb_rerouted_total"),
        "reroute counter exported"
    );
    let survivor = if home == 0 { "w1" } else { "w0" };
    assert!(
        text.contains(&format!(
            "iluvatar_lb_worker_healthy{{worker=\"{survivor}\"}} 1"
        )),
        "survivor healthy on /metrics:\n{text}"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("iluvatar_lb_worker_healthy") && l.ends_with(" 0")),
        "dead worker unhealthy on /metrics:\n{text}"
    );

    lb.shutdown();
}

/// Graceful drain under the balancer: a draining worker is routed around
/// via its circuit state — without being marked failed — while its
/// in-flight work completes, and a fresh worker on the same address would
/// be re-admitted by the same probe that cleared the drain.
#[test]
fn lb_routes_around_draining_worker_without_eviction() {
    let (_w0, api0) = served_worker("w0");
    let (_w1, api1) = served_worker("w1");
    let apis = [&api0, &api1];
    let handles: Vec<Arc<dyn WorkerHandle>> = vec![
        Arc::new(RemoteWorker::connect(api0.addr())),
        Arc::new(RemoteWorker::connect(api1.addr())),
    ];
    let cluster = Cluster::new(handles, LbPolicy::ChBl(ChBlConfig::default()));
    cluster
        .register_all(FunctionSpec::new("f", "1").with_timing(100, 400))
        .unwrap();

    for _ in 0..5 {
        cluster.invoke_tenant("f-1", "{}", None).unwrap();
    }
    let home = if cluster.stats().slots[0].dispatched > 0 {
        0
    } else {
        1
    };

    // Drain the home worker over its API, then keep invoking through the
    // balancer: nothing is lost, nothing is evicted.
    let client = iluvatar_core::api::WorkerApiClient::new(apis[home].addr());
    client.drain().unwrap();
    for i in 0..10 {
        cluster
            .invoke_tenant("f-1", "{}", None)
            .unwrap_or_else(|e| panic!("invocation {i} lost to the drain: {e}"));
    }
    let st = cluster.stats();
    assert_eq!(st.evictions, 0, "draining must not trip the breaker");
    assert!(st.slots[home].healthy, "draining worker stays healthy");
    assert!(st.slots[1 - home].healthy);
    assert_eq!(st.slots[home].breaker, "closed");
    assert!(
        st.slots[home].draining,
        "the drain is visible to the balancer"
    );
    assert!(!st.slots[1 - home].draining);
    // The survivor absorbed every post-drain invocation.
    let survivor_status = iluvatar_core::api::WorkerApiClient::new(apis[1 - home].addr())
        .status()
        .unwrap();
    assert!(
        survivor_status.completed >= 10,
        "survivor served the drained worker's share"
    );
    // The drained worker finishes what it had and reports stopped.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = client.status().unwrap();
        if s.lifecycle == "stopped" && s.drain_pending == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "drain never completed: {}",
            s.lifecycle
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A [`KillableWorker`] that also tracks per-tenant served counts, so the
/// rollup's eviction behaviour can be pinned deterministically: a dead
/// worker reports no tenant stats (like a failed scrape), and the balancer
/// must keep serving its last-known counters from the cache.
struct TenantKillableWorker {
    inner: Arc<KillableWorker>,
    tenant_calls: AtomicU64,
}

impl WorkerHandle for TenantKillableWorker {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn load(&self) -> f64 {
        self.inner.load()
    }

    fn register(&self, spec: FunctionSpec) -> Result<(), String> {
        self.inner.register(spec)
    }

    fn invoke(&self, fqdn: &str, args: &str) -> Result<InvocationResult, InvokeError> {
        self.invoke_tenant(fqdn, args, None)
    }

    fn invoke_tenant(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<InvocationResult, InvokeError> {
        let mut r = self.inner.invoke(fqdn, args)?;
        if tenant == Some("acme") {
            self.tenant_calls.fetch_add(1, Ordering::SeqCst);
            r.tenant = Some("acme".into());
        }
        Ok(r)
    }

    fn tenant_stats(&self) -> Vec<iluvatar_core::TenantSnapshot> {
        if self.inner.dead.load(Ordering::SeqCst) {
            return Vec::new(); // a dead worker's scrape comes back empty
        }
        let served = self.tenant_calls.load(Ordering::SeqCst);
        vec![iluvatar_core::TenantSnapshot {
            tenant: "acme".into(),
            weight: 1.0,
            admitted: served,
            served,
            ..Default::default()
        }]
    }
}

/// Per-tenant accounting must survive a worker eviction: the balancer keeps
/// the dead worker's last-known tenant counters in the rollup, its own
/// per-tenant dispatch counters live on, and re-routed tenant invocations
/// keep flowing to the survivor under their label.
#[test]
fn tenant_metrics_survive_worker_eviction_and_reroute() {
    let stubs = [KillableWorker::new("w0"), KillableWorker::new("w1")];
    let handles: Vec<Arc<dyn WorkerHandle>> = stubs
        .iter()
        .map(|s| {
            Arc::new(TenantKillableWorker {
                inner: Arc::clone(s),
                tenant_calls: AtomicU64::new(0),
            }) as Arc<dyn WorkerHandle>
        })
        .collect();
    let cluster = Cluster::new(handles, LbPolicy::ChBl(ChBlConfig::default()));
    cluster.register_all(FunctionSpec::new("f", "1")).unwrap();

    for _ in 0..5 {
        let r = cluster.invoke_tenant("f-1", "{}", Some("acme")).unwrap();
        assert_eq!(r.tenant.as_deref(), Some("acme"));
    }
    // Both workers reachable: the probe round puts the home worker's
    // counters in the balancer's last-known cache, and so in the rollup.
    cluster.probe_round();
    let before = cluster.tenant_rollup();
    let acme = before
        .iter()
        .find(|t| t.tenant == "acme")
        .expect("tenant tracked");
    assert_eq!(acme.lb_dispatched, 5);
    assert_eq!(acme.served, 5);
    assert_eq!(acme.lb_rerouted, 0);
    let home = if cluster.stats().slots[0].dispatched > 0 {
        0
    } else {
        1
    };

    // The home dies with one stale status read, so the next dispatch goes
    // into the death and must recover by re-routing under the label.
    stubs[home].kill();
    for i in 0..6 {
        let r = cluster
            .invoke_tenant("f-1", "{}", Some("acme"))
            .unwrap_or_else(|e| panic!("tenant invocation {i} lost: {e}"));
        assert_eq!(r.tenant.as_deref(), Some("acme"), "label survives re-route");
    }

    cluster.probe_round();
    let after = cluster.tenant_rollup();
    let acme = after.iter().find(|t| t.tenant == "acme").unwrap();
    assert_eq!(
        acme.lb_rerouted, 1,
        "the in-flight invocation was re-dispatched"
    );
    // 5 + 6 first dispatches plus one per re-route attempt.
    assert_eq!(
        acme.lb_dispatched,
        11 + acme.lb_rerouted,
        "LB counters survive eviction"
    );
    // The dead home scrapes empty, yet its 5 served stay in the rollup via
    // the last-known cache; the survivor contributes the re-routed 6.
    assert_eq!(acme.served, 11, "dead worker's counters kept from cache");
    assert!(cluster.stats().evictions >= 1, "home worker evicted");
}
