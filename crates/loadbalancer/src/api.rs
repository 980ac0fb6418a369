//! The load balancer's HTTP front-end.
//!
//! Clients invoke through the balancer (`POST /invoke`), and operators
//! scrape it: a background task periodically polls every worker's status
//! and `/spans` distributions and merges them into one [`ClusterSnapshot`];
//! `GET /metrics` renders that snapshot — per-worker loads, dispatch
//! counters, and the cluster-wide Table-1 span histograms (merged
//! losslessly across workers) — in the Prometheus text format.
//!
//! Routes:
//!
//! | method & path   | body                   | response |
//! |-----------------|------------------------|----------|
//! | `POST /invoke`  | `{"fqdn":…, "args":…}` | `WireResult` JSON (+ `X-Iluvatar-Seq` header) |
//! | `GET  /status`  |                        | `LbStatus` JSON |
//! | `GET  /fleet`   |                        | `FleetStatus` JSON (elastic fleet only) |
//! | `GET  /metrics` |                        | Prometheus text |
//! | `GET  /breakdown` |                      | cluster-merged `BreakdownReport` JSON |
//! | `GET  /debug/flightrecorder` |           | the balancer's `FlightDump` JSON |
//!
//! The balancer runs its own [`TelemetryBus`] (source `lb`): dispatch,
//! reroute, breaker, membership, and fleet scale events all flow through
//! it into a flight recorder and a Prometheus counter bridge.

use crate::cluster::{Cluster, ClusterSnapshot, SlotStatus, TenantClusterStats};
use crate::fleet::Fleet;
use crate::pull::{CompleteBody, CompleteReply, PullBody};
use iluvatar_cache::TenantCacheStats;
use iluvatar_core::api::{
    error_json, error_resp, json_resp, parse_body, result_resp, tenant_of, InvokeBody, WireResult,
};
use iluvatar_core::exposition::{render_span_histograms, PromWriter};
use iluvatar_dispatch::{DispatchMode, EnqueueError, PullPlane};
use iluvatar_http::server::Handler;
use iluvatar_http::{HttpServer, Method, Request, Response, Status, SEQ_HEADER};
use iluvatar_sync::{SystemClock, TaskPool};
use iluvatar_telemetry::{CounterBridge, FlightRecorder, TelemetryBus, TelemetrySink};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Wire form of the balancer's status.
#[derive(Debug, Serialize, Deserialize)]
pub struct LbStatus {
    pub workers: Vec<SlotStatus>,
    pub forwarded: u64,
    /// Health-check evictions (healthy→unhealthy transitions).
    #[serde(default)]
    pub evictions: u64,
    /// Invocations re-dispatched after a worker failed mid-call.
    #[serde(default)]
    pub rerouted: u64,
    /// Cluster-wide per-tenant rollup (admission + LB counters).
    #[serde(default)]
    pub tenants: Vec<TenantClusterStats>,
    /// Pull-dispatch central queue depth per priority class (empty when no
    /// pull plane is attached) — the same signal the autoscale loop reads.
    #[serde(default)]
    pub pull_queues: Vec<PullQueueDepth>,
    /// Pull leases currently live (issued, neither completed nor expired).
    #[serde(default)]
    pub live_leases: u64,
}

/// One priority class's central-queue depth, as `/status` reports it.
#[derive(Debug, Serialize, Deserialize)]
pub struct PullQueueDepth {
    pub class: String,
    pub depth: u64,
}

fn status_of(snap: &ClusterSnapshot, dispatch: Option<&PullPlane>) -> LbStatus {
    LbStatus {
        workers: snap.stats.slots.clone(),
        forwarded: snap.stats.forwarded,
        evictions: snap.stats.evictions,
        rerouted: snap.stats.rerouted,
        tenants: snap.tenants.clone(),
        pull_queues: dispatch
            .map(|p| {
                p.depths()
                    .into_iter()
                    .map(|(class, depth)| PullQueueDepth { class, depth })
                    .collect()
            })
            .unwrap_or_default(),
        live_leases: dispatch.map(|p| p.live_leases()).unwrap_or(0),
    }
}

fn render_metrics(
    snap: &ClusterSnapshot,
    served: u64,
    fleet: Option<&Fleet>,
    tel: &CounterBridge,
    cache: &[TenantCacheStats],
    dispatch: Option<&PullPlane>,
) -> String {
    let mut w = PromWriter::new();
    w.gauge(
        "iluvatar_lb_workers",
        "Workers in the cluster",
        &[],
        snap.stats.slots.len() as f64,
    );
    for slot in &snap.stats.slots {
        let name = &slot.name;
        // Detached slots are bookkeeping, not workers: skip their gauges
        // (the dispatch counter below still renders — counters never drop).
        if !slot.present {
            w.counter(
                "iluvatar_lb_dispatched_total",
                "Invocations dispatched to this worker",
                &[("worker", name)],
                slot.dispatched as f64,
            );
            continue;
        }
        w.gauge(
            "iluvatar_lb_worker_load",
            "Worker-reported normalized load at last scrape (-1 when evicted)",
            &[("worker", name)],
            slot.load,
        );
        w.gauge(
            "iluvatar_lb_worker_healthy",
            "1 while the worker passes health checks, 0 after eviction",
            &[("worker", name)],
            if slot.healthy { 1.0 } else { 0.0 },
        );
        w.gauge(
            "iluvatar_lb_worker_draining",
            "1 while the worker reports a draining/stopped lifecycle",
            &[("worker", name)],
            if slot.draining { 1.0 } else { 0.0 },
        );
        let breaker = slot.breaker.as_str();
        let breaker_value = match breaker {
            "half_open" => 1.0,
            "open" => 2.0,
            _ => 0.0,
        };
        w.gauge(
            "iluvatar_lb_worker_breaker_open",
            "0 closed, 1 half-open, 2 open",
            &[("worker", name)],
            breaker_value,
        );
        w.gauge(
            "iluvatar_breaker_state",
            "Circuit breaker state per worker: 0 closed, 1 half-open, 2 open",
            &[("worker", name), ("state", breaker)],
            breaker_value,
        );
        w.counter(
            "iluvatar_lb_dispatched_total",
            "Invocations dispatched to this worker",
            &[("worker", name)],
            slot.dispatched as f64,
        );
    }
    w.counter(
        "iluvatar_lb_forwarded_total",
        "Invocations forwarded off their CH-BL home worker",
        &[],
        snap.stats.forwarded as f64,
    );
    w.counter(
        "iluvatar_lb_worker_evictions_total",
        "Workers evicted by health checks or failed invocations",
        &[],
        snap.stats.evictions as f64,
    );
    w.counter(
        "iluvatar_lb_rerouted_total",
        "Invocations re-dispatched to another worker after a failure",
        &[],
        snap.stats.rerouted as f64,
    );
    for t in &snap.tenants {
        let labels: &[(&str, &str)] = &[("tenant", &t.tenant)];
        w.counter(
            "iluvatar_lb_tenant_dispatched_total",
            "Tenant invocations dispatched by the balancer",
            labels,
            t.lb_dispatched as f64,
        );
        w.counter(
            "iluvatar_lb_tenant_rerouted_total",
            "Tenant invocations re-routed after worker failures",
            labels,
            t.lb_rerouted as f64,
        );
        w.counter(
            "iluvatar_lb_tenant_admitted_total",
            "Tenant invocations admitted across workers",
            labels,
            t.admitted as f64,
        );
        w.counter(
            "iluvatar_lb_tenant_throttled_total",
            "Tenant invocations throttled across workers",
            labels,
            t.throttled as f64,
        );
        w.counter(
            "iluvatar_lb_tenant_shed_total",
            "Tenant invocations shed across workers",
            labels,
            t.shed as f64,
        );
        w.counter(
            "iluvatar_lb_tenant_served_total",
            "Tenant invocations completed across workers",
            labels,
            t.served as f64,
        );
    }
    // Balancer-side result cache: cluster totals plus per-tenant eviction
    // pressure (hard partitions make evictions a per-tenant signal).
    let (hits, misses, coalesced): (u64, u64, u64) =
        cache.iter().fold((0, 0, 0), |(h, m, c), t| {
            (h + t.hits, m + t.misses, c + t.coalesced)
        });
    w.counter(
        "iluvatar_cache_hits_total",
        "Invocations served from the balancer's result cache",
        &[("source", "lb")],
        hits as f64,
    );
    w.counter(
        "iluvatar_cache_misses_total",
        "Cache-eligible invocations that missed and were dispatched",
        &[("source", "lb")],
        misses as f64,
    );
    w.counter(
        "iluvatar_cache_coalesced_total",
        "Cache-eligible invocations that joined an identical in-flight dispatch (single-flight)",
        &[("source", "lb")],
        coalesced as f64,
    );
    for t in cache {
        w.counter(
            "iluvatar_cache_evictions_total",
            "Result-cache evictions (capacity pressure) per tenant",
            &[("source", "lb"), ("tenant", &t.tenant)],
            t.evictions as f64,
        );
    }
    if let Some(f) = fleet {
        w.counter(
            "iluvatar_warm_handoffs_total",
            "Warm-pool residency entries prewarmed onto survivors at scale-down",
            &[],
            f.handoffs() as f64,
        );
        w.gauge(
            "iluvatar_fleet_size",
            "Live (routable) workers in the elastic fleet",
            &[],
            f.live() as f64,
        );
        w.gauge(
            "iluvatar_fleet_draining",
            "Workers draining toward retirement",
            &[],
            f.draining() as f64,
        );
        w.counter(
            "iluvatar_fleet_stopped_total",
            "Workers retired (drained and detached) since start",
            &[],
            f.stopped() as f64,
        );
        for (direction, reason, count) in f.event_counts() {
            w.counter(
                "iluvatar_scale_events_total",
                "Applied scaling decisions by direction and reason",
                &[("direction", &direction), ("reason", &reason)],
                count as f64,
            );
        }
    }
    if let Some(p) = dispatch {
        for (class, depth) in p.depths() {
            w.gauge(
                "iluvatar_pull_queue_depth",
                "Pull-dispatch central queue depth per priority class",
                &[("class", &class)],
                depth as f64,
            );
        }
        w.gauge(
            "iluvatar_lease_live",
            "Pull leases currently live",
            &[],
            p.live_leases() as f64,
        );
        let c = p.counters();
        for (op, n) in [
            ("queued", c.queued),
            ("issued", c.issued),
            ("stolen", c.stolen),
            ("completed", c.completed),
            ("expired", c.expired),
            ("requeued", c.requeued),
            ("dead_completion", c.dead_completions),
        ] {
            w.counter(
                "iluvatar_lease_events_total",
                "Pull-dispatch lease transitions by op",
                &[("op", op)],
                n as f64,
            );
        }
    }
    w.counter(
        "iluvatar_lb_http_requests_total",
        "Requests served by the balancer API",
        &[],
        served as f64,
    );
    for (kind, tenant, count) in tel.counts() {
        let labels: Vec<(&str, &str)> = if tenant.is_empty() {
            vec![("source", "lb"), ("kind", &kind)]
        } else {
            vec![("source", "lb"), ("kind", &kind), ("tenant", &tenant)]
        };
        w.counter(
            "iluvatar_telemetry_events_total",
            "Canonical telemetry events by kind",
            &labels,
            count as f64,
        );
    }
    // Cluster-wide Table-1 histograms, merged across workers.
    render_span_histograms(&mut w, &[("scope", "cluster")], &snap.spans);
    w.finish()
}

/// Pull-mode `/invoke`: accept into the central queues (durable first when
/// a WAL is attached) and block until a worker's lease completes the task.
fn pull_invoke(plane: &PullPlane, fqdn: &str, args: &str, tenant: Option<&str>) -> Response {
    let started = std::time::Instant::now();
    let id = match plane.enqueue(fqdn, args, tenant) {
        Ok(id) => id,
        Err(e @ EnqueueError::NoWorkers) | Err(e @ EnqueueError::NotDurable) => {
            return error_json(Status::SERVICE_UNAVAILABLE, &e.to_string());
        }
    };
    match plane.wait(id, PULL_INVOKE_TIMEOUT_MS) {
        Some(r) if r.ok => {
            let wire = WireResult {
                body: r.body,
                exec_ms: r.exec_ms,
                e2e_ms: started.elapsed().as_millis() as u64,
                cold: false,
                queue_ms: 0,
                trace_id: id,
                tenant: tenant.map(str::to_string),
            };
            json_resp(Status::OK, serde_json::to_string(&wire).unwrap())
        }
        Some(r) => error_json(Status::INTERNAL_ERROR, &r.body),
        // The task stays queued and durable; only this caller's wait ends.
        None => error_json(Status::SERVICE_UNAVAILABLE, "pull dispatch timed out"),
    }
}

/// Events the balancer's flight recorder keeps (dispatch churn is high, so
/// the LB ring is larger than a worker's).
const LB_FLIGHT_RECORDER_CAPACITY: usize = 512;

/// How long a pull-mode `/invoke` blocks for a worker to lease and finish
/// the task before the balancer gives up with a 503 (the task stays queued
/// and durable; only this caller's wait ends).
const PULL_INVOKE_TIMEOUT_MS: u64 = 30_000;

/// Cap on a single `/pull` long-poll so a worker's client timeout cannot
/// outlive the server's patience.
const PULL_WAIT_CAP_MS: u64 = 10_000;

/// The balancer's HTTP server plus its background scrape task (and, for
/// elastic fleets, the autoscale control loop).
pub struct LbApi {
    server: HttpServer,
    tasks: TaskPool,
    snapshot: Arc<Mutex<ClusterSnapshot>>,
    fleet: Option<Arc<Fleet>>,
    dispatch: Option<Arc<PullPlane>>,
    telemetry: Arc<TelemetryBus>,
    recorder: Arc<FlightRecorder>,
}

impl LbApi {
    /// Serve `cluster` on an ephemeral loopback port, rescraping every
    /// worker each `scrape_period`.
    pub fn serve(cluster: Arc<Cluster>, scrape_period: Duration) -> std::io::Result<Self> {
        Self::serve_with_dispatch(cluster, scrape_period, None, None)
    }

    /// The full form. With an elastic `fleet`: same routes plus
    /// `GET /fleet`, with the autoscale control loop ticking every
    /// `autoscale.interval_ms`. With a pull-dispatch plane: plus
    /// `POST /pull` / `POST /pull/complete`, with `/invoke` routed by
    /// `dispatch.mode` (push = CH-BL as ever, pull = central queues,
    /// hybrid = warm-hit-likely pushes, the rest spills to pull).
    pub fn serve_with_dispatch(
        cluster: Arc<Cluster>,
        scrape_period: Duration,
        fleet: Option<Arc<Fleet>>,
        dispatch: Option<Arc<PullPlane>>,
    ) -> std::io::Result<Self> {
        // The balancer's own canonical telemetry stream: the cluster's
        // dispatch/reroute/breaker/membership events and the fleet's scale
        // events fan out to a flight recorder and a counter bridge.
        let telemetry = TelemetryBus::new("lb", SystemClock::shared());
        let recorder = Arc::new(FlightRecorder::new(LB_FLIGHT_RECORDER_CAPACITY));
        let tel_counts = Arc::new(CounterBridge::new());
        telemetry.add_sink(Arc::clone(&recorder) as Arc<dyn TelemetrySink>);
        telemetry.add_sink(Arc::clone(&tel_counts) as Arc<dyn TelemetrySink>);
        cluster.set_telemetry(Arc::clone(&telemetry));
        if let Some(f) = fleet.as_ref() {
            f.set_telemetry(Arc::clone(&telemetry));
        }
        if let Some(p) = dispatch.as_ref() {
            p.set_telemetry(Arc::clone(&telemetry));
            // Feed the central pull backlog into autoscale observations:
            // pull-mode demand lives in the plane, not worker queues.
            if let Some(f) = fleet.as_ref() {
                let plane = Arc::clone(p);
                f.set_pull_depth_provider(Box::new(move || plane.depth()));
            }
        }
        let snapshot = Arc::new(Mutex::new(cluster.scrape()));
        let tasks = TaskPool::new();
        {
            let cluster = Arc::clone(&cluster);
            let snapshot = Arc::clone(&snapshot);
            tasks.spawn_periodic("lb-scrape", scrape_period, move || {
                *snapshot.lock() = cluster.scrape();
            });
        }
        if let Some(f) = fleet.as_ref().filter(|f| f.config().enabled) {
            let f = Arc::clone(f);
            let interval = Duration::from_millis(f.config().interval_ms.max(10));
            let started = std::time::Instant::now();
            tasks.spawn_periodic("lb-autoscale", interval, move || {
                // Control-loop time is elapsed-since-start so the policy's
                // cooldown arithmetic sees small monotone values.
                let now_ms = started.elapsed().as_millis() as u64;
                if let Err(e) = f.tick(now_ms) {
                    eprintln!("autoscale tick failed: {e}");
                }
            });
        }
        let snap = Arc::clone(&snapshot);
        let fleet_for_handler = fleet.clone();
        let dispatch_for_handler = dispatch.clone();
        let tel_for_handler = Arc::clone(&tel_counts);
        let bus_for_handler = Arc::clone(&telemetry);
        let recorder_for_handler = Arc::clone(&recorder);
        let served = Arc::new(Mutex::new(None::<iluvatar_http::ServerHandle>));
        let served2 = Arc::clone(&served);
        let handler: Handler = Arc::new(move |req: Request| {
            let no_plane = || error_json(Status::NOT_FOUND, "no pull-dispatch plane attached");
            match (req.method, req.path.as_str()) {
                (Method::Get, "/status") => json_resp(
                    Status::OK,
                    serde_json::to_string(&status_of(
                        &snap.lock(),
                        dispatch_for_handler.as_deref(),
                    ))
                    .unwrap(),
                ),
                (Method::Get, "/metrics") => {
                    let n = served2.lock().as_ref().map(|h| h.served()).unwrap_or(0);
                    Response::ok(render_metrics(
                        &snap.lock(),
                        n,
                        fleet_for_handler.as_deref(),
                        &tel_for_handler,
                        &cluster.cache_stats(),
                        dispatch_for_handler.as_deref(),
                    ))
                    .with_header("Content-Type", "text/plain; version=0.0.4")
                }
                (Method::Get, "/breakdown") => json_resp(
                    Status::OK,
                    serde_json::to_string(&cluster.breakdown()).unwrap(),
                ),
                (Method::Get, "/debug/flightrecorder") => json_resp(
                    Status::OK,
                    serde_json::to_string(&recorder_for_handler.wire_dump()).unwrap(),
                ),
                (Method::Get, "/fleet") => match &fleet_for_handler {
                    Some(f) => json_resp(Status::OK, serde_json::to_string(&f.status()).unwrap()),
                    None => error_json(Status::NOT_FOUND, "no elastic fleet configured"),
                },
                (Method::Post, "/pull") => {
                    match (parse_body::<PullBody>(&req), dispatch_for_handler.as_ref()) {
                        (Ok(b), Some(plane)) => {
                            let leases = if b.wait_ms > 0 {
                                plane.pull_wait(&b.worker, b.max, b.wait_ms.min(PULL_WAIT_CAP_MS))
                            } else {
                                plane.pull(&b.worker, b.max)
                            };
                            json_resp(Status::OK, serde_json::to_string(&leases).unwrap())
                        }
                        (_, None) => no_plane(),
                        (Err(bad), _) => bad,
                    }
                }
                (Method::Post, "/pull/complete") => {
                    match (
                        parse_body::<CompleteBody>(&req),
                        dispatch_for_handler.as_ref(),
                    ) {
                        (Ok(b), Some(plane)) => {
                            let accepted = plane.complete(b.lease_id, b.ok, &b.body, b.exec_ms);
                            json_resp(
                                Status::OK,
                                serde_json::to_string(&CompleteReply { accepted }).unwrap(),
                            )
                        }
                        (_, None) => no_plane(),
                        (Err(bad), _) => bad,
                    }
                }
                (Method::Post, "/invoke") => match parse_body::<InvokeBody>(&req) {
                    Ok(b) => {
                        let tenant = tenant_of(&req, &b);
                        // Feed the autoscaler's arrival counters.
                        if let Some(f) = &fleet_for_handler {
                            f.note_arrival(&b.fqdn);
                        }
                        // Route by dispatch mode: push stays on CH-BL, pull
                        // spills to the central queues, hybrid pushes only
                        // warm-hit-likely fqdns.
                        let via_pull = dispatch_for_handler.as_ref().filter(|p| match p.mode() {
                            DispatchMode::Push => false,
                            DispatchMode::Pull => true,
                            DispatchMode::Hybrid => p.warm_target(&b.fqdn).is_none(),
                        });
                        let resp = if let Some(plane) = via_pull {
                            pull_invoke(plane, &b.fqdn, &b.args, tenant)
                        } else {
                            match cluster.invoke_tenant(&b.fqdn, &b.args, tenant) {
                                Ok(r) => {
                                    // Keep the hybrid warm signal alive for
                                    // fqdns the push path keeps serving.
                                    if let Some(p) = dispatch_for_handler
                                        .as_ref()
                                        .filter(|p| p.mode() == DispatchMode::Hybrid)
                                    {
                                        p.note_warm(&b.fqdn, "chbl");
                                    }
                                    result_resp(r)
                                }
                                // The balancer has no Retry-After hint of
                                // its own.
                                Err(e) => error_resp(&e, None),
                            }
                        };
                        // Propagate the latest balancer event seqno so callers
                        // can correlate responses with the telemetry stream.
                        resp.with_header(SEQ_HEADER, bus_for_handler.latest_seq().to_string())
                    }
                    Err(bad) => bad,
                },
                _ => Response::new(Status::NOT_FOUND),
            }
        });
        let server = HttpServer::start(handler)?;
        *served.lock() = Some(server.handle());
        Ok(Self {
            server,
            tasks,
            snapshot,
            fleet,
            dispatch,
            telemetry,
            recorder,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The most recent cluster scrape.
    pub fn snapshot(&self) -> ClusterSnapshot {
        self.snapshot.lock().clone()
    }

    /// The elastic fleet, when one is attached.
    pub fn fleet(&self) -> Option<&Arc<Fleet>> {
        self.fleet.as_ref()
    }

    /// The pull-dispatch plane, when one is attached.
    pub fn dispatch(&self) -> Option<&Arc<PullPlane>> {
        self.dispatch.as_ref()
    }

    /// The balancer's canonical telemetry bus (source `lb`).
    pub fn telemetry(&self) -> &Arc<TelemetryBus> {
        &self.telemetry
    }

    /// The balancer's flight recorder (served at `/debug/flightrecorder`).
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    pub fn shutdown(&mut self) {
        self.tasks.shutdown();
        self.server.shutdown();
    }
}

impl Drop for LbApi {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{LbPolicy, WorkerHandle};
    use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
    use iluvatar_core::config::WorkerConfig;
    use iluvatar_core::{FunctionSpec, Worker};
    use iluvatar_http::{HttpClient, CACHE_HEADER};
    use iluvatar_sync::SystemClock;
    use std::time::Instant;

    fn live_worker(name: &str) -> Arc<Worker> {
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
        Arc::new(Worker::new(cfg, backend, clock))
    }

    fn get(addr: SocketAddr, path: &str) -> Response {
        HttpClient::send(
            addr,
            &Request::new(Method::Get, path),
            Duration::from_secs(5),
        )
        .unwrap()
    }

    #[test]
    fn invoke_status_metrics_over_http() {
        let workers: Vec<Arc<dyn WorkerHandle>> = vec![live_worker("w0"), live_worker("w1")];
        let cluster = Arc::new(Cluster::new(workers, LbPolicy::RoundRobin));
        cluster
            .register_all(FunctionSpec::new("f", "1").with_timing(100, 400))
            .unwrap();
        let api = LbApi::serve(Arc::clone(&cluster), Duration::from_millis(25)).unwrap();

        // Invoke twice through the balancer: round-robin touches both workers.
        for _ in 0..2 {
            let body = serde_json::to_vec(&InvokeBody {
                fqdn: "f-1".into(),
                args: "{}".into(),
                tenant: None,
            })
            .unwrap();
            let resp = HttpClient::send(
                api.addr(),
                &Request::new(Method::Post, "/invoke").with_body(body),
                Duration::from_secs(10),
            )
            .unwrap();
            assert_eq!(resp.status, Status::OK, "body: {}", resp.body_str());
            let wire: WireResult = serde_json::from_str(resp.body_str()).unwrap();
            assert_ne!(wire.trace_id, 0, "trace id survives the LB hop");
            assert_eq!(
                resp.header(CACHE_HEADER),
                Some("bypass"),
                "no cache attached: every response is a bypass"
            );
        }

        // The periodic scraper merges both workers' spans into /metrics. Wait
        // until a scrape taken *after both* invocations lands: a scrape
        // between the two sees only one worker's call_container sample.
        let deadline = Instant::now() + Duration::from_secs(5);
        let text = loop {
            let text = get(api.addr(), "/metrics").body_str().to_string();
            let both_merged = api
                .snapshot()
                .spans
                .iter()
                .any(|s| s.name == "call_container" && s.count >= 2);
            if (text.contains("iluvatar_span_seconds_bucket") && both_merged)
                || Instant::now() > deadline
            {
                break text;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(text.contains("iluvatar_lb_workers 2"), "text:\n{text}");
        assert!(text.contains("iluvatar_lb_worker_load{worker=\"w0\"}"));
        assert!(text.contains("iluvatar_lb_dispatched_total{worker=\"w1\"} 1"));
        assert!(
            text.contains("iluvatar_span_seconds_bucket{scope=\"cluster\",span=\"call_container\""),
            "merged cluster histograms present:\n{text}"
        );
        assert!(text.contains("iluvatar_lb_http_requests_total"));

        // The merged call_container count covers both workers' invocations.
        let snap = api.snapshot();
        let call = snap
            .spans
            .iter()
            .find(|s| s.name == "call_container")
            .unwrap();
        assert_eq!(call.count, 2, "one invocation per worker merged");
        assert_eq!(call.hist.count(), 2);

        // /status mirrors the snapshot as JSON.
        let st: LbStatus = serde_json::from_str(get(api.addr(), "/status").body_str()).unwrap();
        assert_eq!(st.workers.len(), 2);
        assert_eq!(st.workers.iter().map(|w| w.dispatched).sum::<u64>(), 2);
    }

    #[test]
    fn cache_hit_skips_the_worker_over_http() {
        use iluvatar_cache::{CacheConfig, ResultCache};

        let workers: Vec<Arc<dyn WorkerHandle>> = vec![live_worker("w0")];
        let cluster = Arc::new(Cluster::new(workers, LbPolicy::RoundRobin));
        let cache = Arc::new(ResultCache::new(
            CacheConfig::enabled_default(),
            SystemClock::shared(),
        ));
        cluster.set_cache(cache);
        cluster
            .register_all(
                FunctionSpec::new("f", "1")
                    .with_timing(100, 400)
                    .with_idempotent(),
            )
            .unwrap();
        let api = LbApi::serve(Arc::clone(&cluster), Duration::from_millis(25)).unwrap();

        let body = serde_json::to_vec(&InvokeBody {
            fqdn: "f-1".into(),
            args: "{\"k\":1}".into(),
            tenant: None,
        })
        .unwrap();
        let send = || {
            HttpClient::send(
                api.addr(),
                &Request::new(Method::Post, "/invoke").with_body(body.clone()),
                Duration::from_secs(10),
            )
            .unwrap()
        };
        let first = send();
        assert_eq!(first.status, Status::OK, "body: {}", first.body_str());
        assert_eq!(first.header(CACHE_HEADER), Some("miss"));
        let second = send();
        assert_eq!(second.header(CACHE_HEADER), Some("hit"));
        let miss: WireResult = serde_json::from_str(first.body_str()).unwrap();
        let hit: WireResult = serde_json::from_str(second.body_str()).unwrap();
        assert_eq!(hit.body, miss.body, "served body is the cached body");
        assert_eq!(
            cluster.stats().dispatched(),
            1,
            "the hit never reached a worker"
        );

        let text = get(api.addr(), "/metrics").body_str().to_string();
        assert!(
            text.contains("iluvatar_cache_hits_total{source=\"lb\"} 1"),
            "text:\n{text}"
        );
        assert!(text.contains("iluvatar_cache_misses_total{source=\"lb\"} 1"));
        assert!(text.contains("iluvatar_cache_evictions_total{source=\"lb\",tenant=\"default\"} 0"));
    }

    #[test]
    fn tenant_label_rides_the_lb_hop() {
        use crate::cluster::RemoteWorker;
        use iluvatar_core::api::WorkerApi;
        use iluvatar_core::{AdmissionConfig, TenantSpec};
        let clock = SystemClock::shared();
        let backend = Arc::new(SimBackend::new(
            Arc::clone(&clock),
            SimBackendConfig {
                time_scale: 0.02,
                ..Default::default()
            },
        ));
        let mut cfg = WorkerConfig::for_testing();
        cfg.admission =
            AdmissionConfig::enabled_with(vec![TenantSpec::new("free").with_rate(0.001, 1.0)]);
        let worker = Arc::new(Worker::new(cfg, backend, clock));
        let wapi = WorkerApi::serve(Arc::clone(&worker)).unwrap();
        let remote: Arc<dyn WorkerHandle> = Arc::new(RemoteWorker::connect(wapi.addr()));
        let cluster = Arc::new(Cluster::new(vec![remote], LbPolicy::RoundRobin));
        cluster
            .register_all(FunctionSpec::new("f", "1").with_timing(100, 400))
            .unwrap();
        let api = LbApi::serve(Arc::clone(&cluster), Duration::from_millis(25)).unwrap();

        let body = serde_json::to_vec(&InvokeBody {
            fqdn: "f-1".into(),
            args: "{}".into(),
            tenant: None,
        })
        .unwrap();
        let send = || {
            HttpClient::send(
                api.addr(),
                &Request::new(Method::Post, "/invoke")
                    .with_body(body.clone())
                    .with_header(iluvatar_http::TENANT_HEADER, "free"),
                Duration::from_secs(10),
            )
            .unwrap()
        };
        let resp = send();
        assert_eq!(resp.status.0, 200, "body: {}", resp.body_str());
        let wire: WireResult = serde_json::from_str(resp.body_str()).unwrap();
        assert_eq!(
            wire.tenant.as_deref(),
            Some("free"),
            "label survives LB→worker→result"
        );
        // The tenant's rate bucket is empty: the rejection propagates as a
        // 429 through both HTTP hops.
        let resp = send();
        assert_eq!(resp.status.0, 429, "body: {}", resp.body_str());
        assert!(
            resp.body_str().contains("throttled"),
            "body: {}",
            resp.body_str()
        );
        // The rollup lands in /status once a scrape observes the worker.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let st: LbStatus = serde_json::from_str(get(api.addr(), "/status").body_str()).unwrap();
            let free = st.tenants.iter().find(|t| t.tenant == "free");
            if free.map(|t| t.throttled == 1 && t.served == 1 && t.lb_dispatched == 2) == Some(true)
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "rollup never converged: {:?}",
                st.tenants
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // Per-tenant families render on the balancer's /metrics.
        let text = get(api.addr(), "/metrics").body_str().to_string();
        assert!(
            text.contains("iluvatar_lb_tenant_dispatched_total{tenant=\"free\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("iluvatar_lb_tenant_throttled_total{tenant=\"free\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn breakdown_and_flightrecorder_over_lb_http() {
        use iluvatar_core::BreakdownReport;
        use iluvatar_telemetry::FlightDump;

        let workers: Vec<Arc<dyn WorkerHandle>> = vec![live_worker("w0"), live_worker("w1")];
        let cluster = Arc::new(Cluster::new(workers, LbPolicy::RoundRobin));
        cluster
            .register_all(FunctionSpec::new("f", "1").with_timing(100, 400))
            .unwrap();
        let api = LbApi::serve(Arc::clone(&cluster), Duration::from_millis(25)).unwrap();

        for i in 0..4 {
            let body = serde_json::to_vec(&InvokeBody {
                fqdn: "f-1".into(),
                args: "{}".into(),
                tenant: Some("acme".into()),
            })
            .unwrap();
            let resp = HttpClient::send(
                api.addr(),
                &Request::new(Method::Post, "/invoke").with_body(body),
                Duration::from_secs(10),
            )
            .unwrap();
            assert_eq!(resp.status, Status::OK, "body: {}", resp.body_str());
            // Every invocation response carries the balancer's event seqno.
            let seq: u64 = resp.header(SEQ_HEADER).unwrap().parse().unwrap();
            assert!(seq > i, "seq {seq} after {} dispatches", i + 1);
        }

        // /breakdown merges both workers' reports into one cluster view.
        let resp = get(api.addr(), "/breakdown");
        assert_eq!(resp.status, Status::OK);
        let report: BreakdownReport = serde_json::from_str(resp.body_str()).unwrap();
        assert_eq!(report.source, "cluster");
        assert_eq!(report.invocations, 4, "two workers, four invocations");
        assert_eq!(report.cold + report.warm, 4);
        assert!(
            report.stages.iter().any(|s| s.count > 0),
            "stage histograms populated"
        );

        // The balancer's flight recorder holds the dispatch events.
        let resp = get(api.addr(), "/debug/flightrecorder");
        assert_eq!(resp.status, Status::OK);
        let dump: FlightDump = serde_json::from_str(resp.body_str()).unwrap();
        assert!(
            dump.events.iter().any(|e| e.kind.label() == "dispatch"),
            "dispatches recorded: {:?}",
            dump.events.len()
        );
        assert!(
            dump.events.iter().all(|e| e.source == "lb"),
            "one source per bus"
        );

        // The telemetry counter bridge renders on /metrics.
        let text = get(api.addr(), "/metrics").body_str().to_string();
        assert!(
            text.contains("iluvatar_telemetry_events_total{source=\"lb\",kind=\"dispatch\",tenant=\"acme\"} 4"),
            "text:\n{text}"
        );
    }

    #[test]
    fn scraped_span_percentiles_within_one_bucket_of_direct() {
        use iluvatar_core::{merge_span_exports, SpanExport};
        use iluvatar_sync::LogHistogram;

        // Two workers' raw span durations, kept for the direct computation.
        let samples_a: Vec<u64> = (0..500u64).map(|i| i * 97 + 13).collect();
        let samples_b: Vec<u64> = (0..500u64).map(|i| i * 131 + 7).collect();
        let export = |samples: &[u64]| {
            let mut hist = LogHistogram::new();
            for &v in samples {
                hist.record(v);
            }
            SpanExport {
                name: "call_container".into(),
                count: samples.len() as u64,
                total_us: samples.iter().sum(),
                hist,
            }
        };
        // The scrape hop: each export crosses worker → LB as JSON, exactly
        // as `GET /spans` does, then merges into the cluster view.
        let wire = |e: &SpanExport| -> SpanExport {
            serde_json::from_str(&serde_json::to_string(e).unwrap()).unwrap()
        };
        let merged = merge_span_exports(&[
            vec![wire(&export(&samples_a))],
            vec![wire(&export(&samples_b))],
        ]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].count, 1000);

        let mut all: Vec<u64> = samples_a.iter().chain(&samples_b).copied().collect();
        all.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * all.len() as f64).ceil() as usize).max(1);
            let exact = all[rank - 1] as f64;
            let est = merged[0].hist.percentile(q);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= LogHistogram::REL_ERROR,
                "p{q}: merged {est} vs direct {exact} (rel {rel})"
            );
        }
    }

    #[test]
    fn pull_mode_invoke_over_http_round_trips() {
        use crate::pull::HttpLeaseSource;
        use iluvatar_dispatch::{DispatchConfig, PullLoop, PullPlane, PullTask, TaskExecutor};

        let w0 = live_worker("w0");
        let w1 = live_worker("w1");
        let workers: Vec<Arc<dyn WorkerHandle>> = vec![Arc::clone(&w0) as _, Arc::clone(&w1) as _];
        let cluster = Arc::new(Cluster::new(workers, LbPolicy::RoundRobin));
        cluster
            .register_all(FunctionSpec::new("f", "1").with_timing(100, 400))
            .unwrap();
        let plane = Arc::new(PullPlane::new(
            DispatchConfig::pull(),
            SystemClock::shared(),
        ));
        plane.register_worker("w0");
        plane.register_worker("w1");
        let api = LbApi::serve_with_dispatch(
            Arc::clone(&cluster),
            Duration::from_millis(25),
            None,
            Some(Arc::clone(&plane)),
        )
        .unwrap();

        // Worker-side pull loops, leasing through the HTTP routes and
        // executing on the live workers.
        let spawn_loop = |name: &'static str, worker: Arc<Worker>| {
            let source = Arc::new(HttpLeaseSource::new(api.addr(), 200));
            let exec: Arc<TaskExecutor> = Arc::new(move |t: &PullTask| {
                match worker.invoke_tenant(&t.fqdn, &t.args, t.tenant.as_deref()) {
                    Ok(r) => (true, r.body, r.exec_ms),
                    Err(e) => (false, e.to_string(), 0),
                }
            });
            PullLoop::spawn(
                source as Arc<dyn iluvatar_dispatch::LeaseSource>,
                name.to_string(),
                2,
                Duration::from_millis(5),
                exec,
            )
        };
        let lp0 = spawn_loop("w0", w0);
        let lp1 = spawn_loop("w1", w1);

        for i in 0..3 {
            let body = serde_json::to_vec(&InvokeBody {
                fqdn: "f-1".into(),
                args: format!("{{\"k\":{i}}}"),
                tenant: Some("acme".into()),
            })
            .unwrap();
            let resp = HttpClient::send(
                api.addr(),
                &Request::new(Method::Post, "/invoke").with_body(body),
                Duration::from_secs(30),
            )
            .unwrap();
            assert_eq!(resp.status, Status::OK, "body: {}", resp.body_str());
            let wire: WireResult = serde_json::from_str(resp.body_str()).unwrap();
            assert_ne!(wire.trace_id, 0);
            assert_eq!(wire.tenant.as_deref(), Some("acme"));
        }
        lp0.stop();
        lp1.stop();

        let c = plane.counters();
        assert_eq!(c.queued, 3);
        assert_eq!(c.completed, 3);
        assert_eq!(plane.live_leases(), 0);
        assert_eq!(plane.depth(), 0);

        // /status exposes the pull-plane signal alongside the cluster view.
        let st: LbStatus = serde_json::from_str(get(api.addr(), "/status").body_str()).unwrap();
        assert_eq!(st.live_leases, 0);
        let classes: Vec<&str> = st.pull_queues.iter().map(|q| q.class.as_str()).collect();
        assert_eq!(classes, vec!["best_effort", "guaranteed"]);
        assert!(st.pull_queues.iter().all(|q| q.depth == 0));

        // Lease series land on /metrics.
        let text = get(api.addr(), "/metrics").body_str().to_string();
        assert!(
            text.contains("iluvatar_lease_events_total{op=\"completed\"} 3"),
            "text:\n{text}"
        );
        assert!(text.contains("iluvatar_pull_queue_depth{class=\"guaranteed\"} 0"));
        assert!(
            text.contains("iluvatar_telemetry_events_total{source=\"lb\",kind=\"lease:completed\",tenant=\"acme\"} 3"),
            "lease events flow through the balancer bus:\n{text}"
        );
    }

    #[test]
    fn invoke_unregistered_is_404_and_bad_body_400() {
        let workers: Vec<Arc<dyn WorkerHandle>> = vec![live_worker("w0")];
        let cluster = Arc::new(Cluster::new(workers, LbPolicy::LeastLoaded));
        let api = LbApi::serve(cluster, Duration::from_secs(60)).unwrap();
        let resp = HttpClient::send(
            api.addr(),
            &Request::new(Method::Post, "/invoke").with_body(&b"{\"fqdn\":\"ghost-1\"}"[..]),
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resp.status.0, 404);
        let resp = HttpClient::send(
            api.addr(),
            &Request::new(Method::Post, "/invoke").with_body(&b"not json"[..]),
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(resp.status.0, 400);
        assert_eq!(get(api.addr(), "/nope").status.0, 404);
    }
}
