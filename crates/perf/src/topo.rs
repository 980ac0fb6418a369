//! The four topologies, built in-process through the program's public
//! constructors. Everything a workload needs before its first measured
//! invocation happens in [`Topology::build`] — that is what `setup_s`
//! times (the fixed-count warm-up is added by the caller).

use crate::inputs::{fqdn, FUNCTIONS};
use crate::wraps::{
    pull_executor, CountingSink, Tap, TracedBackend, TracedHandle, TracedLeaseSource, TracedStorage,
};
use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
use iluvatar_containers::ContainerBackend;
use iluvatar_core::api::WorkerApi;
use iluvatar_core::config::{LifecycleConfig, QueuePolicyKind, WalConfig, WorkerConfig};
use iluvatar_core::{AdmissionConfig, FunctionSpec, TelemetrySink, TenantSpec, Worker};
use iluvatar_dispatch::{DispatchConfig, LeaseSource, PullLoop, PullPlane};
use iluvatar_lb::cluster::RemoteWorker;
use iluvatar_lb::{ChBlConfig, Cluster, HttpLeaseSource, LbApi, LbPolicy, WorkerHandle};
use iluvatar_sync::storage::{RealStorage, Storage};
use iluvatar_sync::SystemClock;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Containers allowed to run at once per worker, and containers prewarmed
/// per function — equal, so a measured phase can never start one cold.
pub const CONCURRENCY: usize = 16;
/// How often the balancer re-scrapes its workers in the background.
const LB_SCRAPE: Duration = Duration::from_secs(1);
/// Pull loops: long-poll budget, leases per pull, idle back-off.
const PULL_WAIT_MS: u64 = 200;
const PULL_BATCH: usize = 2;
const PULL_IDLE: Duration = Duration::from_millis(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WorkerWarm,
    WorkerDurable,
    ClusterPush,
    ClusterPull,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WorkerWarm,
        Workload::WorkerDurable,
        Workload::ClusterPush,
        Workload::ClusterPull,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WorkerWarm => "worker_warm",
            Workload::WorkerDurable => "worker_durable",
            Workload::ClusterPush => "cluster_push",
            Workload::ClusterPull => "cluster_pull",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fixed open-loop rate of the `paced` phase, invocations per second:
    /// about a tenth of what the seed commit sustains in `sat` on the two
    /// CPU-bound workloads (so the median is close to the unloaded service
    /// time), a quarter on the two timer-bound ones.
    pub fn paced_rate(self) -> f64 {
        match self {
            Workload::WorkerWarm => 1000.0,
            Workload::ClusterPush => 300.0,
            Workload::WorkerDurable | Workload::ClusterPull => 100.0,
        }
    }

    /// Warm-up invocations (part of set-up). The two timer-bound workloads
    /// run ~4 ms per invocation, so they get a tenth of the count.
    pub fn warmup(self) -> usize {
        match self {
            Workload::WorkerWarm | Workload::ClusterPush => 2000,
            Workload::WorkerDurable | Workload::ClusterPull => 200,
        }
    }

    pub fn tenants(self) -> bool {
        self == Workload::WorkerDurable
    }

    pub fn over_http(self) -> bool {
        matches!(self, Workload::ClusterPush | Workload::ClusterPull)
    }
}

/// A built, registered, prewarmed topology.
pub struct Topology {
    pub workers: Vec<Arc<Worker>>,
    worker_apis: Vec<WorkerApi>,
    pub cluster: Option<Arc<Cluster>>,
    pub plane: Option<Arc<PullPlane>>,
    lb: Option<LbApi>,
    pull_loops: Vec<PullLoop>,
    pub wal_path: Option<PathBuf>,
}

fn specs() -> Vec<FunctionSpec> {
    // Modelled warm time = function index (see `inputs::expected_body`).
    (0..FUNCTIONS)
        .map(|i| FunctionSpec::new("fn", i.to_string()).with_timing(i as u64, 0))
        .collect()
}

fn worker_config(name: &str) -> WorkerConfig {
    let mut cfg = WorkerConfig {
        name: name.into(),
        ..Default::default()
    };
    cfg.concurrency.limit = CONCURRENCY;
    cfg
}

fn new_worker(cfg: WorkerConfig, tap: Option<&Tap>) -> Arc<Worker> {
    let clock = SystemClock::shared();
    let sim = SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.01,
            ..Default::default()
        },
    );
    let (backend, storage): (Arc<dyn ContainerBackend>, Arc<dyn Storage>) = match tap {
        Some(tap) => (
            Arc::new(TracedBackend {
                inner: sim,
                tap: tap.clone(),
            }),
            Arc::new(TracedStorage {
                inner: RealStorage,
                tap: tap.clone(),
            }),
        ),
        None => (Arc::new(sim), Arc::new(RealStorage)),
    };
    let worker = Worker::new_with_storage(cfg, backend, clock, storage);
    if let Some(tap) = tap {
        worker
            .telemetry()
            .add_sink(Arc::new(CountingSink { tap: tap.clone() }) as Arc<dyn TelemetrySink>);
    }
    Arc::new(worker)
}

fn prewarm(worker: &Worker) {
    for f in 0..FUNCTIONS {
        for _ in 0..CONCURRENCY {
            worker.prewarm(&fqdn(f)).expect("prewarm");
        }
    }
}

impl Topology {
    /// Build `workload`'s topology, register the functions and prewarm
    /// every function to the concurrency limit. `scratch` is a directory of
    /// the run's own for the WAL. With a `tap` the harness wrappers are
    /// installed (they pass through until the tap's recorder is enabled).
    pub fn build(workload: Workload, scratch: &Path, tap: Option<&Tap>) -> Self {
        let mut topo = Topology {
            workers: Vec::new(),
            worker_apis: Vec::new(),
            cluster: None,
            plane: None,
            lb: None,
            pull_loops: Vec::new(),
            wal_path: None,
        };
        match workload {
            Workload::WorkerWarm => {
                let w = new_worker(worker_config("w0"), tap);
                for s in specs() {
                    w.register(s).expect("register");
                }
                topo.workers.push(w);
            }
            Workload::WorkerDurable => {
                let wal = scratch.join("queue.wal");
                let mut cfg = worker_config("w0");
                cfg.lifecycle = LifecycleConfig {
                    wal: WalConfig {
                        fsync: "group".into(),
                        group_ms: 2,
                        ..Default::default()
                    },
                    ..LifecycleConfig::with_wal(wal.to_str().expect("utf-8 scratch path"))
                };
                cfg.admission = AdmissionConfig::enabled_with(vec![
                    TenantSpec::new("gold").with_weight(3.0),
                    TenantSpec::new("bronze").with_weight(1.0),
                ]);
                cfg.queue.policy = QueuePolicyKind::Drr;
                let w = new_worker(cfg, tap);
                for s in specs() {
                    w.register(s).expect("register");
                }
                topo.workers.push(w);
                topo.wal_path = Some(wal);
            }
            Workload::ClusterPush | Workload::ClusterPull => {
                let mut handles: Vec<Arc<dyn WorkerHandle>> = Vec::new();
                for name in ["w0", "w1"] {
                    let w = new_worker(worker_config(name), tap);
                    let api = WorkerApi::serve(Arc::clone(&w)).expect("serve worker api");
                    let remote: Arc<dyn WorkerHandle> = Arc::new(RemoteWorker::connect(api.addr()));
                    handles.push(match tap {
                        Some(tap) => Arc::new(TracedHandle {
                            inner: remote,
                            tap: tap.clone(),
                        }),
                        None => remote,
                    });
                    topo.workers.push(w);
                    topo.worker_apis.push(api);
                }
                let cluster =
                    Arc::new(Cluster::new(handles, LbPolicy::ChBl(ChBlConfig::default())));
                for s in specs() {
                    cluster.register_all(s).expect("register_all");
                }
                if workload == Workload::ClusterPull {
                    let plane = Arc::new(PullPlane::new(
                        DispatchConfig::pull(),
                        SystemClock::shared(),
                    ));
                    plane.register_worker("w0");
                    plane.register_worker("w1");
                    topo.plane = Some(plane);
                }
                let lb = LbApi::serve_with_dispatch(
                    Arc::clone(&cluster),
                    LB_SCRAPE,
                    None,
                    topo.plane.clone(),
                )
                .expect("serve lb api");
                if workload == Workload::ClusterPull {
                    for (name, w) in ["w0", "w1"].into_iter().zip(&topo.workers) {
                        let http: Arc<dyn LeaseSource> =
                            Arc::new(HttpLeaseSource::new(lb.addr(), PULL_WAIT_MS));
                        let source: Arc<dyn LeaseSource> = match tap {
                            Some(tap) => Arc::new(TracedLeaseSource::new(http, tap.clone())),
                            None => http,
                        };
                        topo.pull_loops.push(PullLoop::spawn(
                            source,
                            name.to_string(),
                            PULL_BATCH,
                            PULL_IDLE,
                            pull_executor(Arc::clone(w), tap.cloned()),
                        ));
                    }
                }
                topo.cluster = Some(cluster);
                topo.lb = Some(lb);
            }
        }
        for w in &topo.workers {
            prewarm(w);
        }
        topo
    }

    /// Where HTTP clients send `POST /invoke` (the balancer).
    pub fn lb_addr(&self) -> Option<SocketAddr> {
        self.lb.as_ref().map(|lb| lb.addr())
    }

    /// Requests served so far by every HTTP server of the topology: the
    /// workers' counters plus the balancer's (read off its `/metrics`).
    pub fn http_served(&self) -> u64 {
        let workers: u64 = self.worker_apis.iter().map(|a| a.served()).sum();
        let lb = self
            .lb_addr()
            .and_then(|addr| {
                let req = iluvatar_http::Request::new(iluvatar_http::Method::Get, "/metrics");
                iluvatar_http::HttpClient::send(addr, &req, Duration::from_secs(5)).ok()
            })
            .and_then(|resp| {
                resp.body_str()
                    .lines()
                    .find_map(|l| l.strip_prefix("iluvatar_lb_http_requests_total "))
                    .and_then(|v| v.trim().parse::<f64>().ok())
            })
            .unwrap_or(0.0);
        workers + lb as u64
    }

    /// Stop everything and wait until every thread of the topology is gone:
    /// pull loops, balancer, worker APIs, then the workers themselves. The
    /// workers are shut down explicitly (not left to a late `Drop` on some
    /// connection thread) so the WAL's final snapshot is on disk on return.
    pub fn teardown(mut self) {
        for lp in self.pull_loops.drain(..) {
            lp.stop();
        }
        if let Some(mut lb) = self.lb.take() {
            lb.shutdown();
        }
        self.cluster = None;
        self.plane = None;
        self.worker_apis.clear();
        for w in self.workers.drain(..) {
            let mut w = w;
            // Connection threads hold clones until they notice their peer
            // is gone (at most one 200 ms read timeout).
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut worker = loop {
                match Arc::try_unwrap(w) {
                    Ok(worker) => break worker,
                    Err(shared) => {
                        assert!(Instant::now() < deadline, "worker still shared at teardown");
                        w = shared;
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            };
            worker.shutdown();
        }
    }
}
