//! An idle control plane sleeps. Over 2 s with nothing arriving, a default
//! `WorkerApi` wakes only for its two periodic ticks (the 250 ms metrics
//! sample and the 500 ms keep-alive sweep, six a second, both on one timer
//! thread), and runs four threads of its own: the acceptor, one executor,
//! the destroyer and the timer. A group-commit WAL adds its sweeper, parked
//! while the log is clean, and no re-arm task while the log is healthy. A
//! balancer over two such workers wakes for its scrape and the requests
//! each scrape makes.
//!
//! One `#[test]` in a file of its own: `/proc/self/task` lists every thread
//! of the process, so no sibling test may share it.

mod common;

use common::{thread_names, wakeups_over};
use iluvatar::core::config::{LifecycleConfig, WalConfig};
use iluvatar::prelude::*;
use iluvatar_core::api::WorkerApi;
use iluvatar_lb::cluster::{RemoteWorker, WorkerHandle};
use iluvatar_lb::LbApi;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const WINDOW: Duration = Duration::from_secs(2);

/// At most 8 wake-ups a second for an idle worker.
const WORKER_WAKEUPS: u64 = 16;

/// At most 100 wake-ups a second for the balancer and its two workers: each
/// 250 ms scrape blocks on a `/status` round trip to every worker, and each
/// pooled connection is served by a thread that re-checks for shutdown
/// every 200 ms. The two workers' timers add 12.
const BALANCER_WAKEUPS: u64 = 200;

/// Prefixes of the threads the control plane starts (the rest of the
/// process is the test harness).
const OWN: [&str; 3] = ["iluvatar-", "http-", "wal-"];

fn own(name: &str) -> bool {
    OWN.iter().any(|p| name.starts_with(p))
}

fn worker(cfg: WorkerConfig) -> (Arc<Worker>, WorkerApi) {
    let clock = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig::default(),
    ));
    let worker = Arc::new(Worker::new(cfg, backend, clock));
    let api = WorkerApi::serve(Arc::clone(&worker)).unwrap();
    (worker, api)
}

/// The control plane's wake-ups over [`WINDOW`], per thread name, once
/// the threads it just started have settled.
fn idle_wakeups() -> (u64, BTreeMap<String, u64>) {
    std::thread::sleep(Duration::from_millis(100));
    let woke: BTreeMap<String, u64> = wakeups_over(WINDOW)
        .into_iter()
        .filter(|(name, _)| own(name))
        .collect();
    (woke.values().sum(), woke)
}

#[test]
fn an_idle_control_plane_sleeps() {
    // A default worker behind its API.
    let (w, api) = worker(WorkerConfig::default());
    let (total, woke) = idle_wakeups();
    eprintln!("idle default worker: {total} wake-ups in {WINDOW:?}: {woke:?}");
    let threads: Vec<String> = thread_names().into_iter().filter(|t| own(t)).collect();
    assert!(
        threads.len() <= 4,
        "an idle worker runs the acceptor, one executor, the destroyer and the timer: {threads:?}"
    );
    assert!(
        total <= WORKER_WAKEUPS,
        "an idle default worker woke {total} times in {WINDOW:?}: {woke:?}"
    );
    drop(api);
    drop(w);

    // The same worker with a group-commit WAL: its sweeper parks while the
    // log is clean, and a healthy log schedules no re-arm.
    let dir = std::env::temp_dir().join(format!("iluvatar-idle-wakeups-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = WorkerConfig {
        lifecycle: LifecycleConfig {
            wal: WalConfig {
                fsync: "group".into(),
                ..Default::default()
            },
            ..LifecycleConfig::with_wal(dir.join("queue.wal").to_str().unwrap())
        },
        ..WorkerConfig::default()
    };
    let (w, api) = worker(cfg);
    let (total, woke) = idle_wakeups();
    eprintln!("idle group-commit worker: {total} wake-ups in {WINDOW:?}: {woke:?}");
    assert!(
        total <= WORKER_WAKEUPS,
        "an idle group-commit worker woke {total} times in {WINDOW:?}: {woke:?}"
    );
    drop(api);
    drop(w);
    let _ = std::fs::remove_dir_all(&dir);

    // A balancer over two default workers, scraping every 250 ms.
    let (w0, api0) = worker(WorkerConfig::default());
    let (w1, api1) = worker(WorkerConfig::default());
    let handles: Vec<Arc<dyn WorkerHandle>> = vec![
        Arc::new(RemoteWorker::connect(api0.addr())),
        Arc::new(RemoteWorker::connect(api1.addr())),
    ];
    let cluster = Arc::new(Cluster::new(handles, LbPolicy::ChBl(ChBlConfig::default())));
    let lb = LbApi::serve(cluster, Duration::from_millis(250)).unwrap();
    // Let the first scrapes open their pooled connections.
    std::thread::sleep(Duration::from_millis(600));
    let (total, woke) = idle_wakeups();
    eprintln!("idle balancer over two workers: {total} wake-ups in {WINDOW:?}: {woke:?}");
    assert!(
        total <= BALANCER_WAKEUPS,
        "an idle balancer and its two workers woke {total} times in {WINDOW:?}: {woke:?}"
    );
    drop(lb);
    drop((api0, api1, w0, w1));
}
