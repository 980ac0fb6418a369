//! Seeded session scenarios: each drives one subsystem end to end and folds
//! everything schedule-independent it observed into one FNV-1a digest.
//!
//! Same seed ⇒ same digest, run after run and process after process — the
//! determinism gate `scripts/check.sh` and `tests/sessions.rs` hold every
//! scenario to. A scenario is a plain `fn(&Args) -> u64` in [`SCENARIOS`];
//! it asserts its own contract (zero lost invocations, zero conformance
//! violations, …) by panicking, and writes its human-readable summary to
//! stderr. The `session` binary is the command-line front end.

pub mod admission;
pub mod autoscale;
pub mod cache;
pub mod chaos;
pub mod conformance;
pub mod dispatch;
pub mod lifecycle;
mod mutations;
pub mod storage;
pub mod telemetry;

use iluvatar_conformance::{Checker, ConformanceReport};
use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
use iluvatar_containers::ContainerBackend;
use iluvatar_core::{TelemetryEvent, Worker, WorkerConfig};
use iluvatar_sync::Clock;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a scenario can be asked to vary. `None` means the scenario's own
/// default (each documents it).
#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    pub invocations: Option<u64>,
    pub kill_at: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            seed: 42,
            invocations: None,
            kill_at: None,
        }
    }
}

pub type Scenario = fn(&Args) -> u64;

/// Every scenario by name, in the order the gates run them.
pub const SCENARIOS: [(&str, Scenario); 9] = [
    ("chaos", chaos::run),
    ("admission", admission::run),
    ("lifecycle", lifecycle::run),
    ("autoscale", autoscale::run),
    ("telemetry", telemetry::run),
    ("conformance", conformance::run),
    ("cache", cache::run),
    ("storage", storage::run),
    ("dispatch", dispatch::run),
];

pub fn find(name: &str) -> Option<Scenario> {
    SCENARIOS.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

/// Simulated service times run at 2% of nominal.
const TIME_SCALE: f64 = 0.02;

fn sim_backend(clock: &Arc<dyn Clock>) -> Arc<dyn ContainerBackend> {
    Arc::new(SimBackend::new(
        Arc::clone(clock),
        SimBackendConfig {
            time_scale: TIME_SCALE,
            ..Default::default()
        },
    ))
}

/// A `for_testing` worker named `name` over its own simulated backend.
fn sim_worker(name: &str, clock: &Arc<dyn Clock>) -> Worker {
    let mut cfg = WorkerConfig::for_testing();
    cfg.name = name.to_string();
    Worker::new(cfg, sim_backend(clock), Arc::clone(clock))
}

/// The worker's per-tenant books in tenant order — digest material in
/// most scenarios.
fn tenant_books(worker: &Worker) -> String {
    let mut tstats = worker.tenant_stats();
    tstats.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    tstats
        .iter()
        .map(|t| {
            format!(
                "{}:{}:{}:{}:{};",
                t.tenant, t.admitted, t.throttled, t.shed, t.served
            )
        })
        .collect()
}

/// Replay `events` through `checker`; any violation on a real stream fails
/// the scenario, printing each offending event with its context.
fn check(scenario: &str, mut checker: Checker, events: &[TelemetryEvent]) -> ConformanceReport {
    for ev in events {
        checker.ingest(ev);
    }
    expect_clean(scenario, checker.finish())
}

fn expect_clean(scenario: &str, report: ConformanceReport) -> ConformanceReport {
    if !report.ok() {
        for v in &report.violations {
            eprintln!("{v}");
        }
        panic!(
            "scenario {scenario}: {} conformance violation(s) on a real stream",
            report.violations.len()
        );
    }
    report
}

/// A fresh scratch directory (WAL files), removed on drop. Unique per call
/// so scenarios can share a process; digests never depend on the path.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "iluvatar-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Self(dir)
    }

    /// `name` inside the directory, as the string the WAL config takes.
    fn file(&self, name: &str) -> String {
        self.0
            .join(name)
            .to_str()
            .expect("utf-8 scratch path")
            .to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
