//! Overhead budget gate: dispatch overhead percentiles per Table-1 group.
//!
//! Replays a fixed warm-dominated trace through the real HTTP hot path (a
//! worker serving its API on loopback over a simulated backend, with the
//! write-ahead log enabled under `wal.fsync = group` so durability rides
//! the measured path), fetches the critical-path breakdown from
//! `GET /breakdown`, and checks the p50/p99 of each Table-1 component
//! group's µs histogram — and of the journal's ms-granular end-to-end
//! stage — against a budget that is a fixed multiple of the value
//! EXPERIMENTS.md records for it. `check.sh` fails when any row breaches.

use super::sim_worker;
use crate::print_table;
use iluvatar_containers::FunctionSpec;
use iluvatar_core::api::{WorkerApi, WorkerApiClient};
use iluvatar_core::breakdown::stages;
use iluvatar_core::{BreakdownReport, LifecycleConfig, WalConfig, WorkerConfig};
use std::io::{self, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Warm invocations replayed.
const ITERATIONS: u64 = 200;

/// A row breaches when its p50 or p99 exceeds this multiple of the
/// recorded value.
const BUDGET_MULTIPLE: f64 = 10.0;

const E2E_ROW: &str = "e2e (critical path)";

/// `(row, recorded p50 µs, recorded p99 µs)`: the medians of the ten runs
/// in EXPERIMENTS.md "Overhead budget — recorded baseline". A recorded
/// value below the histogram's 1 µs resolution budgets as 1 µs.
const RECORDED_US: &[(&str, f64, f64)] = &[
    ("Ingestion & Queuing", 174.0, 3_104.0),
    ("Container Operations", 0.0, 1.0),
    ("Agent Communication", 0.0, 2_240.0),
    ("Returning", 20.0, 632.0),
    (E2E_ROW, 3_000.0, 5_000.0),
];

pub fn run(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    // The budget must hold with durability on: WAL enabled, every accept
    // and result waiting for its covering group fsync (`wal.fsync = group`).
    let wal_dir = std::env::temp_dir().join(format!("iluvatar-overhead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir)?;
    let wal_path = wal_dir
        .join("queue.wal")
        .to_str()
        .expect("utf8 path")
        .to_string();
    let cfg = WorkerConfig {
        lifecycle: LifecycleConfig {
            wal: WalConfig {
                fsync: "group".into(),
                group_ms: 2,
                ..Default::default()
            },
            ..LifecycleConfig::with_wal(&wal_path)
        },
        ..WorkerConfig::for_testing()
    };
    let worker = Arc::new(sim_worker(cfg, 0.02));
    let api = WorkerApi::serve(Arc::clone(&worker)).expect("serve worker API");
    let client = WorkerApiClient::new(api.addr());
    client
        .register(&FunctionSpec::new("f", "1").with_timing(100, 400))
        .expect("register over HTTP");

    // One cold start, then the warm replay the budgets are written for.
    let invoke = || client.invoke_tenant("f-1", "{}", None);
    invoke().expect("cold start");
    for _ in 0..ITERATIONS {
        invoke().expect("warm invoke");
    }

    // `ResultReturned` lands in the journal just after the result reaches
    // the caller: poll until the breakdown covers the full replay.
    let want = ITERATIONS + 1;
    let deadline = Instant::now() + Duration::from_secs(10);
    let report: BreakdownReport = loop {
        let r = client.breakdown().expect("scrape /breakdown");
        if r.invocations >= want || Instant::now() > deadline {
            break r;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let _ = std::fs::remove_dir_all(&wal_dir);
    assert!(
        report.invocations >= want,
        "breakdown covers {} of {want} invocations",
        report.invocations
    );

    // (samples, p50 µs, p99 µs) of a row.
    let measured = |row: &str| {
        if row == E2E_ROW {
            let e2e = report.stage(stages::E2E).expect("e2e stage in breakdown");
            let us = |q| e2e.hist_ms.percentile(q) * 1000.0;
            (e2e.count, us(0.50), us(0.99))
        } else {
            let g = report
                .group(row)
                .unwrap_or_else(|| panic!("group {row} missing from breakdown"));
            (
                g.count,
                g.hist_us.percentile(0.50),
                g.hist_us.percentile(0.99),
            )
        }
    };
    let mut rows = Vec::new();
    let mut held = true;
    for &(row, p50_recorded, p99_recorded) in RECORDED_US {
        let (count, p50, p99) = measured(row);
        let [p50_budget, p99_budget] =
            [p50_recorded, p99_recorded].map(|us| BUDGET_MULTIPLE * us.max(1.0));
        // An empty row means the replay never ran.
        let ok = count > 0 && p50 <= p50_budget && p99 <= p99_budget;
        held &= ok;
        rows.push(vec![
            row.to_string(),
            count.to_string(),
            format!("{p50:.0}"),
            format!("{p50_budget:.0}"),
            format!("{p99:.0}"),
            format!("{p99_budget:.0}"),
            if ok { "ok".into() } else { "BREACH".into() },
        ]);
    }

    print_table(
        out,
        &format!(
            "Overhead budget over {ITERATIONS} warm invocations ({} cold, {} warm, from GET /breakdown)",
            report.cold, report.warm
        ),
        &[
            "group", "samples", "p50 µs", "budget", "p99 µs", "budget", "status",
        ],
        &rows,
    )?;
    writeln!(
        out,
        "overhead budget: {}",
        if held { "PASS" } else { "FAIL" }
    )?;
    Ok(held)
}
