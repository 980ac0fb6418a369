//! Figure 1 — control-plane latency overhead vs concurrent invocations.
//!
//! Methodology (§2.3): "we are invoking the function repeatedly in a
//! closed-loop, and concurrent invocations are achieved by using multiple
//! client threads. All invocations are warm starts" on a 48-core server.
//! Overhead = end-to-end latency − function execution time, in µs (the
//! platform reports execution in whole ms, so the sub-ms remainder of the
//! 20 ms sleep counts as overhead for both systems); the figure plots p50
//! and p99 for OpenWhisk and Ilúvatar. Quick mode uses fewer points and
//! fewer invocations per point.

use super::sim_worker;
use crate::{pctl, print_table};
use iluvatar::prelude::*;
use iluvatar::{OpenWhiskTarget, WorkerTarget};
use iluvatar_core::config::ConcurrencyConfig;
use iluvatar_trace::loadgen::{closed_loop, ClosedLoopConfig, InvokerTarget};
use std::io::{self, Write};
use std::sync::Arc;

/// Closed loop of `clients` against `target`: p50 and p99 overhead, µs, of
/// the warm served invocations.
fn measure(target: Arc<dyn InvokerTarget>, clients: usize, per_client: usize) -> [String; 2] {
    let cfg = ClosedLoopConfig {
        clients,
        invocations_per_client: per_client,
        warmup_per_client: 5,
    };
    let over: Vec<f64> = closed_loop(target, "pyaes-1", &cfg)
        .iter()
        .filter(|o| !o.dropped && !o.cold)
        .map(|o| o.overhead_us() as f64)
        .collect();
    [0.5, 0.99].map(|q| format!("{:.0}", pctl(&over, q)))
}

pub fn run(out: &mut dyn Write, full: bool) -> io::Result<bool> {
    let clients_axis: &[usize] = if full {
        &[1, 2, 4, 8, 16, 32, 48, 64, 96]
    } else {
        &[1, 4, 16, 48]
    };
    let per_client = if full { 120 } else { 40 };
    // The Figure 1 workload: PyAES, a short warm function.
    let pyaes = FbApp::PyAes.spec(); // warm 20ms modelled

    let mut rows = Vec::new();
    for &clients in clients_axis {
        // ---- Ilúvatar worker over the null backend, wall-clock time ----
        let cfg = WorkerConfig {
            name: "fig1".into(),
            cores: 48,
            memory_mb: 64 * 1024,
            concurrency: ConcurrencyConfig {
                limit: 96,
                ..Default::default()
            },
            ..Default::default()
        };
        let worker = Arc::new(sim_worker(cfg, 1.0));
        worker.register(pyaes.clone()).unwrap();
        // Prewarm one container per client so every measured run is warm.
        for _ in 0..clients {
            worker.prewarm("pyaes-1").unwrap();
        }
        let ilu = measure(Arc::new(WorkerTarget(worker)), clients, per_client);

        // ---- OpenWhisk model, same environment -------------------------
        let ow = Arc::new(OpenWhiskModel::new(
            OpenWhiskConfig {
                cores: 48,
                invoker_slots: 96,
                ..Default::default()
            },
            SystemClock::shared(),
        ));
        ow.register(pyaes.clone());
        // Warm the pool.
        for _ in 0..clients {
            ow.invoke("pyaes-1");
        }
        let ow = measure(Arc::new(OpenWhiskTarget(ow)), clients, per_client);

        let mut row = vec![clients.to_string()];
        row.extend(ilu);
        row.extend(ow);
        rows.push(row);
    }

    print_table(
        out,
        "Figure 1: control-plane overhead (µs) vs concurrent clients (warm starts)",
        &[
            "clients",
            "iluvatar p50",
            "iluvatar p99",
            "openwhisk p50",
            "openwhisk p99",
        ],
        &rows,
    )?;
    writeln!(out, "\nExpected shape (paper, 48 cores): Ilúvatar ~1 000-3 000 µs flat (≤10 000 µs saturated); OpenWhisk ≥10 000 µs median with p99 tails in the 100 000s of µs.")?;
    Ok(true)
}
