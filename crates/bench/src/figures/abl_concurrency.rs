//! Ablation — concurrency regulation (§4.1): fixed limits vs the AIMD
//! dynamic limit under a load the server cannot fully absorb.
//!
//! A too-low fixed limit wastes capacity (queueing inflates latency); a
//! too-high one admits everything immediately (fine for the null backend,
//! harmful with real CPU contention). AIMD should converge near the knee.

use super::sim_worker;
use crate::{pctl, print_table};
use iluvatar::prelude::*;
use iluvatar::WorkerTarget;
use iluvatar_core::config::ConcurrencyConfig;
use iluvatar_trace::loadgen::{closed_loop, ClosedLoopConfig, InvokerTarget};
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 32;
const PER_CLIENT: usize = 40;

fn measure(limit: usize, dynamic: bool) -> Vec<String> {
    let cfg = WorkerConfig {
        name: "abl-c".into(),
        cores: 8,
        memory_mb: 32 * 1024,
        concurrency: ConcurrencyConfig {
            limit,
            dynamic,
            congestion_load: 3.0,
            interval_ms: 50,
            max_limit: 256,
            ..Default::default()
        },
        ..Default::default()
    };
    let worker = Arc::new(sim_worker(cfg, 1.0));
    worker
        .register(FunctionSpec::new("f", "1").with_timing(40, 100))
        .unwrap();
    worker.invoke_tenant("f-1", "{}", None).unwrap();

    let start = Instant::now();
    let out = closed_loop(
        Arc::new(WorkerTarget(Arc::clone(&worker))) as Arc<dyn InvokerTarget>,
        "f-1",
        &ClosedLoopConfig {
            clients: CLIENTS,
            invocations_per_client: PER_CLIENT,
            warmup_per_client: 2,
        },
    );
    let wall_s = start.elapsed().as_secs_f64();
    let lat: Vec<f64> = out
        .iter()
        .filter(|o| !o.dropped)
        .map(|o| o.e2e_ms as f64)
        .collect();
    let served = lat.len();
    let final_limit = worker.status().concurrency_limit;
    vec![
        if dynamic {
            format!("AIMD (start {limit})")
        } else {
            format!("fixed {limit}")
        },
        format!("{:.0}", served as f64 / wall_s),
        format!("{:.0}", pctl(&lat, 0.5)),
        format!("{:.0}", pctl(&lat, 0.99)),
        final_limit.to_string(),
    ]
}

pub fn run(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    let mut rows = Vec::new();
    for limit in [2usize, 8, 32] {
        rows.push(measure(limit, false));
    }
    rows.push(measure(2, true));
    print_table(
        out,
        &format!("Ablation: concurrency limit under {CLIENTS} closed-loop clients (40ms warm fn)"),
        &[
            "regulator",
            "throughput/s",
            "e2e p50 ms",
            "e2e p99 ms",
            "final limit",
        ],
        &rows,
    )?;
    writeln!(out, "\nExpected shape: tiny fixed limits throttle throughput and inflate latency; AIMD grows its limit from 2 toward the load and approaches the large-fixed-limit throughput.")?;
    Ok(true)
}
