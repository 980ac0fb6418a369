//! Ablation — queue disciplines (§4.2): FCFS vs SJF vs EEDF vs RARE under a
//! bursty heterogeneous load.
//!
//! The interesting number is the latency of *short* functions when long
//! functions clog the queue: SJF/EEDF should protect them; FCFS should not.

use super::sim_worker;
use crate::{pctl, print_table};
use iluvatar::prelude::*;
use iluvatar::WorkerTarget;
use iluvatar_core::config::{ConcurrencyConfig, QueueConfig};
use iluvatar_trace::loadgen::{InvokerTarget, OpenLoopRunner, ScheduledInvocation};
use std::io::{self, Write};
use std::sync::Arc;

const DURATION_MS: u64 = 8_000;

fn build_schedule() -> Vec<ScheduledInvocation> {
    let mut schedule = Vec::new();
    // Short function: every 40ms. Long functions: bursts of 6 every 800ms.
    let mut t = 0;
    while t < DURATION_MS {
        schedule.push(ScheduledInvocation {
            at_ms: t,
            fqdn: "short-1".into(),
            args: "{}".into(),
            tenant: None,
        });
        t += 40;
    }
    let mut t = 100;
    while t < DURATION_MS {
        for k in 0..6 {
            schedule.push(ScheduledInvocation {
                at_ms: t + k,
                fqdn: "long-1".into(),
                args: "{}".into(),
                tenant: None,
            });
        }
        t += 800;
    }
    schedule
}

fn measure(policy: QueuePolicyKind) -> Vec<String> {
    let cfg = WorkerConfig {
        name: "abl-q".into(),
        cores: 4,
        memory_mb: 16 * 1024,
        queue: QueueConfig {
            policy,
            ..Default::default()
        },
        concurrency: ConcurrencyConfig {
            limit: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let worker = Arc::new(sim_worker(cfg, 1.0));
    worker
        .register(FunctionSpec::new("short", "1").with_timing(15, 40))
        .unwrap();
    worker
        .register(FunctionSpec::new("long", "1").with_timing(300, 600))
        .unwrap();
    // Prime both so measurement is warm-dominated.
    worker.invoke_tenant("short-1", "{}", None).unwrap();
    worker.invoke_tenant("long-1", "{}", None).unwrap();

    let runner = OpenLoopRunner::new(build_schedule());
    let out = runner.run(Arc::new(WorkerTarget(Arc::clone(&worker))) as Arc<dyn InvokerTarget>);
    let short_lat: Vec<f64> = out
        .iter()
        .filter(|o| o.fqdn == "short-1" && !o.dropped)
        .map(|o| o.e2e_ms as f64)
        .collect();
    let long_lat: Vec<f64> = out
        .iter()
        .filter(|o| o.fqdn == "long-1" && !o.dropped)
        .map(|o| o.e2e_ms as f64)
        .collect();
    vec![
        policy.name().to_string(),
        format!("{:.0}", pctl(&short_lat, 0.5)),
        format!("{:.0}", pctl(&short_lat, 0.99)),
        format!("{:.0}", pctl(&long_lat, 0.5)),
        format!("{:.0}", pctl(&long_lat, 0.99)),
    ]
}

pub fn run(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    let rows: Vec<_> = QueuePolicyKind::all().into_iter().map(measure).collect();
    print_table(
        out,
        "Ablation: queue policy vs short/long function latency (ms, e2e)",
        &["policy", "short p50", "short p99", "long p50", "long p99"],
        &rows,
    )?;
    writeln!(out, "\nExpected shape: SJF/EEDF cut short-function latency vs FCFS; RARE favours the long (rarer) function.")?;
    Ok(true)
}
