//! Ablation — elastic-fleet scaling policies.
//!
//! Sweeps the three `iluvatar-autoscale` controllers (reactive queue-delay,
//! concurrency-target, MPC-lite) plus fixed-fleet baselines over an
//! Azure-style synthetic trace, in the elastic discrete-event simulator.
//! The trade-off under test: a bigger (or faster-growing) fleet lowers the
//! cold-start ratio but burns more warm memory while idle — reported here
//! as cold ratio vs wasted warm GB·seconds.

use crate::print_table;
use iluvatar_autoscale::{AutoscaleConfig, ScalingPolicyKind};
use iluvatar_core::config::KeepalivePolicyKind;
use iluvatar_sim::{ElasticClusterSim, ElasticOutcome, SimConfig};
use iluvatar_trace::azure::{AzureTraceConfig, SyntheticAzureTrace};
use std::io::{self, Write};

const MAX_WORKERS: usize = 8;
const CACHE_MB: u64 = 2_048;

fn worker_cfg() -> SimConfig {
    let mut c = SimConfig::new(KeepalivePolicyKind::Gdsf, CACHE_MB);
    // Invoker slots per worker: queues form when a worker saturates, which
    // is exactly the signal the controllers act on.
    c.concurrency = Some(8);
    c.backlog_cap = 100_000;
    c
}

fn scale_cfg(kind: ScalingPolicyKind) -> AutoscaleConfig {
    let mut c = AutoscaleConfig::enabled_with(kind);
    c.min_workers = 1;
    c.max_workers = MAX_WORKERS;
    c.interval_ms = 2_000;
    c.scale_up_cooldown_ms = 2_000;
    c.scale_down_cooldown_ms = 30_000;
    c.max_step = 2;
    c
}

/// A fixed fleet expressed as a degenerate autoscale config (min == max).
fn fixed_cfg(n: usize) -> AutoscaleConfig {
    let mut c = scale_cfg(ScalingPolicyKind::ReactiveQueueDelay);
    c.min_workers = n;
    c.max_workers = n;
    c
}

fn row(label: String, out: &ElasticOutcome) -> Vec<String> {
    // Scale-down eviction recovery: how long evicted tenants stay cold
    // after a drain destroys their only warm residency. `n` counts
    // recovered evictions; `+k` counts functions still cold at trace end.
    let recov = if out.evicted_recovery_ms.is_empty() && out.evicted_unrecovered == 0 {
        "-".to_string()
    } else {
        format!(
            "{:.0}/{:.0} (n={}{})",
            out.mean_recovery_ms(),
            out.max_recovery_ms(),
            out.evicted_recovery_ms.len(),
            if out.evicted_unrecovered > 0 {
                format!("+{}", out.evicted_unrecovered)
            } else {
                String::new()
            }
        )
    };
    vec![
        label,
        format!("{:.4}", out.cold_ratio()),
        format!("{:.1}", out.warm_gb_seconds),
        format!("{:.2}", out.mean_fleet),
        out.peak_fleet.to_string(),
        out.events.len().to_string(),
        out.total_dropped().to_string(),
        recov,
    ]
}

pub fn run(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    let trace = SyntheticAzureTrace::generate(&AzureTraceConfig {
        apps: 120,
        duration_ms: 4 * 3600 * 1000,
        seed: 0xE1A5,
        diurnal_fraction: 0.5,
        rate_scale: 1.0,
    });
    eprintln!(
        "elastic fleet 1..{MAX_WORKERS} x {CACHE_MB}MB; trace {} functions / {} invocations",
        trace.profiles.len(),
        trace.events.len()
    );

    let mut rows = Vec::new();
    for kind in ScalingPolicyKind::all() {
        let outcome = ElasticClusterSim::run(
            trace.profiles.clone(),
            &trace.events,
            worker_cfg(),
            scale_cfg(kind),
        );
        rows.push(row(kind.name().to_string(), &outcome));
    }
    for n in [1, MAX_WORKERS] {
        let outcome = ElasticClusterSim::run(
            trace.profiles.clone(),
            &trace.events,
            worker_cfg(),
            fixed_cfg(n),
        );
        rows.push(row(format!("fixed-{n}"), &outcome));
    }
    print_table(
        out,
        "Ablation: autoscaling policy — cold starts vs wasted warm memory",
        &[
            "policy",
            "cold ratio",
            "warm GB*s",
            "mean fleet",
            "peak",
            "events",
            "dropped",
            "recov mean/max ms",
        ],
        &rows,
    )?;
    writeln!(out, "\nExpected shape: every controller lands between the fixed fleets — near fixed-max cold ratio at a fraction of its warm GB*s, with MPC growing earliest on ramps.")?;
    Ok(true)
}
