//! Ablation — cluster load balancing (§3.1): CH-BL's locality against
//! round-robin and least-loaded, over a multi-worker discrete-event
//! simulation ("a large cluster can be simulated with multiple simulated
//! workers", §3.4).
//!
//! The paper's claim: CH-BL "runs functions on the same servers to maximize
//! warm starts, and forwards them to other servers only when the server's
//! load exceeds some pre-specified load-bound".

use crate::print_table;
use iluvatar_core::config::KeepalivePolicyKind;
use iluvatar_lb::chbl::ChBlConfig;
use iluvatar_sim::{ClusterSim, SimConfig, SimLbPolicy};
use iluvatar_trace::azure::{AzureTraceConfig, SyntheticAzureTrace};
use std::io::{self, Write};

const WORKERS: usize = 8;
const CACHE_MB: u64 = 4_096;

pub fn run(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    let trace = SyntheticAzureTrace::generate(&AzureTraceConfig {
        apps: 150,
        duration_ms: 4 * 3600 * 1000,
        seed: 0xC1,
        diurnal_fraction: 0.2,
        rate_scale: 1.0,
    });
    eprintln!(
        "cluster: {WORKERS} workers x {CACHE_MB}MB; trace {} functions / {} invocations",
        trace.profiles.len(),
        trace.events.len()
    );

    let mut rows = Vec::new();
    for policy in [
        SimLbPolicy::ChBl(ChBlConfig::default()),
        SimLbPolicy::RoundRobin,
        SimLbPolicy::LeastLoaded,
    ] {
        let out = ClusterSim::run(
            WORKERS,
            trace.profiles.clone(),
            &trace.events,
            SimConfig::new(KeepalivePolicyKind::Gdsf, CACHE_MB),
            policy,
        );
        rows.push(vec![
            out.policy.to_string(),
            format!("{:.4}", out.warm_ratio()),
            out.total_cold().to_string(),
            format!("{:.3}", out.dispatch_imbalance()),
            out.forwarded.to_string(),
        ]);
    }
    print_table(
        out,
        "Ablation: load-balancing policy over the simulated cluster",
        &[
            "policy",
            "warm ratio",
            "cold starts",
            "imbalance (CV)",
            "forwarded",
        ],
        &rows,
    )?;
    writeln!(out, "\nExpected shape: CH-BL's warm ratio beats RoundRobin/LeastLoaded (locality); its imbalance is higher but bounded by the load-bound forwarding.")?;
    Ok(true)
}
