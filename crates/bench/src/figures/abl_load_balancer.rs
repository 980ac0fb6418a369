//! Ablation — cluster load balancing (§3.1): CH-BL's locality against
//! round-robin and least-loaded. The production [`Cluster`] routes every
//! trace event over eight virtual-time [`SimWorker`]s ("a large cluster can
//! be simulated with multiple simulated workers", §3.4), on the load each
//! worker itself reports, probed afresh before every arrival.
//!
//! The paper's claim: CH-BL "runs functions on the same servers to maximize
//! warm starts, and forwards them to other servers only when the server's
//! load exceeds some pre-specified load-bound".

use crate::print_table;
use iluvatar_core::config::KeepalivePolicyKind;
use iluvatar_lb::chbl::ChBlConfig;
use iluvatar_lb::{Cluster, LbPolicy, WorkerHandle};
use iluvatar_sim::{SimConfig, SimWorker};
use iluvatar_sync::{ManualClock, Welford};
use iluvatar_trace::azure::{AzureTraceConfig, SyntheticAzureTrace};
use std::io::{self, Write};
use std::sync::Arc;

const WORKERS: usize = 8;
const CACHE_MB: u64 = 4_096;
/// Invoker slots per worker — what turns executing + backlogged into the
/// normalized load CH-BL bounds. The backlog never fills on this trace.
const SLOTS: usize = 8;
const BACKLOG_CAP: usize = 100_000;

/// Coefficient of variation of per-worker dispatch counts: 0 = perfect
/// balance; higher = skewed.
fn dispatch_cv(dispatched: &[u64]) -> f64 {
    let mut counts = Welford::new();
    dispatched.iter().for_each(|&d| counts.push(d as f64));
    counts.cov()
}

struct Row {
    warm: u64,
    cold: u64,
    dropped: u64,
    dispatched: Vec<u64>,
    forwarded: u64,
}

impl Row {
    fn warm_ratio(&self) -> f64 {
        self.warm as f64 / (self.warm + self.cold).max(1) as f64
    }
}

fn replay(trace: &SyntheticAzureTrace, policy: LbPolicy) -> Row {
    let mut cfg = SimConfig::new(KeepalivePolicyKind::Gdsf, CACHE_MB);
    cfg.concurrency = Some(SLOTS);
    cfg.backlog_cap = BACKLOG_CAP;
    let clock = Arc::new(ManualClock::new());
    let worker = |i| {
        let name = format!("w{i}");
        SimWorker::new(name, trace.profiles.clone(), cfg.clone(), clock.clone())
    };
    let workers: Vec<Arc<SimWorker>> = (0..WORKERS).map(worker).collect();
    let handles = workers.iter().map(|w| w.clone() as Arc<dyn WorkerHandle>);
    let cluster = Cluster::new(handles.collect(), policy);
    for e in &trace.events {
        clock.set(e.time_ms);
        // Route on fresh loads: a probe round per arrival (production
        // probes once per scrape period).
        cluster.probe_round();
        // A full backlog is the only refusal, and the worker counts it.
        let _ = cluster.invoke_tenant(&trace.profiles[e.func as usize].fqdn, "", None);
    }
    let end = trace.events.last().map_or(0, |e| e.time_ms);
    let outcomes: Vec<_> = workers.iter().map(|w| w.finish(end)).collect();
    let stats = cluster.stats();
    Row {
        warm: outcomes.iter().map(|o| o.warm).sum(),
        cold: outcomes.iter().map(|o| o.cold).sum(),
        dropped: outcomes.iter().map(|o| o.dropped).sum(),
        dispatched: stats.slots.iter().map(|s| s.dispatched).collect(),
        forwarded: stats.forwarded,
    }
}

pub fn run(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    let trace = SyntheticAzureTrace::generate(&AzureTraceConfig {
        apps: 150,
        duration_ms: 4 * 3600 * 1000,
        seed: 0xC1,
        diurnal_fraction: 0.2,
        rate_scale: 1.0,
    });
    eprintln!(
        "cluster: {WORKERS} workers x {CACHE_MB}MB x {SLOTS} slots; trace {} functions / {} invocations",
        trace.profiles.len(),
        trace.events.len()
    );

    let runs = [
        ("CH-BL", LbPolicy::ChBl(ChBlConfig::default())),
        ("RoundRobin", LbPolicy::RoundRobin),
        ("LeastLoaded", LbPolicy::LeastLoaded),
    ]
    .map(|(name, policy)| (name, replay(&trace, policy)));
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, r)| {
            vec![
                name.to_string(),
                format!("{:.4}", r.warm_ratio()),
                r.cold.to_string(),
                format!("{:.3}", dispatch_cv(&r.dispatched)),
                r.forwarded.to_string(),
                r.dropped.to_string(),
            ]
        })
        .collect();
    print_table(
        out,
        "Ablation: load-balancing policy, the production Cluster over simulated workers",
        &[
            "policy",
            "warm ratio",
            "cold starts",
            "imbalance (CV)",
            "forwarded",
            "dropped",
        ],
        &rows,
    )?;
    writeln!(out, "\nExpected shape: CH-BL's warm ratio beats RoundRobin/LeastLoaded (locality) and it pays for it in balance: each function stays on its home worker, and on this trace a home's reported load almost never crosses the bound c x max(1, mean), so almost nothing is forwarded. LeastLoaded resolves its frequent all-idle ties to the lowest slot, so it is not balanced either.")?;

    let [(_, chbl), (_, rr), (_, ll)] = &runs;
    let total = trace.events.len() as u64;
    let conserved = runs.iter().all(|(_, r)| {
        r.dropped == 0 && r.dispatched.iter().sum::<u64>() == total && r.warm + r.cold == total
    });
    Ok(conserved && chbl.warm_ratio() > rr.warm_ratio() && chbl.warm_ratio() > ll.warm_ratio())
}
