//! Ablation — elastic-fleet scaling policies.
//!
//! Sweeps the three `iluvatar-autoscale` controllers (reactive queue-delay,
//! concurrency-target, MPC-lite) plus fixed-fleet baselines over an
//! Azure-style synthetic trace. The production [`Fleet`] observes, decides,
//! picks drain victims, hands warm containers off and reaps, over a CH-BL
//! [`Cluster`] of virtual-time [`SimWorker`]s; this file only steps the
//! clock and measures. The trade-off under test: a bigger (or
//! faster-growing) fleet lowers the cold-start ratio but burns more warm
//! memory while idle — reported here as cold ratio vs warm GB·seconds.

use crate::print_table;
use iluvatar_autoscale::{AutoscaleConfig, ScaleDirection, ScaleEvent, ScalingPolicyKind};
use iluvatar_core::config::KeepalivePolicyKind;
use iluvatar_lb::chbl::ChBlConfig;
use iluvatar_lb::{BreakerConfig, Cluster, Fleet, LbPolicy, WorkerHandle};
use iluvatar_sim::{SimConfig, SimWorker};
use iluvatar_sync::ManualClock;
use iluvatar_trace::azure::{AzureTraceConfig, FunctionProfile, SyntheticAzureTrace};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::sync::Arc;

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

fn live(workers: &[Arc<SimWorker>]) -> impl Iterator<Item = &Arc<SimWorker>> {
    workers.iter().filter(|w| !w.is_draining())
}

/// The production fleet over simulated workers, and what one replay of the
/// trace through it measured.
struct Replay {
    clock: Arc<ManualClock>,
    /// Every worker the factory ever spawned, oldest first.
    spawned: Arc<Mutex<Vec<Arc<SimWorker>>>>,
    fleet: Fleet,
    // Integrals over live (attached, not draining) workers, rectangle rule
    // between steps: fleet size, and keep-alive cache occupancy — the
    // memory bill for keeping containers warm.
    last_t: u64,
    fleet_ms: f64,
    warm_mb_ms: f64,
    peak_fleet: usize,
    /// fqdn → drain time, for functions a scale-down left warm nowhere
    /// (after the handoff); what remains at the end never arrived again.
    stranded: BTreeMap<String, u64>,
    /// Per stranded function: ms from the drain decision until its next
    /// arrival has a warm container — plus its init when that arrival
    /// cold-starts.
    recovery_ms: Vec<u64>,
    warm: u64,
    cold: u64,
    dropped: u64,
}

impl Replay {
    fn run(trace: &SyntheticAzureTrace, cfg: AutoscaleConfig) -> io::Result<Self> {
        let clock = Arc::new(ManualClock::new());
        let spawned: Arc<Mutex<Vec<Arc<SimWorker>>>> = Arc::default();
        let spawn = {
            let (clock, spawned, profiles) =
                (clock.clone(), spawned.clone(), trace.profiles.clone());
            move |seq: usize| -> Result<Arc<dyn WorkerHandle>, String> {
                let name = format!("elastic-{seq}");
                let w = SimWorker::new(name, profiles.clone(), worker_cfg(), clock.clone());
                spawned.lock().push(w.clone());
                Ok(w)
            }
        };
        let seed: Result<Vec<_>, _> = (0..cfg.min_workers).map(&spawn).collect();
        let cluster = Arc::new(Cluster::with_capacity(
            seed.map_err(io::Error::other)?,
            LbPolicy::ChBl(ChBlConfig::default()),
            BreakerConfig::default(),
            cfg.max_workers,
        ));
        let interval = cfg.interval_ms;
        let mut r = Self {
            clock,
            spawned,
            fleet: Fleet::new(cluster, Box::new(spawn), cfg),
            last_t: 0,
            fleet_ms: 0.0,
            warm_mb_ms: 0.0,
            peak_fleet: 0,
            stranded: BTreeMap::new(),
            recovery_ms: Vec::new(),
            warm: 0,
            cold: 0,
            dropped: 0,
        };
        // Due control intervals, then the arrival: what `LbApi` and its
        // `lb-autoscale` task do on the wall clock.
        let end = trace.events.last().map_or(0, |e| e.time_ms);
        let mut due = (interval..=end).step_by(interval as usize).peekable();
        for e in &trace.events {
            while let Some(t) = due.next_if(|&t| t <= e.time_ms) {
                r.tick(t)?;
            }
            r.arrive(e.time_ms, &trace.profiles[e.func as usize]);
        }
        due.try_for_each(|t| r.tick(t))?;
        let workers = r.spawned.lock().clone();
        r.integrate_to(end, &workers);
        for o in workers.iter().map(|w| w.finish(end)) {
            r.warm += o.warm;
            r.cold += o.cold;
            r.dropped += o.dropped;
        }
        Ok(r)
    }

    fn integrate_to(&mut self, t: u64, workers: &[Arc<SimWorker>]) {
        let dt = (t - self.last_t) as f64;
        for w in live(workers) {
            self.fleet_ms += dt;
            self.warm_mb_ms += w.used_mb() as f64 * dt;
        }
        self.last_t = t;
    }

    fn tick(&mut self, t: u64) -> io::Result<()> {
        self.clock.set(t);
        let before: Vec<Arc<SimWorker>> = live(&self.spawned.lock()).cloned().collect();
        let event = self.fleet.tick(t).map_err(io::Error::other)?;
        // The tick advanced every attached worker to `t`; the interval that
        // just ended belongs to the fleet that was live during it.
        self.integrate_to(t, &before);
        let spawned = self.spawned.clone();
        let workers = spawned.lock();
        self.peak_fleet = self.peak_fleet.max(live(&workers).count());
        if event.is_some_and(|e| e.direction == ScaleDirection::Down) {
            // A draining worker takes no arrivals, so a function warm only
            // on the victims lost its warm capacity at this decision.
            let kept: BTreeSet<String> = live(&workers)
                .flat_map(|w| w.warm_profile())
                .map(|(fqdn, _)| fqdn)
                .collect();
            for victim in before.iter().filter(|w| w.is_draining()) {
                for (fqdn, _) in victim.warm_profile() {
                    if !kept.contains(&fqdn) {
                        self.stranded.entry(fqdn).or_insert(t);
                    }
                }
            }
        }
        Ok(())
    }

    fn arrive(&mut self, t: u64, p: &FunctionProfile) {
        self.clock.set(t);
        let spawned = self.spawned.clone();
        self.integrate_to(t, &spawned.lock());
        self.fleet.note_arrival(&p.fqdn);
        // Route on fresh loads: a probe round per arrival (production
        // probes once per scrape period).
        let cluster = self.fleet.cluster();
        cluster.probe_round();
        // A full backlog is the only refusal, and the worker counts it.
        if let Ok(served) = cluster.invoke_tenant(&p.fqdn, "", None) {
            if let Some(drained_at) = self.stranded.remove(&p.fqdn) {
                let init = if served.cold { p.init_ms } else { 0 };
                self.recovery_ms.push(t - drained_at + init);
            }
        }
    }

    fn cold_ratio(&self) -> f64 {
        self.cold as f64 / (self.warm + self.cold).max(1) as f64
    }

    fn warm_gb_s(&self) -> f64 {
        self.warm_mb_ms / 1024.0 / 1000.0
    }

    fn row(&self, label: &str) -> Vec<String> {
        // `n` counts recovered functions; `+k` those still cold at the end.
        let (n, k) = (self.recovery_ms.len(), self.stranded.len());
        let recov = if n + k == 0 {
            "-".to_string()
        } else {
            format!(
                "{:.0}/{} (n={n}{})",
                self.recovery_ms.iter().sum::<u64>() as f64 / n.max(1) as f64,
                self.recovery_ms.iter().max().unwrap_or(&0),
                if k > 0 {
                    format!("+{k}")
                } else {
                    String::new()
                }
            )
        };
        vec![
            label.to_string(),
            format!("{:.4}", self.cold_ratio()),
            format!("{:.1}", self.warm_gb_s()),
            format!("{:.2}", self.fleet_ms / self.last_t.max(1) as f64),
            self.peak_fleet.to_string(),
            self.fleet.events().len().to_string(),
            self.fleet.handoffs().to_string(),
            self.dropped.to_string(),
            recov,
        ]
    }
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

    let mut runs = Vec::new();
    for kind in ScalingPolicyKind::all() {
        runs.push((
            kind.name().to_string(),
            Replay::run(&trace, scale_cfg(kind))?,
        ));
    }
    let controllers = runs.len();
    for n in [1, MAX_WORKERS] {
        runs.push((format!("fixed-{n}"), Replay::run(&trace, fixed_cfg(n))?));
    }
    let rows: Vec<Vec<String>> = runs.iter().map(|(label, r)| r.row(label)).collect();
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
            "handoffs",
            "dropped",
            "recov mean/max ms",
        ],
        &rows,
    )?;
    writeln!(out, "\nExpected shape: every controller lands between the fixed fleets — it drops nothing, its cold ratio is at or below fixed-1's and its warm GB*s a fraction of fixed-max's. Reactive and MPC reach the same cold ratio, MPC on less warm memory; concurrency-target holds the smallest fleet and pays for it in cold starts. Each scale-down hands its victim's hottest functions to survivors (handoffs).")?;

    let total = trace.events.len() as u64;
    let (fixed_1, fixed_max) = (&runs[controllers].1, &runs[controllers + 1].1);
    let conserved = runs
        .iter()
        .all(|(_, r)| r.warm + r.cold + r.dropped == total);
    let controllers_hold = runs[..controllers].iter().all(|(_, r)| {
        let shrank = |e: &ScaleEvent| e.direction == ScaleDirection::Down;
        r.dropped == 0
            && r.cold_ratio() <= fixed_1.cold_ratio()
            && r.warm_gb_s() < fixed_max.warm_gb_s()
            && (r.fleet.handoffs() >= 1 || !r.fleet.events().iter().any(shrank))
    });
    Ok(conserved && controllers_hold)
}
