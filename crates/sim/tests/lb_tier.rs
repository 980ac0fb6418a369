//! The production `Cluster` and `Fleet` over virtual-time [`SimWorker`]s:
//! the `WorkerHandle` contract the balancer relies on, then the routing and
//! fleet-dynamics shapes the LB-tier ablations report (the tests that lived
//! in `sim::cluster` and `sim::elastic`, restated over the real tier).

use iluvatar_autoscale::{
    AutoscaleConfig, ScaleDirection, ScaleEvent, ScalingDecision, ScalingPolicyKind,
};
use iluvatar_core::config::KeepalivePolicyKind;
use iluvatar_core::InvokeError;
use iluvatar_lb::chbl::ChBlConfig;
use iluvatar_lb::{BreakerConfig, Cluster, Fleet, LbPolicy, WorkerHandle};
use iluvatar_sim::{SimConfig, SimOutcome, SimWorker};
use iluvatar_sync::ManualClock;
use iluvatar_trace::azure::{FunctionProfile, TraceEvent};
use parking_lot::Mutex;
use std::sync::Arc;

fn profiles(n: usize, warm_ms: u64, init_ms: u64) -> Vec<FunctionProfile> {
    let profile = |i| FunctionProfile {
        fqdn: format!("f{i}"),
        app: 0,
        mean_iat_ms: 1_000.0,
        warm_ms,
        init_ms,
        memory_mb: 128,
        diurnal: false,
    };
    (0..n).map(profile).collect()
}

fn worker_cfg(cache_mb: u64, slots: usize) -> SimConfig {
    let mut c = SimConfig::new(KeepalivePolicyKind::Gdsf, cache_mb);
    c.concurrency = Some(slots);
    c.backlog_cap = 10_000;
    c
}

fn chbl() -> LbPolicy {
    LbPolicy::ChBl(ChBlConfig::default())
}

/// (warm, cold, dropped) over every worker.
fn totals(outcomes: &[SimOutcome]) -> (u64, u64, u64) {
    let sum = |f: fn(&SimOutcome) -> u64| outcomes.iter().map(f).sum();
    (sum(|o| o.warm), sum(|o| o.cold), sum(|o| o.dropped))
}

#[test]
fn sim_worker_keeps_the_worker_handle_contract() {
    // One slot and a 10 s function: arrivals queue.
    let clock = Arc::new(ManualClock::new());
    let fns = profiles(3, 10_000, 1_000);
    let worker = |n| SimWorker::new(n, fns.clone(), worker_cfg(1_024, 1), clock.clone());
    let [w0, w1] = ["w0", "w1"].map(worker);
    let handles = || -> Vec<Arc<dyn WorkerHandle>> { vec![w0.clone(), w1.clone()] };
    let cluster = Arc::new(Cluster::with_capacity(
        handles(),
        chbl(),
        BreakerConfig::default(),
        2,
    ));
    let mut scale = AutoscaleConfig::enabled_with(ScalingPolicyKind::ReactiveQueueDelay);
    scale.max_workers = 2;
    let never = |_: usize| Err::<Arc<dyn WorkerHandle>, String>("no spawn here".into());
    let fleet = Fleet::new(cluster.clone(), Box::new(never), scale);

    // w0 has kept f0 warm for a minute; w1 has only just taken three f1
    // arrivals — one executing, two backlogged, residency still zero — so
    // w1 is the least-warm victim.
    assert!(
        w0.invoke_tenant("f0", "", None).unwrap().cold,
        "nothing was warm"
    );
    clock.set(60_000);
    (0..3).for_each(|_| drop(w1.invoke_tenant("f1", "", None).unwrap()));
    let st = w1.stats();
    assert_eq!((st.running, st.queue_len, st.drain_pending), (1, 2, 3));
    assert_eq!(w1.load(), 3.0, "(executing + backlogged) / slots");
    assert!(w0.warm_profile()[0].1 > 0.0 && st.warm_gb_s == 0.0);

    // A round-robin balancer whose only probe round (its construction) ran
    // before the drain below: it has not heard of it.
    let unaware = Cluster::new(handles(), LbPolicy::RoundRobin);
    let down = ScalingDecision::ScaleDown {
        remove: 1,
        reason: "test",
    };
    fleet.apply(&down, 60_000).unwrap().expect("journaled");
    assert!(w1.is_draining() && !w0.is_draining());
    assert!(w1.probe().draining && w1.stats().lifecycle == "draining");
    assert_eq!(fleet.handoffs(), 1, "f1 was prewarmed on the survivor");

    // A draining handle answers 503, and a balancer that has not heard of
    // the drain re-routes on it: w0 takes both.
    assert!(matches!(
        w1.invoke_tenant("f2", "", None),
        Err(InvokeError::ShuttingDown)
    ));
    let served: Vec<_> = (0..2)
        .map(|_| unaware.invoke_tenant("f1", "", None).unwrap())
        .collect();
    assert!(!served[0].cold, "the handed-off container served f1 warm");
    assert_eq!(unaware.stats().rerouted, 1);

    // The backlog keeps finishing while draining — 11 s cold, then two
    // 10 s warm runs — and `reap` detaches only once it is empty.
    clock.set(75_000);
    assert_eq!((fleet.reap(), cluster.live()), (0, 2), "two still to run");
    assert_eq!(w1.stats().queue_delay_ms, 11_000);
    clock.set(91_000);
    assert_eq!((fleet.reap(), cluster.live()), (1, 1), "backlog empty");

    // Through the handle alone: a prewarm makes the next arrival warm.
    w0.prewarm("f2").unwrap();
    clock.set(200_000);
    assert!(!w0.invoke_tenant("f2", "", None).unwrap().cold);
    // 1 + 3 + 2 + 1 arrivals were accepted; each is counted exactly once.
    let (warm, cold, dropped) = totals(&[w0.finish(300_000), w1.finish(300_000)]);
    assert_eq!((warm, cold, dropped), (5, 2, 0));
}

/// What one replay left behind.
struct Replay {
    /// Every worker that ever ran, spawn order.
    outcomes: Vec<SimOutcome>,
    dispatched: Vec<u64>,
    events: Vec<ScaleEvent>,
    /// `(t_ms, live)` after each control tick.
    fleet_sizes: Vec<(u64, usize)>,
    handoffs: u64,
}

impl Replay {
    fn has(&self, d: ScaleDirection) -> bool {
        self.events.iter().any(|e| e.direction == d)
    }
}

/// `trace` through a `Cluster` under `policy`; with `autoscale`, through a
/// `Fleet` over it as well — the clock steps to each due control tick, then
/// to each arrival. `seed` workers exist from the start.
fn replay(
    profiles: &[FunctionProfile],
    cfg: SimConfig,
    policy: LbPolicy,
    seed: usize,
    autoscale: Option<AutoscaleConfig>,
    trace: &[TraceEvent],
) -> Replay {
    let clock = Arc::new(ManualClock::new());
    let spawned: Arc<Mutex<Vec<Arc<SimWorker>>>> = Arc::default();
    let spawn = {
        let (clock, spawned, profiles) = (clock.clone(), spawned.clone(), profiles.to_vec());
        move |seq: usize| -> Result<Arc<dyn WorkerHandle>, String> {
            let name = format!("elastic-{seq}");
            let w = SimWorker::new(name, profiles.clone(), cfg.clone(), clock.clone());
            spawned.lock().push(w.clone());
            Ok(w)
        }
    };
    let capacity = autoscale.as_ref().map_or(seed, |a| a.max_workers);
    let cluster = Arc::new(Cluster::with_capacity(
        (0..seed).map(|i| spawn(i).unwrap()).collect(),
        policy,
        BreakerConfig::default(),
        capacity,
    ));
    let interval = autoscale.as_ref().map_or(u64::MAX, |a| a.interval_ms);
    let fleet = autoscale.map(|a| Fleet::new(cluster.clone(), Box::new(spawn), a));
    let mut fleet_sizes = Vec::new();
    let mut next_tick = interval;
    let mut tick_until = |t: u64| {
        while let (Some(fleet), true) = (&fleet, next_tick <= t) {
            clock.set(next_tick);
            fleet.tick(next_tick).expect("tick");
            fleet_sizes.push((next_tick, fleet.live()));
            next_tick += interval;
        }
    };
    for e in trace {
        tick_until(e.time_ms);
        clock.set(e.time_ms);
        let fqdn = &profiles[e.func as usize].fqdn;
        if let Some(fleet) = &fleet {
            fleet.note_arrival(fqdn);
        }
        // Fresh loads per arrival, as the LB-tier figures route.
        cluster.probe_round();
        let served = cluster.invoke_tenant(fqdn, "", None);
        served.expect("the backlog cap is generous");
    }
    let end = trace.last().unwrap().time_ms;
    tick_until(end);
    let outcomes = spawned.lock().iter().map(|w| w.finish(end)).collect();
    Replay {
        outcomes,
        dispatched: cluster.stats().slots.iter().map(|s| s.dispatched).collect(),
        events: fleet.as_ref().map_or(Vec::new(), |f| f.events()),
        fleet_sizes,
        handoffs: fleet.as_ref().map_or(0, |f| f.handoffs()),
    }
}

/// `fns` functions in rotation, one arrival every `gap` ms, through
/// `workers` workers.
fn route(workers: usize, fns: u64, gap: u64, minutes: u64, policy: LbPolicy) -> Replay {
    let event = |k| TraceEvent {
        time_ms: k * gap,
        func: (k % fns) as u32,
    };
    let trace: Vec<_> = (0..minutes * 60_000 / gap).map(event).collect();
    let fns = profiles(fns as usize, 400, 2_000);
    replay(&fns, worker_cfg(2_048, 8), policy, workers, None, &trace)
}

#[test]
fn chbl_beats_round_robin_on_warm_ratio() {
    // 13 functions over 4 workers: coprime, so round robin really does
    // spray every function across every worker.
    let (_, chbl_cold, _) = totals(&route(4, 13, 500, 30, chbl()).outcomes);
    let (_, rr_cold, _) = totals(&route(4, 13, 500, 30, LbPolicy::RoundRobin).outcomes);
    // CH-BL needs at most one cold start per function per home worker;
    // round robin cold-starts every function on every worker. Both served
    // the same trace, so fewer cold starts is the higher warm ratio.
    assert!(chbl_cold < rr_cold, "CH-BL {chbl_cold} vs RR {rr_cold}");
}

#[test]
fn counts_conserved_across_workers() {
    let out = route(3, 8, 700, 10, LbPolicy::LeastLoaded);
    let (warm, cold, dropped) = totals(&out.outcomes);
    assert_eq!(warm + cold + dropped, 10 * 60_000 / 700);
    assert_eq!(out.dispatched.iter().sum::<u64>(), 10 * 60_000 / 700);
}

#[test]
fn round_robin_is_perfectly_balanced() {
    let out = route(4, 5, 1_000, 10, LbPolicy::RoundRobin);
    assert_eq!(out.dispatched, [150; 4]);
}

#[test]
fn chbl_trades_balance_for_locality() {
    // Hash placement is imperfectly balanced but must touch most workers
    // with 12 functions.
    let out = route(4, 12, 500, 10, chbl());
    let active = out.dispatched.iter().filter(|&&d| d > 0).count();
    assert!(active >= 3, "dispatched {:?}", out.dispatched);
}

/// Quiet → burst → quiet.
fn burst_trace() -> Vec<TraceEvent> {
    let mut ev = Vec::new();
    let mut push = |time_ms, func| ev.push(TraceEvent { time_ms, func });
    (0..60_000).step_by(2_000).for_each(|t| push(t, 0));
    // Burst: 8 fns × 1 event per 50 ms for a minute.
    for t in (60_000..120_000).step_by(50) {
        (0..8).for_each(|f| push(t, f));
    }
    (120_000..240_000).step_by(2_000).for_each(|t| push(t, 0));
    ev
}

/// The burst trace through a fleet of `min..=max` workers under `kind`.
fn elastic(kind: ScalingPolicyKind, min: usize, max: usize) -> Replay {
    let mut c = AutoscaleConfig::enabled_with(kind);
    (c.min_workers, c.max_workers) = (min, max);
    c.interval_ms = 1_000;
    c.scale_up_cooldown_ms = 1_000;
    c.scale_down_cooldown_ms = 10_000;
    let (fns, cfg) = (profiles(8, 200, 1_500), worker_cfg(2_048, 4));
    replay(&fns, cfg, chbl(), min, Some(c), &burst_trace())
}

// The tail of the burst trace is one function and CH-BL keeps it on one
// worker: the others go idle, and an idle worker reports no queue delay, so
// queue-delay control sees the quiet and shrinks the fleet.

#[test]
fn burst_grows_then_shrinks_the_fleet() {
    let out = elastic(ScalingPolicyKind::ReactiveQueueDelay, 1, 6);
    let peak = out.fleet_sizes.iter().map(|&(_, n)| n).max().unwrap();
    assert!(peak >= 3, "burst must grow the fleet, peak {peak}");
    let last = out.fleet_sizes.last().unwrap().1;
    assert_eq!(last, 1, "quiet tail must shrink back to the floor");
    assert!(out.has(ScaleDirection::Up) && out.has(ScaleDirection::Down));
    // Elasticity must not drop work: the backlog cap is generous.
    let (warm, cold, dropped) = totals(&out.outcomes);
    assert_eq!((warm + cold, dropped), (burst_trace().len() as u64, 0));
}

#[test]
fn scale_down_evictions_are_tracked_and_recovered() {
    let out = elastic(ScalingPolicyKind::ReactiveQueueDelay, 1, 6);
    assert!(out.has(ScaleDirection::Down), "the quiet tail scales down");
    // The burst spread fns 1..8 over the scaled-up workers; draining them
    // strands warm containers, and the fleet answers each drain by handing
    // the victim's hottest functions to a survivor — where each one either
    // lands as a ready container (GDSF schedules no preloads of its own) or
    // finds one already idle.
    let landed: u64 = out.outcomes.iter().map(|o| o.preloads).sum();
    assert!(
        (1..=out.handoffs).contains(&landed),
        "{landed} prewarmed containers from {} handoffs",
        out.handoffs
    );
}

#[test]
fn replay_is_deterministic() {
    let run = || {
        let out = elastic(ScalingPolicyKind::PredictiveMpc, 1, 6);
        let counts = totals(&out.outcomes);
        (out.events, out.fleet_sizes, out.handoffs, counts)
    };
    assert_eq!(run(), run(), "scale events, sizes and counts replay alike");
}

#[test]
fn bigger_static_fleet_wastes_more_warm_memory() {
    // Pin min == max: a degenerate "autoscaler" that holds N workers.
    let fixed = |n| elastic(ScalingPolicyKind::ReactiveQueueDelay, n, n);
    // Mean occupancy over the same span, summed over the fleet.
    let warm_mb = |r: &Replay| r.outcomes.iter().map(|o| o.mean_used_mb).sum::<f64>();
    let (small, big) = (fixed(1), fixed(6));
    assert!(
        warm_mb(&big) > warm_mb(&small),
        "6 always-on workers must hold more warm memory: {} vs {}",
        warm_mb(&big),
        warm_mb(&small)
    );
    assert!(big.events.is_empty() && big.fleet_sizes.iter().all(|&(_, n)| n == 6));
}

#[test]
fn mpc_preprovisions_no_later_than_reactive() {
    let first_up = |kind| {
        let events = elastic(kind, 1, 6).events;
        let up = events.iter().find(|e| e.direction == ScaleDirection::Up);
        up.map_or(u64::MAX, |e| e.t_ms)
    };
    let mpc = first_up(ScalingPolicyKind::PredictiveMpc);
    let reactive = first_up(ScalingPolicyKind::ReactiveQueueDelay);
    assert!(
        mpc <= reactive,
        "MPC {mpc}ms should not lag reactive {reactive}ms"
    );
}
