//! Autoscale: ride a seeded burst over an elastic fleet and prove the
//! scaling run replays bit-identically.
//!
//! The session drives a real [`Fleet`] — live in-process workers behind
//! the cluster, spawn + spec replay + HalfOpen admission on the way up,
//! graceful drain + detach on the way down — with the control loop
//! evaluated on a *synthetic, seeded* observation stream: a quiet → burst
//! → quiet arrival profile run through a fluid backlog model. Time is the
//! tick index, never a wall clock, so the policy's decision sequence is a
//! pure function of the seed; worker spawn/drain timing cannot leak in.
//! The digest covers the scale-event sequence, the fleet-size trajectory,
//! and the invocation totals.

use super::{sim_worker, Args};
use iluvatar_autoscale::{AutoscaleConfig, FleetObservation, ScalingPolicyKind};
use iluvatar_containers::FunctionSpec;
use iluvatar_core::TelemetryBus;
use iluvatar_lb::cluster::WorkerHandle;
use iluvatar_lb::{BreakerConfig, Cluster, Fleet, LbPolicy};
use iluvatar_sync::{Clock, Fnv1a};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const POLICY: &str = "reactive-queue-delay";
const TICKS: u64 = 48;

/// What one burst run observed; all of it schedule-independent.
pub(super) struct Burst {
    /// `t{ms}:live={n};` per tick.
    pub trajectory: String,
    /// `e:{t}:{direction}:{reason}:{from}->{to};` per scale event.
    pub events: String,
    pub invoked: u64,
    pub peak_live: usize,
    pub stopped: u64,
}

/// Run the burst. `bus`, when given, carries the cluster's membership +
/// breaker events and the fleet's scale events (the `api.rs` wiring).
/// Asserts the elastic contract: the burst grows the fleet (1 → ≥3), the
/// quiet tail shrinks it back to the floor, and scale-down never costs an
/// invocation.
pub(super) fn burst(seed: u64, clock: &Arc<dyn Clock>, bus: Option<Arc<TelemetryBus>>) -> Burst {
    let policy = ScalingPolicyKind::all()
        .into_iter()
        .find(|k| k.name() == POLICY)
        .expect("policy");
    let mut cfg = AutoscaleConfig::enabled_with(policy);
    cfg.min_workers = 1;
    cfg.max_workers = 6;
    cfg.interval_ms = 500;
    cfg.scale_up_cooldown_ms = 500;
    cfg.scale_down_cooldown_ms = 2_000;
    cfg.max_step = 2;
    let interval_ms = cfg.interval_ms;

    // Real in-process workers over the simulated backend; the factory is
    // the same shape a distributed deployment would use to spawn nodes.
    let mk_worker = {
        let clock = Arc::clone(clock);
        move |name: String| -> Arc<dyn WorkerHandle> { Arc::new(sim_worker(&name, &clock)) }
    };
    let cluster = Arc::new(Cluster::with_capacity(
        vec![mk_worker("w0".to_string())],
        LbPolicy::ChBl(Default::default()),
        BreakerConfig::default(),
        cfg.max_workers,
    ));
    let factory = move |seq: usize| Ok(mk_worker(format!("elastic-{seq}")));
    let fleet = Fleet::new(Arc::clone(&cluster), Box::new(factory), cfg);
    if let Some(bus) = bus {
        cluster.set_telemetry(Arc::clone(&bus));
        fleet.set_telemetry(bus);
    }

    for i in 0..4 {
        let spec = FunctionSpec::new(format!("f{i}"), "1").with_timing(100, 400);
        cluster.register_all(spec.clone()).expect("register");
        fleet.remember_spec(spec);
    }

    // Seeded quiet → burst → quiet arrival profile, and a fluid backlog
    // model converting arrivals to the queue-delay signal: each worker
    // serves `service_per_tick` invocations per interval; backlog beyond
    // that waits, delay = backlog / fleet service rate.
    let mut rng = StdRng::seed_from_u64(seed);
    let service_per_tick = 10.0f64;
    let burst_ticks = TICKS / 4..TICKS / 2;
    let mut backlog = 0.0f64;
    let mut out = Burst {
        trajectory: String::new(),
        events: String::new(),
        invoked: 0,
        peak_live: 0,
        stopped: 0,
    };

    for tick in 0..TICKS {
        let t_ms = tick * interval_ms;
        let base = if burst_ticks.contains(&tick) {
            55.0
        } else {
            2.0
        };
        let jitter: f64 = rng.gen_range(0.0..5.0);
        let arrivals = (base + jitter).round() as u64;

        // Drive a few real invocations through the elastic cluster each
        // tick (synchronous, so their completion order cannot race the
        // digest): the fleet being scaled is actually serving traffic.
        for i in 0..arrivals.min(6) {
            let fqdn = format!("f{}-1", (tick + i) % 4);
            fleet.note_arrival(&fqdn);
            cluster
                .invoke_tenant(&fqdn, "{}", None)
                .expect("elasticity must not drop invocations");
            out.invoked += 1;
        }

        let live = fleet.live().max(1);
        let capacity = live as f64 * service_per_tick;
        backlog = (backlog + arrivals as f64 - capacity).max(0.0);
        let delay_ms = backlog / capacity * interval_ms as f64;
        let per_fn: Vec<(String, u64)> = (0..4)
            .map(|i| {
                (
                    format!("f{i}-1"),
                    arrivals / 4 + u64::from(i < (arrivals % 4) as usize),
                )
            })
            .collect();
        let obs = FleetObservation {
            now_ms: t_ms,
            live,
            draining: fleet.draining(),
            queued: backlog.round() as u64,
            running: capacity.min(backlog + arrivals as f64).round() as u64,
            mean_queue_delay_ms: delay_ms,
            max_queue_delay_ms: delay_ms as u64,
            concurrency_limit: 8,
            pull_queue_depth: 0,
            arrivals,
            per_fn_arrivals: per_fn,
        };

        fleet.reap();
        let decision = fleet.evaluate(&obs);
        fleet.apply(&decision, t_ms).expect("apply decision");
        let live_now = fleet.live();
        out.peak_live = out.peak_live.max(live_now);
        out.trajectory
            .push_str(&format!("t{t_ms}:live={live_now};"));
    }
    // Let the tail of draining workers retire.
    loop {
        fleet.reap();
        if fleet.draining() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        out.peak_live >= 3,
        "burst must grow the fleet, peak {}",
        out.peak_live
    );
    assert_eq!(fleet.live(), 1, "quiet tail must return to min_workers");

    for e in &fleet.events() {
        out.events.push_str(&format!(
            "e:{}:{}:{}:{}->{};",
            e.t_ms,
            e.direction.label(),
            e.reason,
            e.from,
            e.to
        ));
    }
    out.stopped = fleet.stopped();
    out
}

pub fn run(args: &Args) -> u64 {
    let seed = args.seed;
    let b = burst(seed, &iluvatar_sync::SystemClock::shared(), None);

    let mut digest = Fnv1a::new();
    digest.write(format!("policy={POLICY};seed={seed};ticks={TICKS};").as_bytes());
    digest.write(b.trajectory.as_bytes());
    digest.write(b.events.as_bytes());
    // `burst` panics on a failed invocation, so the error count is 0.
    digest.write(format!("invoked={};errors=0;", b.invoked).as_bytes());

    eprintln!(
        "seed={seed} policy={POLICY} ticks={TICKS}: peak_live={} stopped={} invoked={} errors=0",
        b.peak_live, b.stopped, b.invoked
    );
    for e in b.events.split_terminator(';') {
        eprintln!("  {e}");
    }
    digest.finish()
}
