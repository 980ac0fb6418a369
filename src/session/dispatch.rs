//! Pull dispatch: two workers lease from one plane, one dies mid-run, and
//! the lease TTL proves no accepted invocation is lost.
//!
//! A skewed two-tenant mix (weight-2 "hot" vs weight-1 "cold",
//! `--invocations`, default 48) is enqueued onto a WAL-backed
//! [`PullPlane`] in pull mode while two [`PullLoop`]s execute leases on
//! real simulated workers. At submission `--kill-at` (default: halfway)
//! one loop dies mid-flight — its held leases are abandoned, expire,
//! requeue exactly once, and the surviving worker (stealing from the dead
//! worker's shard) serves them. The session then asserts the pull-mode
//! contract:
//!
//! * **zero lost invocations** — every accepted id yields a result;
//! * **zero model violations** — the full lease telemetry stream replays
//!   clean through the conformance `DispatchModel`;
//! * **nothing stranded** — final queue depth and live-lease count are 0,
//!   and a fresh WAL replay has an empty pending set.
//!
//! The digest covers kill-timing-independent state only: the accepted
//! id→tenant map, per-tenant totals, and the drained-clean terminal facts.

use super::chaos::f_spec;
use super::{check, sim_worker, Args, Scratch};
use iluvatar_admission::{TenantRegistry, TenantSpec};
use iluvatar_conformance::Checker;
use iluvatar_core::wal::{self, Wal};
use iluvatar_dispatch::{DispatchConfig, LeaseSource, PullLoop, PullPlane, PullTask, TaskExecutor};
use iluvatar_sync::{Fnv1a, SystemClock};
use iluvatar_telemetry::{TelemetryBus, TelemetrySink, VecSink};
use rand::{Rng, SeedableRng, StdRng};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub fn run(args: &Args) -> u64 {
    let seed = args.seed;
    let invocations = args.invocations.unwrap_or(48);
    let kill_at = args.kill_at.unwrap_or(invocations / 2);
    let scratch = Scratch::new("dispatch");
    let wal_path = scratch.file("dispatch.wal");

    let clock = SystemClock::shared();
    let sink = Arc::new(VecSink::new());
    let bus = TelemetryBus::new("lb", Arc::clone(&clock));
    bus.add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);

    // The plane: pull mode, short lease TTL so abandoned leases from the
    // killed loop requeue inside the run, seeded steal victim selection.
    let mut cfg = DispatchConfig::pull();
    cfg.lease_ttl_ms = 300;
    cfg.max_batch = 2;
    cfg.seed = seed;
    let plane = Arc::new(PullPlane::new(cfg, Arc::clone(&clock)));
    plane.set_telemetry(Arc::clone(&bus));
    plane.register_worker("w0");
    plane.register_worker("w1");
    let registry = Arc::new(TenantRegistry::new(Arc::clone(&clock)));
    registry.upsert(TenantSpec::new("hot").with_weight(2.0));
    registry.upsert(TenantSpec::new("cold").with_weight(1.0));
    plane.set_registry(registry);
    plane.attach_wal(Arc::new(
        Wal::open(Path::new(&wal_path), 1_000).expect("open wal"),
    ));

    // Two real workers behind pull loops: leases execute on a simulated
    // backend so service times are realistic but compressed.
    let spawn_loop = |name: &'static str| {
        let worker = sim_worker("test-worker", &clock);
        worker.register(f_spec()).expect("register");
        let exec: Arc<TaskExecutor> = Arc::new(move |t: &PullTask| {
            match worker.invoke_tenant(&t.fqdn, &t.args, t.tenant.as_deref()) {
                Ok(r) => (true, r.body, r.exec_ms),
                Err(e) => (false, e.to_string(), 0),
            }
        });
        PullLoop::spawn(
            Arc::clone(&plane) as Arc<dyn LeaseSource>,
            name.to_string(),
            2,
            Duration::from_millis(3),
            exec,
        )
    };
    let mut lp0 = Some(spawn_loop("w0"));
    let lp1 = spawn_loop("w1");

    // The skewed mix: ~75% of arrivals belong to the weight-2 tenant.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut accepted: Vec<(u64, &'static str)> = Vec::new();
    for i in 0..invocations {
        if i == kill_at {
            // The crash: w0 dies mid-flight, leases and all. No drain.
            lp0.take().expect("loop alive").kill();
        }
        let tenant = if rng.gen_bool(0.75) { "hot" } else { "cold" };
        let id = plane
            .enqueue("f-1", &format!("{{\"i\":{i}}}"), Some(tenant))
            .expect("accepted invocations are durable");
        accepted.push((id, tenant));
        clock.sleep_ms(2);
    }

    // Zero loss: every accepted id completes — killed-worker leases expire
    // (TTL 300ms), requeue exactly once, and w1 steals them from w0's shard.
    for (id, _) in &accepted {
        assert!(
            plane.wait(*id, 20_000).is_some(),
            "LOST: invocation {id} never completed after the worker kill"
        );
    }
    lp1.stop();
    plane.sweep();
    assert_eq!(plane.depth(), 0, "queues drained");
    assert_eq!(plane.live_leases(), 0, "no lease outlives the run");

    // The full lease stream must replay clean through the reference model:
    // no double-lease, requeue exactly once per expiry, no early expiry.
    let report = check(
        "dispatch",
        Checker::new().with_require_terminal(false),
        &sink.events(),
    );

    // Nothing stranded on disk either: a fresh replay of the plane's WAL
    // must find a durable Completed for every accepted Enqueued.
    let counters = plane.counters();
    drop(plane);
    let replayed = wal::replay(Path::new(&wal_path)).expect("replay wal");
    assert!(
        replayed.pending.is_empty(),
        "WAL replay found stranded invocations: {:?}",
        replayed.pending.iter().map(|p| p.id).collect::<Vec<_>>()
    );

    // Digest only kill-timing-independent state. How many leases expired,
    // requeued, or were stolen depends on where the crash landed relative
    // to in-flight executions — stderr material, never digest material.
    let mut digest = Fnv1a::new();
    for (id, tenant) in &accepted {
        digest.write(format!("{id}:{tenant};").as_bytes());
    }
    let hot = accepted.iter().filter(|(_, t)| *t == "hot").count();
    let cold = accepted.len() - hot;
    digest.write(format!("hot={hot};cold={cold};").as_bytes());
    digest.write(b"depth=0;leases=0;lost=0;violations=0;");

    eprintln!(
        "seed={seed} invocations={invocations} kill_at={kill_at} accepted={} hot={hot} cold={cold}",
        accepted.len()
    );
    eprintln!(
        "  plane: completed={} issued={} stolen={} expired={} requeued={} dead_completions={}",
        counters.completed,
        counters.issued,
        counters.stolen,
        counters.expired,
        counters.requeued,
        counters.dead_completions
    );
    eprintln!(
        "  stream: {} events, 0 violations; wal pending after replay: 0",
        report.events
    );
    digest.finish()
}
