//! Integration: the elastic fleet — a seeded burst grows a cluster of real
//! in-process workers, the quiet tail drains it back, and scale-down never
//! costs an invocation.

use iluvatar::prelude::*;
use iluvatar_autoscale::{AutoscaleConfig, FleetObservation, ScaleDirection, ScalingPolicyKind};
use iluvatar_core::config::ConcurrencyConfig;
use iluvatar_http::{Method, PooledClient, Request};
use iluvatar_lb::cluster::WorkerHandle;
use iluvatar_lb::{BreakerConfig, Fleet, LbApi};
use std::sync::Arc;
use std::time::Duration;

fn mk_worker(name: &str) -> Arc<dyn WorkerHandle> {
    let clock = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.02,
            ..Default::default()
        },
    ));
    let cfg = WorkerConfig {
        name: name.into(),
        cores: 4,
        memory_mb: 2048,
        concurrency: ConcurrencyConfig {
            limit: 8,
            ..Default::default()
        },
        ..WorkerConfig::for_testing()
    };
    Arc::new(Worker::new(cfg, backend, clock))
}

fn elastic_fleet(cfg: AutoscaleConfig) -> (Arc<Cluster>, Fleet) {
    let cluster = Arc::new(Cluster::with_capacity(
        vec![mk_worker("e2e-0")],
        LbPolicy::ChBl(ChBlConfig::default()),
        BreakerConfig::default(),
        cfg.max_workers,
    ));
    let fleet = Fleet::new(
        Arc::clone(&cluster),
        Box::new(|seq: usize| Ok(mk_worker(&format!("e2e-{seq}")))),
        cfg,
    );
    (cluster, fleet)
}

/// The acceptance trajectory: a seeded burst must scale a real worker
/// fleet 1 → ≥3 → 1, serving every invocation along the way (workers are
/// drained, never killed).
#[test]
fn seeded_burst_scales_real_fleet_without_drops() {
    let mut cfg = AutoscaleConfig::enabled_with(ScalingPolicyKind::ReactiveQueueDelay);
    cfg.min_workers = 1;
    cfg.max_workers = 5;
    cfg.interval_ms = 500;
    cfg.scale_up_cooldown_ms = 500;
    cfg.scale_down_cooldown_ms = 1_500;
    cfg.max_step = 2;
    let interval_ms = cfg.interval_ms;
    let (cluster, fleet) = elastic_fleet(cfg);

    let specs: Vec<FunctionSpec> = (0..3)
        .map(|i| FunctionSpec::new(format!("ride{i}"), "1").with_timing(50, 300))
        .collect();
    for s in &specs {
        cluster.register_all(s.clone()).unwrap();
        fleet.remember_spec(s.clone());
    }

    // Quiet → burst → quiet arrivals through a fluid backlog model: each
    // worker retires 10 invocations per tick; the excess queues and its
    // modelled delay is the scaling signal. Invocations are real and
    // synchronous — a drop would surface as an Err from the cluster.
    let mut backlog = 0.0f64;
    let mut peak = 0usize;
    let mut errors = 0u64;
    let ticks = 36u64;
    for tick in 0..ticks {
        let arrivals: u64 = if (9..18).contains(&tick) { 60 } else { 2 };
        for i in 0..arrivals.min(5) {
            let fqdn = format!("ride{}-1", (tick + i) % 3);
            fleet.note_arrival(&fqdn);
            if cluster.invoke_tenant(&fqdn, "{}", None).is_err() {
                errors += 1;
            }
        }
        let live = fleet.live().max(1);
        let capacity = live as f64 * 10.0;
        backlog = (backlog + arrivals as f64 - capacity).max(0.0);
        let delay_ms = backlog / capacity * interval_ms as f64;
        let obs = FleetObservation {
            now_ms: tick * interval_ms,
            live,
            draining: fleet.draining(),
            queued: backlog.round() as u64,
            running: capacity.min(backlog + arrivals as f64).round() as u64,
            mean_queue_delay_ms: delay_ms,
            max_queue_delay_ms: delay_ms as u64,
            concurrency_limit: 8,
            pull_queue_depth: 0,
            arrivals,
            per_fn_arrivals: vec![("ride0-1".into(), arrivals)],
        };
        fleet.reap();
        let d = fleet.evaluate(&obs);
        fleet.apply(&d, tick * interval_ms).unwrap();
        peak = peak.max(fleet.live());
    }
    // Retire the drain tail.
    for _ in 0..200 {
        fleet.reap();
        if fleet.draining() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    assert!(peak >= 3, "burst must grow the fleet to >=3, peak {peak}");
    assert_eq!(fleet.live(), 1, "quiet tail must shrink back to the floor");
    assert_eq!(fleet.draining(), 0, "every drained worker must retire");
    assert_eq!(
        errors, 0,
        "scale-down must drain, not kill: zero dropped invocations"
    );

    // The journal tells the same story: growth first, shrink after, and
    // the retired-worker counter matches the down-steps.
    let events = fleet.events();
    let first_down = events
        .iter()
        .position(|e| e.direction == ScaleDirection::Down)
        .unwrap();
    assert!(
        events[..first_down]
            .iter()
            .all(|e| e.direction == ScaleDirection::Up),
        "no shrink before the burst peaks"
    );
    let shrunk: usize = events
        .iter()
        .filter(|e| e.direction == ScaleDirection::Down)
        .map(|e| e.from - e.to)
        .sum();
    assert_eq!(fleet.stopped() as usize, shrunk);
}

/// `GET /fleet` and `GET /metrics` surface the elastic state over HTTP:
/// fleet size, scale events, and per-worker breaker/draining telemetry.
#[test]
fn fleet_endpoint_and_metrics_over_http() {
    let mut cfg = AutoscaleConfig::enabled_with(ScalingPolicyKind::ReactiveQueueDelay);
    cfg.min_workers = 1;
    cfg.max_workers = 3;
    // Park the background loop: this test steers the fleet by hand.
    cfg.interval_ms = 3_600_000;
    let (cluster, fleet) = elastic_fleet(cfg);
    let spec = FunctionSpec::new("surge", "1").with_timing(40, 200);
    cluster.register_all(spec.clone()).unwrap();
    fleet.remember_spec(spec);
    let fleet = Arc::new(fleet);

    let mut api = LbApi::serve_with_dispatch(
        Arc::clone(&cluster),
        Duration::from_millis(20),
        Some(Arc::clone(&fleet)),
        None,
    )
    .unwrap();
    let client = PooledClient::new(Duration::from_secs(2));

    // Manual scale-up, as the control loop would do on a burst tick.
    let ev = fleet
        .apply(
            &iluvatar_autoscale::ScalingDecision::ScaleUp {
                add: 1,
                reason: "test_burst",
            },
            1_000,
        )
        .unwrap()
        .expect("scale-up journaled");
    assert_eq!((ev.from, ev.to), (1, 2));

    let resp = client
        .send(api.addr(), &Request::new(Method::Get, "/fleet"))
        .unwrap();
    let status = String::from_utf8(resp.body.to_vec()).unwrap();
    assert!(
        status.contains("\"live\":2"),
        "fleet status missing live count:\n{status}"
    );
    assert!(
        status.contains("\"policy\":\"reactive-queue-delay\""),
        "fleet status missing policy:\n{status}"
    );
    assert!(
        status.contains("\"reason\":\"test_burst\""),
        "event not journaled:\n{status}"
    );

    // Wait for a scrape to observe both workers, then check the exposition.
    std::thread::sleep(Duration::from_millis(80));
    let resp = client
        .send(api.addr(), &Request::new(Method::Get, "/metrics"))
        .unwrap();
    let text = String::from_utf8(resp.body.to_vec()).unwrap();
    assert!(
        text.contains("iluvatar_fleet_size 2"),
        "fleet gauge missing:\n{text}"
    );
    assert!(
        text.contains("iluvatar_scale_events_total{direction=\"up\",reason=\"test_burst\"} 1"),
        "scale event counter missing:\n{text}"
    );
    assert!(
        text.contains("iluvatar_breaker_state{"),
        "breaker gauge missing:\n{text}"
    );
    assert!(
        text.contains("iluvatar_fleet_draining 0"),
        "draining gauge missing:\n{text}"
    );
    api.shutdown();
}
