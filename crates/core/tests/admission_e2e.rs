//! End-to-end acceptance for multi-tenant admission + DRR fair scheduling
//! (ISSUE acceptance bounds): under sustained backlog from competing tenants
//! a DRR worker's service split tracks the configured weights within ±10%,
//! and overload shedding hits best-effort tenants while guaranteed tenants
//! keep completing everything they were admitted for.

use iluvatar_admission::{AdmissionConfig, PriorityClass, TenantSpec};
use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
use iluvatar_containers::ResourceLimits;
use iluvatar_core::config::QueuePolicyKind;
use iluvatar_core::{FunctionSpec, InvokeError, Worker, WorkerConfig};
use iluvatar_sync::SystemClock;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker over the simulated backend with modelled latencies shrunk 20×,
/// one execution slot (so DRR order == service order), and a 20ms quantum.
fn drr_worker(tenants: Vec<TenantSpec>) -> Worker {
    let clock = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.05,
            ..Default::default()
        },
    ));
    let mut cfg = WorkerConfig::for_testing();
    cfg.queue.policy = QueuePolicyKind::Drr;
    cfg.queue.drr_quantum_ms = 20;
    cfg.concurrency.limit = 1;
    cfg.admission = AdmissionConfig::enabled_with(tenants);
    Worker::new(cfg, backend, clock)
}

fn spec(name: &str, warm_ms: u64) -> FunctionSpec {
    FunctionSpec::new(name, "1")
        .with_timing(warm_ms, 0)
        .with_limits(ResourceLimits {
            cpus: 1.0,
            memory_mb: 64,
        })
}

fn served_of(w: &Worker, tenant: &str) -> u64 {
    w.tenant_stats()
        .iter()
        .find(|t| t.tenant == tenant)
        .map(|t| t.served)
        .unwrap_or(0)
}

/// Enqueue `backlog` invocations per tenant, serve until `target` total
/// completions, and return the per-tenant served counts at that instant.
/// Both tenants still hold backlog at the snapshot, so the split reflects
/// the scheduler's choices rather than queue exhaustion.
fn measure_split(w: &Worker, a: &str, b: &str, backlog: usize, target: u64) -> (u64, u64) {
    // Prime the characteristics store so queued items carry a learned cost.
    w.invoke_tenant("f-1", "{}", Some(a)).unwrap();
    let mut handles = Vec::with_capacity(backlog * 2);
    for _ in 0..backlog {
        handles.push(w.async_invoke_tenant("f-1", "{}", Some(a)).unwrap());
        handles.push(w.async_invoke_tenant("f-1", "{}", Some(b)).unwrap());
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (sa, sb) = (served_of(w, a), served_of(w, b));
        // The priming invocation is tenant `a`'s; don't count it.
        if sa - 1 + sb >= target || Instant::now() > deadline {
            return (sa - 1, sb);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn equal_weights_split_service_evenly() {
    let w = drr_worker(vec![TenantSpec::new("a"), TenantSpec::new("b")]);
    w.register(spec("f", 200)).unwrap();
    // 200 completions ≈ 50 DRR rounds at 2 serves/visit: the partial-round
    // quantization error is well under the ±10% acceptance bound.
    let (sa, sb) = measure_split(&w, "a", "b", 150, 200);
    let ratio = sa as f64 / sb as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "equal weights must split evenly, got a={sa} b={sb} (ratio {ratio:.3})"
    );
}

#[test]
fn three_to_one_weights_split_service_proportionally() {
    let w = drr_worker(vec![
        TenantSpec::new("gold").with_weight(3.0),
        TenantSpec::new("bronze").with_weight(1.0),
    ]);
    w.register(spec("f", 200)).unwrap();
    let (gold, bronze) = measure_split(&w, "gold", "bronze", 250, 200);
    let ratio = gold as f64 / bronze as f64;
    assert!(
        (2.7..=3.3).contains(&ratio),
        "3:1 weights must yield a 3:1 split ±10%, got gold={gold} bronze={bronze} (ratio {ratio:.3})"
    );
}

#[test]
fn guaranteed_tenant_unaffected_by_overload_shedding() {
    let clock = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.05,
            ..Default::default()
        },
    ));
    let mut cfg = WorkerConfig::for_testing();
    cfg.concurrency.limit = 1;
    cfg.admission = AdmissionConfig {
        enabled: true,
        shed_queue_delay_ms: 5,
        tenants: vec![
            TenantSpec::new("paid").with_class(PriorityClass::Guaranteed),
            TenantSpec::new("free").with_class(PriorityClass::BestEffort),
        ],
    };
    let w = Worker::new(cfg, backend, clock);
    w.register(spec("slow", 1500)).unwrap();

    // Saturate with guaranteed work so real queue delay develops.
    let handles: Vec<_> = (0..4)
        .map(|_| w.async_invoke_tenant("slow-1", "{}", Some("paid")).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while w.status().completed < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Best-effort traffic is shed under that overload; guaranteed is not.
    let mut free_shed = 0u64;
    for _ in 0..3 {
        match w.invoke_tenant("slow-1", "{}", Some("free")) {
            Err(InvokeError::Shed(_)) => free_shed += 1,
            Ok(_) => {}
            other => panic!("unexpected outcome for best-effort: {other:?}"),
        }
    }
    assert!(free_shed > 0, "overload must shed some best-effort traffic");
    let extra = w.async_invoke_tenant("slow-1", "{}", Some("paid")).unwrap();
    for h in handles {
        h.wait().unwrap();
    }
    extra.wait().unwrap();

    let stats = w.tenant_stats();
    let paid = stats.iter().find(|t| t.tenant == "paid").unwrap();
    let free = stats.iter().find(|t| t.tenant == "free").unwrap();
    assert_eq!(paid.shed, 0, "guaranteed class is never shed");
    assert_eq!(
        paid.admitted, paid.served,
        "every admitted guaranteed invoke completes"
    );
    assert_eq!(free.shed, free_shed);
}

#[test]
fn overload_signal_clears_once_the_queue_drains() {
    let clock = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.05,
            ..Default::default()
        },
    ));
    let mut cfg = WorkerConfig::for_testing();
    cfg.concurrency.limit = 1;
    cfg.admission = AdmissionConfig {
        enabled: true,
        shed_queue_delay_ms: 5,
        tenants: vec![TenantSpec::new("free").with_class(PriorityClass::BestEffort)],
    };
    let w = Worker::new(cfg, backend, clock);
    w.register(spec("slow", 1500)).unwrap();

    // A burst of best-effort work on one slot: all four are admitted on an
    // idle worker, and the second one to leave the queue has waited 75 ms.
    let burst: Vec<_> = (0..4)
        .map(|_| w.async_invoke_tenant("slow-1", "{}", Some("free")).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while w.status().queue_delay_ms <= 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(matches!(
        w.invoke_tenant("slow-1", "{}", Some("free")),
        Err(InvokeError::Shed(_))
    ));

    // The queue drains. Every arrival is best-effort, so while the shed
    // holds nothing is dequeued: a reading that only a dequeue can lower
    // would shed this tenant forever on an empty queue.
    for h in burst {
        h.wait().unwrap();
    }
    assert_eq!(w.status().queue_delay_ms, 0, "nobody is waiting");
    w.invoke_tenant("slow-1", "{}", Some("free"))
        .expect("an idle worker admits best-effort work");
    let stats = w.tenant_stats();
    let free = stats.iter().find(|t| t.tenant == "free").unwrap();
    assert_eq!((free.shed, free.served), (1, 5));
}
