//! Admission: one seeded multi-tenant run, one digest.
//!
//! Exercises the three admission-control layers with a seeded workload
//! (`--invocations` per drill, default 40):
//!
//! 1. a DRR drill: seeded pushes into a [`DrrQueue`] (3:1:1 weights), full
//!    drain, the exact pop order hashed;
//! 2. an [`AdmissionController`] drill on a [`ManualClock`]: a rate-limited
//!    best-effort tenant and an unlimited guaranteed tenant, with virtual
//!    time advanced by the seeded stream — throttle decisions are a pure
//!    function of the seed;
//! 3. a worker run over the simulated backend with admission enabled and
//!    unlimited rates: every seeded invocation completes, so the per-tenant
//!    served counts are exact.

use super::chaos::f_spec;
use super::{sim_backend, tenant_books, Args};
use iluvatar_core::invocation::InvocationHandle;
use iluvatar_core::queue::QueuedInvocation;
use iluvatar_core::{
    AdmissionConfig, AdmissionController, DrrQueue, PriorityClass, QueuePolicyKind, TenantSpec,
    Worker, WorkerConfig,
};
use iluvatar_sync::{Clock, Fnv1a, ManualClock, SplitMix64, SystemClock};
use std::sync::Arc;

const TENANTS: [&str; 3] = ["gold", "bronze", "free"];

pub fn run(args: &Args) -> u64 {
    let seed = args.seed;
    let invocations = args.invocations.unwrap_or(40);
    let mut digest = Fnv1a::new();

    // --- 1. DRR drill: seeded pushes, full drain, pop order hashed. -------
    let mut rng = SplitMix64::new(seed);
    let mut drr = DrrQueue::new(20);
    for i in 0..invocations {
        let t = TENANTS[(rng.next_u64() % 3) as usize];
        let (tx, _h) = InvocationHandle::pair();
        drr.push(QueuedInvocation {
            fqdn: "f-1".into(),
            args: String::new(),
            trace_id: i,
            arrived_at: i,
            expected_exec_ms: 5.0 + (rng.next_u64() % 45) as f64,
            iat_ms: 10.0,
            expect_warm: true,
            tenant: Some(t.to_string()),
            tenant_weight: if t == "gold" { 3.0 } else { 1.0 },
            result_tx: tx,
        });
    }
    let mut drr_counts = [0u64; 3];
    while let Some(item) = drr.pop() {
        let t = item.tenant.as_deref().unwrap_or("?");
        digest.write(t.as_bytes());
        drr_counts[TENANTS.iter().position(|x| *x == t).expect("known tenant")] += 1;
    }

    // --- 2. Admission drill on virtual time: throttling is seed-pure. -----
    let clock = Arc::new(ManualClock::new());
    let ctl = AdmissionController::new(
        AdmissionConfig::enabled_with(vec![
            TenantSpec::new("paid").with_class(PriorityClass::Guaranteed),
            TenantSpec::new("free").with_rate(2.0, 2.0),
        ]),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let mut rng = SplitMix64::new(seed ^ 0xadee);
    for _ in 0..invocations {
        let t = if rng.next_u64().is_multiple_of(2) {
            "paid"
        } else {
            "free"
        };
        let d = ctl.admit(t, 0);
        digest.write(format!("{t}:{d:?};").as_bytes());
        clock.advance(rng.next_u64() % 300);
    }
    let mut admission_snap = ctl.snapshot();
    admission_snap.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    for s in &admission_snap {
        digest.write(
            format!(
                "{}:{}:{}:{}:{};",
                s.tenant, s.admitted, s.throttled, s.shed, s.served
            )
            .as_bytes(),
        );
    }

    // --- 3. Worker run: unlimited rates, so served counts are exact. ------
    let wall = SystemClock::shared();
    let mut cfg = WorkerConfig::for_testing();
    cfg.queue.policy = QueuePolicyKind::Drr;
    cfg.admission = AdmissionConfig::enabled_with(vec![
        TenantSpec::new("gold").with_weight(3.0),
        TenantSpec::new("bronze").with_weight(1.0),
    ]);
    let mut worker = Worker::new(cfg, sim_backend(&wall), wall);
    worker.register(f_spec()).expect("register");
    let mut rng = SplitMix64::new(seed ^ 0x3057);
    for i in 0..invocations {
        let t = if rng.next_u64() % 4 < 3 {
            "gold"
        } else {
            "bronze"
        };
        worker
            .invoke_tenant("f-1", &format!("{{\"i\":{i}}}"), Some(t))
            .expect("invoke");
    }
    let books = tenant_books(&worker);
    digest.write(books.as_bytes());

    eprintln!("seed={seed} invocations={invocations}");
    eprintln!(
        "  drr pops: gold={} bronze={} free={}",
        drr_counts[0], drr_counts[1], drr_counts[2]
    );
    for s in &admission_snap {
        eprintln!(
            "  admission {}: admitted={} throttled={} (class drill)",
            s.tenant, s.admitted, s.throttled
        );
    }
    eprintln!("  worker books: {books}");
    worker.shutdown();
    digest.finish()
}
