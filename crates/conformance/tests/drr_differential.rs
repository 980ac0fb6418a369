//! Differential DRR proptest: the real [`DrrQueue`] and the conformance
//! checker's strict DRR model consume the *same* command sequence — every
//! pop the queue makes must be exactly the pop the reference model
//! predicts, deficits must stay inside the quantum bound, and the weighted
//! fairness audit (±10%) must hold over any backlogged window.

use iluvatar_conformance::{Checker, DrrLockstep};
use proptest::prelude::*;
use std::collections::BTreeMap;

const QUANTUM: u64 = 50;
const TENANTS: [(&str, f64); 3] = [("a", 1.0), ("b", 2.0), ("c", 4.0)];

fn drain(sim: &mut DrrLockstep) {
    while sim.pop().is_some() {}
}

proptest! {
    /// Any interleaving of pushes and pops keeps the real queue in lockstep
    /// with the reference model: strict pop order, deficit bound, fairness.
    #[test]
    fn real_queue_stays_in_lockstep_with_model(
        cmds in proptest::collection::vec((0u8..10, 0u8..35), 20..200),
    ) {
        let mut sim = DrrLockstep::new(QUANTUM);
        for &(op, cost_sel) in &cmds {
            if op < 4 {
                // ops 0..4 → push for tenant op%3; cost 5..40 ms.
                let (t, w) = TENANTS[(op % 3) as usize];
                sim.push(t, w, 5.0 + cost_sel as f64);
            } else {
                sim.pop();
            }
        }
        drain(&mut sim);
        let report = sim.finish();
        prop_assert!(
            report.ok(),
            "queue diverged from the DRR model: {:?}",
            report.violations
        );
    }

    /// Starting from any backlog shape, a full drain still matches the
    /// model pop-for-pop (the drain path exercises round-robin wraparound
    /// and active-list removal).
    #[test]
    fn drain_from_any_backlog_matches_model(
        backlog in proptest::collection::vec((0u8..3, 1u8..40), 1..120),
    ) {
        let mut sim = DrrLockstep::new(QUANTUM);
        for &(t_idx, cost) in &backlog {
            let (t, w) = TENANTS[t_idx as usize];
            sim.push(t, w, cost as f64);
        }
        drain(&mut sim);
        let report = sim.finish();
        prop_assert!(report.ok(), "drain diverged: {:?}", report.violations);
        prop_assert_eq!(report.wal_pending.len(), 0, "drain left pending work");
    }
}

/// Deterministic weighted-fairness case: three tenants with weights 1:2:4,
/// all continuously backlogged, uniform cost that divides the quantum.
/// Service must split exactly proportionally to weight — checked both by
/// the checker's ±10% audit and by a direct ratio assertion.
#[test]
fn backlogged_tenants_share_service_by_weight() {
    const COST: f64 = 10.0; // 5 pops per quantum·weight unit
    let mut sim = DrrLockstep::new(QUANTUM);
    for _ in 0..60 {
        for &(t, w) in &TENANTS {
            sim.push(t, w, COST);
        }
    }
    // 3 full DRR rounds: (1+2+4) × quantum/cost = 35 pops per round.
    // Every tenant stays backlogged throughout (tenant a: 60 queued, 15 served).
    // Cost served per tenant, for the manual fairness cross-check.
    let mut served: BTreeMap<String, f64> = BTreeMap::new();
    for _ in 0..105 {
        let item = sim.pop().expect("queue drained early");
        *served.entry(item.tenant).or_insert(0.0) += item.cost_ms;
    }
    let total: f64 = served.values().sum();
    let weight_sum: f64 = TENANTS.iter().map(|&(_, w)| w).sum();
    for &(t, w) in &TENANTS {
        let got = served.get(t).copied().unwrap_or(0.0) / total;
        let want = w / weight_sum;
        assert!(
            (got - want).abs() <= 0.10 * want,
            "tenant `{t}` got {:.1}% of service, weight entitles {:.1}%",
            got * 100.0,
            want * 100.0
        );
    }
    drain(&mut sim);
    let report = sim.finish();
    assert!(
        report.ok(),
        "fairness audit failed: {:?}",
        report.violations
    );
}

/// Deficit regression guard: tiny costs with a huge backlog must not let
/// any tenant's deficit accumulate past the bound (quantum × weight plus
/// one max item) — the model enforces this per pop; this case just makes
/// the pathological shape explicit.
#[test]
fn tiny_costs_do_not_accumulate_deficit() {
    let mut sim = DrrLockstep::new(QUANTUM);
    for i in 0..200 {
        let (t, w) = TENANTS[i % 3];
        sim.push(t, w, 1.0);
    }
    drain(&mut sim);
    let report = sim.finish();
    assert!(
        report.ok(),
        "deficit bound violated: {:?}",
        report.violations
    );
}

// ---------------------------------------------------------------------------
// Steal lockstep: the same DRR contract, now inside the pull plane. The real
// `PullPlane` runs DRR per worker shard and lets an idle worker steal from a
// sibling's shard; the checker's DispatchModel rides the plane's own
// telemetry stream, so a steal path that bypassed the victim's DRR order
// (or double-leased across the shard boundary) surfaces as a violation.
// ---------------------------------------------------------------------------

use iluvatar_admission::{TenantRegistry, TenantSpec};
use iluvatar_dispatch::{DispatchConfig, PullPlane};
use iluvatar_sync::{Clock, ManualClock};
use iluvatar_telemetry::{TelemetrySink, VecSink};
use std::sync::Arc;

const STEAL_WORKERS: [&str; 3] = ["w0", "w1", "w2"];

fn steal_plane(seed: u64) -> (Arc<PullPlane>, Arc<VecSink>) {
    let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
    let sink = Arc::new(VecSink::new());
    let bus = iluvatar_telemetry::TelemetryBus::new("lb", Arc::clone(&clock));
    bus.add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
    let mut cfg = DispatchConfig::pull();
    // No expiry noise: these cases are about grant *order*, not recovery.
    cfg.lease_ttl_ms = 1_000_000;
    cfg.seed = seed;
    let plane = Arc::new(PullPlane::new(cfg, Arc::clone(&clock)));
    plane.set_telemetry(bus);
    let registry = Arc::new(TenantRegistry::new(Arc::clone(&clock)));
    for &(t, w) in &TENANTS {
        registry.upsert(TenantSpec::new(t).with_weight(w));
    }
    plane.set_registry(registry);
    for w in STEAL_WORKERS {
        plane.register_worker(w);
    }
    (plane, sink)
}

fn conformant(sink: &VecSink) -> iluvatar_conformance::ConformanceReport {
    let mut checker = Checker::new().with_require_terminal(false);
    for ev in sink.events() {
        checker.ingest(&ev);
    }
    checker.finish()
}

proptest! {
    /// Any interleaving of enqueues (random tenant/fqdn, so home shards
    /// scatter) and pulls (random worker, so empty home shards steal)
    /// keeps the plane's lease stream in lockstep with the DispatchModel:
    /// no double-lease across shard boundaries, no phantom completion,
    /// and the tenant-fairness bound holds through every steal.
    #[test]
    fn pull_plane_steals_stay_in_lockstep_with_model(
        cmds in proptest::collection::vec((0u8..8, 0u8..6), 20..150),
        seed in 0u64..64,
    ) {
        let (plane, sink) = steal_plane(seed);
        let mut enqueued = 0u64;
        for &(op, sel) in &cmds {
            if op < 4 {
                let (t, _) = TENANTS[(sel % 3) as usize];
                plane
                    .enqueue(&format!("f-{sel}"), "{}", Some(t))
                    .expect("accept");
                enqueued += 1;
            } else {
                let w = STEAL_WORKERS[(op % 3) as usize];
                for l in plane.pull(w, 2) {
                    plane.complete(l.lease_id, true, "ok", 1);
                }
            }
        }
        // Drain through one worker: everything left on the other shards
        // arrives via the steal path.
        let mut spins = 0;
        while plane.depth() > 0 {
            for l in plane.pull("w0", 4) {
                plane.complete(l.lease_id, true, "ok", 1);
            }
            spins += 1;
            prop_assert!(spins < 10_000, "drain did not converge");
        }
        let c = plane.counters();
        prop_assert_eq!(c.completed, enqueued, "every accepted task completes once");
        let report = conformant(&sink);
        prop_assert!(
            report.ok(),
            "steal interleaving diverged from the dispatch model: {:?}",
            report.violations
        );
    }
}

/// Deterministic steal-fairness case: every task homes on one shard (a
/// single fqdn), three tenants with weights 1:2:4 stay backlogged, and a
/// *sibling* worker drains the shard entirely via steals. The thief must
/// inherit the victim's DRR order — per-tenant grant shares stay
/// proportional to weight over the backlogged window — and the stream must
/// replay clean through the DispatchModel's starvation audit.
#[test]
fn cross_shard_steals_preserve_victim_drr_order() {
    let (plane, sink) = steal_plane(7);
    const ROUNDS: usize = 80;
    for _ in 0..ROUNDS {
        for &(t, _) in &TENANTS {
            plane.enqueue("f-steal", "{}", Some(t)).expect("accept");
        }
    }
    // All work homes on fnv("f-steal")'s shard; steal from a sibling.
    let home = plane
        .shard_depths()
        .into_iter()
        .find(|(_, d)| *d > 0)
        .map(|(w, _)| w)
        .expect("backlog homed somewhere");
    let thief = STEAL_WORKERS
        .iter()
        .find(|&&w| w != home)
        .expect("sibling exists");

    let mut grants: Vec<String> = Vec::new();
    loop {
        let leases = plane.pull(thief, 1);
        if leases.is_empty() {
            break;
        }
        for l in leases {
            assert_eq!(
                l.stolen_from.as_deref(),
                Some(home.as_str()),
                "every grant to the thief must record the victim shard"
            );
            grants.push(l.task.tenant.clone().unwrap_or_default());
            plane.complete(l.lease_id, true, "ok", 1);
        }
    }
    assert_eq!(grants.len(), ROUNDS * TENANTS.len(), "full drain");
    assert_eq!(
        plane.counters().stolen,
        (ROUNDS * TENANTS.len()) as u64,
        "every grant crossed the shard boundary"
    );

    // Weighted fairness over a window where all tenants stay backlogged:
    // 105 grants = 15 full unit-cost DRR rounds of (1 + 2 + 4).
    let window = &grants[..105];
    let weight_sum: f64 = TENANTS.iter().map(|&(_, w)| w).sum();
    for &(t, w) in &TENANTS {
        let got = window.iter().filter(|g| g.as_str() == t).count() as f64 / window.len() as f64;
        let want = w / weight_sum;
        assert!(
            (got - want).abs() <= 0.15 * want,
            "stolen grants for `{t}`: {:.1}% of the window, weight entitles {:.1}%",
            got * 100.0,
            want * 100.0
        );
    }

    let report = conformant(&sink);
    assert!(
        report.ok(),
        "steal drain diverged from the dispatch model: {:?}",
        report.violations
    );
}
