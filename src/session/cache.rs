//! Result cache: a seeded two-tenant invocation mix through a real cluster
//! with the balancer-side result cache attached, proving its three
//! promises and replaying bit-identically.
//!
//! * **Skip the worker** — phase 2 repeats phase-1 arguments; the repeated
//!   phase must serve ≥80% from the cache, and dispatched totals must equal
//!   exactly the invocations that missed or bypassed.
//! * **Hard tenant walls** — both tenants use identical fqdns and argument
//!   strings; every hit must carry the requesting tenant's label and the
//!   two partitions' key sets must be disjoint.
//! * **Invalidate on re-registration** — re-sighting a function's spec
//!   drops its cached results for every tenant; the next lookups miss.
//!
//! The full canonical stream (dispatch + cache events on the balancer bus)
//! rides through the conformance checker. The digest covers the
//! per-invocation status sequence, the per-tenant cache stats, the checker
//! label counts, and the dispatch totals.

use super::{check, sim_worker, Args};
use iluvatar_cache::{CacheConfig, CacheStatus, ResultCache};
use iluvatar_conformance::Checker;
use iluvatar_containers::FunctionSpec;
use iluvatar_core::{TelemetryBus, TelemetrySink};
use iluvatar_lb::cluster::WorkerHandle;
use iluvatar_lb::{Cluster, LbPolicy};
use iluvatar_sync::{Fnv1a, SystemClock};
use iluvatar_telemetry::VecSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const TENANTS: [&str; 2] = ["acme", "umbra"];
const UNIQUE_ARGS: u64 = 4;

pub fn run(args: &Args) -> u64 {
    let clock = SystemClock::shared();
    let mk_worker = |name: &str| -> Arc<dyn WorkerHandle> { Arc::new(sim_worker(name, &clock)) };
    let cluster = Arc::new(Cluster::new(
        vec![mk_worker("w0"), mk_worker("w1")],
        LbPolicy::RoundRobin,
    ));

    // Balancer bus: dispatch events from the cluster, cache events from the
    // result cache, one stream for the checker.
    let bus = TelemetryBus::new("lb", Arc::clone(&clock));
    let sink = Arc::new(VecSink::new());
    bus.add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
    cluster.set_telemetry(Arc::clone(&bus));

    let cache = Arc::new(ResultCache::new(
        CacheConfig {
            enabled: true,
            tenant_max_entries: 16,
            ..Default::default()
        },
        Arc::clone(&clock),
    ));
    cache.set_telemetry(bus);
    // Attach before registration so the cache sees every spec.
    cluster.set_cache(Arc::clone(&cache));

    let idempotent: Vec<FunctionSpec> = (0..2)
        .map(|i| {
            FunctionSpec::new(format!("f{i}"), "1")
                .with_timing(40, 150)
                .with_idempotent()
        })
        .collect();
    let effectful = FunctionSpec::new("g", "1").with_timing(40, 150);
    for s in idempotent.iter().chain([&effectful]) {
        cluster.register_all(s.clone()).expect("register");
    }

    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut statuses = String::new();
    let mut run = |fqdn: &str, args: &str, tenant: &str| -> CacheStatus {
        let r = cluster
            .invoke_tenant(fqdn, args, Some(tenant))
            .expect("invoke");
        if r.cache == CacheStatus::Hit {
            assert_eq!(
                r.tenant.as_deref(),
                Some(tenant),
                "hit served across the tenant wall"
            );
        }
        statuses.push_str(r.cache.as_str());
        statuses.push(';');
        r.cache
    };

    // Phase 1 — first sight: every idempotent (tenant, fn, arg) triple is a
    // miss that fills; the effectful function always bypasses.
    let mut p1_miss = 0u64;
    for tenant in TENANTS {
        for spec in &idempotent {
            for a in 0..UNIQUE_ARGS {
                if run(&spec.fqdn, &format!("{{\"k\":{a}}}"), tenant) == CacheStatus::Miss {
                    p1_miss += 1;
                }
            }
        }
        assert_eq!(run("g-1", "{\"k\":0}", tenant), CacheStatus::Bypass);
    }
    assert_eq!(
        p1_miss,
        TENANTS.len() as u64 * idempotent.len() as u64 * UNIQUE_ARGS,
        "phase 1 must be all misses"
    );

    // Phase 2 — seeded repeats: draws mostly land on phase-1 arguments.
    let (mut hits, mut misses) = (0u64, 0u64);
    for _ in 0..60 {
        let tenant = TENANTS[rng.gen_range(0..TENANTS.len())];
        let spec = &idempotent[rng.gen_range(0..idempotent.len())];
        // One draw in ten asks for a fresh argument (an honest miss).
        let a = if rng.gen_range(0.0..1.0f64) < 0.1 {
            UNIQUE_ARGS + rng.gen_range(0..100u64)
        } else {
            rng.gen_range(0..UNIQUE_ARGS)
        };
        match run(&spec.fqdn, &format!("{{\"k\":{a}}}"), tenant) {
            CacheStatus::Hit => hits += 1,
            CacheStatus::Miss => misses += 1,
            CacheStatus::Bypass => unreachable!("idempotent functions never bypass"),
        }
    }
    let hit_rate = hits as f64 / (hits + misses) as f64;
    assert!(
        hit_rate >= 0.8,
        "repeated phase must serve >=80% from cache, got {hit_rate:.2}"
    );

    // Tenant walls: identical fqdns and args, disjoint key sets.
    let acme_keys = cache.keys("acme");
    assert!(
        !acme_keys.is_empty() && acme_keys.iter().all(|k| !cache.keys("umbra").contains(k)),
        "tenant partitions must not share keys"
    );

    // Re-registration invalidates: the cache re-sights f0's spec (a
    // redeployment), every tenant's f0 entries drop, the next lookup
    // misses and refills.
    cache.note_spec(&idempotent[0]);
    for tenant in TENANTS {
        assert_eq!(
            run(&idempotent[0].fqdn, "{\"k\":0}", tenant),
            CacheStatus::Miss,
            "re-registration must invalidate cached results"
        );
    }

    // Hits never reached a worker: dispatch totals are misses + bypasses.
    let dispatched: u64 = cluster.scrape().stats.dispatched();
    let expected = p1_miss + TENANTS.len() as u64 + misses + TENANTS.len() as u64;
    assert_eq!(
        dispatched, expected,
        "dispatch totals must equal misses + bypasses"
    );

    // The whole stream through the conformance models.
    let report = check(
        "cache",
        Checker::new().with_require_terminal(false),
        &sink.events(),
    );

    let mut digest = Fnv1a::new();
    digest.write(statuses.as_bytes());
    let mut stats = cache.stats();
    stats.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    for s in &stats {
        digest.write(
            format!(
                "{}:{}:{}:{}:{}:{}:{};",
                s.tenant, s.hits, s.misses, s.fills, s.evictions, s.invalidations, s.entries
            )
            .as_bytes(),
        );
    }
    for (label, count) in &report.label_counts {
        digest.write(format!("{label}:{count};").as_bytes());
    }
    digest.write(format!("dispatched={dispatched};").as_bytes());

    eprintln!(
        "cache: phase1 misses={p1_miss}, phase2 hits={hits} misses={misses} \
         (rate {hit_rate:.2}), dispatched={dispatched}, {} events, 0 violations",
        report.events
    );
    digest.finish()
}
