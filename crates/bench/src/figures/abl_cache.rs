//! Ablation — the invocation result cache.
//!
//! The tentpole's claim is that the cheapest invocation is the one that
//! never reaches a worker: a cache hit is a map lookup on the control
//! plane, with no queue, no container, no agent round-trip. This harness
//! measures that gap on the real in-process hot path and gates on it:
//!
//! * hit p50 must beat the warm dispatch p50,
//! * the repeated phase must serve >=80% from cache,
//! * interleaved tenants sharing fqdn+args must see zero cross-tenant
//!   serves.
//!
//! `check.sh` runs this as a gate.

use super::sim_worker;
use crate::{pctl, print_table};
use iluvatar_cache::{CacheConfig, CacheStatus};
use iluvatar_containers::FunctionSpec;
use iluvatar_core::WorkerConfig;
use std::io::{self, Write};
use std::time::Instant;

const TENANTS: [&str; 2] = ["acme", "umbra"];
/// Invocations measured per phase.
const SAMPLES: usize = 200;
/// Distinct argument values the repeated phase cycles through.
const UNIQUE_ARGS: u64 = 8;

pub fn run(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    let cfg = WorkerConfig {
        cache: CacheConfig::enabled_default(),
        ..WorkerConfig::for_testing()
    };
    let worker = sim_worker(cfg, 0.02);
    worker
        .register(
            FunctionSpec::new("f", "1")
                .with_timing(40, 150)
                .with_idempotent(),
        )
        .expect("register");

    // Warm phase: first sight of every (tenant, arg) pair — containers go
    // warm and the cache fills. Not measured.
    for tenant in TENANTS {
        for a in 0..UNIQUE_ARGS {
            let r = worker
                .invoke_tenant("f-1", &format!("{{\"k\":{a}}}"), Some(tenant))
                .expect("warm invoke");
            assert_eq!(r.cache, CacheStatus::Miss, "first sight must miss");
        }
    }

    // Dispatch p50: fresh arguments every time — warm containers, full
    // queue + acquire + agent path.
    let mut dispatch_ms = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let args = format!("{{\"fresh\":{i}}}");
        let t0 = Instant::now();
        let r = worker
            .invoke_tenant("f-1", &args, Some("acme"))
            .expect("dispatch invoke");
        dispatch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r.cache, CacheStatus::Miss);
    }

    // Hit phase: repeated arguments, tenants interleaved on identical
    // fqdn+args. Every serve must carry the requesting tenant's label.
    let (mut hits, mut misses, mut cross_tenant) = (0u64, 0u64, 0u64);
    let mut hit_ms = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let tenant = TENANTS[i % TENANTS.len()];
        let args = format!("{{\"k\":{}}}", i as u64 % UNIQUE_ARGS);
        let t0 = Instant::now();
        let r = worker
            .invoke_tenant("f-1", &args, Some(tenant))
            .expect("repeat invoke");
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        match r.cache {
            CacheStatus::Hit => {
                hit_ms.push(dt);
                hits += 1;
                if r.tenant.as_deref() != Some(tenant) {
                    cross_tenant += 1;
                }
            }
            CacheStatus::Miss => misses += 1,
            CacheStatus::Bypass => unreachable!("idempotent function never bypasses"),
        }
    }
    let hit_rate = hits as f64 / (hits + misses) as f64;
    let hit_p50 = pctl(&hit_ms, 0.50);
    let hit_p99 = pctl(&hit_ms, 0.99);
    let disp_p50 = pctl(&dispatch_ms, 0.50);
    let disp_p99 = pctl(&dispatch_ms, 0.99);

    print_table(
        out,
        "Ablation: result cache vs warm dispatch",
        &["path", "p50 ms", "p99 ms", "samples"],
        &[
            vec![
                "warm dispatch".into(),
                format!("{disp_p50:.4}"),
                format!("{disp_p99:.4}"),
                dispatch_ms.len().to_string(),
            ],
            vec![
                "cache hit".into(),
                format!("{hit_p50:.4}"),
                format!("{hit_p99:.4}"),
                hit_ms.len().to_string(),
            ],
        ],
    )?;
    writeln!(
        out,
        "repeated-phase hit rate: {hit_rate:.3} ({hits} hits / {misses} misses)"
    )?;
    writeln!(out, "cross-tenant serves: {cross_tenant}")?;

    let mut held = true;
    if hit_p50 >= disp_p50 {
        writeln!(
            out,
            "FAIL: hit p50 {hit_p50:.4}ms must beat dispatch p50 {disp_p50:.4}ms"
        )?;
        held = false;
    }
    if hit_rate < 0.8 {
        writeln!(out, "FAIL: repeated-phase hit rate {hit_rate:.3} < 0.80")?;
        held = false;
    }
    if cross_tenant > 0 {
        writeln!(out, "FAIL: {cross_tenant} cross-tenant serves")?;
        held = false;
    }
    if held {
        writeln!(out, "cache ablation gates passed")?;
    }
    Ok(held)
}
