//! Figures 6 and 7 — OpenWhisk (10-minute TTL) vs FaasCache (the same
//! system with Greedy-Dual keep-alive installed) under open-loop litmus
//! workloads. Both systems are the *same* threaded OpenWhisk-architecture
//! model (shared queue, invoker slots, CPU-overcommit inflation, placement
//! timeouts); only the keep-alive policy differs — exactly the paper's
//! FaasCache setup. Virtual time is compressed by [`SCALE`].
//!
//! Figure 6 — warm and cold invocations under three *skewed* workloads:
//! single-function frequency skew, a cyclic access pattern, and a two-size
//! skew. §6.2: "FaasCache's keep-alive can increase the number of warm
//! invocations by between 50 to 100% compared to OpenWhisk's TTL. ... with
//! FaasCache, the total number of requests that are served also increases
//! by 2×" (OpenWhisk drops requests under its cold-start-driven load).
//!
//! Figure 7 — per-function breakdown of warm/cold/dropped invocations for
//! the faasbench workload (CNN, disk-bench, web-serving at 1500 ms IAT; the
//! floating-point function at 400 ms). §6.2: "FaasCache increases the warm
//! requests by more than 2×. ... Because the floating-point function has a
//! high initialization overhead, it sees a 3× increase in hit-ratio
//! compared to OpenWhisk. ... OpenWhisk drops a significant number (50%) of
//! requests due to its high cold start overheads" — cold starts hold memory
//! and CPU longer, load amplifies, placements time out.

use crate::print_table;
use iluvatar::prelude::*;
use iluvatar::OpenWhiskTarget;
use iluvatar_baseline::{OpenWhiskConfig, OpenWhiskModel};
use iluvatar_core::config::KeepalivePolicyKind;
use iluvatar_trace::loadgen::{FireOutcome, InvokerTarget, OpenLoopRunner, ScheduledInvocation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write};
use std::sync::Arc;

/// Wall time per unit of virtual time.
const SCALE: f64 = 0.05;
/// The keep-alive pool both systems get.
const MEMORY_MB: u64 = 3_000;
const CORES: usize = 4;
const INVOKER_SLOTS: usize = 16;
/// Virtual duration of each Figure 6 workload and of Figure 7.
const FIG6_DURATION_MS: u64 = 15 * 60_000;
const FIG7_DURATION_MS: u64 = 20 * 60_000;

const SYSTEMS: [(&str, KeepalivePolicyKind); 2] = [
    ("OpenWhisk (TTL)", KeepalivePolicyKind::Ttl),
    ("FaasCache (GD)", KeepalivePolicyKind::Gdsf),
];

/// The Figure 7 workload: (application, mean IAT ms).
const FAASBENCH: [(FbApp, u64); 4] = [
    (FbApp::MlInference, 1_500),
    (FbApp::DiskBench, 1_500),
    (FbApp::WebServing, 1_500),
    (FbApp::FloatingPoint, 400),
];

/// Poisson schedule for (app, IAT) pairs over `duration_ms` virtual time.
fn poisson_schedule(
    apps: &[(FbApp, u64)],
    duration_ms: u64,
    seed: u64,
) -> Vec<ScheduledInvocation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for (app, iat) in apps {
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -(*iat as f64) * u.ln();
            if t >= duration_ms as f64 {
                break;
            }
            out.push(ScheduledInvocation {
                at_ms: (t * SCALE) as u64,
                fqdn: format!("{}-1", app.name()),
                args: "{}".into(),
                tenant: None,
            });
        }
    }
    out
}

/// Cyclic schedule: hotness rotates between the apps phase by phase.
fn cyclic_schedule(
    apps: &[(FbApp, u64, u64)], // (app, hot IAT, cold IAT)
    phase_ms: u64,
    duration_ms: u64,
) -> Vec<ScheduledInvocation> {
    let mut out = Vec::new();
    let n = apps.len() as u64;
    for (idx, &(app, hot, cold)) in apps.iter().enumerate() {
        let mut t = 0u64;
        while t < duration_ms {
            let phase = (t / phase_ms) % n;
            let iat = if phase == idx as u64 { hot } else { cold };
            out.push(ScheduledInvocation {
                at_ms: (t as f64 * SCALE) as u64,
                fqdn: format!("{}-1", app.name()),
                args: "{}".into(),
                tenant: None,
            });
            t += iat;
        }
    }
    out
}

/// Fire `schedule` at the OpenWhisk model with `policy` installed.
fn fire(schedule: Vec<ScheduledInvocation>, policy: KeepalivePolicyKind) -> Vec<FireOutcome> {
    let cfg = OpenWhiskConfig {
        cores: CORES,
        invoker_slots: INVOKER_SLOTS,
        memory_mb: MEMORY_MB,
        // All virtual-time knobs pre-scaled to wall time.
        ttl_ms: (600_000.0 * SCALE) as u64,
        placement_timeout_ms: (60_000.0 * SCALE) as u64,
        gc_period_ms: 2_500,
        gc_pause_ms: 60,
        time_scale: SCALE,
        keepalive: policy,
        ..Default::default()
    };
    let ow = Arc::new(OpenWhiskModel::new(cfg, SystemClock::shared()));
    // Registration is a registry entry and nothing else, so every workload
    // gets every application.
    for app in FbApp::all() {
        ow.register(app.spec());
    }
    OpenLoopRunner::new(schedule)
        .run(Arc::new(OpenWhiskTarget(Arc::clone(&ow))) as Arc<dyn InvokerTarget>)
}

/// (warm, cold, dropped) among `outcomes`.
fn tally<'a>(outcomes: impl Iterator<Item = &'a FireOutcome>) -> (usize, usize, usize) {
    outcomes.fold((0, 0, 0), |(warm, cold, dropped), o| {
        if o.dropped {
            (warm, cold, dropped + 1)
        } else if o.cold {
            (warm, cold + 1, dropped)
        } else {
            (warm + 1, cold, dropped)
        }
    })
}

pub fn fig6(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    // (a) Frequency skew: one hot small function among three slower ones.
    let freq = [
        (FbApp::FloatingPoint, 400u64),
        (FbApp::MlInference, 1_500),
        (FbApp::DiskBench, 1_500),
        (FbApp::WebServing, 1_500),
    ];
    // (b) Cyclic access pattern: hotness rotates every ~4 virtual minutes.
    let cyclic = [
        (FbApp::FloatingPoint, 400u64, 8_000u64),
        (FbApp::MatrixMultiply, 400, 8_000),
        (FbApp::DiskBench, 400, 8_000),
        (FbApp::WebServing, 400, 8_000),
    ];
    // (c) Two-size skew: frequent small + rare large functions.
    let sizes = [
        (FbApp::WebServing, 500u64),
        (FbApp::FloatingPoint, 500),
        (FbApp::MlInference, 4_000),
        (FbApp::VideoEncoding, 12_000),
    ];
    let workloads = [
        ("freq-skew", poisson_schedule(&freq, FIG6_DURATION_MS, 0x6A)),
        (
            "cyclic",
            cyclic_schedule(&cyclic, 4 * 60_000, FIG6_DURATION_MS),
        ),
        ("two-size", poisson_schedule(&sizes, FIG6_DURATION_MS, 0x6B)),
    ];

    let mut rows = Vec::new();
    for (name, schedule) in workloads {
        eprintln!("litmus {name}...");
        for (label, policy) in SYSTEMS {
            let outcomes = fire(schedule.clone(), policy);
            let (warm, cold, dropped) = tally(outcomes.iter());
            rows.push(vec![
                name.to_string(),
                label.to_string(),
                warm.to_string(),
                cold.to_string(),
                (warm + cold).to_string(),
                dropped.to_string(),
            ]);
        }
    }
    print_table(
        out,
        &format!("Figure 6: litmus workloads on the OpenWhisk architecture, {MEMORY_MB}MB pool"),
        &["workload", "system", "warm", "cold", "served", "dropped"],
        &rows,
    )?;
    writeln!(out, "\nExpected shape: FaasCache serves more warm (and total) invocations on every skewed workload; vanilla OpenWhisk drops more.")?;
    Ok(true)
}

pub fn fig7(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    eprintln!(
        "faasbench: {}min virtual at {SCALE}x on a {MEMORY_MB}MB pool...",
        FIG7_DURATION_MS / 60_000
    );
    let [ow, fc] = SYSTEMS.map(|(_, policy)| {
        fire(
            poisson_schedule(&FAASBENCH, FIG7_DURATION_MS, 0xFA57),
            policy,
        )
    });

    let mut rows = Vec::new();
    let mut fp_ratio = [0.0f64; 2];
    for (app, iat) in FAASBENCH {
        let fqdn = format!("{}-1", app.name());
        for (k, (label, outcomes)) in [("OpenWhisk", &ow), ("FaasCache", &fc)].iter().enumerate() {
            let (warm, cold, dropped) = tally(outcomes.iter().filter(|o| o.fqdn == fqdn));
            let hit = warm as f64 / (warm + cold).max(1) as f64;
            if app == FbApp::FloatingPoint {
                fp_ratio[k] = hit;
            }
            rows.push(vec![
                format!("{} ({iat}ms)", app.name()),
                label.to_string(),
                warm.to_string(),
                cold.to_string(),
                dropped.to_string(),
                format!("{hit:.3}"),
            ]);
        }
    }
    print_table(
        out,
        &format!("Figure 7: faasbench on the OpenWhisk architecture, {MEMORY_MB}MB pool"),
        &["function", "system", "warm", "cold", "dropped", "hit ratio"],
        &rows,
    )?;
    let (ow_warm, _, ow_dropped) = tally(ow.iter());
    let (fc_warm, _, fc_dropped) = tally(fc.iter());
    writeln!(
        out,
        "\nTotals: OpenWhisk warm {ow_warm} / dropped {ow_dropped}; FaasCache warm {fc_warm} / dropped {fc_dropped}"
    )?;
    writeln!(
        out,
        "floating-point hit-ratio: OpenWhisk {:.3} vs FaasCache {:.3} ({:.2}x; paper ~3x)",
        fp_ratio[0],
        fp_ratio[1],
        fp_ratio[1] / fp_ratio[0].max(1e-9)
    )?;
    writeln!(out, "Expected shape: FaasCache more warm requests and fewer drops; FP (high init, small memory) gains most under GD.")?;
    Ok(true)
}
