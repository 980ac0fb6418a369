//! Micro table — the three measurements `perf --trace 1` does not cover,
//! each timed with a plain `Instant` loop and reported as the median of
//! its runs: the sharded map against a single-mutex map under 8-thread
//! contention (the §5 claim that a concurrent associative map beats a
//! mutex for the container pool), one keep-alive policy bookkeeping step
//! per policy, and the discrete-event simulator's replay speed (§3.4:
//! "simulate large systems and workloads").

use crate::{pctl, print_table};
use iluvatar_core::config::KeepalivePolicyKind;
use iluvatar_core::policies::{make_policy, EntryMeta};
use iluvatar_sim::{KeepaliveSim, SimConfig};
use iluvatar_sync::ShardedMap;
use iluvatar_trace::azure::{AzureTraceConfig, SyntheticAzureTrace};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::time::Instant;

const MAP_THREADS: u64 = 8;
const MAP_KEYS_PER_THREAD: u64 = 2_000;
const MAP_RUNS: usize = 25;
const POLICY_OPS: u64 = 200_000;
const POLICY_RUNS: usize = 9;
const REPLAY_RUNS: usize = 5;

/// Median wall time of `runs` calls of `f`, ns.
fn median_ns(runs: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    pctl(&samples, 0.5)
}

/// Every thread inserts then reads back its own keys through `insert_get`.
fn contend(insert_get: impl Fn(u64, u64) + Sync) {
    std::thread::scope(|s| {
        for t in 0..MAP_THREADS {
            let insert_get = &insert_get;
            s.spawn(move || {
                for i in 0..MAP_KEYS_PER_THREAD {
                    insert_get(t * 100_000 + i, i);
                }
            });
        }
    });
}

pub fn run(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    let mut rows = Vec::new();
    let mut row = |name: String, value: f64, unit: &str, runs: usize| {
        rows.push(vec![
            name,
            format!("{value:.1}"),
            unit.to_string(),
            runs.to_string(),
        ]);
    };

    let map_ops = (MAP_THREADS * MAP_KEYS_PER_THREAD * 2) as f64;
    let sharded = median_ns(MAP_RUNS, || {
        let m = ShardedMap::<u64, u64>::new();
        contend(|k, v| {
            m.insert(k, v);
            black_box(m.get(&k));
        });
    });
    row(
        "map 8 threads: ShardedMap".into(),
        sharded / map_ops,
        "ns/op",
        MAP_RUNS,
    );
    let mutexed = median_ns(MAP_RUNS, || {
        let m = Mutex::new(HashMap::<u64, u64>::new());
        contend(|k, v| {
            m.lock().insert(k, v);
            black_box(m.lock().get(&k).copied());
        });
    });
    row(
        "map 8 threads: Mutex<HashMap>".into(),
        mutexed / map_ops,
        "ns/op",
        MAP_RUNS,
    );

    for kind in KeepalivePolicyKind::all() {
        let mut policy = make_policy(kind, 600_000);
        let mut entries: Vec<EntryMeta> = (0..64)
            .map(|i| {
                let mut e = EntryMeta::new(format!("f{i}-1"), 64 + i * 8, 100.0 + i as f64, 0);
                policy.on_insert(&mut e, 0);
                e
            })
            .collect();
        let mut t = 1u64;
        let ns = median_ns(POLICY_RUNS, || {
            for _ in 0..POLICY_OPS {
                t += 1;
                let e = &mut entries[(t % 64) as usize];
                policy.on_arrival(&e.fqdn, t);
                policy.on_access(e, t);
                black_box(policy.priority(e, t));
            }
        });
        row(
            format!("keep-alive arrival+access+priority: {}", kind.name()),
            ns / POLICY_OPS as f64,
            "ns/op",
            POLICY_RUNS,
        );
    }

    let trace = SyntheticAzureTrace::generate(&AzureTraceConfig {
        apps: 100,
        duration_ms: 3_600_000,
        seed: 99,
        diurnal_fraction: 0.0,
        rate_scale: 1.0,
    });
    for kind in [
        KeepalivePolicyKind::Gdsf,
        KeepalivePolicyKind::Ttl,
        KeepalivePolicyKind::Hist,
    ] {
        let ns = median_ns(REPLAY_RUNS, || {
            black_box(KeepaliveSim::run(
                trace.profiles.clone(),
                &trace.events,
                SimConfig::new(kind, 4_096),
            ));
        });
        row(
            format!(
                "simulator replay, 1 h x 100 apps ({} events): {}",
                trace.events.len(),
                kind.name()
            ),
            ns / 1e6,
            "ms",
            REPLAY_RUNS,
        );
    }

    print_table(
        out,
        &format!(
            "Micro: medians of plain Instant loops ({} hardware threads)",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
        &["measurement", "median", "unit", "runs"],
        &rows,
    )?;
    writeln!(out, "\nExpected shape: ShardedMap below the single mutex per operation on a many-core host, a tie when the threads outnumber the cores; policy steps in the 10s-100s of ns; a one-hour replay in milliseconds.")?;
    Ok(true)
}
