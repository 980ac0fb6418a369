//! Ablation — push vs pull vs hybrid dispatch.
//!
//! One seeded heavy-tailed workload (Zipf function popularity, 90% short /
//! 10% long service times) replayed through three dispatch planes in a
//! discrete-event simulation:
//!
//! * **push** — CH-BL as the balancer runs it today (the real
//!   [`iluvatar_lb::chbl::ChBl`]): hash affinity plus bounded-load
//!   forwarding, but the load signal is a *stale* snapshot (refreshed every
//!   250 ms), so long jobs pile up behind routing decisions made on old
//!   information.
//! * **pull** — the real [`iluvatar_dispatch::PullPlane`]: invocations land
//!   in central per-class queues and idle workers pull (stealing from
//!   sibling shards when their own is empty). No stale signal exists —
//!   a worker that pulls is idle by construction.
//! * **hybrid** — warm-hit-likely invocations (a worker ran the function
//!   inside the warm window) push straight to that worker; everything
//!   else spills to the pull queues.
//!
//! The claim under test (§"Let the workers pull"): with heavy-tailed
//! service times and stale load signals, pull-based dispatch bounds tail
//! latency — push's p99 suffers head-of-line blocking that pull cannot
//! have. The gate is `pull p99 <= push p99` and `hybrid p99 <= push p99`.

use crate::{pctl, print_table};
use iluvatar_dispatch::{DispatchConfig, DispatchMode, PullPlane};
use iluvatar_lb::chbl::{ChBl, ChBlConfig};
use iluvatar_sync::clock::{Clock, ManualClock};
use rand::{Rng, SeedableRng, StdRng};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::io::{self, Write};
use std::sync::Arc;

const WORKERS: usize = 6;
const JOBS: usize = 6_000;
const FUNCTIONS: usize = 40;
const SEED: u64 = 0xD15C;

/// One invocation of the shared workload.
struct Job {
    arrival_ms: u64,
    fqdn: usize,
    service_ms: u64,
}

/// Cold penalty added the first time a function runs on a given worker.
const COLD_MS: u64 = 60;
/// Push mode's load snapshot refresh period: routing decisions between
/// refreshes act on stale queue lengths, exactly like a scraped signal.
const STALE_MS: u64 = 250;

/// Zipf-popular functions, Poisson arrivals, bimodal service times.
fn workload(seed: u64, n_jobs: usize, n_fns: usize, mean_iat_ms: f64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<f64> = (0..n_fns).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut t = 0.0f64;
    (0..n_jobs)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -mean_iat_ms * (1.0 - u).max(1e-12).ln();
            let mut pick: f64 = rng.gen_range(0.0..total);
            let mut fqdn = n_fns - 1;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    fqdn = i;
                    break;
                }
                pick -= w;
            }
            let service_ms = if rng.gen_bool(0.10) {
                rng.gen_range(300u64..=700)
            } else {
                rng.gen_range(8u64..=12)
            };
            Job {
                arrival_ms: t as u64,
                fqdn,
                service_ms,
            }
        })
        .collect()
}

struct Outcome {
    e2e: Vec<f64>,
    colds: u64,
    steals: u64,
}

/// Runtime of `job` on `worker`, charging the cold penalty on the first
/// (worker, function) encounter.
fn runtime(job: &Job, worker: usize, seen: &mut BTreeSet<(usize, usize)>, colds: &mut u64) -> u64 {
    if seen.insert((worker, job.fqdn)) {
        *colds += 1;
        job.service_ms + COLD_MS
    } else {
        job.service_ms
    }
}

/// CH-BL push with a stale load signal: the balancer's own ring picks on
/// the last snapshot of per-worker outstanding jobs; per-worker FIFO
/// execution.
fn run_push(jobs: &[Job], n_workers: usize) -> Outcome {
    let ring = ChBl::new(n_workers, ChBlConfig::default());
    let mut completions: Vec<Vec<u64>> = vec![Vec::new(); n_workers];
    let mut busy_until = vec![0u64; n_workers];
    let mut stale_loads = vec![0f64; n_workers];
    let mut next_snapshot = 0u64;
    let mut seen = BTreeSet::new();
    let mut colds = 0u64;
    let mut e2e = Vec::with_capacity(jobs.len());
    for job in jobs {
        let now = job.arrival_ms;
        while now >= next_snapshot {
            for (w, c) in completions.iter().enumerate() {
                stale_loads[w] = c.iter().filter(|&&t| t > next_snapshot).count() as f64;
            }
            next_snapshot += STALE_MS;
        }
        let (w, _hops) = ring.pick(&format!("fn-{}", job.fqdn), &stale_loads);
        let dur = runtime(job, w, &mut seen, &mut colds);
        let done = busy_until[w].max(now) + dur;
        busy_until[w] = done;
        completions[w].push(done);
        e2e.push((done - now) as f64);
    }
    Outcome {
        e2e,
        colds,
        steals: 0,
    }
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Worker `w` finished lease `lease_id` on the job at `job_idx`.
    Free {
        w: usize,
        lease_id: u64,
        job_idx: usize,
    },
    Arrival(usize),
}

/// Pull and hybrid modes against the real [`PullPlane`] on a manual clock.
fn run_plane(jobs: &[Job], n_workers: usize, mode: DispatchMode) -> Outcome {
    let clock = Arc::new(ManualClock::new());
    let mut cfg = match mode {
        DispatchMode::Pull => DispatchConfig::pull(),
        DispatchMode::Hybrid => DispatchConfig::hybrid(),
        DispatchMode::Push => unreachable!("push runs in run_push"),
    };
    // No worker ever dies in the ablation: a TTL past the trace end keeps
    // requeues out of the latency comparison.
    cfg.lease_ttl_ms = 3_600_000;
    cfg.max_batch = 1;
    let plane = PullPlane::new(cfg, clock.clone() as Arc<dyn Clock>);
    let names: Vec<String> = (0..n_workers).map(|w| format!("w{w}")).collect();
    for n in &names {
        plane.register_worker(n);
    }

    let mut heap: BinaryHeap<Reverse<(u64, u64, Event)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, j) in jobs.iter().enumerate() {
        heap.push(Reverse((j.arrival_ms, seq, Event::Arrival(i))));
        seq += 1;
    }
    let mut idle: BTreeSet<usize> = (0..n_workers).collect();
    // Plane task id -> workload index, recorded at enqueue time.
    let mut task_job: HashMap<u64, usize> = HashMap::new();
    let mut seen = BTreeSet::new();
    let mut colds = 0u64;
    let mut e2e = vec![0f64; jobs.len()];

    // Start `job_idx` on `w` at `now`; returns the Free event time.
    let start =
        |w: usize,
         job_idx: usize,
         started: u64,
         seen: &mut BTreeSet<(usize, usize)>,
         colds: &mut u64| { started + runtime(&jobs[job_idx], w, seen, colds) };

    while let Some(Reverse((now, _, ev))) = heap.pop() {
        clock.set(now);
        match ev {
            Event::Arrival(job_idx) => {
                let job = &jobs[job_idx];
                let fqdn = format!("fn-{}", job.fqdn);
                // Hybrid pushes warm-hit-likely work straight to the warm
                // worker — but only through the bounded-load gate: a busy
                // target spills the invocation to the pull queues instead
                // (the real balancer's CH-BL bound plays this role).
                let pushed = if mode == DispatchMode::Hybrid {
                    plane.warm_target(&fqdn).and_then(|name| {
                        let w = names.iter().position(|n| *n == name).expect("known worker");
                        idle.contains(&w).then_some(w)
                    })
                } else {
                    None
                };
                match pushed {
                    Some(w) => {
                        idle.remove(&w);
                        let done = start(w, job_idx, now, &mut seen, &mut colds);
                        e2e[job_idx] = (done - now) as f64;
                        plane.note_warm(&fqdn, &names[w]);
                        heap.push(Reverse((
                            done,
                            seq,
                            Event::Free {
                                w,
                                lease_id: 0,
                                job_idx: usize::MAX,
                            },
                        )));
                        seq += 1;
                    }
                    None => {
                        let id = plane
                            .enqueue(
                                &fqdn,
                                "{}",
                                Some(if job.fqdn.is_multiple_of(3) {
                                    "beta"
                                } else {
                                    "acme"
                                }),
                            )
                            .expect("enqueue");
                        task_job.insert(id, job_idx);
                        // Hand the backlog to any idle worker (lowest index
                        // first for determinism); pulls steal across shards
                        // when a worker's own shard is empty.
                        while let Some(&w) = idle.iter().next() {
                            let leases = plane.pull(&names[w], 1);
                            if leases.is_empty() {
                                break;
                            }
                            idle.remove(&w);
                            for lease in leases {
                                let ji = task_job[&lease.task.id];
                                let done = start(w, ji, now, &mut seen, &mut colds);
                                e2e[ji] = (done - lease.task.enqueued_at_ms) as f64;
                                heap.push(Reverse((
                                    done,
                                    seq,
                                    Event::Free {
                                        w,
                                        lease_id: lease.lease_id,
                                        job_idx: ji,
                                    },
                                )));
                                seq += 1;
                            }
                        }
                    }
                }
            }
            Event::Free {
                w,
                lease_id,
                job_idx,
            } => {
                if job_idx != usize::MAX {
                    let job = &jobs[job_idx];
                    plane.complete(lease_id, true, "", job.service_ms);
                }
                let leases = plane.pull(&names[w], 1);
                if leases.is_empty() {
                    idle.insert(w);
                    continue;
                }
                for lease in leases {
                    let ji = task_job[&lease.task.id];
                    let done = start(w, ji, now, &mut seen, &mut colds);
                    e2e[ji] = (done - lease.task.enqueued_at_ms) as f64;
                    heap.push(Reverse((
                        done,
                        seq,
                        Event::Free {
                            w,
                            lease_id: lease.lease_id,
                            job_idx: ji,
                        },
                    )));
                    seq += 1;
                }
            }
        }
    }
    assert_eq!(plane.depth(), 0, "trace drained");
    let c = plane.counters();
    Outcome {
        e2e,
        colds,
        steals: c.stolen,
    }
}

fn row(label: &str, out: &Outcome) -> Vec<String> {
    let mean = out.e2e.iter().sum::<f64>() / out.e2e.len() as f64;
    vec![
        label.to_string(),
        format!("{:.1}", pctl(&out.e2e, 0.50)),
        format!("{:.1}", pctl(&out.e2e, 0.99)),
        format!("{mean:.1}"),
        out.colds.to_string(),
        out.steals.to_string(),
    ]
}

pub fn run(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    // ~70% utilization: mean service 0.9*10 + 0.1*500 = 59 ms across the
    // fleet, so queues form behind the long jobs without saturating.
    let mean_service = 0.9 * 10.0 + 0.1 * 500.0;
    let mean_iat = mean_service / (0.7 * WORKERS as f64);
    let jobs = workload(SEED, JOBS, FUNCTIONS, mean_iat);
    eprintln!(
        "dispatch ablation: {JOBS} jobs / {FUNCTIONS} fns / {WORKERS} workers, mean iat {mean_iat:.1}ms, seed {SEED:#x}"
    );

    let push = run_push(&jobs, WORKERS);
    let pull = run_plane(&jobs, WORKERS, DispatchMode::Pull);
    let hybrid = run_plane(&jobs, WORKERS, DispatchMode::Hybrid);

    print_table(
        out,
        "Ablation: dispatch mode — heavy-tailed mix, stale push signal",
        &["mode", "p50 ms", "p99 ms", "mean ms", "colds", "steals"],
        &[
            row("push (ch-bl, stale)", &push),
            row("pull", &pull),
            row("hybrid", &hybrid),
        ],
    )?;

    let (push99, pull99, hybrid99) = (
        pctl(&push.e2e, 0.99),
        pctl(&pull.e2e, 0.99),
        pctl(&hybrid.e2e, 0.99),
    );
    let held = pull99 <= push99 && hybrid99 <= push99;
    let vs = |p99: f64| if p99 <= push99 { "<=" } else { ">" };
    writeln!(
        out,
        "\n{}: pull p99 {pull99:.1}ms {} push p99 {push99:.1}ms; hybrid p99 {hybrid99:.1}ms {} push p99 {push99:.1}ms",
        if held { "OK" } else { "FAIL" },
        vs(pull99),
        vs(hybrid99),
    )?;
    Ok(held)
}
