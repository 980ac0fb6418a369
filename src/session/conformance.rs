//! Conformance: replay the seeded session streams against the executable
//! reference models and prove zero violations — then (`--mutate`) prove
//! the checker has teeth by mutating known-good streams and demanding it
//! bites.
//!
//! Five sub-scenarios, each a real subsystem driven end-to-end with its
//! canonical telemetry captured and fed through [`iluvatar_conformance`]:
//!
//! * **A — chaos**: the telemetry scenario's rig (fault-injected backend,
//!   retries, WAL, admission) plus the result cache, through the
//!   WAL/timeline/cache models.
//! * **B — kill/recover**: the lifecycle scenario's crash at submission
//!   12, both incarnations' streams through one cumulative checker
//!   (`note_restart` between them), plus an offline differential: the raw
//!   WAL file through `ingest_wal_record` must agree with `wal::replay`.
//! * **C — autoscale**: the autoscale scenario's burst over a real fleet,
//!   membership/breaker/scale events through the fleet + breaker models.
//! * **D1 — live DRR**: a worker running the DRR queue policy under two
//!   weighted tenants; FIFO-within-tenant refinement + deficit bounds.
//! * **D2 — direct DRR**: a hand-driven `DrrQueue` in lockstep with the
//!   strict model — every pop must match the model's.
//!
//! [`mutate`] re-runs A and C and puts their captured streams through the
//! mutation battery in [`super::mutations`].

use super::chaos::{chaos_worker, f_spec, tap, tenant_of, wait_completed};
use super::{autoscale, check, expect_clean, lifecycle, mutations, sim_backend, tenant_books};
use super::{Args, Scratch};
use iluvatar_cache::CacheStatus;
use iluvatar_conformance::{Checker, DrrLockstep};
use iluvatar_core::{
    wal, AdmissionConfig, LifecycleConfig, QueuePolicyKind, TelemetryBus, TelemetryEvent,
    TelemetryKind, TelemetrySink, TenantSpec, Worker, WorkerConfig,
};
use iluvatar_sync::{fnv1a64, Fnv1a, RealStorage, SystemClock};
use iluvatar_telemetry::VecSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Chaos mix with the result cache on: the stream carries
/// cache:{fill,hit,miss} events and the checker holds every served hit to
/// a durable, unexpired, same-tenant fill.
fn scenario_chaos(seed: u64) -> (Vec<TelemetryEvent>, String) {
    let scratch = Scratch::new("conf-chaos");
    let invocations = 24usize;
    let (mut worker, injector) = chaos_worker(seed, Some(&scratch.file("queue.wal")), true);
    let sink = tap(&worker, &injector);
    worker
        .register(f_spec().with_idempotent())
        .expect("register");

    let mut cache_hits = 0u64;
    for i in 0..invocations {
        // Arguments repeat (i mod 6): once a result is cached, later
        // identical submissions are served without touching the backend.
        let args = format!("{{\"i\":{}}}", i % 6);
        let id = match worker.invoke_tenant("f-1", &args, Some(tenant_of(i))) {
            Ok(r) if r.cache == CacheStatus::Hit => {
                // A hit mints no trace: nothing to wait on.
                cache_hits += 1;
                continue;
            }
            Ok(r) => r.trace_id,
            Err(_) => worker.recent_traces(1)[0].trace_id,
        };
        // Serialize: each trace completes before the next starts emitting.
        wait_completed(&worker, id);
    }
    worker.shutdown();

    let events = sink.events();
    let report = check("A", Checker::new(), &events);

    // Digest: the same crash-timing-free material the telemetry scenario
    // folds — per-trace label sequences, per-label totals, tenant books,
    // snapshot reasons — plus the (zero) violation count.
    let mut part = String::new();
    let mut by_trace: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for e in &events {
        // A fill is emitted by the *caller* after wait(), so its position
        // relative to the invocation thread's trailing result_returned is
        // racy — keep cache ops out of the per-trace sequences (they are
        // digested via label_counts and the per-tenant cache stats).
        if let Some(t) = e.trace_id {
            if !matches!(&e.kind, TelemetryKind::Cache { .. }) {
                by_trace.entry(t).or_default().push(e.kind.label());
            }
        }
    }
    for (i, labels) in by_trace.values().enumerate() {
        part.push_str(&format!("t{i}={};", labels.join(",")));
    }
    for (label, count) in &report.label_counts {
        part.push_str(&format!("{label}:{count};"));
    }
    part.push_str(&tenant_books(&worker));
    for s in &worker.flight_recorder().snapshots() {
        part.push_str(&format!("snap:{};", s.reason));
    }
    for cs in &worker.cache_stats() {
        part.push_str(&format!(
            "cache:{}:{}:{}:{};",
            cs.tenant, cs.hits, cs.misses, cs.fills
        ));
    }
    part.push_str("violations=0;");
    eprintln!(
        "scenario A (chaos): {} events, {} traces, {cache_hits} cache hits, 0 violations",
        report.events,
        by_trace.len(),
    );
    (events, part)
}

/// Crash + recovery: both incarnations through one cumulative checker, plus
/// the raw WAL file differentially against `wal::replay`.
fn scenario_lifecycle(seed: u64) -> String {
    let scratch = Scratch::new("conf-lifecycle");
    let wal_path = scratch.file("queue.wal");
    let clock = SystemClock::shared();

    let sink1 = Arc::new(VecSink::new());
    let (accepted, _) = lifecycle::submit_and_kill(
        &clock,
        seed,
        12,
        24,
        &wal_path,
        Some(Arc::clone(&sink1) as Arc<dyn TelemetrySink>),
    );

    // Offline differential first, while the segments still hold the crash
    // tail: the same frames through the model must agree with `wal::replay`.
    let replay = wal::replay(Path::new(&wal_path)).expect("replay wal");
    let mut file_checker = Checker::new();
    let mut seg_bytes = Vec::new();
    for (_, seg) in wal::discover_segments(&RealStorage, Path::new(&wal_path)) {
        seg_bytes.extend_from_slice(&std::fs::read(&seg).expect("read segment"));
    }
    let scan = wal::scan_frames(&seg_bytes);
    for rec in wal::dedup_records(&scan.records) {
        file_checker.ingest_wal_record("wal-file", rec);
    }
    let file_report = expect_clean("B/file", file_checker.finish());
    assert_eq!(
        scan.corrupt_frames + scan.torn_tail,
        replay.corrupt_frames + replay.torn_lines,
        "quarantined-frame counts must agree"
    );
    let replay_pending: Vec<u64> = replay.pending.iter().map(|p| p.id).collect();
    assert_eq!(
        file_report.wal_pending, replay_pending,
        "model pending set must equal wal::replay's"
    );
    for t in &replay.tenants {
        let book = file_report
            .wal_books
            .get(&t.tenant)
            .copied()
            .unwrap_or_default();
        assert_eq!(
            (book.admitted, book.served, book.throttled, book.shed),
            (t.admitted, t.served, t.throttled, t.shed),
            "tenant `{}` books diverge between model and wal::replay",
            t.tenant
        );
    }

    // Recover, with the second incarnation's stream on its own sink.
    let sink2 = Arc::new(VecSink::new());
    let (recovered, rec_report) = lifecycle::recover_all(
        &clock,
        &wal_path,
        &accepted,
        &[Arc::clone(&sink2) as Arc<dyn TelemetrySink>],
    );
    let completed = recovered.status().completed;

    // Stream conformance across the crash: part 1, restart, part 2. The
    // checker must accept the whole story — at-least-once re-execution,
    // exactly-once accounting, no result-before-durable on the live side.
    let mut checker = Checker::new()
        .with_require_terminal(false)
        .with_context_window(64);
    for ev in &sink1.events() {
        checker.ingest(ev);
    }
    checker.note_restart("test-worker");
    drop(recovered); // shutdown: flush the final snapshot + lifecycle stop
    let report = check("B", checker, &sink2.events());

    let mut part = String::new();
    for id in &accepted {
        part.push_str(&format!("{id};"));
    }
    for (tenant, book) in &report.wal_books {
        part.push_str(&format!(
            "{tenant}:{}:{}:{}:{};",
            book.admitted, book.served, book.throttled, book.shed
        ));
    }
    part.push_str(&format!(
        "completed={completed};violations=0;file_violations=0;"
    ));
    eprintln!(
        "scenario B (kill/recover): accepted={} replayed={} completed={completed} file-pending={replay_pending:?} 0 violations",
        accepted.len(),
        rec_report.replayed,
    );
    part
}

/// Elastic fleet burst: membership, breaker, and scale events checked.
fn scenario_fleet(seed: u64) -> (Vec<TelemetryEvent>, String) {
    let clock = SystemClock::shared();
    // One bus for both emitters: membership + breaker from the cluster,
    // scale from the fleet, all on source `lb`.
    let bus = TelemetryBus::new("lb", Arc::clone(&clock));
    let sink = Arc::new(VecSink::new());
    bus.add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
    let b = autoscale::burst(seed, &clock, Some(bus));

    let events = sink.events();
    let report = check("C", Checker::new().seed_worker("w0"), &events);
    let part = format!(
        "{}{}invoked={};errors=0;violations=0;",
        b.trajectory, b.events, b.invoked
    );
    eprintln!(
        "scenario C (autoscale): {} lb events, peak_live={}, 0 violations",
        report.events, b.peak_live
    );
    (events, part)
}

/// A live worker on the DRR queue policy: FIFO-within-tenant refinement,
/// deficit bounds, and long-run weighted fairness on the real stream.
fn scenario_drr_live() -> String {
    let scratch = Scratch::new("conf-drr");
    let invocations = 48usize;

    let clock = SystemClock::shared();
    let mut cfg = WorkerConfig {
        admission: AdmissionConfig::enabled_with(vec![
            TenantSpec::new("gold").with_weight(3.0),
            TenantSpec::new("bronze"),
        ]),
        lifecycle: LifecycleConfig {
            snapshot_every: 16,
            ..LifecycleConfig::with_wal(&scratch.file("queue.wal"))
        },
        ..WorkerConfig::for_testing()
    };
    cfg.queue.policy = QueuePolicyKind::Drr;
    cfg.queue.drr_quantum_ms = 50;
    let mut worker = Worker::new(cfg, sim_backend(&clock), clock);
    let sink = Arc::new(VecSink::new());
    worker
        .telemetry()
        .add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
    worker.register(f_spec()).expect("register");

    // Burst the queue: async submissions from one thread, so stream order
    // equals enqueue order and the FIFO-within-tenant check is sound.
    let handles: Vec<_> = (0..invocations)
        .map(|i| {
            let tenant = if i % 2 == 0 { "gold" } else { "bronze" };
            worker
                .async_invoke_tenant("f-1", &format!("{{\"i\":{i}}}"), Some(tenant))
                .expect("enqueue")
        })
        .collect();
    let ok = handles
        .into_iter()
        .map(|h| h.wait())
        .filter(Result::is_ok)
        .count();
    worker.shutdown();

    let report = check("D1", Checker::new().with_drr_fifo(50.0), &sink.events());
    // Bypass is off: every dequeue is judged, or the check went blind.
    assert_eq!(report.drr_pops, 48, "D1: a dequeue went unjudged");

    // Only schedule-independent material: wal op counts, the books, the
    // completion total. (Warm/cold acquisition labels are racy.)
    let mut part = String::new();
    for (label, count) in &report.label_counts {
        if label.starts_with("wal:") {
            part.push_str(&format!("{label}:{count};"));
        }
    }
    for (tenant, book) in &report.wal_books {
        part.push_str(&format!(
            "{tenant}:{}:{}:{}:{};",
            book.admitted, book.served, book.throttled, book.shed
        ));
    }
    part.push_str(&format!("ok={ok};violations=0;"));
    eprintln!(
        "scenario D1 (live DRR): {} events, {} pop checks, ok={ok}/{invocations}, 0 violations",
        report.events, report.drr_pops
    );
    part
}

/// The real `DrrQueue` driven directly in lockstep with the strict model:
/// every pop must be exactly the model's pop.
fn scenario_drr_strict(seed: u64) -> String {
    const TENANTS: [(&str, f64); 3] = [("a", 1.0), ("b", 2.0), ("c", 4.0)];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd22);
    let cost = |rng: &mut StdRng| rng.gen_range(5.0..40.0f64).round();
    let mut sim = DrrLockstep::new(50);
    let mut items = 0u32;
    let mut pops: Vec<u64> = Vec::new();

    // Phase 1: deep backlog on all tenants, enough service while everyone
    // stays backlogged that the fairness window is audited.
    for round in 0..120 {
        let (t, w) = TENANTS[round % 3];
        sim.push(t, w, cost(&mut rng));
        items += 1;
    }
    for _ in 0..60 {
        pops.extend(sim.pop().map(|s| s.id));
    }
    // Phase 2: random interleave of pushes and pops.
    for _ in 0..150 {
        if rng.gen_range(0.0..1.0f64) < 0.4 {
            let (t, w) = TENANTS[rng.gen_range(0..3usize)];
            sim.push(t, w, cost(&mut rng));
            items += 1;
        } else {
            pops.extend(sim.pop().map(|s| s.id));
        }
    }
    // Phase 3: drain.
    while let Some(s) = sim.pop() {
        pops.push(s.id);
    }

    expect_clean("D2", sim.finish());
    eprintln!("scenario D2 (strict DRR): {items} items through the real queue, 0 violations");
    let pops: String = pops.iter().map(|id| format!("{id},")).collect();
    format!("pops={pops};violations=0;")
}

pub fn run(args: &Args) -> u64 {
    let seed = args.seed;
    let parts = [
        ("A", scenario_chaos(seed).1),
        ("B", scenario_lifecycle(seed)),
        ("C", scenario_fleet(seed).1),
        ("D1", scenario_drr_live()),
        ("D2", scenario_drr_strict(seed)),
    ];
    let mut digest = Fnv1a::new();
    for (tag, part) in &parts {
        eprintln!("digest part {tag}: {:016x}", fnv1a64(part.as_bytes()));
        digest.write(format!("{tag}:{part}").as_bytes());
    }
    digest.finish()
}

/// The mutation battery over fresh A and C streams: `(caught, total)`.
pub fn mutate(args: &Args) -> (u32, u32) {
    let (chaos, _) = scenario_chaos(args.seed);
    let (fleet, _) = scenario_fleet(args.seed);
    mutations::battery(&chaos, &fleet)
}
