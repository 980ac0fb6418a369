//! Lifecycle: kill a worker mid-trace, recover from its WAL, and prove
//! convergence with one digest.
//!
//! Submits `--invocations` (default 24) async invocations against a
//! WAL-journaled worker and, at the submission the chaos plan's
//! `worker_kill` site picks (`--kill-at`, default 12), kills the worker
//! outright — no drain, no final snapshot. The session then rebuilds a
//! worker with [`Worker::recover`], awaits every replayed
//! invocation, and asserts the crash-safety contract: **no invocation
//! accepted before the kill is lost**, and the post-recovery state
//! (accepted trace ids, per-tenant books, completion totals) is a pure
//! function of the seed — which moment each in-flight invocation died at
//! must not leak into the digest.

use super::chaos::f_spec;
use super::{sim_backend, tenant_books, Args, Scratch};
use iluvatar_chaos::{sites, FaultPlan, FaultPlanConfig, FaultSpec};
use iluvatar_core::{
    AdmissionConfig, LifecycleConfig, RecoveryReport, TelemetrySink, TenantSpec, Worker,
    WorkerConfig,
};
use iluvatar_sync::storage::RealStorage;
use iluvatar_sync::{Clock, Fnv1a, SystemClock};
use std::sync::Arc;

fn cfg(wal_path: &str) -> WorkerConfig {
    WorkerConfig {
        lifecycle: LifecycleConfig {
            snapshot_every: 8,
            ..LifecycleConfig::with_wal(wal_path)
        },
        admission: AdmissionConfig::enabled_with(vec![
            TenantSpec::new("lc-a"),
            TenantSpec::new("lc-b"),
        ]),
        ..WorkerConfig::for_testing()
    }
}

/// First incarnation: submit, kill at submission `kill_at` (after the last
/// one if `kill_at` is beyond the trace), drop. Returns the accepted trace
/// ids and how many submissions the dead worker rejected. `sink` rides the
/// worker's bus from before registration.
pub(super) fn submit_and_kill(
    clock: &Arc<dyn Clock>,
    seed: u64,
    kill_at: u64,
    invocations: u64,
    wal_path: &str,
    sink: Option<Arc<dyn TelemetrySink>>,
) -> (Vec<u64>, u64) {
    // The kill is a chaos fault like any other: the worker_kill site fires
    // on the scheduled submission occurrence. The session performs the kill
    // itself — the injector sits below the control plane it terminates.
    let plan = FaultPlan::new(FaultPlanConfig {
        seed,
        worker_kill: FaultSpec::on_occurrences(vec![kill_at]),
        ..Default::default()
    });
    let worker = Worker::new(cfg(wal_path), sim_backend(clock), Arc::clone(clock));
    if let Some(sink) = sink {
        worker.telemetry().add_sink(sink);
    }
    worker.register(f_spec()).expect("register");

    // Submissions are sequential on this thread, so every accepted
    // invocation's Enqueued record is durable before the kill can fire:
    // "accepted" and "journaled" are the same set by construction.
    let mut accepted = Vec::new();
    let mut rejected_after_kill = 0u64;
    let mut killed = false;
    for i in 0..invocations {
        if plan.decide(sites::WORKER_KILL) && !killed {
            worker.kill();
            killed = true;
        }
        let tenant = if i % 2 == 0 { "lc-a" } else { "lc-b" };
        match worker.async_invoke_tenant("f-1", &format!("{{\"i\":{i}}}"), Some(tenant)) {
            // The journal entry is written synchronously at submission;
            // the newest trace is the one just accepted.
            Ok(_handle) => accepted.push(worker.recent_traces(1)[0].trace_id),
            Err(_) => rejected_after_kill += 1,
        }
    }
    if !killed {
        worker.kill();
    }
    drop(worker); // killed: its bus is closed, so nothing more reaches a sink
    (accepted, rejected_after_kill)
}

/// Second incarnation: replay the snapshot + tail, re-enqueue what never
/// completed, and run it to completion on a fresh backend (the old
/// containers died with the process). Asserts zero loss: every accepted
/// invocation completed before the kill (durable Completed record) or was
/// re-executed after it. Both incarnations share one clock: the WAL carries
/// the first one's timestamps.
pub(super) fn recover_all(
    clock: &Arc<dyn Clock>,
    wal_path: &str,
    accepted: &[u64],
    sinks: &[Arc<dyn TelemetrySink>],
) -> (Worker, RecoveryReport) {
    let (recovered, mut report) = Worker::recover(
        cfg(wal_path),
        sim_backend(clock),
        Arc::clone(clock),
        &[f_spec()],
        sinks,
        Arc::new(RealStorage),
    );
    for (id, handle) in std::mem::take(&mut report.handles) {
        assert!(handle.wait().is_ok(), "replayed invocation {id} failed");
    }
    let completed = recovered.status().completed;
    assert_eq!(
        completed,
        accepted.len() as u64,
        "accepted-before-kill invocations lost (completed={completed} accepted={})",
        accepted.len()
    );
    (recovered, report)
}

pub fn run(args: &Args) -> u64 {
    let kill_at = args.kill_at.unwrap_or(12);
    let invocations = args.invocations.unwrap_or(24);
    let scratch = Scratch::new("lifecycle");
    let wal_path = scratch.file("queue.wal");

    let clock = SystemClock::shared();
    let (accepted, rejected_after_kill) =
        submit_and_kill(&clock, args.seed, kill_at, invocations, &wal_path, None);
    let (recovered, report) = recover_all(&clock, &wal_path, &accepted, &[]);
    let st = recovered.status();

    // The digest covers only crash-timing-independent state: which ids were
    // accepted, the per-tenant books, and the completion total. How the
    // completions split between "before the kill" and "replayed" depends on
    // scheduling and must not appear here.
    let books = tenant_books(&recovered);
    let mut digest = Fnv1a::new();
    for id in &accepted {
        digest.write(format!("{id};").as_bytes());
    }
    digest.write(books.as_bytes());
    digest.write(
        format!(
            "completed={};dropped={};failed={};",
            st.completed, st.dropped, st.failed
        )
        .as_bytes(),
    );

    eprintln!(
        "seed={} kill_at={kill_at} invocations={invocations} accepted={} rejected_after_kill={rejected_after_kill}",
        args.seed,
        accepted.len()
    );
    eprintln!(
        "  recovery: replayed={} records_read={} torn_lines={} max_trace_id={}",
        report.replayed, report.records_read, report.torn_lines, report.max_trace_id
    );
    eprintln!(
        "  post-recovery: completed={} dropped={} failed={}; books: {books}",
        st.completed, st.dropped, st.failed
    );
    digest.finish()
}
