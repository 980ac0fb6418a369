//! Storage faults: drive a worker's write-ahead log through the full
//! disk-fault menu — fsync failures, a torn write, an ENOSPC window with
//! degraded-mode re-arming, a 250 ms I/O stall, and a crash with a torn
//! segment tail — and prove the storage layer's contract holds throughout:
//!
//! * **P1 — baseline**: a healthy serialized trace; the books and counters
//!   the later phases are judged against.
//! * **P2 — retry ladder**: fsync failures every 3rd sync plus one torn
//!   write. Every invocation must still be accepted and complete; the
//!   surviving segments must scan to a model-legal record stream with the
//!   torn half-frame quarantined.
//! * **P3 — ENOSPC window**: a contiguous run of failed writes exhausts
//!   the ladder under `wal.on_error = degrade`; the worker must keep
//!   serving (results flagged non-durable), then re-arm once the window
//!   passes, with the degraded gauge visibly alternating.
//! * **P4 — stall shed**: one injected 250 ms fsync stall; an append
//!   arriving past the deadline must be shed with `WalUnavailable`
//!   (503 + Retry-After on the wire) instead of queueing behind the stall.
//! * **P5 — kill/recover**: a seeded mid-trace kill under active fsync
//!   faults, a hand-torn segment tail, and a bit-rot replay probe. The
//!   conformance checker rides the telemetry bus *online* across both
//!   incarnations; zero violations, zero lost accepted invocations.
//!
//! The digest folds each phase's schedule-independent material.

use super::{expect_clean, sim_backend, tenant_books, Args, Scratch};
use iluvatar_chaos::{DiskFaultPlanConfig, FaultSpec, FaultyStorage};
use iluvatar_conformance::{Checker, CheckerSink};
use iluvatar_containers::FunctionSpec;
use iluvatar_core::{
    wal, AdmissionConfig, InvokeError, LifecycleConfig, TelemetrySink, TenantSpec, WalConfig,
    WalRecord, Worker, WorkerConfig,
};
use iluvatar_sync::{fnv1a64, Clock, Fnv1a, ManualClock, RealStorage, Storage, SystemClock};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn base_cfg(wal_path: &str, wal: WalConfig) -> WorkerConfig {
    WorkerConfig {
        lifecycle: LifecycleConfig {
            // High threshold: no compaction mid-phase, so post-mortem scans
            // see the whole record stream including quarantined garbage.
            snapshot_every: 64,
            wal,
            ..LifecycleConfig::with_wal(wal_path)
        },
        admission: AdmissionConfig::enabled_with(vec![
            TenantSpec::new("st-a"),
            TenantSpec::new("st-b"),
        ]),
        ..WorkerConfig::for_testing()
    }
}

fn spec() -> FunctionSpec {
    FunctionSpec::new("f", "1").with_timing(100, 300)
}

/// A disk that misbehaves per `plan`, over the real one.
fn faulty(plan: DiskFaultPlanConfig) -> Arc<dyn Storage> {
    Arc::new(FaultyStorage::new(Arc::new(RealStorage), plan))
}

/// All surviving segment bytes of the WAL at `base`, in replay order.
fn wal_bytes(base: &Path) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (_, seg) in wal::discover_segments(&RealStorage, base) {
        bytes.extend_from_slice(&std::fs::read(&seg).unwrap_or_default());
    }
    bytes
}

/// Serialized trace: each invocation completes before the next submits, so
/// record order, fault-site occurrence order, and the books are all
/// schedule-independent.
fn run_serialized(worker: &Worker, n: usize, phase: &str) -> usize {
    let mut ok = 0usize;
    for i in 0..n {
        let tenant = if i % 2 == 0 { "st-a" } else { "st-b" };
        match worker.invoke_tenant("f-1", &format!("{{\"i\":{i}}}"), Some(tenant)) {
            Ok(_) => ok += 1,
            Err(e) => panic!("{phase}: invocation {i} rejected: {e}"),
        }
    }
    ok
}

// ---------------------------------------------------------------- phase P1

fn phase_healthy() -> String {
    let scratch = Scratch::new("storage-p1");
    let wal_path = scratch.file("queue.wal");
    let clock = SystemClock::shared();
    let mut worker = Worker::new(
        base_cfg(
            &wal_path,
            WalConfig {
                fsync: "always".into(),
                ..Default::default()
            },
        ),
        sim_backend(&clock),
        clock,
    );
    worker.register(spec()).expect("register");
    let ok = run_serialized(&worker, 8, "P1");
    let part = format!("ok={ok};{}", tenant_books(&worker));
    worker.shutdown();
    eprintln!("P1 (baseline): {ok}/8 completed");
    part
}

// ---------------------------------------------------------------- phase P2

fn phase_retry_ladder(seed: u64) -> String {
    let scratch = Scratch::new("storage-p2");
    let wal_path = scratch.file("queue.wal");
    let clock = SystemClock::shared();
    let storage = faulty(DiskFaultPlanConfig {
        seed,
        fsync_fail: FaultSpec::every_nth(3),
        write_torn: FaultSpec::on_occurrences(vec![4]),
        ..Default::default()
    });
    let worker = Worker::new_with_storage(
        base_cfg(
            &wal_path,
            WalConfig {
                fsync: "always".into(),
                retry_limit: 3,
                ..Default::default()
            },
        ),
        sim_backend(&clock),
        clock,
        storage,
    );
    worker.register(spec()).expect("register");
    let ok = run_serialized(&worker, 10, "P2");
    let st = worker.status();
    // Crash-style exit: no shutdown snapshot, so the scan below sees the
    // raw stream with the quarantined half-frame still in place.
    worker.kill();
    drop(worker);

    let bytes = wal_bytes(Path::new(&wal_path));
    let scan = wal::scan_frames(&bytes);
    let mut checker = Checker::new();
    for rec in wal::dedup_records(&scan.records) {
        checker.ingest_wal_record("wal-file", rec);
    }
    let report = expect_clean("storage/P2", checker.finish());
    if scan.corrupt_frames == 0 {
        panic!("P2: the torn write left no quarantined frame");
    }
    let part = format!(
        "ok={ok};records={};corrupt={};torn={};rot={};violations={};",
        scan.records.len(),
        scan.corrupt_frames,
        scan.torn_tail,
        st.wal_rotations,
        report.violations.len()
    );
    eprintln!(
        "P2 (retry ladder): {ok}/10 completed, {} records, {} quarantined, {} rotations",
        scan.records.len(),
        scan.corrupt_frames,
        st.wal_rotations
    );
    part
}

// ---------------------------------------------------------------- phase P3

fn phase_degrade_rearm(seed: u64) -> String {
    let scratch = Scratch::new("storage-p3");
    let wal_path = scratch.file("queue.wal");
    // On a clock only the loop moves, one re-arm interval a round, each round
    // makes one re-arm attempt (by its append or the re-arm task): a count.
    let clock = Arc::new(ManualClock::new());
    let storage = faulty(DiskFaultPlanConfig {
        seed,
        // A contiguous ENOSPC window: every write from op 4 to op 120
        // fails, deep enough to exhaust retry+rotate on every attempt.
        write_fail: FaultSpec::on_occurrences((4..=120).collect()),
        ..Default::default()
    });
    let mut worker = Worker::new_with_storage(
        base_cfg(
            &wal_path,
            WalConfig {
                fsync: "never".into(),
                on_error: "degrade".into(),
                retry_limit: 1,
                rearm_after_ms: 1,
                ..Default::default()
            },
        ),
        sim_backend(&SystemClock::shared()),
        Arc::clone(&clock) as Arc<dyn Clock>,
        storage,
    );
    worker.register(spec()).expect("register");

    let mut degraded_seen = false;
    let mut completed = 0usize;
    let mut rounds = 0usize;
    // Keep serving through the window: every invocation must be accepted
    // (durable or flagged non-durable), and once the window passes the
    // periodic/lazy re-arm must bring the log back.
    while rounds < 300 {
        clock.advance(1);
        let tenant = if rounds.is_multiple_of(2) {
            "st-a"
        } else {
            "st-b"
        };
        match worker.invoke_tenant("f-1", &format!("{{\"i\":{rounds}}}"), Some(tenant)) {
            Ok(_) => completed += 1,
            Err(e) => panic!("P3: degraded mode must keep serving: {e}"),
        }
        let st = worker.status();
        if st.wal_degraded {
            degraded_seen = true;
        }
        if degraded_seen && !st.wal_degraded && rounds >= 50 {
            break; // re-armed after the window
        }
        rounds += 1;
    }
    let st = worker.status();
    if !degraded_seen {
        panic!("P3: the ENOSPC window never forced degraded mode");
    }
    if st.wal_degraded {
        panic!("P3: the WAL never re-armed after the window passed");
    }
    if st.wal_non_durable == 0 {
        panic!("P3: degraded acceptance must be flagged non-durable");
    }
    // A post-rearm probe must land durably again.
    if worker
        .invoke_tenant("f-1", "{\"probe\":1}", Some("st-a"))
        .is_err()
    {
        panic!("P3: post-rearm probe rejected");
    }
    let part = format!(
        "degraded=1;rearmed=1;nondurable={};served_all={};",
        st.wal_non_durable,
        completed > 0
    );
    eprintln!(
        "P3 (ENOSPC/degrade): {completed} served through the window, non_durable={}, re-armed",
        st.wal_non_durable
    );
    worker.shutdown();
    part
}

// ---------------------------------------------------------------- phase P4

fn phase_stall_shed(seed: u64) -> String {
    let scratch = Scratch::new("storage-p4");
    let wal_path = scratch.file("queue.wal");
    let clock = SystemClock::shared();
    let storage = faulty(DiskFaultPlanConfig {
        seed,
        // The very first fsync of the phase hangs for 250 ms.
        fsync_stall: FaultSpec::on_occurrences(vec![0]),
        stall_ms: 250,
        ..Default::default()
    });
    let worker = Arc::new(Worker::new_with_storage(
        base_cfg(
            &wal_path,
            WalConfig {
                fsync: "always".into(),
                append_deadline_ms: 50,
                ..Default::default()
            },
        ),
        sim_backend(&clock),
        clock,
        storage,
    ));
    worker.register(spec()).expect("register");

    // Helper thread takes the stalling append; the main thread arrives
    // mid-stall, past the deadline, and must be shed instead of queueing.
    let w = Arc::clone(&worker);
    let helper = std::thread::spawn(move || {
        w.invoke_tenant("f-1", "{\"stall\":1}", Some("st-a"))
            .is_ok()
    });
    std::thread::sleep(Duration::from_millis(120));
    let mut shed_seen = false;
    for _ in 0..3 {
        match worker.invoke_tenant("f-1", "{\"mid\":1}", Some("st-b")) {
            Err(InvokeError::WalUnavailable) => {
                shed_seen = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    let helper_ok = helper.join().unwrap_or(false);
    // After the stall clears, service resumes at full durability.
    std::thread::sleep(Duration::from_millis(200));
    let after_ok = worker
        .invoke_tenant("f-1", "{\"after\":1}", Some("st-b"))
        .is_ok();
    let st = worker.status();
    if !shed_seen || st.wal_stall_sheds == 0 {
        panic!("P4: an append past the deadline must be shed with WalUnavailable");
    }
    if !helper_ok {
        panic!("P4: the stalled append itself must still land");
    }
    if !after_ok {
        panic!("P4: service must resume after the stall clears");
    }
    eprintln!(
        "P4 (stall shed): stalled append landed, mid-stall append shed ({} total), resumed",
        st.wal_stall_sheds
    );
    "stall_shed=1;helper=1;after=1;".to_string()
}

// ---------------------------------------------------------------- phase P5

fn phase_kill_recover(seed: u64) -> String {
    let scratch = Scratch::new("storage-p5");
    let wal_path = scratch.file("queue.wal");
    let clock = SystemClock::shared();
    let storage = faulty(DiskFaultPlanConfig {
        seed,
        fsync_fail: FaultSpec::every_nth(3),
        ..Default::default()
    });
    let mk_cfg = || {
        base_cfg(
            &wal_path,
            WalConfig {
                fsync: "always".into(),
                retry_limit: 3,
                ..Default::default()
            },
        )
    };
    // The conformance checker rides the bus online, across both
    // incarnations of the worker.
    let sink = Arc::new(CheckerSink::new(
        Checker::new()
            .with_require_terminal(false)
            .with_context_window(64),
    ));

    let worker = Worker::new_with_storage(
        mk_cfg(),
        sim_backend(&clock),
        Arc::clone(&clock),
        Arc::clone(&storage),
    );
    worker
        .telemetry()
        .add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
    worker.register(spec()).expect("register");
    let mut accepted = 0usize;
    for i in 0..16u64 {
        if i == 10 {
            worker.kill(); // crash mid-trace: queued work stays pending
        }
        let tenant = if i % 2 == 0 { "st-a" } else { "st-b" };
        if worker
            .async_invoke_tenant("f-1", &format!("{{\"i\":{i}}}"), Some(tenant))
            .is_ok()
        {
            accepted += 1;
        }
    }
    drop(worker);

    // One torn segment tail: the crash cut a frame short.
    if let Some((_, last)) = wal::discover_segments(&RealStorage, Path::new(&wal_path))
        .into_iter()
        .next_back()
    {
        let garbage = wal::encode_frame(&WalRecord::Dequeued { id: 999_999 });
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&last)
            .expect("open last segment");
        std::io::Write::write_all(&mut f, &garbage[..garbage.len() / 2]).expect("tear tail");
    }

    // Bit-rot replay probe: a read-path flip must be quarantined, never
    // fatal — and it must not touch the on-disk bytes the real recovery
    // reads next.
    let bitrot = faulty(DiskFaultPlanConfig {
        seed,
        read_bitrot: FaultSpec::every_nth(1),
        ..Default::default()
    });
    let rotted = wal::replay_with(Path::new(&wal_path), bitrot.as_ref())
        .unwrap_or_else(|e| panic!("P5: bit-rot replay probe errored: {e}"));
    if rotted.corrupt_frames + rotted.torn_lines == 0 {
        panic!("P5: the bit-rot probe must quarantine at least one frame");
    }

    // Clean replay: exactly the hand-torn tail is quarantined, and no
    // durably-completed id sits in the pending set.
    let replayed = wal::replay(Path::new(&wal_path)).expect("replay");
    if replayed.torn_lines == 0 {
        panic!("P5: the torn segment tail must be quarantined");
    }
    let scan = wal::scan_frames(&wal_bytes(Path::new(&wal_path)));
    let completed_ids: HashSet<u64> = scan
        .records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Completed { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    for p in &replayed.pending {
        if completed_ids.contains(&p.id) {
            panic!("P5: completed id {} resurrected", p.id);
        }
    }

    sink.note_restart("test-worker");
    let (recovered, rep) = Worker::recover(
        mk_cfg(),
        sim_backend(&clock),
        clock,
        &[spec()],
        &[Arc::clone(&sink) as Arc<dyn TelemetrySink>],
        storage,
    );
    for (_id, handle) in rep.handles {
        if handle.wait().is_err() {
            panic!("P5: a replayed invocation failed");
        }
    }
    let st = recovered.status();
    if st.completed as usize != accepted {
        panic!(
            "P5: lost accepted invocations: completed {} of {accepted}",
            st.completed
        );
    }
    if st.wal_quarantined == 0 {
        panic!("P5: recovery must surface the quarantined tail on /status");
    }
    drop(recovered);
    let report = expect_clean("storage/P5", sink.finish());
    let part = format!(
        "accepted={accepted};completed={};violations={};torn_tail=1;bitrot=1;",
        st.completed,
        report.violations.len()
    );
    eprintln!(
        "P5 (kill/recover): accepted={accepted} replayed={} completed={} quarantined={} 0 violations",
        rep.replayed, st.completed, st.wal_quarantined
    );
    part
}

pub fn run(args: &Args) -> u64 {
    let seed = args.seed;
    let parts = [
        ("P1", phase_healthy()),
        ("P2", phase_retry_ladder(seed)),
        ("P3", phase_degrade_rearm(seed)),
        ("P4", phase_stall_shed(seed)),
        ("P5", phase_kill_recover(seed)),
    ];
    let mut digest = Fnv1a::new();
    for (tag, part) in &parts {
        eprintln!("digest part {tag}: {:016x}", fnv1a64(part.as_bytes()));
        digest.write(format!("{tag}:{part}").as_bytes());
    }
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_enospc_window_flags_the_same_count_every_run() {
        // The part folds the non-durable count.
        assert_eq!(phase_degrade_rearm(42), phase_degrade_rearm(42));
    }
}
