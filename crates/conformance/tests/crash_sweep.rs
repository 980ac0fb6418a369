//! Crash-consistency sweep: inject a disk fault at every k-th I/O of a
//! seeded trace, kill the worker mid-trace, and recover. For every (fault
//! kind, k) cell the recovered state must be model-legal (zero checker
//! violations on the surviving log), accounting must be exactly-once (a
//! durably-completed invocation is never resurrected into the pending set),
//! and the recovered worker must run every replayed invocation to
//! completion. The write ladder (retry → rotate) is what makes this hold:
//! a fault on the k-th attempt is retried on the (k+1)-th, so accepted
//! records always land even though individual writes keep failing.
//!
//! The grid runs twice: under `fsync = "always"` with one serial submitter,
//! and under `fsync = "group"` — the mode the benchmark runs — with four
//! concurrent submitters, so leaders, followers and the kill interleave.

use iluvatar_chaos::{DiskFaultPlanConfig, FaultSpec, FaultyStorage};
use iluvatar_conformance::{Checker, CheckerSink};
use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
use iluvatar_containers::{ContainerBackend, FunctionSpec};
use iluvatar_core::{
    wal, AdmissionConfig, InvocationHandle, LifecycleConfig, TenantSpec, WalConfig, WalRecord,
    Worker, WorkerConfig,
};
use iluvatar_sync::{RealStorage, SystemClock};
use iluvatar_telemetry::TelemetrySink;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("iluvatar-crashsweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

fn worker_cfg(wal_path: &str, fsync: &str) -> WorkerConfig {
    WorkerConfig {
        lifecycle: LifecycleConfig {
            snapshot_every: 6,
            wal: WalConfig {
                fsync: fsync.into(),
                retry_limit: 3,
                ..WalConfig::default()
            },
            ..LifecycleConfig::with_wal(wal_path)
        },
        admission: AdmissionConfig::enabled_with(vec![
            TenantSpec::new("sweep-a"),
            TenantSpec::new("sweep-b"),
        ]),
        ..WorkerConfig::for_testing()
    }
}

fn mk_backend(clock: &Arc<dyn iluvatar_sync::Clock>) -> Arc<dyn ContainerBackend> {
    Arc::new(SimBackend::new(
        Arc::clone(clock),
        SimBackendConfig {
            time_scale: 0.01,
            ..Default::default()
        },
    ))
}

/// All surviving segment bytes of the WAL at `base`, in replay order.
fn wal_bytes(base: &Path) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (_, seg) in wal::discover_segments(&RealStorage, base) {
        bytes.extend_from_slice(&std::fs::read(&seg).expect("read segment"));
    }
    bytes
}

#[derive(Clone, Copy)]
enum FaultKind {
    FsyncFail,
    TornWrite,
    Enospc,
}

impl FaultKind {
    fn tag(self) -> &'static str {
        match self {
            FaultKind::FsyncFail => "fsync",
            FaultKind::TornWrite => "torn",
            FaultKind::Enospc => "enospc",
        }
    }

    fn plan(self, seed: u64, k: u64) -> DiskFaultPlanConfig {
        let spec = FaultSpec::every_nth(k);
        match self {
            FaultKind::FsyncFail => DiskFaultPlanConfig {
                seed,
                fsync_fail: spec,
                ..Default::default()
            },
            FaultKind::TornWrite => DiskFaultPlanConfig {
                seed,
                write_torn: spec,
                ..Default::default()
            },
            FaultKind::Enospc => DiskFaultPlanConfig {
                seed,
                write_fail: spec,
                ..Default::default()
            },
        }
    }
}

fn submit(worker: &Worker, i: u64) -> Option<InvocationHandle> {
    let tenant = if i.is_multiple_of(2) {
        "sweep-a"
    } else {
        "sweep-b"
    };
    let args = format!("{{\"i\":{i}}}");
    worker.async_invoke_tenant("f-1", &args, Some(tenant)).ok()
}

/// The `always` trace: 18 submissions from one thread, killed before the
/// 13th — queued work stays pending in the log.
fn serial_trace(worker: &mut Worker) -> Vec<InvocationHandle> {
    let mut accepted = Vec::new();
    for i in 0..18u64 {
        if i == 12 {
            worker.kill();
        }
        accepted.extend(submit(worker, i));
    }
    accepted
}

/// The `group` trace: four submitters, six submissions each, killed as soon
/// as twelve were accepted — with submissions, their leaders' fsyncs and
/// the executors' completion waits all in flight.
fn concurrent_trace(worker: &mut Worker) -> Vec<InvocationHandle> {
    let count = AtomicUsize::new(0);
    let worker = RwLock::new(worker);
    std::thread::scope(|s| {
        let submitter = |t: u64| {
            let (worker, count) = (&worker, &count);
            s.spawn(move || {
                let mut mine = Vec::new();
                for i in 0..6 {
                    if let Some(h) = submit(&worker.read().unwrap(), t * 6 + i) {
                        count.fetch_add(1, Ordering::SeqCst);
                        mine.push(h);
                    }
                }
                mine
            })
        };
        let submitters: Vec<_> = (0..4).map(submitter).collect();
        while count.load(Ordering::SeqCst) < 12 && !submitters.iter().all(|t| t.is_finished()) {
            std::thread::yield_now();
        }
        worker.write().unwrap().kill();
        let joined = submitters.into_iter().map(|t| t.join().unwrap());
        joined.flatten().collect()
    })
}

/// One sweep cell: run a seeded trace under the fault plan, kill mid-trace,
/// then check the surviving log and recover from it.
fn sweep_cell(kind: FaultKind, k: u64, fsync: &str) {
    let tag = format!("{fsync}/{}/k={k}", kind.tag());
    let dir = temp_dir(&format!("{fsync}-{}-{k}", kind.tag()));
    let wal_path = dir.join("queue.wal").to_str().unwrap().to_string();
    let clock = SystemClock::shared();
    let spec = FunctionSpec::new("f", "1").with_timing(100, 300);
    let storage: Arc<dyn iluvatar_sync::Storage> = Arc::new(FaultyStorage::new(
        Arc::new(RealStorage),
        kind.plan(0xC4A5_11E5 ^ k, k),
    ));

    // The conformance checker rides the bus online, across both
    // incarnations: `accepted-not-durable` and `result-before-durable` are
    // rules about the live stream, not the file.
    let sink = Arc::new(CheckerSink::new(
        Checker::new().with_require_terminal(false),
    ));
    let cfg = worker_cfg(&wal_path, fsync);
    let name = cfg.name.clone();
    let mut worker = Worker::new_with_storage(
        cfg,
        mk_backend(&clock),
        Arc::clone(&clock),
        Arc::clone(&storage),
    );
    worker
        .telemetry()
        .add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
    worker.register(spec.clone()).expect("register");
    let accepted = match fsync {
        "group" => concurrent_trace(&mut worker),
        _ => serial_trace(&mut worker),
    };
    drop(worker);
    assert!(
        accepted.len() >= 12,
        "{tag}: the ladder should keep appends landing ({} accepted)",
        accepted.len()
    );

    // The surviving log replays to a model-legal state.
    let bytes = wal_bytes(Path::new(&wal_path));
    let replayed = wal::replay(Path::new(&wal_path)).expect("replay");
    let scan = wal::scan_frames(&bytes);
    let mut checker = Checker::new();
    // The ladder lands records at-least-once (an fsync failure rewrites the
    // whole frame); the model checks the effective, deduplicated stream.
    for rec in wal::dedup_records(&scan.records) {
        checker.ingest_wal_record("wal-file", rec);
    }
    let report = checker.finish();
    assert!(
        report.ok(),
        "{tag}: recovery state violates the model: {:?}",
        report.violations
    );
    if matches!(kind, FaultKind::TornWrite) {
        assert!(
            replayed.corrupt_frames > 0,
            "{tag}: torn writes must leave quarantined half-frames"
        );
    }

    // Exactly-once: a durably-completed id is never resurrected as pending.
    let completed: HashSet<u64> = scan
        .records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Completed { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    for p in &replayed.pending {
        assert!(
            !completed.contains(&p.id),
            "{tag}: completed id {} resurrected into the pending set",
            p.id
        );
    }

    // Accepted ⟹ durable: every submission that returned `Ok` left its
    // `Enqueued` record in the surviving log, and a handle that came back
    // with a result names one of them.
    let enqueued: HashSet<u64> = scan
        .records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Enqueued { inv } => Some(inv.id),
            _ => None,
        })
        .collect();
    assert!(
        accepted.len() <= enqueued.len(),
        "{tag}: {} accepted, {} enqueued records survive",
        accepted.len(),
        enqueued.len()
    );
    for result in accepted.into_iter().filter_map(|h| h.wait().ok()) {
        assert!(
            enqueued.contains(&result.trace_id),
            "{tag}: trace {} returned a result but its enqueue is not in the log",
            result.trace_id
        );
    }

    // Full recovery under the same (still-faulty) storage: every replayed
    // invocation runs to completion, none is double-counted.
    sink.note_restart(&name);
    let (recovered, rep) = Worker::recover(
        worker_cfg(&wal_path, fsync),
        mk_backend(&clock),
        Arc::clone(&clock),
        std::slice::from_ref(&spec),
        &[Arc::clone(&sink) as Arc<dyn TelemetrySink>],
        storage,
    );
    assert_eq!(
        rep.replayed,
        replayed.pending.len(),
        "{tag}: recovery must re-enqueue exactly the pending set"
    );
    for (_id, handle) in rep.handles {
        assert!(handle.wait().is_ok(), "{tag}: a replayed invocation failed");
    }
    let st = recovered.status();
    // Exactly-once across incarnations: the recovered counter is the
    // restored pre-crash baseline plus one completion per replayed id.
    assert_eq!(
        st.completed,
        replayed.counters.completed + rep.replayed as u64,
        "{tag}: replayed work must complete exactly once"
    );
    drop(recovered);
    let online = sink.finish();
    assert!(online.ok(), "{tag}: live stream: {:?}", online.violations);
    let _ = std::fs::remove_dir_all(&dir);
}

const KINDS: [FaultKind; 3] = [
    FaultKind::FsyncFail,
    FaultKind::TornWrite,
    FaultKind::Enospc,
];

#[test]
fn fsync_failure_sweep_recovers_model_legal() {
    for k in [2, 3, 5, 7] {
        sweep_cell(FaultKind::FsyncFail, k, "always");
    }
}

#[test]
fn torn_write_sweep_recovers_model_legal() {
    for k in [2, 3, 5, 7] {
        sweep_cell(FaultKind::TornWrite, k, "always");
    }
}

#[test]
fn enospc_sweep_recovers_model_legal() {
    for k in [2, 3, 5, 7] {
        sweep_cell(FaultKind::Enospc, k, "always");
    }
}

#[test]
fn group_commit_sweep_recovers_model_legal() {
    for kind in KINDS {
        for k in [2, 3, 5, 7] {
            sweep_cell(kind, k, "group");
        }
    }
}
