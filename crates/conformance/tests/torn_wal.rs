//! Torn-WAL fuzz: a crash can cut the log at any byte. Every byte-prefix of
//! a real worker's WAL must (a) replay without panicking, (b) land in a
//! state the [`WalModel`] accepts with zero violations, and (c) agree with
//! the model on the pending set and the per-tenant books. A sample of
//! prefixes additionally goes through the full [`Worker::recover`] path:
//! the recovered worker must run every replayed invocation to completion
//! and shut down cleanly.

use iluvatar_chaos::{sites, FaultPlan, FaultPlanConfig, FaultSpec};
use iluvatar_conformance::Checker;
use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
use iluvatar_containers::{ContainerBackend, FunctionSpec};
use iluvatar_core::{wal, AdmissionConfig, LifecycleConfig, TenantSpec, Worker, WorkerConfig};
use iluvatar_sync::{RealStorage, SystemClock};
use std::path::Path;
use std::sync::Arc;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("iluvatar-tornwal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

fn worker_cfg(wal_path: &str) -> WorkerConfig {
    WorkerConfig {
        lifecycle: LifecycleConfig {
            snapshot_every: 5,
            ..LifecycleConfig::with_wal(wal_path)
        },
        admission: AdmissionConfig::enabled_with(vec![
            TenantSpec::new("torn-a"),
            TenantSpec::new("torn-b"),
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

/// Produce a realistic WAL: snapshots, completions, and a crash tail with
/// in-flight + queued work (the kill leaves pending records).
fn generate_wal(dir: &Path) -> (String, Vec<u8>) {
    let wal_path = dir.join("queue.wal").to_str().unwrap().to_string();
    let clock = SystemClock::shared();
    let spec = FunctionSpec::new("f", "1").with_timing(100, 300);
    let plan = FaultPlan::new(FaultPlanConfig {
        seed: 7,
        worker_kill: FaultSpec::on_occurrences(vec![11]),
        ..Default::default()
    });
    let worker = Worker::new(
        worker_cfg(&wal_path),
        mk_backend(&clock),
        Arc::clone(&clock),
    );
    worker.register(spec).expect("register");
    let mut killed = false;
    for i in 0..16u64 {
        if plan.decide(sites::WORKER_KILL) && !killed {
            worker.kill();
            killed = true;
        }
        let tenant = if i % 2 == 0 { "torn-a" } else { "torn-b" };
        let _ = worker.async_invoke_tenant("f-1", &format!("{{\"i\":{i}}}"), Some(tenant));
    }
    drop(worker);
    // The framed WAL lives in numbered segments; concatenating the survivors
    // in index order reproduces the exact byte stream replay walks.
    let base = Path::new(&wal_path);
    let mut bytes = Vec::new();
    for (_, seg) in wal::discover_segments(&RealStorage, base) {
        bytes.extend_from_slice(&std::fs::read(&seg).expect("read segment"));
    }
    assert!(
        bytes.len() > 200,
        "generated WAL suspiciously small ({} bytes)",
        bytes.len()
    );
    (wal_path, bytes)
}

/// Install `bytes` as the sole segment of the WAL based at `base`, removing
/// any segments (or legacy file) already there.
fn install_as_wal(base: &Path, bytes: &[u8]) {
    let _ = std::fs::remove_file(base);
    for (_, seg) in wal::discover_segments(&RealStorage, base) {
        let _ = std::fs::remove_file(seg);
    }
    std::fs::write(wal::segment_path(base, 1), bytes).expect("write prefix segment");
}

/// Feed every decodable frame of `bytes` through a fresh checker's WAL-file
/// path; returns (report, quarantined frame count).
fn model_of(bytes: &[u8]) -> (iluvatar_conformance::ConformanceReport, u64) {
    let mut checker = Checker::new();
    let scan = wal::scan_frames(bytes);
    for rec in &scan.records {
        checker.ingest_wal_record("wal-file", rec);
    }
    (checker.finish(), scan.corrupt_frames + scan.torn_tail)
}

#[test]
fn every_byte_prefix_replays_to_a_model_legal_state() {
    let dir = temp_dir("prefix");
    let (_, bytes) = generate_wal(&dir);
    let prefix_path = dir.join("prefix.wal");

    for cut in 0..=bytes.len() {
        let prefix = &bytes[..cut];
        install_as_wal(&prefix_path, prefix);
        // (a) never panics, never errors.
        let replayed = wal::replay(&prefix_path)
            .unwrap_or_else(|e| panic!("replay failed at byte {cut}: {e}"));
        // (b) the model accepts the same records with zero violations.
        let (report, torn) = model_of(prefix);
        assert!(
            report.ok(),
            "byte {cut}: model flagged a valid prefix: {:?}",
            report.violations
        );
        // (c) replay and model agree on what survived the tear.
        assert_eq!(
            torn,
            replayed.torn_lines + replayed.corrupt_frames,
            "byte {cut}: quarantined-frame counts"
        );
        let replay_pending: Vec<u64> = replayed.pending.iter().map(|p| p.id).collect();
        assert_eq!(
            report.wal_pending, replay_pending,
            "byte {cut}: pending sets diverge"
        );
        for t in &replayed.tenants {
            let book = report.wal_books.get(&t.tenant).copied().unwrap_or_default();
            assert_eq!(
                (book.admitted, book.served, book.throttled, book.shed),
                (t.admitted, t.served, t.throttled, t.shed),
                "byte {cut}: tenant `{}` books diverge",
                t.tenant
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prefixes_are_monotone_under_truncation() {
    // Cutting the log never invents state: a prefix's accepted-record count
    // is monotone in the cut point, and the final full-file replay dominates.
    let dir = temp_dir("monotone");
    let (_, bytes) = generate_wal(&dir);
    let prefix_path = dir.join("prefix.wal");
    let mut last_records = 0u64;
    for cut in (0..=bytes.len()).step_by(16) {
        install_as_wal(&prefix_path, &bytes[..cut]);
        let replayed = wal::replay(&prefix_path).expect("replay");
        assert!(
            replayed.records_read >= last_records,
            "byte {cut}: records_read went backwards ({} < {last_records})",
            replayed.records_read
        );
        last_records = replayed.records_read;
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sampled_prefixes_survive_full_worker_recovery() {
    let dir = temp_dir("recover");
    let (wal_path, bytes) = generate_wal(&dir);
    let clock = SystemClock::shared();
    let spec = FunctionSpec::new("f", "1").with_timing(100, 300);

    // Every ~1/8th of the file, plus the exact end and the empty log.
    let mut cuts: Vec<usize> = (0..8).map(|i| i * bytes.len() / 8).collect();
    cuts.push(bytes.len());
    for cut in cuts {
        install_as_wal(Path::new(&wal_path), &bytes[..cut]);
        let (recovered, report) = Worker::recover(
            worker_cfg(&wal_path),
            mk_backend(&clock),
            Arc::clone(&clock),
            std::slice::from_ref(&spec),
            &[],
            Arc::new(RealStorage),
        );
        for (_id, handle) in report.handles {
            assert!(
                handle.wait().is_ok(),
                "byte {cut}: a replayed invocation failed"
            );
        }
        let st = recovered.status();
        assert_eq!(
            st.completed as usize, report.replayed,
            "byte {cut}: replayed work must all complete"
        );
        drop(recovered); // clean shutdown must not panic either
    }
    let _ = std::fs::remove_dir_all(&dir);
}
