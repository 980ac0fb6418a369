//! Disk fault injection under the write-ahead log.
//!
//! [`FaultyStorage`] wraps any [`Storage`] and makes the disk fail, stall,
//! fill, and lie on a seeded [`DiskFaultPlan`]: torn (short) writes, write
//! failures (ENOSPC), fsync errors, fsync latency stalls, and read bit-rot.
//! Decisions follow the same replayable discipline as [`crate::FaultPlan`]:
//! each site keeps an atomic occurrence counter and fires as a pure
//! function of `(seed, site, occurrence index)` — a failing chaos run can
//! be replayed byte-for-byte from its seed.

use crate::{decision_unit, FaultSpec, FaultStats};
use iluvatar_sync::storage::{Storage, StorageFile};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Disk fault sites, in stats order.
pub mod disk_sites {
    /// A write lands only partially (short write), then errors. Recovery
    /// must quarantine the torn frame and continue.
    pub const WAL_WRITE_TORN: &str = "wal_write_torn";
    /// A write fails outright with ENOSPC (disk full window).
    pub const WAL_WRITE_FAIL: &str = "wal_write_fail";
    /// fsync returns an error (the dreaded fsyncgate failure mode).
    pub const WAL_FSYNC_FAIL: &str = "wal_fsync_fail";
    /// fsync blocks for `stall_ms` before succeeding (device stall).
    pub const WAL_FSYNC_STALL: &str = "wal_fsync_stall";
    /// A whole-file read comes back with one bit flipped (bit-rot).
    pub const WAL_READ_BITROT: &str = "wal_read_bitrot";

    pub const ALL: [&str; 5] = [
        WAL_WRITE_TORN,
        WAL_WRITE_FAIL,
        WAL_FSYNC_FAIL,
        WAL_FSYNC_STALL,
        WAL_READ_BITROT,
    ];
}

/// The seeded disk-fault plan for one chaos run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskFaultPlanConfig {
    /// Seed for all probabilistic decisions.
    pub seed: u64,
    #[serde(default)]
    pub write_torn: FaultSpec,
    #[serde(default)]
    pub write_fail: FaultSpec,
    #[serde(default)]
    pub fsync_fail: FaultSpec,
    #[serde(default)]
    pub fsync_stall: FaultSpec,
    #[serde(default)]
    pub read_bitrot: FaultSpec,
    /// How long a fired `fsync_stall` blocks, ms.
    #[serde(default)]
    pub stall_ms: u64,
}

impl Default for DiskFaultPlanConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            write_torn: FaultSpec::never(),
            write_fail: FaultSpec::never(),
            fsync_fail: FaultSpec::never(),
            fsync_stall: FaultSpec::never(),
            read_bitrot: FaultSpec::never(),
            stall_ms: 250,
        }
    }
}

struct SiteState {
    name: &'static str,
    seen: AtomicU64,
    fired: AtomicU64,
}

/// Seeded disk-fault decisions with per-site occurrence counters.
pub struct DiskFaultPlan {
    cfg: DiskFaultPlanConfig,
    states: Vec<SiteState>,
}

impl DiskFaultPlan {
    pub fn new(cfg: DiskFaultPlanConfig) -> Self {
        let states = disk_sites::ALL
            .iter()
            .map(|&name| SiteState {
                name,
                seen: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            })
            .collect();
        Self { cfg, states }
    }

    pub fn config(&self) -> &DiskFaultPlanConfig {
        &self.cfg
    }

    fn spec_of(&self, site: &str) -> &FaultSpec {
        match site {
            disk_sites::WAL_WRITE_TORN => &self.cfg.write_torn,
            disk_sites::WAL_WRITE_FAIL => &self.cfg.write_fail,
            disk_sites::WAL_FSYNC_FAIL => &self.cfg.fsync_fail,
            disk_sites::WAL_FSYNC_STALL => &self.cfg.fsync_stall,
            disk_sites::WAL_READ_BITROT => &self.cfg.read_bitrot,
            _ => panic!("unknown disk fault site {site}"),
        }
    }

    /// Take the next occurrence at `site` and decide whether it faults.
    /// Deterministic in `(seed, site, occurrence index)`.
    pub fn decide(&self, site: &str) -> bool {
        let spec = self.spec_of(site);
        let state = self
            .states
            .iter()
            .find(|s| s.name == site)
            .expect("site registered");
        let idx = state.seen.fetch_add(1, Ordering::Relaxed);
        let fire = if spec.scheduled(idx) {
            true
        } else if spec.prob > 0.0 {
            decision_unit(self.cfg.seed, site, idx) < spec.prob
        } else {
            false
        };
        if fire {
            state.fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    pub fn stats(&self) -> FaultStats {
        FaultStats {
            sites: self
                .states
                .iter()
                .map(|s| {
                    (
                        s.name.to_string(),
                        s.seen.load(Ordering::Relaxed),
                        s.fired.load(Ordering::Relaxed),
                    )
                })
                .collect(),
        }
    }
}

/// A [`Storage`] that injects the plan's disk faults around an inner
/// storage. Drop-in: thread it under the worker's WAL via
/// `Worker::new_with_storage`.
pub struct FaultyStorage {
    inner: Arc<dyn Storage>,
    plan: Arc<DiskFaultPlan>,
}

impl FaultyStorage {
    pub fn new(inner: Arc<dyn Storage>, cfg: DiskFaultPlanConfig) -> Self {
        Self {
            inner,
            plan: Arc::new(DiskFaultPlan::new(cfg)),
        }
    }

    pub fn plan(&self) -> Arc<DiskFaultPlan> {
        Arc::clone(&self.plan)
    }
}

struct FaultyFile {
    inner: Box<dyn StorageFile>,
    plan: Arc<DiskFaultPlan>,
    stall_ms: u64,
}

impl StorageFile for FaultyFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.plan.decide(disk_sites::WAL_WRITE_TORN) {
            // Half the bytes land before the failure: exactly the torn
            // frame a power cut mid-write leaves behind.
            let half = buf.len() / 2;
            self.inner.write_all(&buf[..half])?;
            let _ = self.inner.flush();
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected torn write",
            ));
        }
        if self.plan.decide(disk_sites::WAL_WRITE_FAIL) {
            return Err(io::Error::other("injected write failure (ENOSPC)"));
        }
        self.inner.write_all(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.plan.decide(disk_sites::WAL_FSYNC_STALL) {
            std::thread::sleep(Duration::from_millis(self.stall_ms));
        }
        if self.plan.decide(disk_sites::WAL_FSYNC_FAIL) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync()
    }
}

impl Storage for FaultyStorage {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(FaultyFile {
            inner,
            plan: Arc::clone(&self.plan),
            stall_ms: self.plan.cfg.stall_ms,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut buf = self.inner.read(path)?;
        if !buf.is_empty() && self.plan.decide(disk_sites::WAL_READ_BITROT) {
            // Deterministic rot: flip one bit in the middle of the file.
            let at = buf.len() / 2;
            buf[at] ^= 0x10;
        }
        Ok(buf)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iluvatar_sync::storage::RealStorage;

    fn tmp(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("iluvatar-chaos-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn torn_write_lands_half_then_errors() {
        let d = tmp("torn");
        let p = d.join("wal.log");
        let s = FaultyStorage::new(
            Arc::new(RealStorage),
            DiskFaultPlanConfig {
                write_torn: FaultSpec::on_occurrences(vec![1]),
                ..Default::default()
            },
        );
        let mut f = s.open_append(&p).unwrap();
        f.write_all(b"aaaa").unwrap();
        let err = f.write_all(b"bbbbbbbb").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        f.write_all(b"cccc").unwrap();
        drop(f);
        // First write whole, second torn in half, third whole.
        assert_eq!(s.read(&p).unwrap(), b"aaaabbbbcccc");
        assert_eq!(s.plan().stats().fired(disk_sites::WAL_WRITE_TORN), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn bitrot_flips_one_bit_deterministically() {
        let d = tmp("rot");
        let p = d.join("wal.log");
        let s = FaultyStorage::new(
            Arc::new(RealStorage),
            DiskFaultPlanConfig {
                read_bitrot: FaultSpec::on_occurrences(vec![0]),
                ..Default::default()
            },
        );
        let mut f = s.open_append(&p).unwrap();
        f.write_all(&[0u8; 8]).unwrap();
        drop(f);
        let rotted = s.read(&p).unwrap();
        assert_eq!(rotted, [0, 0, 0, 0, 0x10, 0, 0, 0]);
        // Occurrence 1 is not scheduled: the same read is clean again.
        assert_eq!(s.read(&p).unwrap(), [0u8; 8]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn every_nth_fires_periodically_and_fsync_faults_inject() {
        let s = FaultyStorage::new(
            Arc::new(RealStorage),
            DiskFaultPlanConfig {
                fsync_fail: FaultSpec::every_nth(3),
                stall_ms: 0,
                ..Default::default()
            },
        );
        let d = tmp("nth");
        let p = d.join("wal.log");
        let mut f = s.open_append(&p).unwrap();
        let fired: Vec<bool> = (0..6).map(|_| f.sync().is_err()).collect();
        assert_eq!(fired, [false, false, true, false, false, true]);
        let _ = std::fs::remove_dir_all(&d);
    }
}
