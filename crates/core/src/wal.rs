//! Queue write-ahead log + snapshot recovery, hardened against a disk that
//! fails, stalls, fills, and lies.
//!
//! The worker keeps all invocation state in memory (§3); a crash therefore
//! loses every queued invocation and accounting book. This module makes the
//! queue durable: every queue mutation (enqueue / dequeue / completion /
//! admission shed) is appended as a length+CRC32-framed record to the
//! current segment file (`{path}.NNNN.log`), and a periodic compacted
//! snapshot captures the full recoverable state — pending invocations,
//! Prometheus counter baselines, per-tenant admission books, token-bucket
//! levels and DRR deficits. A snapshot retires all older segments
//! (compaction). Recovery replays the last snapshot plus the
//! tail after it, deduplicating by invocation id, so a duplicated or
//! re-replayed tail converges to the same state (idempotent replay).
//! Corrupt frames (CRC mismatch — the disk lied) and torn tails (truncated
//! final frame — the disk died mid-write) are quarantined: counted, never
//! replayed, and recovery resynchronizes on the next frame magic instead of
//! halting.
//!
//! Durability contract: an invocation is *accepted* only after its
//! `Enqueued` record hit the log per the active [`FsyncPolicy`]
//! (`never` = flushed to the OS, `group(ms)` = covered by the next group
//! fsync, `always` = fsynced inline). Completions whose record did not land
//! before a crash are re-enqueued and re-executed on recovery —
//! at-least-once execution, exactly-once accounting.
//!
//! I/O errors no longer brick the log. The recovery ladder runs bounded
//! retries with backoff, then rotates to a fresh segment, and only then
//! consults [`WalOnError`]: `reject` fails this append (the worker sheds
//! with 503 + Retry-After and the *next* append tries again from the top);
//! `degrade` keeps serving with results flagged non-durable and
//! periodically attempts to re-arm. A stall-aware gate sheds appends whose
//! deadline an in-flight write/fsync has already blown, so a hung disk
//! cannot wedge the dispatch hot path.
//!
//! All disk traffic goes through [`iluvatar_sync::storage::Storage`] so the
//! chaos crate can inject faults underneath (`FaultyStorage`).

use iluvatar_admission::TenantSnapshot;
use iluvatar_sync::storage::{RealStorage, Storage, StorageFile};
use iluvatar_sync::TimeMs;
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A queued-but-not-completed invocation, as recorded in the log. Carries
/// everything needed to rebuild the original [`crate::queue::QueuedInvocation`]
/// with its original arrival time, cost estimate, and tenant label.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PendingInvocation {
    /// End-to-end trace id — the dedup key for idempotent replay.
    #[serde(default)]
    pub id: u64,
    #[serde(default)]
    pub fqdn: String,
    #[serde(default)]
    pub args: String,
    #[serde(default)]
    pub tenant: Option<String>,
    #[serde(default)]
    pub tenant_weight: f64,
    #[serde(default)]
    pub arrived_at: TimeMs,
    #[serde(default)]
    pub expected_exec_ms: f64,
    #[serde(default)]
    pub iat_ms: f64,
    #[serde(default)]
    pub expect_warm: bool,
    /// Whether the invocation had left the queue (was in flight) at the
    /// time of the last record. In-flight invocations are re-enqueued on
    /// recovery like queued ones — their execution died with the process.
    #[serde(default)]
    pub dequeued: bool,
}

/// Monotonic worker counter baselines persisted in snapshots so a restart
/// does not read as a Prometheus counter reset mid-scrape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CounterBaselines {
    #[serde(default)]
    pub completed: u64,
    #[serde(default)]
    pub dropped: u64,
    #[serde(default)]
    pub failed: u64,
    #[serde(default)]
    pub cold_starts: u64,
    #[serde(default)]
    pub retries: u64,
    #[serde(default)]
    pub agent_timeouts: u64,
    #[serde(default)]
    pub quarantined: u64,
    #[serde(default)]
    pub dropped_retry_exhausted: u64,
}

/// One tenant's token-bucket fill level at snapshot time.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BucketLevel {
    #[serde(default)]
    pub tenant: String,
    #[serde(default)]
    pub tokens: f64,
}

/// One tenant's DRR deficit at snapshot time.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DrrDeficit {
    #[serde(default)]
    pub tenant: String,
    #[serde(default)]
    pub deficit: f64,
}

/// A compacted point-in-time image of all recoverable worker state.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WalSnapshot {
    #[serde(default)]
    pub pending: Vec<PendingInvocation>,
    #[serde(default)]
    pub counters: CounterBaselines,
    #[serde(default)]
    pub tenants: Vec<TenantSnapshot>,
    #[serde(default)]
    pub bucket_levels: Vec<BucketLevel>,
    #[serde(default)]
    pub drr_deficits: Vec<DrrDeficit>,
}

/// One queue mutation. On disk each record is a frame:
/// `magic "IWAL" | payload len (u32 LE) | CRC32 of payload (u32 LE) | JSON
/// payload`. The JSON keeps the `op` tag so segments stay greppable:
/// `{"op":"enqueued","inv":{...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum WalRecord {
    /// Admitted and queued (or bypassed — a bypass logs Enqueued+Dequeued).
    Enqueued { inv: PendingInvocation },
    /// Left the queue for dispatch.
    Dequeued { id: u64 },
    /// Finished (either way); the invocation leaves the pending set.
    Completed {
        id: u64,
        ok: bool,
        #[serde(default)]
        tenant: Option<String>,
    },
    /// Rejected at admission; never entered the pending set but must be
    /// replayed into the tenant books.
    Shed {
        id: u64,
        #[serde(default)]
        tenant: Option<String>,
        /// true = tenant rate limit, false = best-effort overload shed.
        throttled: bool,
    },
    /// A pull-mode dispatch lease was issued for a pending invocation.
    /// Replay keeps the invocation pending (marked in-flight) so a crashed
    /// dispatch plane requeues it instead of stranding it.
    LeaseIssued {
        id: u64,
        worker: String,
        expires_at_ms: u64,
    },
    /// A pull-mode lease expired (or was revoked) and its invocation went
    /// back to the queue; replay clears the in-flight mark.
    LeaseRequeued { id: u64 },
    /// Compaction point: replay restarts from the latest of these.
    Snapshot { snap: WalSnapshot },
}

impl WalRecord {
    /// The record's `op` tag as a stable label, for the canonical telemetry
    /// stream (`TelemetryKind::Wal { op }`) and for log grepping.
    pub fn op_label(&self) -> &'static str {
        match self {
            WalRecord::Enqueued { .. } => "enqueued",
            WalRecord::Dequeued { .. } => "dequeued",
            WalRecord::Completed { .. } => "completed",
            WalRecord::Shed { .. } => "shed",
            WalRecord::LeaseIssued { .. } => "lease_issued",
            WalRecord::LeaseRequeued { .. } => "lease_requeued",
            WalRecord::Snapshot { .. } => "snapshot",
        }
    }

    /// The trace id the record is about, if any (snapshots have none).
    pub fn trace_id(&self) -> Option<u64> {
        self.id()
    }

    fn id(&self) -> Option<u64> {
        match self {
            WalRecord::Enqueued { inv } => Some(inv.id),
            WalRecord::Dequeued { id }
            | WalRecord::Completed { id, .. }
            | WalRecord::Shed { id, .. }
            | WalRecord::LeaseIssued { id, .. }
            | WalRecord::LeaseRequeued { id } => Some(*id),
            WalRecord::Snapshot { .. } => None,
        }
    }
}

/// Collapse an at-least-once frame stream into its effective record
/// sequence. The recovery ladder may land a record more than once (a write
/// that succeeded but whose fsync failed is rewritten in full), and replay
/// is idempotent, so only a record's *first* occurrence carries meaning.
/// Snapshots carry no id and always pass through. Use this before feeding
/// a raw frame scan to the conformance models, which check the effective
/// stream.
pub fn dedup_records(records: &[WalRecord]) -> Vec<&WalRecord> {
    let mut seen = HashSet::new();
    records
        .iter()
        .filter(|r| match r.trace_id() {
            None => true,
            Some(id) => seen.insert((r.op_label(), id)),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Frame format

/// Magic prefix of every frame; recovery resynchronizes by scanning for it.
pub const FRAME_MAGIC: [u8; 4] = *b"IWAL";
const FRAME_HEADER: usize = 12;
/// Upper bound on a sane payload; a bigger length field means a lying disk.
const MAX_FRAME_PAYLOAD: u32 = 16 * 1024 * 1024;

fn crc_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    })
}

/// CRC32 (IEEE 802.3), the frame checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let t = crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Serialize one record as a frame: `IWAL | len | crc32 | payload`.
pub fn encode_frame(rec: &WalRecord) -> Vec<u8> {
    let payload = serde_json::to_vec(rec).unwrap_or_default();
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// The result of scanning a segment's bytes frame by frame.
#[derive(Debug, Default)]
pub struct FrameScan {
    /// Decoded records in on-disk order.
    pub records: Vec<WalRecord>,
    /// Frames quarantined mid-stream: CRC mismatch, bad magic, or an insane
    /// length field. The scan resynchronized on the next magic after each.
    pub corrupt_frames: u64,
    /// A final frame cut short by a torn write (0 or 1 per segment).
    pub torn_tail: u64,
}

fn find_magic(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len().saturating_sub(FRAME_MAGIC.len() - 1))
        .find(|&i| bytes[i..i + FRAME_MAGIC.len()] == FRAME_MAGIC)
}

/// Decode a segment, quarantining damage instead of halting: corrupt frames
/// are counted and skipped (scan resumes at the next magic), a truncated
/// final frame is counted as a torn tail.
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    let mut scan = FrameScan::default();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes.len() - i < FRAME_HEADER {
            scan.torn_tail += 1;
            break;
        }
        if bytes[i..i + 4] != FRAME_MAGIC {
            scan.corrupt_frames += 1;
            match find_magic(bytes, i + 1) {
                Some(j) => {
                    i = j;
                    continue;
                }
                None => break,
            }
        }
        let len = u32::from_le_bytes([bytes[i + 4], bytes[i + 5], bytes[i + 6], bytes[i + 7]]);
        if len > MAX_FRAME_PAYLOAD {
            scan.corrupt_frames += 1;
            match find_magic(bytes, i + 4) {
                Some(j) => {
                    i = j;
                    continue;
                }
                None => break,
            }
        }
        let end = i + FRAME_HEADER + len as usize;
        if end > bytes.len() {
            scan.torn_tail += 1;
            break;
        }
        let want = u32::from_le_bytes([bytes[i + 8], bytes[i + 9], bytes[i + 10], bytes[i + 11]]);
        let payload = &bytes[i + FRAME_HEADER..end];
        if crc32(payload) != want {
            // The disk lied (bit-rot) or a torn write ran into the next
            // frame; either way resync on the next magic.
            scan.corrupt_frames += 1;
            match find_magic(bytes, i + 4) {
                Some(j) => {
                    i = j;
                    continue;
                }
                None => break,
            }
        }
        match serde_json::from_slice::<WalRecord>(payload) {
            Ok(rec) => scan.records.push(rec),
            Err(_) => scan.corrupt_frames += 1,
        }
        i = end;
    }
    scan
}

/// The on-disk name of segment `idx` for a WAL based at `base`.
pub fn segment_path(base: &Path, idx: u64) -> PathBuf {
    let name = base
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "wal".to_string());
    base.with_file_name(format!("{name}.{idx:04}.log"))
}

/// Discover existing segments of `base`, sorted by index.
pub fn discover_segments(storage: &dyn Storage, base: &Path) -> Vec<(u64, PathBuf)> {
    let dir = base.parent().unwrap_or_else(|| Path::new("."));
    let name = base
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "wal".to_string());
    let prefix = format!("{name}.");
    let mut out = Vec::new();
    for p in storage.list(dir).unwrap_or_default() {
        let Some(fname) = p.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        let Some(mid) = fname
            .strip_prefix(&prefix)
            .and_then(|r| r.strip_suffix(".log"))
        else {
            continue;
        };
        if let Ok(idx) = mid.parse::<u64>() {
            out.push((idx, p));
        }
    }
    out.sort();
    out
}

// ---------------------------------------------------------------------------
// Options

/// When appended records become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Flush to the OS only (the pre-hardening behavior). Fast; loses the
    /// OS cache on power failure.
    Never,
    /// A background flusher fsyncs every `interval_ms`; acceptance-path
    /// appends wait for the covering group fsync (group commit).
    Group { interval_ms: u64 },
    /// fsync inline on every append.
    Always,
}

/// What the recovery ladder does once retries and segment rotation are both
/// exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOnError {
    /// Fail this append; the worker sheds the invocation with 503 +
    /// Retry-After. The next append retries the ladder from the top.
    Reject,
    /// Keep serving with results flagged non-durable (surfaced on
    /// `/status`), periodically attempting to re-arm on a fresh segment.
    Degrade,
}

/// Tuning for the hardened WAL. [`Default`] matches the historical
/// behavior: flush-to-OS durability, no append deadline, reject on error.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Mutations between compaction snapshots.
    pub snapshot_every: u64,
    pub fsync: FsyncPolicy,
    pub on_error: WalOnError,
    /// Shed an append once an in-flight write/fsync has been stuck this
    /// long, or once its own group-commit wait exceeds it. 0 = no deadline.
    pub append_deadline_ms: u64,
    /// Bounded in-place retries before rotating to a fresh segment.
    pub retry_limit: u32,
    pub retry_backoff_ms: u64,
    /// Rotate to a new segment once the current one exceeds this.
    pub segment_bytes: u64,
    /// While degraded, attempt to re-arm at most this often.
    pub rearm_after_ms: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            snapshot_every: 64,
            fsync: FsyncPolicy::Never,
            on_error: WalOnError::Reject,
            append_deadline_ms: 0,
            retry_limit: 2,
            retry_backoff_ms: 1,
            segment_bytes: 4 * 1024 * 1024,
            rearm_after_ms: 250,
        }
    }
}

/// What happened to an [`Wal::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// Landed per the active fsync policy.
    Landed,
    /// Nothing to write: a dequeue/completion for an id the log is not
    /// tracking (e.g. its enqueue happened while degraded). Harmless.
    Skipped,
    /// Degraded mode: the record was absorbed into the in-memory book but
    /// not written. An invocation accepted on this outcome is non-durable.
    NotDurable,
    /// Recovery ladder exhausted under `on_error = reject`; shed the caller.
    Unavailable,
    /// Stall backpressure: the append deadline passed. Shed the caller.
    Stalled,
    /// Crash simulation: the log is poisoned and drops everything.
    Poisoned,
}

impl AppendOutcome {
    /// Did the record land durably (per policy)?
    pub fn is_landed(&self) -> bool {
        matches!(self, AppendOutcome::Landed)
    }

    /// May the caller proceed as if the mutation was recorded (possibly
    /// flagged non-durable)?
    pub fn accepted(&self) -> bool {
        matches!(
            self,
            AppendOutcome::Landed | AppendOutcome::Skipped | AppendOutcome::NotDurable
        )
    }
}

/// A plain snapshot of the WAL's I/O health counters, for `/status` and
/// session digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalIoCounts {
    pub appends: u64,
    pub retries: u64,
    pub rotations: u64,
    pub write_errors: u64,
    pub fsync_errors: u64,
    pub stall_sheds: u64,
    pub non_durable_records: u64,
    pub degraded_entered: u64,
    pub rearms: u64,
    pub segments_retired: u64,
    pub abandoned: u64,
}

#[derive(Default)]
struct IoStats {
    appends: AtomicU64,
    retries: AtomicU64,
    rotations: AtomicU64,
    write_errors: AtomicU64,
    fsync_errors: AtomicU64,
    stall_sheds: AtomicU64,
    non_durable_records: AtomicU64,
    degraded_entered: AtomicU64,
    rearms: AtomicU64,
    segments_retired: AtomicU64,
    abandoned: AtomicU64,
}

impl IoStats {
    fn counts(&self) -> WalIoCounts {
        WalIoCounts {
            appends: self.appends.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            rotations: self.rotations.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            fsync_errors: self.fsync_errors.load(Ordering::Relaxed),
            stall_sheds: self.stall_sheds.load(Ordering::Relaxed),
            non_durable_records: self.non_durable_records.load(Ordering::Relaxed),
            degraded_entered: self.degraded_entered.load(Ordering::Relaxed),
            rearms: self.rearms.load(Ordering::Relaxed),
            segments_retired: self.segments_retired.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// The log

struct Writer {
    /// The current segment. Only replaced by rotation; a failed rotation
    /// keeps the old handle so the ladder can keep trying.
    out: Box<dyn StorageFile>,
    seg_index: u64,
    seg_bytes: u64,
    /// The WAL's own book of incomplete invocations — the `pending` section
    /// of the next snapshot. Keyed by trace id; ids are minted
    /// monotonically, so iteration order is enqueue order.
    pending: BTreeMap<u64, PendingInvocation>,
    mutations_since_snapshot: u64,
    /// Crash simulation: a poisoned log drops every append (as if the
    /// process died), so recovery sees exactly the pre-kill prefix.
    poisoned: bool,
    /// Degraded mode (`on_error = degrade`): serving continues, records are
    /// absorbed into the book but not written, until a re-arm succeeds.
    degraded: bool,
    degraded_since_ms: u64,
    /// Group commit: sequence of the last frame written / covered by fsync.
    written_seq: u64,
    /// Frames written since the last successful fsync, kept so a rotation
    /// mid-ladder can rewrite them onto the fresh segment.
    unsynced: Vec<u8>,
}

#[derive(Default)]
struct CommitProgress {
    synced: u64,
    failed: u64,
    poisoned: bool,
}

struct GroupCommit {
    progress: Mutex<CommitProgress>,
    cv: Condvar,
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
}

/// Observer of WAL I/O health transitions (`wal_io` telemetry bridge).
pub type IoNotify = Arc<dyn Fn(&'static str) + Send + Sync>;

struct Inner {
    path: PathBuf,
    opts: WalOptions,
    storage: Arc<dyn Storage>,
    writer: Mutex<Writer>,
    epoch: Instant,
    /// `elapsed_ms + 1` while a storage op is in flight, 0 when idle — the
    /// stall gate reads this without taking the writer lock.
    io_started: AtomicU64,
    stats: IoStats,
    notify: Mutex<Option<IoNotify>>,
    group: Option<GroupCommit>,
    /// Enqueued records whose group-commit wait timed out: the caller was
    /// shed, so the flusher retracts them (Completed ok=false) after the
    /// covering fsync, keeping replay from resurrecting them.
    abandoned: Mutex<Vec<(u64, Option<String>)>>,
}

/// The append-only write-ahead log. One per worker; all methods take `&self`
/// (internally locked) so the worker can append from any hot-path thread.
pub struct Wal {
    inner: Arc<Inner>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

struct IoGuard<'a>(&'a AtomicU64);

impl Drop for IoGuard<'_> {
    fn drop(&mut self) {
        self.0.store(0, Ordering::Release);
    }
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn io_guard(&self) -> IoGuard<'_> {
        self.io_started.store(self.now_ms() + 1, Ordering::Release);
        IoGuard(&self.io_started)
    }

    fn emit(&self, op: &'static str) {
        let cb = self.notify.lock().clone();
        if let Some(cb) = cb {
            cb(op);
        }
    }

    /// Is an in-flight storage op already past the append deadline?
    fn stall_gate_tripped(&self) -> bool {
        let dl = self.opts.append_deadline_ms;
        if dl == 0 {
            return false;
        }
        let started = self.io_started.load(Ordering::Acquire);
        started != 0 && self.now_ms().saturating_sub(started - 1) > dl
    }

    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Open segment `idx` and make it current. The old handle is only
    /// replaced on success.
    fn rotate_locked(&self, w: &mut Writer) -> bool {
        let next = w.seg_index + 1;
        match self.storage.open_append(&segment_path(&self.path, next)) {
            Ok(f) => {
                w.out = f;
                w.seg_index = next;
                w.seg_bytes = 0;
                self.bump(&self.stats.rotations);
                self.emit("rotate");
                true
            }
            Err(_) => false,
        }
    }

    /// Write `frame` (and fsync under `always`), running the recovery
    /// ladder: bounded retries with backoff, then rotation, then one more
    /// try on the fresh segment. `extra` is rewritten onto the fresh
    /// segment before `frame` on rotation (group-commit unsynced frames).
    fn persist_locked(&self, w: &mut Writer, frame: &[u8], extra: &[u8]) -> bool {
        let attempt = |w: &mut Writer, inner: &Inner, with_extra: bool| -> std::io::Result<()> {
            let _g = inner.io_guard();
            if with_extra && !extra.is_empty() {
                w.out.write_all(extra)?;
            }
            w.out.write_all(frame)?;
            w.out.flush()?;
            if matches!(inner.opts.fsync, FsyncPolicy::Always) {
                w.out.sync()?;
            }
            Ok(())
        };
        match attempt(w, self, false) {
            Ok(()) => return true,
            Err(_) => self.bump(&self.stats.write_errors),
        }
        for i in 0..self.opts.retry_limit {
            self.bump(&self.stats.retries);
            self.emit("retry");
            std::thread::sleep(Duration::from_millis(
                self.opts.retry_backoff_ms * (i as u64 + 1),
            ));
            // A partial first write leaves a torn frame mid-segment; replay
            // quarantines it and a duplicated record replays idempotently,
            // so rewriting the whole frame is safe.
            match attempt(w, self, false) {
                Ok(()) => return true,
                Err(_) => self.bump(&self.stats.write_errors),
            }
        }
        if self.rotate_locked(w) {
            match attempt(w, self, true) {
                Ok(()) => return true,
                Err(_) => self.bump(&self.stats.write_errors),
            }
        }
        false
    }

    /// Absorb a record into the in-memory pending book. `landed = false`
    /// (degraded) keeps new enqueues off the book so they never reach a
    /// snapshot: their acceptance was explicitly non-durable.
    fn update_book(w: &mut Writer, rec: &WalRecord, landed: bool) {
        match rec {
            WalRecord::Enqueued { inv } => {
                if landed {
                    w.pending.insert(inv.id, inv.clone());
                }
            }
            WalRecord::Dequeued { id } => {
                if let Some(p) = w.pending.get_mut(id) {
                    p.dequeued = true;
                }
            }
            WalRecord::Completed { id, .. } => {
                w.pending.remove(id);
            }
            WalRecord::LeaseIssued { id, .. } => {
                if let Some(p) = w.pending.get_mut(id) {
                    p.dequeued = true;
                }
            }
            WalRecord::LeaseRequeued { id } => {
                if let Some(p) = w.pending.get_mut(id) {
                    p.dequeued = false;
                }
            }
            WalRecord::Shed { .. } | WalRecord::Snapshot { .. } => {}
        }
    }

    /// Try to leave degraded mode by rotating onto a fresh segment. Safe
    /// without an immediate snapshot: degraded-window mutations were
    /// absorbed into the book (and skipped enqueues never entered it), so
    /// post-re-arm records replay consistently on top of the last snapshot.
    fn try_rearm_locked(&self, w: &mut Writer) -> bool {
        if !w.degraded {
            return true;
        }
        if self.rotate_locked(w) {
            w.degraded = false;
            w.unsynced.clear();
            self.bump(&self.stats.rearms);
            self.emit("rearmed");
            true
        } else {
            w.degraded_since_ms = self.now_ms();
            false
        }
    }

    fn enter_degraded_locked(&self, w: &mut Writer) {
        if !w.degraded {
            w.degraded = true;
            w.degraded_since_ms = self.now_ms();
            self.bump(&self.stats.degraded_entered);
            self.emit("degraded");
        }
    }

    /// Returns the group-commit sequence to wait for, when the caller must.
    fn append_locked(&self, w: &mut Writer, rec: &WalRecord) -> (AppendOutcome, Option<u64>) {
        if w.poisoned {
            return (AppendOutcome::Poisoned, None);
        }
        // A dequeue/completion/lease for an id the log is not tracking has
        // nothing to make durable (its enqueue was shed or non-durable).
        if let WalRecord::Dequeued { id }
        | WalRecord::Completed { id, .. }
        | WalRecord::LeaseIssued { id, .. }
        | WalRecord::LeaseRequeued { id } = rec
        {
            if !w.pending.contains_key(id) {
                return (AppendOutcome::Skipped, None);
            }
        }
        if w.degraded {
            // Only acceptance records (and snapshots) attempt the lazy
            // re-arm: dequeues/completions for already-durable ids are
            // absorbed into the book so the post-re-arm state replays
            // consistently, never written mid-window.
            let wants_rearm =
                matches!(rec, WalRecord::Enqueued { .. } | WalRecord::Snapshot { .. });
            let overdue =
                self.now_ms().saturating_sub(w.degraded_since_ms) >= self.opts.rearm_after_ms;
            if !(wants_rearm && overdue && self.try_rearm_locked(w)) {
                if matches!(rec, WalRecord::Snapshot { .. }) {
                    return (AppendOutcome::NotDurable, None);
                }
                Self::update_book(w, rec, false);
                w.mutations_since_snapshot += 1;
                self.bump(&self.stats.non_durable_records);
                return (AppendOutcome::NotDurable, None);
            }
        }
        let frame = encode_frame(rec);
        if w.seg_bytes > 0 && w.seg_bytes + frame.len() as u64 > self.opts.segment_bytes {
            // Best effort; failure to rotate just grows the segment.
            let _ = self.rotate_locked(w);
        }
        let extra = if matches!(self.opts.fsync, FsyncPolicy::Group { .. }) {
            w.unsynced.clone()
        } else {
            Vec::new()
        };
        if !self.persist_locked(w, &frame, &extra) {
            match self.opts.on_error {
                WalOnError::Reject => return (AppendOutcome::Unavailable, None),
                WalOnError::Degrade => {
                    self.enter_degraded_locked(w);
                    if matches!(rec, WalRecord::Snapshot { .. }) {
                        return (AppendOutcome::NotDurable, None);
                    }
                    Self::update_book(w, rec, false);
                    w.mutations_since_snapshot += 1;
                    self.bump(&self.stats.non_durable_records);
                    return (AppendOutcome::NotDurable, None);
                }
            }
        }
        w.seg_bytes += frame.len() as u64;
        self.bump(&self.stats.appends);
        let seq = if matches!(self.opts.fsync, FsyncPolicy::Group { .. }) {
            w.unsynced.extend_from_slice(&frame);
            w.written_seq += 1;
            Some(w.written_seq)
        } else {
            None
        };
        Self::update_book(w, rec, true);
        if matches!(rec, WalRecord::Snapshot { .. }) {
            w.mutations_since_snapshot = 0;
        } else {
            w.mutations_since_snapshot += 1;
        }
        (AppendOutcome::Landed, seq)
    }

    /// Wait for the group fsync covering `seq`. On deadline: mark enqueues
    /// abandoned (the flusher retracts them) and shed the caller.
    fn wait_group(&self, seq: u64, rec: &WalRecord) -> AppendOutcome {
        let Some(g) = self.group.as_ref() else {
            return AppendOutcome::Landed;
        };
        let dl = self.opts.append_deadline_ms;
        let deadline = (dl > 0).then(|| Instant::now() + Duration::from_millis(dl));
        let mut p = g.progress.lock();
        loop {
            if p.synced >= seq {
                return AppendOutcome::Landed;
            }
            if p.failed >= seq {
                return if p.poisoned {
                    AppendOutcome::Poisoned
                } else {
                    AppendOutcome::NotDurable
                };
            }
            match deadline {
                None => g.cv.wait(&mut p),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d || g.cv.wait_for(&mut p, d - now).timed_out() {
                        if p.synced >= seq {
                            return AppendOutcome::Landed;
                        }
                        drop(p);
                        if let WalRecord::Enqueued { inv } = rec {
                            self.abandoned.lock().push((inv.id, inv.tenant.clone()));
                            self.bump(&self.stats.abandoned);
                        }
                        self.bump(&self.stats.stall_sheds);
                        self.emit("stall_shed");
                        return AppendOutcome::Stalled;
                    }
                }
            }
        }
    }

    /// One flusher pass: fsync written-but-unsynced frames, then retract
    /// abandoned enqueues. Returns false once the log is poisoned.
    fn group_sync_pass(&self) -> bool {
        let mut w = self.writer.lock();
        if w.poisoned {
            let mut p = self.group.as_ref().unwrap().progress.lock();
            p.failed = p.failed.max(w.written_seq);
            p.poisoned = true;
            self.group.as_ref().unwrap().cv.notify_all();
            return false;
        }
        if w.unsynced.is_empty() {
            return true;
        }
        let covered = w.written_seq;
        let mut ok = {
            let _g = self.io_guard();
            w.out.sync().is_ok()
        };
        if !ok {
            self.bump(&self.stats.fsync_errors);
            self.emit("fsync_error");
            for i in 0..self.opts.retry_limit {
                self.bump(&self.stats.retries);
                std::thread::sleep(Duration::from_millis(
                    self.opts.retry_backoff_ms * (i as u64 + 1),
                ));
                let _g = self.io_guard();
                if w.out.sync().is_ok() {
                    ok = true;
                    break;
                }
                self.bump(&self.stats.fsync_errors);
            }
        }
        if !ok && self.rotate_locked(&mut w) {
            // Rewrite everything the failed segment may have dropped, then
            // barrier the fresh segment.
            let unsynced = std::mem::take(&mut w.unsynced);
            let _g = self.io_guard();
            ok =
                w.out.write_all(&unsynced).is_ok() && w.out.flush().is_ok() && w.out.sync().is_ok();
            if !ok {
                w.unsynced = unsynced;
            }
        }
        let g = self.group.as_ref().unwrap();
        if ok {
            w.unsynced.clear();
            let retract: Vec<_> = std::mem::take(&mut *self.abandoned.lock());
            for (id, tenant) in retract {
                if w.pending.contains_key(&id) {
                    let rec = WalRecord::Completed {
                        id,
                        ok: false,
                        tenant,
                    };
                    let _ = self.append_locked(&mut w, &rec);
                }
            }
            let mut p = g.progress.lock();
            p.synced = p.synced.max(covered);
            g.cv.notify_all();
        } else {
            match self.opts.on_error {
                WalOnError::Degrade => {
                    self.enter_degraded_locked(&mut w);
                    w.unsynced.clear();
                }
                WalOnError::Reject => {}
            }
            let mut p = g.progress.lock();
            p.failed = p.failed.max(covered);
            g.cv.notify_all();
        }
        true
    }
}

impl Wal {
    /// Open with historical defaults (flush-to-OS durability, reject on
    /// error) and the real filesystem. `snapshot_every` is the number of
    /// mutations between compaction snapshots.
    pub fn open(path: &Path, snapshot_every: u64) -> std::io::Result<Self> {
        let opts = WalOptions {
            snapshot_every,
            ..WalOptions::default()
        };
        Self::open_with(path, opts, Arc::new(RealStorage))
    }

    /// Open with explicit options and a pluggable storage layer. Appends go
    /// to a fresh segment numbered above any existing one; `replay` reads
    /// all segments.
    pub fn open_with(
        path: &Path,
        opts: WalOptions,
        storage: Arc<dyn Storage>,
    ) -> std::io::Result<Self> {
        let seg_index = discover_segments(storage.as_ref(), path)
            .last()
            .map(|(i, _)| *i)
            .unwrap_or(0)
            + 1;
        let out = storage.open_append(&segment_path(path, seg_index))?;
        let opts = WalOptions {
            snapshot_every: opts.snapshot_every.max(1),
            ..opts
        };
        let group = matches!(opts.fsync, FsyncPolicy::Group { .. }).then(|| GroupCommit {
            progress: Mutex::new(CommitProgress::default()),
            cv: Condvar::new(),
            shutdown: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        });
        let inner = Arc::new(Inner {
            path: path.to_path_buf(),
            opts,
            storage,
            writer: Mutex::new(Writer {
                out,
                seg_index,
                seg_bytes: 0,
                pending: BTreeMap::new(),
                mutations_since_snapshot: 0,
                poisoned: false,
                degraded: false,
                degraded_since_ms: 0,
                written_seq: 0,
                unsynced: Vec::new(),
            }),
            epoch: Instant::now(),
            io_started: AtomicU64::new(0),
            stats: IoStats::default(),
            notify: Mutex::new(None),
            group,
            abandoned: Mutex::new(Vec::new()),
        });
        let flusher = if let FsyncPolicy::Group { interval_ms } = inner.opts.fsync {
            let tick = Duration::from_millis(interval_ms.max(1));
            let inner2 = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("wal-flusher".into())
                    .spawn(move || loop {
                        let g = inner2.group.as_ref().unwrap();
                        let stop = {
                            let mut s = g.shutdown.lock();
                            if !*s {
                                g.shutdown_cv.wait_for(&mut s, tick);
                            }
                            *s
                        };
                        inner2.group_sync_pass();
                        if stop {
                            let mut p = g.progress.lock();
                            let written = inner2.writer.lock().written_seq;
                            p.failed = p.failed.max(written);
                            g.cv.notify_all();
                            break;
                        }
                    })
                    .expect("spawn wal-flusher"),
            )
        } else {
            None
        };
        Ok(Self { inner, flusher })
    }

    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// Install the `wal_io` observer (telemetry bridge). Called once by the
    /// worker after its bus exists; ops: `retry`, `rotate`, `compact`,
    /// `degraded`, `rearmed`, `stall_shed`, `fsync_error`.
    pub fn set_io_notify(&self, cb: IoNotify) {
        *self.inner.notify.lock() = Some(cb);
    }

    /// Append one mutation. The caller may proceed iff
    /// [`AppendOutcome::accepted`]; an acceptance-path caller should treat
    /// anything but `Landed`/`NotDurable` as a shed.
    pub fn append(&self, rec: &WalRecord) -> AppendOutcome {
        if self.inner.stall_gate_tripped() {
            self.inner.bump(&self.inner.stats.stall_sheds);
            self.inner.emit("stall_shed");
            return AppendOutcome::Stalled;
        }
        let (out, seq) = {
            let mut w = self.inner.writer.lock();
            self.inner.append_locked(&mut w, rec)
        };
        match (out, seq) {
            (AppendOutcome::Landed, Some(seq)) if Self::must_wait(rec) => {
                self.inner.wait_group(seq, rec)
            }
            _ => out,
        }
    }

    /// Only acceptance (`Enqueued`) and the result barrier (`Completed`)
    /// wait for the covering group fsync; dequeues/sheds/snapshots are
    /// books-only and ride the next tick.
    fn must_wait(rec: &WalRecord) -> bool {
        matches!(
            rec,
            WalRecord::Enqueued { .. } | WalRecord::Completed { .. }
        )
    }

    /// Whether enough mutations accumulated for the next compaction.
    pub fn snapshot_due(&self) -> bool {
        let w = self.inner.writer.lock();
        !w.poisoned && !w.degraded && w.mutations_since_snapshot >= self.inner.opts.snapshot_every
    }

    /// Append a compaction snapshot and retire all older segments. The
    /// non-queue half of the state is supplied by `fill`, which runs
    /// **under the writer lock** so no mutation record can interleave
    /// between reading the live counters and writing the snapshot (such a
    /// record would otherwise be replayed on top of a snapshot that already
    /// includes it, double-counting). The pending set comes from the log's
    /// own book.
    pub fn snapshot_with<F>(&self, fill: F) -> bool
    where
        F: FnOnce() -> WalSnapshot,
    {
        let mut w = self.inner.writer.lock();
        if w.poisoned || w.degraded {
            return false;
        }
        let mut snap = fill();
        snap.pending = w.pending.values().cloned().collect();
        let rec = WalRecord::Snapshot { snap };
        let (out, _) = self.inner.append_locked(&mut w, &rec);
        if !out.is_landed() {
            return false;
        }
        // Compaction: replay starts from this snapshot, so segments before
        // the current one are dead weight. Barrier the snapshot first under
        // real-durability policies.
        if matches!(
            self.inner.opts.fsync,
            FsyncPolicy::Group { .. } | FsyncPolicy::Always
        ) {
            let _g = self.inner.io_guard();
            if w.out.sync().is_err() {
                self.inner.bump(&self.inner.stats.fsync_errors);
                return true; // snapshot landed; just skip compaction
            }
            if let Some(g) = self.inner.group.as_ref() {
                let covered = w.written_seq;
                w.unsynced.clear();
                let mut p = g.progress.lock();
                p.synced = p.synced.max(covered);
                g.cv.notify_all();
            }
        }
        let current = w.seg_index;
        let mut retired = false;
        for (idx, p) in discover_segments(self.inner.storage.as_ref(), &self.inner.path) {
            if idx < current && self.inner.storage.remove(&p).is_ok() {
                self.inner.bump(&self.inner.stats.segments_retired);
                retired = true;
            }
        }
        if retired {
            self.inner.emit("compact");
        }
        true
    }

    /// Prime the pending book after recovery (the re-enqueued invocations
    /// are already durable in the replayed prefix; they must reappear in
    /// the next snapshot without re-appending their `Enqueued` records).
    pub fn prime_pending(&self, pending: &[PendingInvocation]) {
        let mut w = self.inner.writer.lock();
        for p in pending {
            w.pending.insert(p.id, p.clone());
        }
    }

    /// Crash simulation: all further appends are dropped, as if the process
    /// had died at this instant. Used by `Worker::kill` and the chaos
    /// harness; never by graceful drain.
    pub fn poison(&self) {
        self.inner.writer.lock().poisoned = true;
        if let Some(g) = self.inner.group.as_ref() {
            let written = self.inner.writer.lock().written_seq;
            let mut p = g.progress.lock();
            p.failed = p.failed.max(written);
            p.poisoned = true;
            g.cv.notify_all();
        }
    }

    pub fn is_poisoned(&self) -> bool {
        self.inner.writer.lock().poisoned
    }

    /// Degraded mode: serving continues but new work is not durable.
    pub fn is_degraded(&self) -> bool {
        self.inner.writer.lock().degraded
    }

    /// Attempt to leave degraded mode now (periodic re-arm driver; appends
    /// also retry lazily every `rearm_after_ms`). Returns true when armed.
    pub fn try_rearm(&self) -> bool {
        let mut w = self.inner.writer.lock();
        if w.poisoned {
            return false;
        }
        self.inner.try_rearm_locked(&mut w)
    }

    /// I/O health counters for `/status` and session digests.
    pub fn io_counts(&self) -> WalIoCounts {
        self.inner.stats.counts()
    }

    /// Number of incomplete invocations in the log's book (drain progress).
    pub fn pending_len(&self) -> usize {
        self.inner.writer.lock().pending.len()
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if let Some(g) = self.inner.group.as_ref() {
            *g.shutdown.lock() = true;
            g.shutdown_cv.notify_all();
        }
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Replay

/// The state reconstructed by [`replay`].
#[derive(Debug, Clone, Default)]
pub struct ReplayState {
    /// Incomplete invocations in original enqueue order.
    pub pending: Vec<PendingInvocation>,
    pub counters: CounterBaselines,
    /// Per-tenant books: snapshot baselines plus tail mutations.
    pub tenants: Vec<TenantSnapshot>,
    pub bucket_levels: Vec<BucketLevel>,
    pub drr_deficits: Vec<DrrDeficit>,
    /// Highest trace id seen anywhere in the log; the recovered journal
    /// must mint above this so replayed and fresh ids never collide.
    pub max_id: u64,
    pub records_read: u64,
    /// Damage from the disk dying mid-write: truncated final frames.
    /// Quarantined (skipped), not fatal.
    pub torn_lines: u64,
    /// Damage from the disk lying: frames whose CRC32 did not match (or
    /// whose framing was garbage). Quarantined, never replayed as pending.
    pub corrupt_frames: u64,
    /// Segment files that could not be read at all; recovery continues
    /// with what it can read.
    pub unreadable_files: u64,
    pub segments_read: u64,
}

fn tenant_entry<'a>(
    tenants: &'a mut Vec<TenantSnapshot>,
    name: &Option<String>,
) -> &'a mut TenantSnapshot {
    let key = name.clone().unwrap_or_else(|| "default".to_string());
    if let Some(i) = tenants.iter().position(|t| t.tenant == key) {
        return &mut tenants[i];
    }
    tenants.push(TenantSnapshot {
        tenant: key,
        weight: 1.0,
        ..Default::default()
    });
    let last = tenants.len() - 1;
    &mut tenants[last]
}

struct ReplayCursor {
    pending: BTreeMap<u64, PendingInvocation>,
    completed: HashSet<u64>,
    shed: HashSet<u64>,
}

fn apply_record(st: &mut ReplayState, cur: &mut ReplayCursor, rec: WalRecord) {
    st.records_read += 1;
    if let Some(id) = rec.trace_id() {
        st.max_id = st.max_id.max(id);
    }
    match rec {
        WalRecord::Snapshot { snap } => {
            cur.pending = snap.pending.into_iter().map(|p| (p.id, p)).collect();
            cur.completed.clear();
            cur.shed.clear();
            st.max_id = cur
                .pending
                .keys()
                .next_back()
                .copied()
                .unwrap_or(0)
                .max(st.max_id);
            st.counters = snap.counters;
            st.tenants = snap.tenants;
            st.bucket_levels = snap.bucket_levels;
            st.drr_deficits = snap.drr_deficits;
        }
        WalRecord::Enqueued { inv } => {
            if cur.completed.contains(&inv.id)
                || cur.shed.contains(&inv.id)
                || cur.pending.contains_key(&inv.id)
            {
                return; // duplicate
            }
            tenant_entry(&mut st.tenants, &inv.tenant).admitted += 1;
            cur.pending.insert(inv.id, inv);
        }
        WalRecord::Dequeued { id } => {
            if let Some(p) = cur.pending.get_mut(&id) {
                p.dequeued = true;
            }
        }
        WalRecord::LeaseIssued { id, .. } => {
            if let Some(p) = cur.pending.get_mut(&id) {
                p.dequeued = true;
            }
        }
        WalRecord::LeaseRequeued { id } => {
            if let Some(p) = cur.pending.get_mut(&id) {
                p.dequeued = false;
            }
        }
        WalRecord::Completed { id, ok, tenant } => {
            if !cur.completed.insert(id) {
                return; // duplicate
            }
            cur.pending.remove(&id);
            if ok {
                st.counters.completed += 1;
                tenant_entry(&mut st.tenants, &tenant).served += 1;
            } else {
                st.counters.failed += 1;
            }
        }
        WalRecord::Shed {
            id,
            tenant,
            throttled,
        } => {
            if !cur.shed.insert(id) {
                return; // duplicate
            }
            let t = tenant_entry(&mut st.tenants, &tenant);
            if throttled {
                t.throttled += 1;
            } else {
                t.shed += 1;
            }
        }
    }
}

/// Replay a WAL: last snapshot + tail, deduplicated by invocation id, over
/// the real filesystem. See [`replay_with`].
pub fn replay(path: &Path) -> std::io::Result<ReplayState> {
    replay_with(path, &RealStorage)
}

/// Replay a WAL through a pluggable storage layer: every framed segment
/// of the log based at `path`, in index order. Damage — torn tails, corrupt
/// frames, unreadable files — is quarantined and counted, never fatal; a
/// missing log replays to the empty state. Replay is idempotent: feeding it a log with duplicated records
/// (or replaying twice) yields the same pending set and counters, because
/// each id transitions each set at most once.
pub fn replay_with(path: &Path, storage: &dyn Storage) -> std::io::Result<ReplayState> {
    let mut st = ReplayState::default();
    let mut cur = ReplayCursor {
        pending: BTreeMap::new(),
        completed: HashSet::new(),
        shed: HashSet::new(),
    };
    for (_, seg) in discover_segments(storage, path) {
        match storage.read(&seg) {
            Ok(bytes) => {
                st.segments_read += 1;
                let scan = scan_frames(&bytes);
                st.corrupt_frames += scan.corrupt_frames;
                st.torn_lines += scan.torn_tail;
                for rec in scan.records {
                    apply_record(&mut st, &mut cur, rec);
                }
            }
            Err(_) => st.unreadable_files += 1,
        }
    }
    st.pending = cur.pending.into_values().collect();
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iluvatar-wal-tests-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("queue.wal")
    }

    fn cleanup(p: &Path) {
        if let Some(d) = p.parent() {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    fn inv(id: u64, fqdn: &str, tenant: Option<&str>) -> PendingInvocation {
        PendingInvocation {
            id,
            fqdn: fqdn.into(),
            args: "{}".into(),
            tenant: tenant.map(|t| t.to_string()),
            tenant_weight: 1.0,
            arrived_at: 100,
            expected_exec_ms: 7.5,
            iat_ms: 0.0,
            expect_warm: true,
            dequeued: false,
        }
    }

    /// Scripted failures: errors write/sync ops whose 0-based occurrence
    /// index is in the set.
    #[derive(Default)]
    struct Script {
        fail_writes: Vec<u64>,
        fail_syncs: Vec<u64>,
        writes: AtomicU64,
        syncs: AtomicU64,
    }

    struct ScriptedStorage {
        real: RealStorage,
        script: Arc<Script>,
    }

    struct ScriptedFile {
        f: Box<dyn StorageFile>,
        script: Arc<Script>,
    }

    impl StorageFile for ScriptedFile {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            let n = self.script.writes.fetch_add(1, Ordering::Relaxed);
            if self.script.fail_writes.contains(&n) {
                return Err(io::Error::other("injected write error"));
            }
            self.f.write_all(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.f.flush()
        }
        fn sync(&mut self) -> io::Result<()> {
            let n = self.script.syncs.fetch_add(1, Ordering::Relaxed);
            if self.script.fail_syncs.contains(&n) {
                return Err(io::Error::other("injected fsync error"));
            }
            self.f.sync()
        }
    }

    impl Storage for ScriptedStorage {
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
            Ok(Box::new(ScriptedFile {
                f: self.real.open_append(path)?,
                script: Arc::clone(&self.script),
            }))
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.real.read(path)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            self.real.remove(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            self.real.list(dir)
        }
    }

    #[test]
    fn roundtrip_enqueue_complete() {
        let p = tmp("roundtrip");
        let wal = Wal::open(&p, 1000).unwrap();
        assert!(wal
            .append(&WalRecord::Enqueued {
                inv: inv(1, "f-1", Some("a"))
            })
            .is_landed());
        assert!(wal
            .append(&WalRecord::Enqueued {
                inv: inv(2, "f-1", None)
            })
            .is_landed());
        assert!(wal.append(&WalRecord::Dequeued { id: 1 }).is_landed());
        assert!(wal
            .append(&WalRecord::Completed {
                id: 1,
                ok: true,
                tenant: Some("a".into())
            })
            .is_landed());
        let st = replay(&p).unwrap();
        assert_eq!(st.pending.len(), 1);
        assert_eq!(st.pending[0].id, 2);
        assert_eq!(st.counters.completed, 1);
        assert_eq!(st.max_id, 2);
        assert_eq!(st.corrupt_frames, 0);
        let a = st.tenants.iter().find(|t| t.tenant == "a").unwrap();
        assert_eq!((a.admitted, a.served), (1, 1));
        let d = st.tenants.iter().find(|t| t.tenant == "default").unwrap();
        assert_eq!((d.admitted, d.served), (1, 0));
        cleanup(&p);
    }

    #[test]
    fn missing_file_is_empty_state() {
        let st = replay(Path::new("/nonexistent/dir/never.wal")).unwrap();
        assert!(st.pending.is_empty());
        assert_eq!(st.records_read, 0);
    }

    #[test]
    fn snapshot_compacts_and_tail_extends() {
        let p = tmp("snapshot");
        let wal = Wal::open(&p, 2).unwrap();
        wal.append(&WalRecord::Enqueued {
            inv: inv(10, "f-1", Some("a")),
        });
        wal.append(&WalRecord::Completed {
            id: 10,
            ok: true,
            tenant: Some("a".into()),
        });
        assert!(wal.snapshot_due());
        assert!(wal.snapshot_with(|| WalSnapshot {
            counters: CounterBaselines {
                completed: 1,
                ..Default::default()
            },
            tenants: vec![TenantSnapshot {
                tenant: "a".into(),
                admitted: 1,
                served: 1,
                ..Default::default()
            }],
            ..Default::default()
        }));
        assert!(!wal.snapshot_due());
        // Tail after the snapshot.
        wal.append(&WalRecord::Enqueued {
            inv: inv(11, "f-1", Some("a")),
        });
        let st = replay(&p).unwrap();
        assert_eq!(st.counters.completed, 1, "baseline from snapshot");
        assert_eq!(st.pending.len(), 1);
        assert_eq!(st.pending[0].id, 11);
        let a = st.tenants.iter().find(|t| t.tenant == "a").unwrap();
        assert_eq!(a.admitted, 2, "snapshot baseline + tail enqueue");
        cleanup(&p);
    }

    #[test]
    fn replay_skips_torn_tail_frame() {
        let p = tmp("torn");
        let wal = Wal::open(&p, 1000).unwrap();
        wal.append(&WalRecord::Enqueued {
            inv: inv(1, "f-1", None),
        });
        drop(wal);
        // Torn frame: half of a valid frame at the segment tail.
        let frame = encode_frame(&WalRecord::Enqueued {
            inv: inv(9, "f-9", None),
        });
        let seg = segment_path(&p, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&frame[..frame.len() / 2]);
        std::fs::write(&seg, &bytes).unwrap();
        let st = replay(&p).unwrap();
        assert_eq!(st.torn_lines, 1, "the torn frame");
        assert_eq!(st.pending.len(), 1);
        assert_eq!(st.pending[0].id, 1);
        cleanup(&p);
    }

    #[test]
    fn poisoned_log_rejects_appends() {
        let p = tmp("poison");
        let wal = Wal::open(&p, 1000).unwrap();
        assert!(wal
            .append(&WalRecord::Enqueued {
                inv: inv(1, "f-1", None)
            })
            .is_landed());
        wal.poison();
        assert_eq!(
            wal.append(&WalRecord::Completed {
                id: 1,
                ok: true,
                tenant: None
            }),
            AppendOutcome::Poisoned
        );
        assert!(!wal.snapshot_with(WalSnapshot::default));
        let st = replay(&p).unwrap();
        assert_eq!(st.pending.len(), 1, "completion after poison never landed");
        cleanup(&p);
    }

    #[test]
    fn duplicated_records_replay_identically() {
        let p = tmp("dup");
        let wal = Wal::open(&p, 1000).unwrap();
        let records = vec![
            WalRecord::Enqueued {
                inv: inv(1, "f-1", Some("a")),
            },
            WalRecord::Dequeued { id: 1 },
            WalRecord::Enqueued {
                inv: inv(2, "f-1", Some("b")),
            },
            WalRecord::Completed {
                id: 1,
                ok: true,
                tenant: Some("a".into()),
            },
            WalRecord::Shed {
                id: 3,
                tenant: Some("b".into()),
                throttled: true,
            },
        ];
        for r in &records {
            wal.append(r);
        }
        drop(wal);
        let once = replay(&p).unwrap();
        // Duplicate the whole encoded tail at the byte level (as a crashed
        // retry ladder might) and replay again.
        let seg = segment_path(&p, 1);
        let bytes = std::fs::read(&seg).unwrap();
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&bytes);
        std::fs::write(&seg, &doubled).unwrap();
        let twice = replay(&p).unwrap();
        assert_eq!(once.pending, twice.pending);
        assert_eq!(once.counters, twice.counters);
        assert_eq!(once.tenants, twice.tenants);
        cleanup(&p);
    }

    #[test]
    fn bit_flip_quarantines_one_frame_and_resyncs() {
        let p = tmp("bitflip");
        let wal = Wal::open(&p, 1000).unwrap();
        for i in 1..=3u64 {
            wal.append(&WalRecord::Enqueued {
                inv: inv(i, "f-1", None),
            });
        }
        drop(wal);
        let seg = segment_path(&p, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip one payload byte in the middle frame.
        let frame_len = encode_frame(&WalRecord::Enqueued {
            inv: inv(1, "f-1", None),
        })
        .len();
        bytes[frame_len + FRAME_HEADER + 4] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();
        let st = replay(&p).unwrap();
        assert_eq!(st.corrupt_frames, 1, "the disk lied once");
        assert_eq!(st.torn_lines, 0);
        let ids: Vec<u64> = st.pending.iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![1, 3], "frames around the damage survive");
        cleanup(&p);
    }

    #[test]
    fn write_error_rotates_and_appends_resume() {
        // The pinned anti-brick test: a transient write error must not
        // permanently disable the WAL.
        let p = tmp("ladder");
        let script = Arc::new(Script {
            // Occurrence 1 is the second record's first write; with
            // retry_limit 0 the ladder goes straight to rotation.
            fail_writes: vec![1],
            ..Default::default()
        });
        let storage = Arc::new(ScriptedStorage {
            real: RealStorage,
            script: Arc::clone(&script),
        });
        let opts = WalOptions {
            retry_limit: 0,
            ..WalOptions::default()
        };
        let wal = Wal::open_with(&p, opts, storage).unwrap();
        assert!(wal
            .append(&WalRecord::Enqueued {
                inv: inv(1, "f-1", None)
            })
            .is_landed());
        assert!(
            wal.append(&WalRecord::Enqueued {
                inv: inv(2, "f-1", None)
            })
            .is_landed(),
            "error -> rotate -> landed on the fresh segment"
        );
        assert!(
            wal.append(&WalRecord::Enqueued {
                inv: inv(3, "f-1", None)
            })
            .is_landed(),
            "appends resume after the transient error"
        );
        let counts = wal.io_counts();
        assert_eq!(counts.rotations, 1);
        assert_eq!(counts.write_errors, 1);
        drop(wal);
        let st = replay(&p).unwrap();
        assert_eq!(st.pending.len(), 3, "all three enqueues recovered");
        assert_eq!(st.segments_read, 2);
        cleanup(&p);
    }

    #[test]
    fn exhausted_ladder_rejects_without_bricking() {
        let p = tmp("reject");
        let script = Arc::new(Script {
            // Record 2: first write (1), retry (2), and post-rotation
            // write (3) all fail -> Unavailable. Record 3 succeeds.
            fail_writes: vec![1, 2, 3],
            ..Default::default()
        });
        let storage = Arc::new(ScriptedStorage {
            real: RealStorage,
            script: Arc::clone(&script),
        });
        let opts = WalOptions {
            retry_limit: 1,
            retry_backoff_ms: 0,
            ..WalOptions::default()
        };
        let wal = Wal::open_with(&p, opts, storage).unwrap();
        assert!(wal
            .append(&WalRecord::Enqueued {
                inv: inv(1, "f-1", None)
            })
            .is_landed());
        assert_eq!(
            wal.append(&WalRecord::Enqueued {
                inv: inv(2, "f-1", None)
            }),
            AppendOutcome::Unavailable
        );
        assert!(
            wal.append(&WalRecord::Enqueued {
                inv: inv(3, "f-1", None)
            })
            .is_landed(),
            "reject is per-append, not a permanent brick"
        );
        drop(wal);
        let st = replay(&p).unwrap();
        let ids: Vec<u64> = st.pending.iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![1, 3]);
        cleanup(&p);
    }

    #[test]
    fn degrade_serves_non_durable_then_rearms() {
        let p = tmp("degrade");
        let script = Arc::new(Script {
            fail_writes: vec![1, 2], // record 2: write + post-rotate write fail
            ..Default::default()
        });
        let storage = Arc::new(ScriptedStorage {
            real: RealStorage,
            script: Arc::clone(&script),
        });
        let opts = WalOptions {
            retry_limit: 0,
            on_error: WalOnError::Degrade,
            rearm_after_ms: 0,
            ..WalOptions::default()
        };
        let wal = Wal::open_with(&p, opts, storage).unwrap();
        assert!(wal
            .append(&WalRecord::Enqueued {
                inv: inv(1, "f-1", None)
            })
            .is_landed());
        assert_eq!(
            wal.append(&WalRecord::Enqueued {
                inv: inv(2, "f-1", None)
            }),
            AppendOutcome::NotDurable
        );
        assert!(wal.is_degraded());
        // Completion of the durable invocation while degraded: absorbed
        // into the book (not written), so the book stays truthful.
        assert_eq!(
            wal.append(&WalRecord::Completed {
                id: 1,
                ok: true,
                tenant: None
            }),
            AppendOutcome::NotDurable
        );
        assert_eq!(wal.pending_len(), 0);
        // rearm_after_ms = 0: the next append re-arms lazily.
        assert!(wal
            .append(&WalRecord::Enqueued {
                inv: inv(3, "f-1", None)
            })
            .is_landed());
        assert!(!wal.is_degraded());
        assert_eq!(wal.io_counts().rearms, 1);
        // The completion of the non-durable invocation has nothing to log.
        assert_eq!(
            wal.append(&WalRecord::Completed {
                id: 2,
                ok: true,
                tenant: None
            }),
            AppendOutcome::Skipped
        );
        drop(wal);
        let st = replay(&p).unwrap();
        let ids: Vec<u64> = st.pending.iter().map(|x| x.id).collect();
        assert_eq!(
            ids,
            vec![1, 3],
            "non-durable enqueue is off the record; durable ones replay"
        );
        cleanup(&p);
    }

    #[test]
    fn segments_rotate_by_size_and_snapshot_retires_them() {
        let p = tmp("segments");
        let opts = WalOptions {
            segment_bytes: 256,
            fsync: FsyncPolicy::Always,
            ..WalOptions::default()
        };
        let wal = Wal::open_with(&p, opts, Arc::new(RealStorage)).unwrap();
        for i in 1..=8u64 {
            assert!(wal
                .append(&WalRecord::Enqueued {
                    inv: inv(i, "f-long-name-to-grow-frames", None)
                })
                .is_landed());
        }
        assert!(wal.io_counts().rotations >= 2, "size rotation kicked in");
        let before = discover_segments(&RealStorage, &p).len();
        assert!(before >= 3);
        assert!(wal.snapshot_with(WalSnapshot::default));
        let after = discover_segments(&RealStorage, &p);
        assert_eq!(after.len(), 1, "compaction retired all older segments");
        assert!(wal.io_counts().segments_retired >= 2);
        let st = replay(&p).unwrap();
        assert_eq!(st.pending.len(), 8, "snapshot carries the pending book");
        cleanup(&p);
    }

    #[test]
    fn group_commit_lands_appends_and_sheds_on_stall() {
        let p = tmp("group");
        struct StallScript {
            stall_sync: AtomicU64,
        }
        struct StallStorage {
            real: RealStorage,
            script: Arc<StallScript>,
        }
        struct StallFile {
            f: Box<dyn StorageFile>,
            script: Arc<StallScript>,
        }
        impl StorageFile for StallFile {
            fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
                self.f.write_all(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                self.f.flush()
            }
            fn sync(&mut self) -> io::Result<()> {
                let ms = self.script.stall_sync.swap(0, Ordering::SeqCst);
                if ms > 0 {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                self.f.sync()
            }
        }
        impl Storage for StallStorage {
            fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
                Ok(Box::new(StallFile {
                    f: self.real.open_append(path)?,
                    script: Arc::clone(&self.script),
                }))
            }
            fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
                self.real.read(path)
            }
            fn remove(&self, path: &Path) -> io::Result<()> {
                self.real.remove(path)
            }
            fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
                self.real.list(dir)
            }
        }
        let script = Arc::new(StallScript {
            stall_sync: AtomicU64::new(0),
        });
        let storage = Arc::new(StallStorage {
            real: RealStorage,
            script: Arc::clone(&script),
        });
        // The deadline needs headroom over flusher-thread scheduling jitter
        // (the whole workspace test suite may be hammering every core) while
        // staying well under the 1.5 s scripted stall.
        let opts = WalOptions {
            fsync: FsyncPolicy::Group { interval_ms: 1 },
            append_deadline_ms: 600,
            ..WalOptions::default()
        };
        let wal = Arc::new(Wal::open_with(&p, opts, storage).unwrap());
        // Healthy group commit: the append waits for the covering fsync.
        assert_eq!(
            wal.append(&WalRecord::Enqueued {
                inv: inv(1, "f-1", None)
            }),
            AppendOutcome::Landed
        );
        // Stall the next fsync well past the deadline, then append: the
        // waiter times out, is shed, and the flusher retracts it.
        script.stall_sync.store(1_500, Ordering::SeqCst);
        let t0 = Instant::now();
        let out = wal.append(&WalRecord::Enqueued {
            inv: inv(2, "f-1", None),
        });
        assert_eq!(out, AppendOutcome::Stalled);
        assert!(
            t0.elapsed() < Duration::from_millis(1_200),
            "the caller was shed at the deadline, not blocked through the stall"
        );
        // While the fsync is still stuck, the pre-write gate sheds without
        // even taking the writer lock.
        std::thread::sleep(Duration::from_millis(200));
        let out = wal.append(&WalRecord::Enqueued {
            inv: inv(3, "f-1", None),
        });
        assert_eq!(out, AppendOutcome::Stalled);
        // After the stall clears, appends land again and the abandoned
        // enqueue has been retracted.
        std::thread::sleep(Duration::from_millis(1_600));
        assert!(wal
            .append(&WalRecord::Enqueued {
                inv: inv(4, "f-1", None)
            })
            .is_landed());
        assert!(wal.io_counts().stall_sheds >= 2);
        assert_eq!(wal.io_counts().abandoned, 1);
        drop(Arc::try_unwrap(wal).ok().expect("sole owner"));
        let st = replay(&p).unwrap();
        let ids: Vec<u64> = st.pending.iter().map(|x| x.id).collect();
        assert_eq!(
            ids,
            vec![1, 4],
            "the shed enqueue was retracted, never to be replayed as pending"
        );
        assert_eq!(st.counters.failed, 1, "retraction books as a failure");
        cleanup(&p);
    }
}
