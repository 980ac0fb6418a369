//! Queue write-ahead log + snapshot recovery, hardened against a disk that
//! fails, stalls, fills, and lies.
//!
//! The worker keeps all invocation state in memory (§3); a crash therefore
//! loses every queued invocation and accounting book. This module makes the
//! queue durable: every queue mutation that recovery needs (enqueue /
//! completion / admission shed, and the pull plane's leases) is appended
//! as a length+CRC32-framed record to the
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
//! (`never` = flushed to the OS, `group` = covered by a group fsync the
//! waiters run themselves, `always` = fsynced inline). Completions whose
//! record did not land before a crash are re-enqueued and re-executed on
//! recovery — at-least-once execution, exactly-once accounting.
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
use iluvatar_sync::{Clock, SystemClock, TimeMs};
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
    /// Admitted and queued (or bypassed — a bypass logs one `Enqueued`
    /// with `inv.dequeued` set).
    Enqueued { inv: PendingInvocation },
    /// Left the queue for dispatch: only older logs hold it (recovery
    /// re-runs whatever has no `Completed`); replay sets `inv.dequeued`.
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
            let Some(j) = find_magic(bytes, i + 1) else {
                break;
            };
            i = j;
            continue;
        }
        let len = u32::from_le_bytes([bytes[i + 4], bytes[i + 5], bytes[i + 6], bytes[i + 7]]);
        if len > MAX_FRAME_PAYLOAD {
            scan.corrupt_frames += 1;
            let Some(j) = find_magic(bytes, i + 4) else {
                break;
            };
            i = j;
            continue;
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
            let Some(j) = find_magic(bytes, i + 4) else {
                break;
            };
            i = j;
            continue;
        }
        match serde_json::from_slice::<WalRecord>(payload) {
            Ok(rec) => scan.records.push(rec),
            Err(_) => scan.corrupt_frames += 1,
        }
        i = end;
    }
    scan
}

fn base_name(base: &Path) -> String {
    base.file_name()
        .map_or("wal".into(), |n| n.to_string_lossy().into_owned())
}

/// The on-disk name of segment `idx` for a WAL based at `base`.
pub fn segment_path(base: &Path, idx: u64) -> PathBuf {
    base.with_file_name(format!("{}.{idx:04}.log", base_name(base)))
}

/// Discover existing segments of `base`, sorted by index.
pub fn discover_segments(storage: &dyn Storage, base: &Path) -> Vec<(u64, PathBuf)> {
    let dir = base.parent().unwrap_or_else(|| Path::new("."));
    let prefix = format!("{}.", base_name(base));
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
    /// Group commit on demand: an acceptance-path append that is not yet
    /// covered fsyncs itself (the leader) unless an fsync is in flight, in
    /// which case it rides the next one (a follower). `interval_ms` bounds
    /// only how long a record nobody waits on (`Shed`, lease records) may
    /// sit un-fsynced before the sweeper commits it.
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
    /// Whether a segment older than the current one may still be on disk
    /// (found at open, or left behind by a rotation). Compaction lists the
    /// directory only then.
    older_segments: bool,
    admitted: u64,
}

#[derive(Default)]
struct CommitProgress {
    synced: u64,
    failed: u64,
    poisoned: bool,
    /// A leader is inside [`Inner::sync_pass`]; everyone else follows.
    leading: bool,
    /// Highest sequence written by an append nobody waits on — the
    /// sweeper's work while it is above `synced` and `failed`.
    unwaited: u64,
    /// The sweeper found the log clean and sleeps until armed.
    sweeper_parked: bool,
    shutdown: bool,
}

struct GroupCommit {
    progress: Mutex<CommitProgress>,
    /// Followers, woken by every leader that returns.
    cv: Condvar,
    sweeper_cv: Condvar,
}

/// Observer of WAL I/O health transitions (`wal_io` telemetry bridge).
pub type IoNotify = Arc<dyn Fn(&'static str) + Send + Sync>;

struct Inner {
    path: PathBuf,
    opts: WalOptions,
    storage: Arc<dyn Storage>,
    writer: Mutex<Writer>,
    /// The owner's clock, so an in-silico run re-arms at the same points.
    clock: Arc<dyn Clock>,
    /// `elapsed_ms + 1` while a storage op is in flight, 0 when idle — the
    /// stall gate reads this without taking the writer lock.
    io_started: AtomicU64,
    /// Appends that have reached the writer lock, ever; `Writer::admitted`
    /// counts those that got it. A leader lets the difference write first.
    arrived: AtomicU64,
    stats: Mutex<WalIoCounts>,
    notify: Mutex<Option<IoNotify>>,
    group: Option<GroupCommit>,
    /// Enqueued records whose group-commit wait timed out: the caller was
    /// shed, so the next leader retracts them (Completed ok=false) after
    /// the covering fsync, keeping replay from resurrecting them.
    abandoned: Mutex<Vec<(u64, Option<String>)>>,
}

/// The append-only write-ahead log. One per worker; all methods take `&self`
/// (internally locked) so the worker can append from any hot-path thread.
pub struct Wal {
    inner: Arc<Inner>,
    sweeper: Option<std::thread::JoinHandle<()>>,
}

struct IoGuard<'a>(&'a AtomicU64);

impl Drop for IoGuard<'_> {
    fn drop(&mut self) {
        self.0.store(0, Ordering::Release);
    }
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.clock.now_ms()
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

    fn bump(&self, counter: impl FnOnce(&mut WalIoCounts) -> &mut u64) {
        *counter(&mut self.stats.lock()) += 1;
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
                w.older_segments = true;
                self.bump(|s| &mut s.rotations);
                self.emit("rotate");
                true
            }
            Err(_) => false,
        }
    }

    /// The recovery ladder every storage op runs under the writer lock:
    /// `op`, bounded retries with backoff, then rotation and one more try on
    /// the fresh segment (`op(w, true)`, which first rewrites whatever the
    /// old segment may have dropped). Failures are booked on `errors`.
    fn ladder_locked(
        &self,
        w: &mut Writer,
        errors: fn(&mut WalIoCounts) -> &mut u64,
        op: impl Fn(&mut Writer, bool) -> std::io::Result<()>,
    ) -> bool {
        let attempt = |w: &mut Writer, rotated: bool| {
            let _g = self.io_guard();
            let ok = op(w, rotated).is_ok();
            if !ok {
                self.bump(errors);
            }
            ok
        };
        for i in 0..=self.opts.retry_limit as u64 {
            if i > 0 {
                self.bump(|s| &mut s.retries);
                self.emit("retry");
                std::thread::sleep(Duration::from_millis(self.opts.retry_backoff_ms * i));
            }
            if attempt(w, false) {
                return true;
            }
        }
        self.rotate_locked(w) && attempt(w, true)
    }

    /// Write `frame` (and fsync under `always`) through the ladder. A
    /// partial write leaves a torn frame mid-segment; replay quarantines it
    /// and a duplicated record replays idempotently, so a retry rewrites the
    /// whole frame, and a rotation — the ladder's, or a size rotation just
    /// taken (`fresh`) — the group-commit `unsynced` frames too.
    fn persist_locked(&self, w: &mut Writer, frame: &[u8], fresh: bool) -> bool {
        let always = self.opts.fsync == FsyncPolicy::Always;
        self.ladder_locked(
            w,
            |s| &mut s.write_errors,
            |w, rotated| {
                if (fresh || rotated) && !w.unsynced.is_empty() {
                    w.out.write_all(&w.unsynced)?;
                }
                w.out.write_all(frame)?;
                w.out.flush()?;
                if always {
                    w.out.sync()?;
                }
                Ok(())
            },
        )
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
            WalRecord::Dequeued { id } | WalRecord::LeaseIssued { id, .. } => {
                if let Some(p) = w.pending.get_mut(id) {
                    p.dequeued = true;
                }
            }
            WalRecord::Completed { id, .. } => {
                w.pending.remove(id);
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
            self.bump(|s| &mut s.rearms);
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
            self.bump(|s| &mut s.degraded_entered);
            self.emit("degraded");
        }
    }

    /// Degraded: absorb `rec` into the book without writing it (a snapshot
    /// is simply skipped).
    fn absorb_locked(&self, w: &mut Writer, rec: &WalRecord) -> (AppendOutcome, Option<u64>) {
        if !matches!(rec, WalRecord::Snapshot { .. }) {
            Self::update_book(w, rec, false);
            w.mutations_since_snapshot += 1;
            self.bump(|s| &mut s.non_durable_records);
        }
        (AppendOutcome::NotDurable, None)
    }

    /// Write `frame` — `rec` encoded, before the lock was taken — and book
    /// it. Returns the record's group-commit sequence in group mode.
    fn append_locked(
        &self,
        w: &mut Writer,
        rec: &WalRecord,
        frame: &[u8],
    ) -> (AppendOutcome, Option<u64>) {
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
                return self.absorb_locked(w, rec);
            }
        }
        // Best effort; failure to rotate just grows the segment.
        let fresh = w.seg_bytes > 0
            && w.seg_bytes + frame.len() as u64 > self.opts.segment_bytes
            && self.rotate_locked(w);
        if !self.persist_locked(w, frame, fresh) {
            if self.opts.on_error == WalOnError::Reject {
                return (AppendOutcome::Unavailable, None);
            }
            self.enter_degraded_locked(w);
            return self.absorb_locked(w, rec);
        }
        w.seg_bytes += frame.len() as u64;
        self.bump(|s| &mut s.appends);
        let seq = if matches!(self.opts.fsync, FsyncPolicy::Group { .. }) {
            w.unsynced.extend_from_slice(frame);
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

    /// Make `seq` durable — the one place that decides who fsyncs in group
    /// mode. A caller not yet covered leads ([`Self::sync_pass`], which
    /// publishes its verdict) unless a leader is in flight; then it follows
    /// and re-checks when that leader returns. So a lone append costs one
    /// fsync, and whatever arrives behind a leader rides the next one.
    /// `waiter` is the record an acceptance-path caller waits on: a follower
    /// is shed at the append deadline (its `Enqueued` marked abandoned),
    /// the leader rides its own I/O out — its record *is* durable by then.
    /// The sweeper passes `None`: no deadline, nothing to abandon.
    fn commit(&self, seq: u64, waiter: Option<&WalRecord>) -> AppendOutcome {
        let Some(g) = self.group.as_ref() else {
            return AppendOutcome::Landed;
        };
        let dl = self.opts.append_deadline_ms;
        let deadline =
            (waiter.is_some() && dl > 0).then(|| Instant::now() + Duration::from_millis(dl));
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
            if !p.leading {
                p.leading = true;
                drop(p);
                self.sync_pass(g);
                p = g.progress.lock();
                p.leading = false;
                g.cv.notify_all();
                continue;
            }
            let timed_out = match deadline {
                None => {
                    g.cv.wait(&mut p);
                    false
                }
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    g.cv.wait_for(&mut p, left).timed_out()
                }
            };
            if timed_out && p.synced.max(p.failed) < seq {
                drop(p);
                if let Some(WalRecord::Enqueued { inv }) = waiter {
                    self.abandoned.lock().push((inv.id, inv.tenant.clone()));
                    self.bump(|s| &mut s.abandoned);
                }
                self.bump(|s| &mut s.stall_sheds);
                self.emit("stall_shed");
                return AppendOutcome::Stalled;
            }
        }
    }

    /// A record nobody waits on was written at `seq`: wake the sweeper if
    /// it found the log clean, so the record is fsynced within the group
    /// interval even with no other traffic.
    fn arm_sweeper(&self, seq: u64) {
        let Some(g) = self.group.as_ref() else {
            return;
        };
        let mut p = g.progress.lock();
        p.unwaited = p.unwaited.max(seq);
        if p.sweeper_parked {
            p.sweeper_parked = false;
            g.sweeper_cv.notify_one();
        }
    }

    /// The sweeper thread: parked while the log is clean; once armed it
    /// lets the unwaited records sit one group interval, then commits them
    /// like any other caller. On shutdown it commits what is left and fails
    /// whatever that could not cover, so no waiter outlives the log.
    fn sweep(&self, interval: Duration) {
        let g = self.group.as_ref().expect("sweeper runs in group mode");
        let mut p = g.progress.lock();
        while !p.shutdown {
            if p.unwaited <= p.synced.max(p.failed) {
                p.sweeper_parked = true;
                g.sweeper_cv.wait(&mut p);
                continue;
            }
            g.sweeper_cv.wait_for(&mut p, interval);
            let seq = p.unwaited;
            drop(p);
            self.commit(seq, None);
            p = g.progress.lock();
        }
        drop(p);
        let written = self.writer.lock().written_seq;
        self.commit(written, None);
        let mut p = g.progress.lock();
        p.failed = p.failed.max(written);
        g.cv.notify_all();
    }

    /// The leader's I/O: fsync every frame written so far through the
    /// ladder, retract abandoned enqueues, and publish what is now durable
    /// or lost — still under the writer lock, so the verdict and a
    /// concurrent `poison` cannot pass each other.
    fn sync_pass(&self, g: &GroupCommit) {
        // Whoever was already queued on the writer lock when this leader
        // was elected writes first, and so rides this fsync, not the next.
        let due = self.arrived.load(Ordering::SeqCst);
        let mut w = self.writer.lock();
        while w.admitted < due {
            drop(w);
            std::thread::yield_now();
            w = self.writer.lock();
        }
        let covered = w.written_seq;
        // With nothing left to sync, whatever `synced` does not already
        // cover was dropped by the kill or given up by a re-arm.
        let syncable = !w.poisoned && !w.unsynced.is_empty();
        let fsync = |w: &mut Writer, rotated: bool| {
            if rotated {
                w.out.write_all(&w.unsynced)?;
                w.out.flush()?;
            }
            w.out.sync().inspect_err(|_| self.emit("fsync_error"))
        };
        let durable = syncable && self.ladder_locked(&mut w, |s| &mut s.fsync_errors, fsync);
        if durable {
            w.unsynced.clear();
            // (An enqueue that has completed since is `Skipped`.)
            for (id, tenant) in std::mem::take(&mut *self.abandoned.lock()) {
                let rec = WalRecord::Completed {
                    id,
                    ok: false,
                    tenant,
                };
                if let (_, Some(seq)) = self.append_locked(&mut w, &rec, &encode_frame(&rec)) {
                    self.arm_sweeper(seq);
                }
            }
        } else if syncable && self.opts.on_error == WalOnError::Degrade {
            self.enter_degraded_locked(&mut w);
            w.unsynced.clear();
        }
        let mut p = g.progress.lock();
        if durable {
            p.synced = p.synced.max(covered);
        } else {
            p.failed = p.failed.max(covered);
        }
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
        Self::open_on(path, opts, storage, SystemClock::shared())
    }

    /// [`Wal::open_with`] on `clock` (the others use the wall clock).
    pub fn open_on(
        path: &Path,
        opts: WalOptions,
        storage: Arc<dyn Storage>,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Self> {
        let existing = discover_segments(storage.as_ref(), path);
        let seg_index = existing.last().map_or(0, |(i, _)| *i) + 1;
        let out = storage.open_append(&segment_path(path, seg_index))?;
        let opts = WalOptions {
            snapshot_every: opts.snapshot_every.max(1),
            ..opts
        };
        let group = matches!(opts.fsync, FsyncPolicy::Group { .. }).then(|| GroupCommit {
            progress: Mutex::new(CommitProgress::default()),
            cv: Condvar::new(),
            sweeper_cv: Condvar::new(),
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
                older_segments: !existing.is_empty(),
                admitted: 0,
            }),
            clock,
            io_started: AtomicU64::new(0),
            arrived: AtomicU64::new(0),
            stats: Mutex::new(WalIoCounts::default()),
            notify: Mutex::new(None),
            group,
            abandoned: Mutex::new(Vec::new()),
        });
        let sweeper = match inner.opts.fsync {
            FsyncPolicy::Group { interval_ms } => {
                let inner = Arc::clone(&inner);
                let interval = Duration::from_millis(interval_ms.max(1));
                let thread = std::thread::Builder::new().name("wal-sweeper".into());
                Some(thread.spawn(move || inner.sweep(interval))?)
            }
            _ => None,
        };
        Ok(Self { inner, sweeper })
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
            self.inner.bump(|s| &mut s.stall_sheds);
            self.inner.emit("stall_shed");
            return AppendOutcome::Stalled;
        }
        let frame = encode_frame(rec);
        let (out, seq) = {
            self.inner.arrived.fetch_add(1, Ordering::SeqCst);
            let mut w = self.inner.writer.lock();
            w.admitted += 1;
            self.inner.append_locked(&mut w, rec, &frame)
        };
        match (out, seq) {
            (AppendOutcome::Landed, Some(seq)) if Self::must_wait(rec) => {
                self.inner.commit(seq, Some(rec))
            }
            (AppendOutcome::Landed, Some(seq)) => {
                self.inner.arm_sweeper(seq);
                out
            }
            _ => out,
        }
    }

    /// Only acceptance (`Enqueued`) and the result barrier (`Completed`)
    /// wait for the covering group fsync; sheds and lease records are
    /// books-only: they ride the next commit, or the sweeper's.
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
        let (out, seq) = self.inner.append_locked(&mut w, &rec, &encode_frame(&rec));
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
                self.inner.bump(|s| &mut s.fsync_errors);
                if let Some(seq) = seq {
                    self.inner.arm_sweeper(seq);
                }
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
        if w.older_segments {
            let older: Vec<_> = discover_segments(self.inner.storage.as_ref(), &self.inner.path)
                .into_iter()
                .filter(|(idx, _)| *idx < w.seg_index)
                .collect();
            let retired = older
                .iter()
                .filter(|(_, p)| self.inner.storage.remove(p).is_ok())
                .count() as u64;
            w.older_segments = retired < older.len() as u64;
            self.inner.stats.lock().segments_retired += retired;
            if retired > 0 {
                self.inner.emit("compact");
            }
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
        let mut w = self.inner.writer.lock();
        w.poisoned = true;
        if let Some(g) = self.inner.group.as_ref() {
            // Still under the writer lock: a leader that finds the log
            // poisoned finds its waiters already told so.
            let mut p = g.progress.lock();
            p.failed = p.failed.max(w.written_seq);
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
    /// At most one attempt per instant of the log's clock: on a clock only
    /// its driver moves, a second would race that driver's appends.
    pub fn try_rearm(&self) -> bool {
        let mut w = self.inner.writer.lock();
        if w.poisoned || (w.degraded && self.inner.now_ms() <= w.degraded_since_ms) {
            return false;
        }
        self.inner.try_rearm_locked(&mut w)
    }

    /// I/O health counters for `/status` and session digests.
    pub fn io_counts(&self) -> WalIoCounts {
        *self.inner.stats.lock()
    }

    /// Number of incomplete invocations in the log's book (drain progress).
    pub fn pending_len(&self) -> usize {
        self.inner.writer.lock().pending.len()
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if let Some(g) = self.inner.group.as_ref() {
            g.progress.lock().shutdown = true;
            g.sweeper_cv.notify_all();
        }
        if let Some(h) = self.sweeper.take() {
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
        WalRecord::Dequeued { id } | WalRecord::LeaseIssued { id, .. } => {
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

    /// A log written before the worker stopped logging dequeues holds a
    /// `Dequeued` frame per dispatch. Without those frames the same log
    /// replays to the same state: only the records read and the in-flight
    /// mark of an invocation that was running at the crash differ, and
    /// recovery re-runs that invocation either way.
    #[test]
    fn an_older_log_replays_its_dequeued_frames_to_the_same_state() {
        let enq = |id, t: &str| WalRecord::Enqueued {
            inv: inv(id, "f-1", Some(t)),
        };
        let done = |id, ok, t: &str| WalRecord::Completed {
            id,
            ok,
            tenant: Some(t.into()),
        };
        let older = vec![
            enq(1, "a"),
            WalRecord::Dequeued { id: 1 },
            enq(2, "b"),
            done(1, true, "a"),
            WalRecord::Shed {
                id: 3,
                tenant: Some("b".into()),
                throttled: false,
            },
            WalRecord::Dequeued { id: 2 },
            enq(4, "a"),
            enq(5, "b"),
            WalRecord::Dequeued { id: 5 },
            done(5, false, "b"),
            // Running at the crash: no `Completed`.
            WalRecord::Dequeued { id: 4 },
        ];
        let replay_of = |name: &str, records: &[&WalRecord]| {
            let p = tmp(name);
            let bytes: Vec<u8> = records.iter().flat_map(|r| encode_frame(r)).collect();
            std::fs::write(segment_path(&p, 1), bytes).unwrap();
            let st = replay(&p).unwrap();
            cleanup(&p);
            st
        };
        let with = replay_of("older-format", &older.iter().collect::<Vec<_>>());
        let without: Vec<&WalRecord> = older
            .iter()
            .filter(|r| !matches!(r, WalRecord::Dequeued { .. }))
            .collect();
        let without = replay_of("newer-format", &without);

        let ids = |st: &ReplayState| st.pending.iter().map(|p| p.id).collect::<Vec<_>>();
        assert_eq!(ids(&with), [2, 4]);
        assert_eq!(ids(&with), ids(&without));
        let in_flight = |st: &ReplayState| {
            st.pending
                .iter()
                .filter(|p| p.dequeued)
                .map(|p| p.id)
                .collect::<Vec<_>>()
        };
        assert_eq!(in_flight(&with), [2, 4]);
        assert!(in_flight(&without).is_empty());
        let unmarked = |st: &ReplayState| {
            let mut pending = st.pending.clone();
            pending.iter_mut().for_each(|p| p.dequeued = false);
            pending
        };
        assert_eq!(unmarked(&with), unmarked(&without));
        assert_eq!(with.counters, without.counters);
        assert_eq!(with.tenants, without.tenants);
        assert_eq!(with.bucket_levels, without.bucket_levels);
        assert_eq!(with.drr_deficits, without.drr_deficits);
        assert_eq!(with.max_id, without.max_id);
        assert_eq!(
            (with.torn_lines, with.corrupt_frames, with.unreadable_files),
            (0, 0, 0)
        );
        assert_eq!(
            (without.torn_lines, without.corrupt_frames),
            (0, 0),
            "dropping whole frames leaves no damage"
        );
        assert_eq!(with.records_read, without.records_read + 4);
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
    fn the_rearm_task_tries_once_per_instant_of_the_logs_clock() {
        let p = tmp("rearm-instant");
        let script = Arc::new(Script {
            fail_writes: vec![0, 1],
            ..Default::default()
        });
        let storage = Arc::new(ScriptedStorage {
            real: RealStorage,
            script: Arc::clone(&script),
        });
        let opts = WalOptions {
            retry_limit: 0,
            on_error: WalOnError::Degrade,
            ..WalOptions::default()
        };
        let clock = Arc::new(iluvatar_sync::ManualClock::new());
        let wal = Wal::open_on(&p, opts, storage, Arc::clone(&clock) as Arc<dyn Clock>).unwrap();
        let enq = |id| WalRecord::Enqueued {
            inv: inv(id, "f-1", None),
        };
        assert_eq!(wal.append(&enq(1)), AppendOutcome::NotDurable);
        assert!(!wal.try_rearm(), "degraded at this instant: no attempt");
        assert_eq!(wal.io_counts().rearms, 0);
        clock.advance(1);
        assert!(wal.try_rearm());
        assert_eq!(wal.io_counts().rearms, 1);
        assert!(wal.append(&enq(2)).is_landed());
        drop(wal);
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

    /// A disk whose fsyncs the test holds: while the gate is held every
    /// `sync()` blocks after announcing itself, so a test can park a leader
    /// inside its fsync, arrange the followers, and then let it return — no
    /// sleeps. It also scripts fsync failures, counts directory listings and
    /// keeps an order log of frames written, fsyncs returned and (pushed by
    /// the tests themselves) appends returned.
    #[derive(Default)]
    struct Gate {
        st: Mutex<GateState>,
        cv: Condvar,
        lists: AtomicU64,
    }

    #[derive(Default)]
    struct GateState {
        held: bool,
        /// fsyncs that reached the disk / that returned.
        entered: u64,
        done: u64,
        /// These fsyncs fail, numbered from 1 in the order they arrive.
        fail: Vec<u64>,
        log: Vec<(&'static str, u64)>,
    }

    impl Gate {
        fn hold(&self) {
            self.st.lock().held = true;
        }
        fn open(&self) {
            self.st.lock().held = false;
            self.cv.notify_all();
        }
        /// Block until `n` fsyncs have reached the disk (5 s bound, so a
        /// broken protocol fails the test instead of hanging it).
        fn wait_entered(&self, n: u64) {
            let mut st = self.st.lock();
            while st.entered < n {
                let r = self.cv.wait_for(&mut st, Duration::from_secs(5));
                assert!(!r.timed_out(), "fsync #{n} never reached the disk");
            }
        }
        fn syncs(&self) -> u64 {
            self.st.lock().done
        }
        fn log(&self, what: &'static str, id: u64) {
            self.st.lock().log.push((what, id));
        }
    }

    struct GateStorage(Arc<Gate>);

    struct GateFile {
        f: Box<dyn StorageFile>,
        gate: Arc<Gate>,
    }

    impl StorageFile for GateFile {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            for rec in scan_frames(buf).records {
                self.gate.log(rec.op_label(), rec.trace_id().unwrap_or(0));
            }
            self.f.write_all(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.f.flush()
        }
        fn sync(&mut self) -> io::Result<()> {
            let mut st = self.gate.st.lock();
            st.entered += 1;
            self.gate.cv.notify_all();
            while st.held {
                self.gate.cv.wait(&mut st);
            }
            let fail = st.fail.contains(&st.entered);
            drop(st);
            let r = if fail {
                Err(io::Error::other("injected fsync error"))
            } else {
                self.f.sync()
            };
            let mut st = self.gate.st.lock();
            st.done += 1;
            let n = st.done;
            st.log
                .push((if r.is_ok() { "synced" } else { "sync_failed" }, n));
            r
        }
    }

    impl Storage for GateStorage {
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
            Ok(Box::new(GateFile {
                f: RealStorage.open_append(path)?,
                gate: Arc::clone(&self.0),
            }))
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            RealStorage.read(path)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            RealStorage.remove(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            self.0.lists.fetch_add(1, Ordering::Relaxed);
            RealStorage.list(dir)
        }
    }

    /// Group commit whose sweep interval is 10 s: nothing that passes
    /// under these options depends on a tick.
    fn no_tick() -> WalOptions {
        WalOptions {
            fsync: FsyncPolicy::Group {
                interval_ms: 10_000,
            },
            ..WalOptions::default()
        }
    }

    /// A log over a [`Gate`].
    fn gated(name: &str, opts: WalOptions) -> (PathBuf, Arc<Gate>, Arc<Wal>) {
        let p = tmp(name);
        let gate = Arc::new(Gate::default());
        let wal = Wal::open_with(&p, opts, Arc::new(GateStorage(Arc::clone(&gate)))).unwrap();
        (p, gate, Arc::new(wal))
    }

    fn enq(id: u64) -> WalRecord {
        WalRecord::Enqueued {
            inv: inv(id, "f-1", None),
        }
    }

    /// Append `rec` on its own thread, logging its return on the gate.
    fn spawn_append(
        wal: &Arc<Wal>,
        gate: &Arc<Gate>,
        rec: WalRecord,
    ) -> std::thread::JoinHandle<AppendOutcome> {
        let (wal, gate) = (Arc::clone(wal), Arc::clone(gate));
        std::thread::spawn(move || {
            let out = wal.append(&rec);
            gate.log("returned", rec.trace_id().unwrap_or(0));
            out
        })
    }

    /// What `append` does up to the point where it would call `commit`:
    /// the frame is written and booked, nobody waits for it yet.
    fn write_only(wal: &Wal, rec: &WalRecord) -> u64 {
        let mut w = wal.inner.writer.lock();
        let (out, seq) = wal.inner.append_locked(&mut w, rec, &encode_frame(rec));
        assert!(out.is_landed());
        seq.expect("group mode numbers its frames")
    }

    /// Park a leader inside a held fsync (`Enqueued` 1), then start `n`
    /// more appends (`Enqueued` 2..) and return once every one of them has
    /// reached the writer lock. The caller opens the gate.
    fn burst_behind_a_held_fsync(
        wal: &Arc<Wal>,
        gate: &Arc<Gate>,
        n: u64,
    ) -> Vec<std::thread::JoinHandle<AppendOutcome>> {
        gate.hold();
        let entered = gate.st.lock().entered;
        let arrived = wal.inner.arrived.load(Ordering::SeqCst);
        let mut threads = vec![spawn_append(wal, gate, enq(1))];
        gate.wait_entered(entered + 1);
        threads.extend((2..2 + n).map(|id| spawn_append(wal, gate, enq(id))));
        while wal.inner.arrived.load(Ordering::SeqCst) < arrived + 1 + n {
            std::thread::yield_now();
        }
        threads
    }

    #[test]
    fn a_lone_append_commits_itself_without_waiting_for_a_tick() {
        let (p, gate, wal) = gated("lone", no_tick());
        let t0 = Instant::now();
        assert_eq!(wal.append(&enq(1)), AppendOutcome::Landed);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "one fsync, not the 10 s sweep interval"
        );
        assert_eq!(gate.syncs(), 1);
        cleanup(&p);
    }

    #[test]
    fn appends_behind_a_held_fsync_all_ride_the_next_one() {
        let (p, gate, wal) = gated("ride", no_tick());
        let threads = burst_behind_a_held_fsync(&wal, &gate, 4);
        assert_eq!(gate.syncs(), 0, "nobody returns while fsync #1 is held");
        assert!(threads.iter().all(|t| !t.is_finished()));
        gate.open();
        for t in threads {
            assert_eq!(t.join().unwrap(), AppendOutcome::Landed);
        }
        assert_eq!(
            gate.syncs(),
            2,
            "one fsync for the leader, one for the rest"
        );
        // No append returned before the fsync covering its frame did.
        let log = gate.st.lock().log.clone();
        for id in 1..=5 {
            let at = |what| log.iter().position(|e| *e == (what, id)).unwrap();
            let covering = log[at("enqueued")..]
                .iter()
                .position(|e| e.0 == "synced")
                .expect("a later fsync covers the frame");
            assert!(at("enqueued") + covering < at("returned"), "{log:?}");
        }
        cleanup(&p);
    }

    #[test]
    fn a_failed_covering_fsync_fails_every_covered_waiter_and_the_next_append_leads() {
        for on_error in [WalOnError::Degrade, WalOnError::Reject] {
            let opts = WalOptions {
                on_error,
                retry_limit: 1,
                retry_backoff_ms: 0,
                rearm_after_ms: 0,
                ..no_tick()
            };
            let (p, gate, wal) = gated("failed", opts);
            let mut threads = burst_behind_a_held_fsync(&wal, &gate, 3);
            // fsync #1 lands its leader; the pass covering the other three
            // fails its whole ladder: sync, retry, sync on a fresh segment.
            gate.st.lock().fail = vec![2, 3, 4];
            gate.open();
            assert_eq!(threads.remove(0).join().unwrap(), AppendOutcome::Landed);
            for t in threads {
                assert_eq!(t.join().unwrap(), AppendOutcome::NotDurable);
            }
            assert_eq!(wal.is_degraded(), on_error == WalOnError::Degrade);
            let c = wal.io_counts();
            assert_eq!((c.fsync_errors, c.retries, c.rotations), (3, 1, 1));
            // The next append elects a new leader (re-arming first under
            // `degrade`) and lands.
            assert_eq!(wal.append(&enq(9)), AppendOutcome::Landed);
            assert!(!wal.is_degraded());
            cleanup(&p);
        }
    }

    #[test]
    fn poison_during_a_held_fsync_strands_nobody() {
        let (p, gate, wal) = gated("poison-held", no_tick());
        // Three frames written ahead of the leader: its fsync covers them,
        // so their waiters are followers parked on it.
        let seqs: Vec<u64> = (2..5).map(|id| write_only(&wal, &enq(id))).collect();
        gate.hold();
        let leader = spawn_append(&wal, &gate, enq(1));
        gate.wait_entered(1);
        let follow = |seq| {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.inner.commit(seq, Some(&enq(0))))
        };
        let followers: Vec<_> = seqs.into_iter().map(follow).collect();
        // The kill takes effect when it gets the writer lock, behind the
        // fsync: what that fsync covers is durable and says so, everything
        // after it is dropped — including waiters whose frame is written.
        let killer = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.poison())
        };
        assert!(!leader.is_finished() && !killer.is_finished());
        gate.open();
        assert_eq!(leader.join().unwrap(), AppendOutcome::Landed);
        for f in followers {
            assert_eq!(f.join().unwrap(), AppendOutcome::Landed);
        }
        killer.join().unwrap();
        assert_eq!(wal.append(&enq(9)), AppendOutcome::Poisoned);
        assert_eq!(gate.syncs(), 1);
        cleanup(&p);
    }

    #[test]
    fn poison_wakes_every_uncovered_waiter_poisoned() {
        let (p, gate, wal) = gated("poison-wakes", no_tick());
        let seqs: Vec<u64> = (1..5).map(|id| write_only(&wal, &enq(id))).collect();
        wal.poison();
        for seq in seqs {
            assert_eq!(
                wal.inner.commit(seq, Some(&enq(0))),
                AppendOutcome::Poisoned
            );
        }
        assert_eq!(gate.syncs(), 0, "a poisoned log is never fsynced");
        cleanup(&p);
    }

    #[test]
    fn the_sweeper_commits_an_unwaited_record_and_parks_on_a_clean_log() {
        let opts = WalOptions {
            fsync: FsyncPolicy::Group { interval_ms: 20 },
            ..WalOptions::default()
        };
        let (p, gate, wal) = gated("sweeper", opts);
        assert_eq!(wal.append(&enq(1)), AppendOutcome::Landed);
        assert_eq!(gate.syncs(), 1);
        // Nobody waits on a `Dequeued`; with no other traffic the sweeper
        // fsyncs it one interval later.
        assert_eq!(
            wal.append(&WalRecord::Dequeued { id: 1 }),
            AppendOutcome::Landed
        );
        gate.wait_entered(2);
        // Clean log: the sweeper parks, and an idle log performs no fsync.
        let parked = || {
            wal.inner
                .group
                .as_ref()
                .unwrap()
                .progress
                .lock()
                .sweeper_parked
        };
        while !parked() {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(gate.syncs(), 2, "no timed wake-ups on a clean log");
        assert!(parked());
        cleanup(&p);
    }

    #[test]
    fn drop_with_waiters_parked_releases_all_of_them() {
        let (p, gate, wal) = gated("drop", no_tick());
        let inner = Arc::clone(&wal.inner);
        let seqs: Vec<u64> = (1..5).map(|id| write_only(&wal, &enq(id))).collect();
        gate.hold();
        // The first waiter leads into the held fsync, the rest follow it.
        let (tx, rx) = std::sync::mpsc::channel();
        for seq in seqs {
            let (inner, tx) = (Arc::clone(&inner), tx.clone());
            std::thread::spawn(move || tx.send(inner.commit(seq, Some(&enq(0)))));
            gate.wait_entered(1);
        }
        // The drop joins the sweeper, whose last commit follows the same
        // leader: nothing may deadlock, and nobody is left behind.
        let wal = Arc::try_unwrap(wal).ok().expect("sole owner");
        let dropper = std::thread::spawn(move || drop(wal));
        gate.open();
        for _ in 0..4 {
            let out = rx.recv_timeout(Duration::from_secs(5)).expect("released");
            assert_eq!(out, AppendOutcome::Landed);
        }
        dropper.join().unwrap();
        assert_eq!(gate.syncs(), 1, "one fsync covered every parked waiter");
        cleanup(&p);
    }

    #[test]
    fn group_commit_lands_appends_and_sheds_on_stall() {
        let opts = WalOptions {
            fsync: FsyncPolicy::Group { interval_ms: 1 },
            append_deadline_ms: 600,
            ..WalOptions::default()
        };
        let (p, gate, wal) = gated("group", opts);
        // Healthy group commit: the append waits for the covering fsync.
        assert_eq!(wal.append(&enq(1)), AppendOutcome::Landed);
        // The follower's frame is on the log before the disk stalls.
        let follower_seq = write_only(&wal, &enq(3));
        gate.hold();
        let entered = gate.st.lock().entered;
        let leader = spawn_append(&wal, &gate, enq(2));
        gate.wait_entered(entered + 1);
        // The follower is shed at its deadline while the leader rides the
        // stall; the next leader retracts its enqueue.
        let t0 = Instant::now();
        assert_eq!(
            wal.inner.commit(follower_seq, Some(&enq(3))),
            AppendOutcome::Stalled
        );
        assert!(t0.elapsed() >= Duration::from_millis(600));
        assert!(!leader.is_finished(), "the leader rides the stall out");
        // While the fsync is still stuck, the pre-write gate sheds without
        // even taking the writer lock.
        while !wal.inner.stall_gate_tripped() {
            std::thread::yield_now();
        }
        assert_eq!(wal.append(&enq(4)), AppendOutcome::Stalled);
        // The stall clears: the leader's record is durable, appends land
        // again and the abandoned enqueue has been retracted.
        gate.open();
        assert_eq!(leader.join().unwrap(), AppendOutcome::Landed);
        assert_eq!(wal.append(&enq(5)), AppendOutcome::Landed);
        assert_eq!(wal.io_counts().stall_sheds, 2);
        assert_eq!(wal.io_counts().abandoned, 1);
        drop(Arc::try_unwrap(wal).ok().expect("sole owner"));
        let st = replay(&p).unwrap();
        let ids: Vec<u64> = st.pending.iter().map(|x| x.id).collect();
        assert_eq!(
            ids,
            vec![1, 2, 5],
            "the shed enqueue was retracted, never to be replayed as pending"
        );
        assert_eq!(st.counters.failed, 1, "retraction books as a failure");
        cleanup(&p);
    }

    #[test]
    fn snapshots_list_the_directory_only_while_an_older_segment_is_live() {
        let (p, gate, wal) = gated("lists", no_tick());
        assert!(wal.snapshot_with(WalSnapshot::default));
        let lists = gate.lists.load(Ordering::Relaxed);
        for id in 1..=1_000 {
            write_only(&wal, &enq(id));
            write_only(
                &wal,
                &WalRecord::Completed {
                    id,
                    ok: true,
                    tenant: None,
                },
            );
            assert!(wal.snapshot_with(WalSnapshot::default));
        }
        assert_eq!(gate.lists.load(Ordering::Relaxed), lists, "no rotation");
        assert!(wal.inner.rotate_locked(&mut wal.inner.writer.lock()));
        assert!(wal.snapshot_with(WalSnapshot::default));
        assert!(wal.snapshot_with(WalSnapshot::default));
        assert_eq!(gate.lists.load(Ordering::Relaxed), lists + 1);
        assert_eq!(wal.io_counts().segments_retired, 1);
        assert_eq!(discover_segments(&RealStorage, &p).len(), 1);
        cleanup(&p);
    }

    /// A disk that keeps, per file handle, the bytes an fsync covered and
    /// the bytes written since that handle's last fsync — what a crash
    /// keeps and what it may drop. A dropped handle's tail stays unsynced.
    #[derive(Default)]
    struct Ledger(Mutex<Vec<(Vec<u8>, Vec<u8>)>>);

    struct LedgerStorage(Arc<Ledger>);

    struct LedgerFile {
        f: Box<dyn StorageFile>,
        ledger: Arc<Ledger>,
        idx: usize,
    }

    impl StorageFile for LedgerFile {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.ledger.0.lock()[self.idx].1.extend_from_slice(buf);
            self.f.write_all(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.f.flush()
        }
        fn sync(&mut self) -> io::Result<()> {
            self.f.sync()?;
            let (synced, unsynced) = &mut self.ledger.0.lock()[self.idx];
            synced.append(unsynced);
            Ok(())
        }
    }

    impl Storage for LedgerStorage {
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
            let mut handles = self.0 .0.lock();
            handles.push(Default::default());
            Ok(Box::new(LedgerFile {
                f: RealStorage.open_append(path)?,
                ledger: Arc::clone(&self.0),
                idx: handles.len() - 1,
            }))
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            RealStorage.read(path)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            RealStorage.remove(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            RealStorage.list(dir)
        }
    }

    #[test]
    fn a_size_rotation_leaves_no_landed_frame_only_in_an_unsynced_tail() {
        let p = tmp("rotate-tail");
        let ledger = Arc::new(Ledger::default());
        let opts = WalOptions {
            segment_bytes: 256,
            ..no_tick()
        };
        let storage = Arc::new(LedgerStorage(Arc::clone(&ledger)));
        let wal = Wal::open_with(&p, opts, storage).unwrap();
        // The unwaited `Dequeued` sits in `unsynced` until the `Completed`
        // behind it commits; every few invocations that `Completed` is the
        // frame that crosses `segment_bytes` and rotates.
        let mut landed = Vec::new();
        for id in 1..=24 {
            for rec in [
                enq(id),
                WalRecord::Dequeued { id },
                WalRecord::Completed {
                    id,
                    ok: true,
                    tenant: None,
                },
            ] {
                assert_eq!(wal.append(&rec), AppendOutcome::Landed);
                landed.push(encode_frame(&rec));
            }
        }
        assert!(wal.io_counts().rotations >= 8, "{:?}", wal.io_counts());
        // Every append returned and the last waited: the log says all of it
        // is durable, so every frame must sit in some handle's synced bytes.
        let handles = ledger.0.lock();
        for (n, frame) in landed.iter().enumerate() {
            let durable = handles
                .iter()
                .any(|(synced, _)| synced.windows(frame.len()).any(|w| w == frame));
            assert!(durable, "frame #{n} was reported durable but never fsynced");
        }
        drop(handles);
        cleanup(&p);
    }
}
