//! Worker configuration.
//!
//! §5: "Workers are configured with a json file on startup, with the various
//! policy options (such as queuing), keep-alive, timeouts, networking,
//! logging, etc." Every knob used by an experiment lives here so runs are
//! reproducible from a single serialized config.

use iluvatar_admission::AdmissionConfig;
use iluvatar_cache::CacheConfig;
use serde::{Deserialize, Serialize};

/// Which keep-alive eviction policy the container pool runs (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeepalivePolicyKind {
    /// OpenWhisk-style fixed TTL; evicts in LRU order under pressure.
    Ttl,
    /// Least-recently-used.
    Lru,
    /// Least-frequently-used (the paper's FREQ variant).
    Lfu,
    /// Greedy-Dual-Size-Frequency (the paper's GD policy).
    Gdsf,
    /// Landlord (the paper's LND variant, GD without frequency).
    Landlord,
    /// Histogram keep-alive of Shahrad et al. (the paper's HIST baseline).
    Hist,
}

impl KeepalivePolicyKind {
    pub fn name(&self) -> &'static str {
        match self {
            KeepalivePolicyKind::Ttl => "TTL",
            KeepalivePolicyKind::Lru => "LRU",
            KeepalivePolicyKind::Lfu => "FREQ",
            KeepalivePolicyKind::Gdsf => "GD",
            KeepalivePolicyKind::Landlord => "LND",
            KeepalivePolicyKind::Hist => "HIST",
        }
    }

    /// All policies, in the order the paper's figures plot them.
    pub fn all() -> [KeepalivePolicyKind; 6] {
        [
            KeepalivePolicyKind::Ttl,
            KeepalivePolicyKind::Gdsf,
            KeepalivePolicyKind::Lru,
            KeepalivePolicyKind::Lfu,
            KeepalivePolicyKind::Landlord,
            KeepalivePolicyKind::Hist,
        ]
    }
}

/// Queue discipline (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueuePolicyKind {
    /// Arrival order.
    Fcfs,
    /// Shortest job first on the (moving-window) expected execution time.
    Sjf,
    /// Earliest effective deadline first: arrival + expected execution.
    Eedf,
    /// Prioritize the most unexpected functions (highest IAT).
    Rare,
    /// Deficit-weighted round robin across per-tenant sub-queues (the
    /// multi-tenant fair queue; not one of the paper's four heap
    /// disciplines, so excluded from [`QueuePolicyKind::all`]).
    Drr,
}

impl QueuePolicyKind {
    pub fn name(&self) -> &'static str {
        match self {
            QueuePolicyKind::Fcfs => "FCFS",
            QueuePolicyKind::Sjf => "SJF",
            QueuePolicyKind::Eedf => "EEDF",
            QueuePolicyKind::Rare => "RARE",
            QueuePolicyKind::Drr => "DRR",
        }
    }

    /// The paper's four single-queue heap disciplines (§4.2); DRR is a
    /// separate multi-queue structure and is not enumerated here.
    pub fn all() -> [QueuePolicyKind; 4] {
        [
            QueuePolicyKind::Fcfs,
            QueuePolicyKind::Sjf,
            QueuePolicyKind::Eedf,
            QueuePolicyKind::Rare,
        ]
    }
}

/// Concurrency regulator configuration (§4.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcurrencyConfig {
    /// Initial (and, in fixed mode, permanent) concurrency limit.
    pub limit: usize,
    /// Enable the TCP-like AIMD dynamic limit.
    pub dynamic: bool,
    /// Congestion threshold on normalized load (running / cores).
    pub congestion_load: f64,
    /// AIMD additive increase per control interval.
    pub aimd_increase: f64,
    /// AIMD multiplicative decrease on congestion.
    pub aimd_decrease: f64,
    /// Control interval, ms.
    pub interval_ms: u64,
    /// Hard cap for the dynamic limit.
    pub max_limit: usize,
}

impl Default for ConcurrencyConfig {
    fn default() -> Self {
        Self {
            limit: 48,
            dynamic: false,
            congestion_load: 1.0,
            aimd_increase: 1.0,
            aimd_decrease: 0.5,
            interval_ms: 500,
            max_limit: 512,
        }
    }
}

/// Invocation queue configuration (§4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueConfig {
    pub policy: QueuePolicyKind,
    /// Bound on queued invocations; beyond it, invokes are rejected
    /// (explicit backpressure, §4).
    pub max_len: usize,
    /// Concurrent cold-start ("herd") suppression, §4: when a warm miss
    /// happens while another invocation of the same function is running,
    /// wait up to this long for its container to free up before paying a
    /// concurrent cold start. 0 disables.
    pub herd_wait_ms: u64,
    /// DRR quantum: cost credit (expected-exec milliseconds) granted to a
    /// tenant per scheduling round, scaled by its weight. 0 (the serde
    /// default for older configs) means the built-in default of 50 ms.
    #[serde(default)]
    pub drr_quantum_ms: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self {
            policy: QueuePolicyKind::Eedf,
            max_len: 16 * 1024,
            herd_wait_ms: 0,
            drr_quantum_ms: 0,
        }
    }
}

/// Retry/timeout hardening around the agent hop. All knobs default to
/// disabled so the baseline hot path is untouched; chaos/e2e configurations
/// turn them on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Retries after a transient (backend) failure; 0 disables retrying.
    pub max_retries: u32,
    /// Backoff: delay before the first retry, ms.
    pub backoff_base_ms: u64,
    /// Backoff: upper bound on any single delay, ms.
    pub backoff_cap_ms: u64,
    /// Agent-call timeout, ms: a call exceeding it is abandoned and the
    /// container quarantined. 0 calls inline with no timeout.
    pub agent_timeout_ms: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            max_retries: 0,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            agent_timeout_ms: 0,
        }
    }
}

/// Crash-safety / lifecycle configuration. Defaults to fully disabled (no
/// write-ahead log, no recovery) so the baseline hot path is untouched.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LifecycleConfig {
    /// Path of the queue write-ahead log. `None` disables WAL journaling
    /// (and with it snapshotting and recovery).
    #[serde(default)]
    pub wal_path: Option<String>,
    /// Append a compacted snapshot after this many WAL records. 0 selects
    /// the built-in default of 64.
    #[serde(default)]
    pub snapshot_every: u64,
    /// Durability / fault-handling knobs for the WAL itself.
    #[serde(default)]
    pub wal: WalConfig,
}

/// WAL durability and fault-handling knobs. Defaults reproduce the
/// historical behavior: no fsync, reject on exhausted I/O ladder, no
/// append deadline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WalConfig {
    /// Fsync policy: `"never"`, `"group"` (leader/follower group commit:
    /// an accept that is not yet covered fsyncs, or rides the fsync in
    /// flight), or `"always"` (fsync per record).
    #[serde(default)]
    pub fsync: String,
    /// When `fsync = "group"`: the longest a record nobody waits on
    /// (`Dequeued`, `Shed`, lease records) may sit un-fsynced, ms. No
    /// accept or result ever waits for it. 0 selects the default of 2.
    #[serde(default)]
    pub group_ms: u64,
    /// What to do when the write ladder (retry → rotate) is exhausted:
    /// `"reject"` sheds that append with 503, `"degrade"` keeps serving
    /// with results flagged non-durable and periodically re-arms.
    #[serde(default)]
    pub on_error: String,
    /// Shed an append with 503 + Retry-After when WAL I/O has been stuck
    /// for this long, ms. 0 disables the deadline.
    #[serde(default)]
    pub append_deadline_ms: u64,
    /// Write retries before rotating to a fresh segment.
    #[serde(default)]
    pub retry_limit: u32,
    /// While degraded, attempt re-arming after this long, ms. 0 selects
    /// the built-in default of 250.
    #[serde(default)]
    pub rearm_after_ms: u64,
}

impl LifecycleConfig {
    /// Enable the WAL at `path` with default cadence.
    pub fn with_wal(path: &str) -> Self {
        Self {
            wal_path: Some(path.to_string()),
            ..Default::default()
        }
    }

    pub fn effective_snapshot_every(&self) -> u64 {
        if self.snapshot_every == 0 {
            64
        } else {
            self.snapshot_every
        }
    }

    /// Resolve the serde-level [`WalConfig`] strings into the WAL's typed
    /// options. Unrecognized strings fall back to the historical defaults
    /// (`fsync = never`, `on_error = reject`).
    pub fn wal_options(&self) -> crate::wal::WalOptions {
        use crate::wal::{FsyncPolicy, WalOnError, WalOptions};
        let d = WalOptions::default();
        let w = &self.wal;
        WalOptions {
            snapshot_every: self.effective_snapshot_every(),
            fsync: match w.fsync.as_str() {
                "always" => FsyncPolicy::Always,
                "group" => FsyncPolicy::Group {
                    interval_ms: if w.group_ms == 0 { 2 } else { w.group_ms },
                },
                _ => FsyncPolicy::Never,
            },
            on_error: if w.on_error == "degrade" {
                WalOnError::Degrade
            } else {
                WalOnError::Reject
            },
            append_deadline_ms: w.append_deadline_ms,
            retry_limit: if w.retry_limit == 0 {
                d.retry_limit
            } else {
                w.retry_limit
            },
            retry_backoff_ms: d.retry_backoff_ms,
            segment_bytes: d.segment_bytes,
            rearm_after_ms: if w.rearm_after_ms == 0 {
                d.rearm_after_ms
            } else {
                w.rearm_after_ms
            },
        }
    }
}

/// Top-level worker configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerConfig {
    /// Worker name (cluster identity).
    pub name: String,
    /// CPU cores available to functions; load is normalized over this.
    pub cores: usize,
    /// Keep-alive cache capacity in MB — the container pool's memory.
    pub memory_mb: u64,
    /// Free-memory buffer kept ahead of demand by background eviction
    /// ("we maintain a minimum free-memory buffer for dealing with
    /// invocation bursts", §3.3).
    pub free_buffer_mb: u64,
    /// Background eviction sweep period, ms.
    pub eviction_period_ms: u64,
    pub keepalive: KeepalivePolicyKind,
    pub queue: QueueConfig,
    pub concurrency: ConcurrencyConfig,
    /// Predictive prewarming horizon, ms: when the keep-alive policy (HIST)
    /// anticipates an invocation within this window and no warm container
    /// exists, the worker prewarms one (§3.2). 0 disables.
    pub prewarm_horizon_ms: u64,
    /// Pre-created network namespaces to keep pooled.
    pub netns_pool: usize,
    /// Retry/timeout hardening; defaults to fully disabled so configs
    /// written before this field existed still parse.
    #[serde(default)]
    pub resilience: ResilienceConfig,
    /// Multi-tenant admission control; defaults to fully disabled so the
    /// baseline hot path (and Table-1 spans) are unchanged.
    #[serde(default)]
    pub admission: AdmissionConfig,
    /// Crash-safe lifecycle (queue WAL, snapshots, drain); defaults to
    /// fully disabled so configs written before this field existed parse.
    #[serde(default)]
    pub lifecycle: LifecycleConfig,
    /// Invocation result cache (worker-side consult/fill for idempotent
    /// functions); defaults to fully disabled so the baseline hot path is
    /// untouched.
    #[serde(default)]
    pub cache: CacheConfig,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            name: "worker-0".into(),
            cores: 48,
            memory_mb: 32 * 1024,
            free_buffer_mb: 1024,
            eviction_period_ms: 500,
            keepalive: KeepalivePolicyKind::Gdsf,
            queue: QueueConfig::default(),
            concurrency: ConcurrencyConfig::default(),
            prewarm_horizon_ms: 0,
            netns_pool: 16,
            resilience: ResilienceConfig::default(),
            admission: AdmissionConfig::default(),
            lifecycle: LifecycleConfig::default(),
            cache: CacheConfig::default(),
        }
    }
}

impl WorkerConfig {
    /// Parse from the JSON format the deployment tooling writes.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// A small config for unit tests: tiny timers, 4 cores, 1 GB.
    pub fn for_testing() -> Self {
        Self {
            name: "test-worker".into(),
            cores: 4,
            memory_mb: 1024,
            free_buffer_mb: 64,
            eviction_period_ms: 20,
            concurrency: ConcurrencyConfig {
                limit: 8,
                ..Default::default()
            },
            netns_pool: 2,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = WorkerConfig::default();
        assert!(c.cores > 0 && c.memory_mb > 0);
        assert!(c.free_buffer_mb < c.memory_mb);
        assert_eq!(c.keepalive.name(), "GD");
    }

    #[test]
    fn json_roundtrip() {
        let c = WorkerConfig::for_testing();
        let json = c.to_json();
        let back = WorkerConfig::from_json(&json).unwrap();
        assert_eq!(back.name, "test-worker");
        assert_eq!(back.cores, 4);
        assert_eq!(back.keepalive, c.keepalive);

        // A config written while the queue still had its bypass knobs loads:
        // the two retired keys are skipped, the other queue fields hold.
        let mut c = WorkerConfig::for_testing();
        c.queue.policy = QueuePolicyKind::Sjf;
        c.queue.max_len = 77;
        c.queue.herd_wait_ms = 5;
        c.queue.drr_quantum_ms = 9;
        let mut old = c.to_json();
        let key = old.find("\"queue\"").unwrap();
        let open = key + old[key..].find('{').unwrap();
        old.insert_str(
            open + 1,
            r#""bypass_threshold_ms":50,"bypass_load_limit":0.8,"#,
        );
        let q = WorkerConfig::from_json(&old)
            .expect("a pre-deletion config parses")
            .queue;
        assert_eq!(q.policy, QueuePolicyKind::Sjf);
        assert_eq!((q.max_len, q.herd_wait_ms, q.drr_quantum_ms), (77, 5, 9));
    }

    #[test]
    fn bad_json_rejected() {
        assert!(WorkerConfig::from_json("{\"name\": 42}").is_err());
    }

    #[test]
    fn policy_names_match_paper_labels() {
        use KeepalivePolicyKind::*;
        assert_eq!(Gdsf.name(), "GD");
        assert_eq!(Landlord.name(), "LND");
        assert_eq!(Lfu.name(), "FREQ");
        assert_eq!(Hist.name(), "HIST");
        assert_eq!(KeepalivePolicyKind::all().len(), 6);
        assert_eq!(QueuePolicyKind::all().len(), 4);
        assert_eq!(QueuePolicyKind::Drr.name(), "DRR");
        assert!(
            !QueuePolicyKind::all().contains(&QueuePolicyKind::Drr),
            "DRR is a multi-queue structure, not a heap discipline"
        );
    }

    #[test]
    fn admission_defaults_off_and_old_configs_parse() {
        let c = WorkerConfig::default();
        assert!(!c.admission.enabled, "admission must be opt-in");
        assert_eq!(c.queue.drr_quantum_ms, 0, "0 = use built-in quantum");
        // A queue config serialized before the DRR field existed still
        // parses (serde default), keeping old experiment configs stable.
        let old = r#"{"policy":"Fcfs","bypass_threshold_ms":0,
                      "bypass_load_limit":0.8,"max_len":64,"herd_wait_ms":0}"#;
        let q: QueueConfig = serde_json::from_str(old).expect("pre-DRR config parses");
        assert_eq!(q.drr_quantum_ms, 0);
        // And the full config roundtrips with admission enabled.
        let mut c = WorkerConfig::for_testing();
        c.admission.enabled = true;
        c.queue.policy = QueuePolicyKind::Drr;
        let back = WorkerConfig::from_json(&c.to_json()).unwrap();
        assert!(back.admission.enabled);
        assert_eq!(back.queue.policy, QueuePolicyKind::Drr);
    }

    #[test]
    fn partial_json_uses_no_defaults() {
        // Config requires all fields — experiments must be explicit.
        assert!(WorkerConfig::from_json("{\"name\":\"w\"}").is_err());
    }
}
