//! The Ilúvatar worker — a fast, predictable FaaS control plane.
//!
//! This crate is the paper's primary contribution: a worker-centric control
//! plane (§3) whose per-invocation overhead is ~2 ms against OpenWhisk's
//! 10–600 ms. The worker API mirrors §3.1: `register`, `invoke`,
//! `async_invoke`, and `prewarm`.
//!
//! Structure:
//!
//! * [`registration`] — function registration and image preparation (§3.2).
//! * [`characteristics`] — per-function warm/cold time and IAT histories,
//!   the inputs to every data-driven policy (§3.1, §4.2).
//! * [`policies`] — keep-alive eviction policies: TTL, LRU, LFU, the
//!   Greedy-Dual-Size-Frequency family, Landlord, and the histogram (HIST)
//!   policy of Shahrad et al. (§6.1).
//! * [`pool`] — the container pool / keep-alive cache with background
//!   eviction and a free-memory buffer (§3.3).
//! * [`queue`] — the per-worker invocation queue: FCFS/SJF/EEDF/RARE
//!   disciplines plus a deficit-weighted-round-robin (DRR) multi-tenant
//!   fair queue, and the concurrency regulator with fixed or AIMD-dynamic
//!   limits (§4).
//! * [`worker`] — the assembled worker and its invocation hot path.
//! * [`spans`] — each invocation's one timeline, and Table 1 read off it.
//! * [`journal`] — per-invocation trace labels (`GET /trace/{id}`).
//! * [`breakdown`] — the critical-path breakdown report (`GET /breakdown`).
//! * [`exposition`] — Prometheus text rendering for `GET /metrics`.

pub mod api;
pub mod breakdown;
pub mod characteristics;
pub mod config;
pub mod exposition;
pub mod invocation;
pub mod journal;
pub mod metrics;
pub mod policies;
pub mod pool;
pub mod queue;
pub mod registration;
pub mod spans;
pub mod wal;
pub mod worker;

pub use breakdown::{BreakdownReport, GroupBreakdown, StageBreakdown, TenantBreakdown};
pub use config::{
    ConcurrencyConfig, KeepalivePolicyKind, LifecycleConfig, QueueConfig, QueuePolicyKind,
    ResilienceConfig, WalConfig, WorkerConfig,
};
pub use iluvatar_cache::CacheStatus;
pub use invocation::{InvocationHandle, InvocationResult, InvokeError};
pub use journal::{journal_digest, TraceEvent, TraceEventKind, TraceJournal, TraceRecord};
pub use queue::{DrrQueue, DEFAULT_DRR_QUANTUM_MS};
pub use registration::{RegisterError, Registration, Registry};
pub use spans::{merge_span_exports, SpanExport, Spans};
pub use wal::{CounterBaselines, PendingInvocation, ReplayState, Wal, WalRecord, WalSnapshot};
pub use worker::{RecoveryReport, Worker, WorkerStatus};

// Re-export the substrate types callers need to build a worker.
pub use iluvatar_containers::{ContainerBackend, FunctionSpec, ResourceLimits};

// Re-export the canonical telemetry stream so worker embedders can attach
// sinks without a direct dependency edge.
pub use iluvatar_telemetry::{
    FlightDump, FlightRecorder, FlightSnapshot, TelemetryBus, TelemetryEvent, TelemetryKind,
    TelemetrySink,
};

// Re-export the admission-control surface so downstream crates (load
// balancer, binaries) don't need a direct dependency edge.
pub use iluvatar_admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, PriorityClass, TenantRegistry,
    TenantSnapshot, TenantSpec, DEFAULT_TENANT,
};
