//! Container isolation substrate.
//!
//! §3.4: the control plane uses "standard Linux containers" through a
//! deliberately small interface — "i) Create a container/sandbox with
//! specified resource limits and disk image/snapshot, ii) launch a task
//! inside it for the agent, and iii) destroy the container" — which "allows
//! Ilúvatar to support *multiple* container backends".
//!
//! This crate reproduces that layering:
//!
//! * [`backend::ContainerBackend`] — the three-operation trait.
//! * [`inprocess::InProcessBackend`] — containers as threads running the
//!   real agent protocol ([`agent`]) over loopback TCP; function code is a
//!   registered Rust closure. This exercises the genuine hot path (HTTP
//!   round trip, connection pool) for latency experiments.
//! * [`simulated::SimBackend`] — the paper's "null" backend (§3.4): no code
//!   runs, create/invoke consume clock time equal to the modelled cold-start
//!   and execution durations, so one machine simulates hundreds of cores.
//! * [`latency::RuntimeLatencyModel`] — calibrated cold-start cost models
//!   for containerd (~300 ms), Docker (~400 ms) and crun (~150 ms), the
//!   numbers §3.4 reports.
//! * [`netns::NamespacePool`] — the pre-created network namespace cache
//!   that removes the ~100 ms global-lock cost from cold starts (§3.3).
//! * [`image`] — registration-time image preparation (layer selection).

pub mod agent;
pub mod backend;
pub mod image;
pub mod inprocess;
pub mod latency;
pub mod netns;
pub mod simulated;
pub mod types;

pub use backend::{BackendError, ContainerBackend, InvokeOutput};
pub use inprocess::InProcessBackend;
pub use latency::{LatencySample, RuntimeKind, RuntimeLatencyModel};
pub use netns::{NamespaceLease, NamespacePool};
pub use simulated::SimBackend;
pub use types::{Container, ContainerId, FunctionSpec, ResourceLimits};
