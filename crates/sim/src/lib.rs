//! Discrete-event keep-alive simulation: one worker model.
//!
//! §6.1 evaluates keep-alive policies by replaying Azure-trace samples "in
//! our discrete-event keep-alive simulator". This crate is that simulator:
//!
//! * [`keepalive`] — the cache simulator: replays a trace against any
//!   [`iluvatar_core::policies::KeepalivePolicy`], producing the cold-start
//!   ratio and execution-time-increase metrics of Figures 4 and 5, and (with
//!   drop-on-full semantics) the litmus/faasbench breakdowns of Figures 6–7.
//! * [`worker`] — that simulator behind `iluvatar_lb::WorkerHandle` on an
//!   injected clock, so a cluster of simulated workers (§3.4) is routed by
//!   the production `Cluster` and sized by the production `Fleet`.
//! * [`reuse`] — reuse distances and hit-ratio curves, the caching concepts
//!   the abstract applies to server provisioning.
//! * [`provisioning`] — the dynamic vertical-scaling controller of Figure 8,
//!   holding the cold-start ("miss") speed at a target by resizing the
//!   cache.
//!
//! Crucially the policies under simulation are the *same objects* the live
//! system runs (§3.4's in-situ simulation argument) — keep-alive policies
//! inside the worker model, CH-BL routing and the scaling controllers above
//! it: there is no duplicated policy implementation to drift. What is
//! modelled is the worker alone.

pub mod keepalive;
pub mod provisioning;
pub mod reuse;
pub mod worker;

pub use keepalive::{KeepaliveSim, SimConfig, SimOutcome};
pub use provisioning::{DynamicScaler, ProvisioningConfig, ScalerSample};
pub use reuse::ReuseAnalysis;
pub use worker::SimWorker;
