//! Discrete-event keep-alive simulation.
//!
//! §6.1 evaluates keep-alive policies by replaying Azure-trace samples "in
//! our discrete-event keep-alive simulator". This crate is that simulator:
//!
//! * [`keepalive`] — the cache simulator: replays a trace against any
//!   [`iluvatar_core::policies::KeepalivePolicy`], producing the cold-start
//!   ratio and execution-time-increase metrics of Figures 4 and 5, and (with
//!   drop-on-full semantics) the litmus/faasbench breakdowns of Figures 6–7.
//! * [`reuse`] — reuse distances and hit-ratio curves, the caching concepts
//!   the abstract applies to server provisioning.
//! * [`provisioning`] — the dynamic vertical-scaling controller of Figure 8,
//!   holding the cold-start ("miss") speed at a target by resizing the
//!   cache.
//!
//! Crucially the policies under simulation are the *same objects* the live
//! worker runs (§3.4's in-situ simulation argument): there is no duplicated
//! policy implementation to drift.

pub mod cluster;
pub mod elastic;
pub mod keepalive;
pub mod provisioning;
pub mod reuse;

pub use cluster::{ClusterOutcome, ClusterSim, SimLbPolicy};
pub use elastic::{ElasticClusterSim, ElasticOutcome};
pub use keepalive::{KeepaliveSim, SimConfig, SimOutcome};
pub use provisioning::{DynamicScaler, ProvisioningConfig, ScalerSample};
pub use reuse::ReuseAnalysis;
