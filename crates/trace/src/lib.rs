//! Workload substrate for the Ilúvatar evaluation.
//!
//! The paper's evaluation (§6) replays samples of the Azure Functions 2019
//! trace and runs FunctionBench applications. The raw Microsoft dataset is
//! not redistributable, so [`azure`] synthesizes a statistically equivalent
//! population from the trace's published marginals — heavy-tailed function
//! popularity (a tiny fraction of functions produce the vast majority of
//! invocations), minute-bucketed arrivals spread per the paper's replay
//! rule, application-level memory split evenly across functions, and
//! execution times spanning the published 1 s–1 min quantile range. The
//! three evaluation samples (RARE / REPRESENTATIVE / RANDOM, Table 2) are
//! drawn in [`samples`].
//!
//! [`functionbench`] carries the seven Table 3 applications; [`loadgen`]
//! provides the open- and closed-loop load generation framework of §5.

pub mod azure;
pub mod functionbench;
pub mod loadgen;
pub mod samples;

pub use azure::{AzureTraceConfig, FunctionProfile, SyntheticAzureTrace, TraceEvent};
pub use loadgen::{ClosedLoopConfig, InvokerTarget, OpenLoopRunner};
pub use samples::{SampleKind, TraceSample, TraceStats};
