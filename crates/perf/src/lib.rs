//! The repo benchmark.
//!
//! Four pinned workloads, each a saturated closed loop (capacity) followed
//! by a paced open loop (overhead and CPU per invocation), measured from
//! outside through the program's public functions; and a separate traced
//! run that wraps every layer boundary the program exposes as a trait and
//! probes the rest. See `README.md` for the metric definitions.

pub mod cli;
pub mod drive;
pub mod inputs;
pub mod probes;
pub mod run;
pub mod stats;
pub mod sys;
pub mod topo;
pub mod trace;
pub mod wraps;
