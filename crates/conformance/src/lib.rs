//! Executable reference models for the control plane's stateful cores, and
//! a [`Checker`] that replays the canonical telemetry stream (or a raw WAL
//! file) against them.
//!
//! Each model is a small guarded-transition state machine in the TLA+
//! tradition: a handful of states, explicit legality predicates on every
//! transition, and a `ModelError` naming the violated rule when a guard
//! fails. The models are independent of the implementation crates' internal
//! state — they consume only the *observable* stream — so they double as a
//! precise, executable statement of each subsystem's contract:
//!
//! * [`WalModel`] — accepted ⟹ durable, at-least-once execution,
//!   exactly-once accounting, no appends after poison.
//! * [`DrrModel`] — deficit round-robin refinement: bounded deficits and
//!   long-run weighted fairness; strict pop-order refinement when driven
//!   single-threaded.
//! * [`BreakerModel`] / [`BreakerMachine`] — legal trip/probe/cooldown
//!   transitions per target; draining never trips the breaker.
//! * [`FleetModel`] — slot CAS on attach, drain-never-kill on detach,
//!   scale-trajectory continuity, per-worker lifecycle legality.
//!
//! The [`Checker`] multiplexes one event stream across all four models plus
//! a per-invocation timeline model, keeps a bounded ring of preceding
//! events, and reports the **first violating event with its context
//! window** — the conformance analogue of the flight recorder.

pub mod breaker_model;
pub mod cache_model;
pub mod checker;
pub mod dispatch_model;
pub mod drr_model;
pub mod fleet_model;
pub mod lockstep;
pub mod online;
pub mod wal_model;

pub use breaker_model::{BreakerMachine, BreakerModel, BreakerState, Stimulus};
pub use cache_model::CacheModel;
pub use checker::{Checker, ConformanceReport, Violation};
pub use dispatch_model::DispatchModel;
pub use drr_model::DrrModel;
pub use fleet_model::FleetModel;
pub use lockstep::{DrrLockstep, Served};
pub use online::CheckerSink;
pub use wal_model::{InvState, WalModel};

/// A violated transition guard: which rule, and what the model saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    /// Stable rule identifier (`double-complete`, `drain-never-kill`, …).
    pub rule: &'static str,
    /// Human-readable account of the offending transition.
    pub detail: String,
}

impl ModelError {
    pub fn new(rule: &'static str, detail: impl Into<String>) -> Self {
        Self {
            rule,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

impl std::error::Error for ModelError {}
