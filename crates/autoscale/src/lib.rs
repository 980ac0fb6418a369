//! Elastic-fleet scaling policies.
//!
//! Ilúvatar's worker-centric control plane (§3) keeps per-worker overhead
//! flat, but a *fixed* fleet still overflows queues under bursts and burns
//! idle memory in quiet periods. This crate decides, from live load
//! observations, when the fleet should grow or shrink; the load balancer's
//! `Fleet` manager applies those decisions (spawn + HalfOpen probe on the
//! way up, graceful drain on the way down — never a kill).
//!
//! Three pluggable controllers implement [`ScalingPolicy`]:
//!
//! * [`ReactiveQueueDelayPolicy`] — classic threshold control on the
//!   cluster queue delay, with a hysteresis band and asymmetric
//!   scale-up/scale-down cooldowns (the off-by-default default).
//! * [`ConcurrencyTargetPolicy`] — Knative-style: average total in-flight
//!   work over a sliding window, divide by a per-worker concurrency
//!   target, and step the fleet toward that desired size.
//! * [`MpcPolicy`] — an MPC-lite receding-horizon controller: per-function
//!   arrival forecasts (the [`iluvatar_sync::ArrivalForecaster`]
//!   least-squares trend) are rolled a short horizon forward through a
//!   backlog model, and the smallest fleet that keeps predicted queue
//!   delay under target is chosen — pre-provisioning *ahead* of a ramp
//!   instead of after the queue has already built ("Taming Cold Starts
//!   with Model Predictive Control", arXiv:2508.07640).
//!
//! Every policy is a pure function of its [`FleetObservation`] stream —
//! time arrives *in* the observation, never from a wall clock — so
//! decision sequences replay bit-identically and are proptest-able.

mod mpc;
mod policy;

pub use mpc::{MpcConfig, MpcPolicy};
pub use policy::{
    ConcurrencyTargetConfig, ConcurrencyTargetPolicy, Cooldowns, ReactiveConfig,
    ReactiveQueueDelayPolicy,
};

use serde::{Deserialize, Serialize};

/// Which controller drives the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalingPolicyKind {
    /// Reactive queue-delay target with hysteresis + cooldowns.
    ReactiveQueueDelay,
    /// Knative-style concurrency-target averaging over a sliding window.
    ConcurrencyTarget,
    /// MPC-lite predictive controller over per-function arrival forecasts.
    PredictiveMpc,
}

impl ScalingPolicyKind {
    pub fn name(&self) -> &'static str {
        match self {
            ScalingPolicyKind::ReactiveQueueDelay => "reactive-queue-delay",
            ScalingPolicyKind::ConcurrencyTarget => "concurrency-target",
            ScalingPolicyKind::PredictiveMpc => "predictive-mpc",
        }
    }

    pub fn all() -> [ScalingPolicyKind; 3] {
        [
            ScalingPolicyKind::ReactiveQueueDelay,
            ScalingPolicyKind::ConcurrencyTarget,
            ScalingPolicyKind::PredictiveMpc,
        ]
    }
}

/// Elastic-fleet configuration. Defaults to fully disabled so existing
/// deployments keep their fixed fleet; `reactive queue-delay` is the
/// default controller once enabled.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutoscaleConfig {
    /// Master switch; everything below is inert while false.
    #[serde(default)]
    pub enabled: bool,
    /// Which controller to run.
    pub policy: ScalingPolicyKind,
    /// Fleet size floor; the scaler never drains below it.
    pub min_workers: usize,
    /// Fleet size ceiling (also the cluster's slot capacity).
    pub max_workers: usize,
    /// Policy evaluation period, ms.
    pub interval_ms: u64,
    /// Minimum time between scale-up decisions, ms.
    pub scale_up_cooldown_ms: u64,
    /// Minimum time between scale-down decisions, ms — also the minimum
    /// time a scale-up must age before any scale-down (anti-flap).
    pub scale_down_cooldown_ms: u64,
    /// Most workers added or retired by a single decision.
    pub max_step: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            policy: ScalingPolicyKind::ReactiveQueueDelay,
            min_workers: 1,
            max_workers: 8,
            interval_ms: 500,
            scale_up_cooldown_ms: 1_000,
            scale_down_cooldown_ms: 5_000,
            max_step: 2,
        }
    }
}

impl AutoscaleConfig {
    /// Enabled with the given controller and everything else default.
    pub fn enabled_with(policy: ScalingPolicyKind) -> Self {
        Self {
            enabled: true,
            policy,
            ..Default::default()
        }
    }

    /// Instantiate the configured controller with its default targets.
    pub fn build_policy(&self) -> Box<dyn ScalingPolicy> {
        match self.policy {
            ScalingPolicyKind::ReactiveQueueDelay => Box::new(ReactiveQueueDelayPolicy::new(
                ReactiveConfig::default(),
                self.cooldowns(),
                self.max_step,
            )),
            ScalingPolicyKind::ConcurrencyTarget => Box::new(ConcurrencyTargetPolicy::new(
                ConcurrencyTargetConfig::default(),
                self.cooldowns(),
                self.max_step,
            )),
            ScalingPolicyKind::PredictiveMpc => Box::new(MpcPolicy::new(
                MpcConfig::default(),
                self.cooldowns(),
                self.max_step,
                self.min_workers,
                self.max_workers,
            )),
        }
    }

    pub fn cooldowns(&self) -> Cooldowns {
        Cooldowns::new(self.scale_up_cooldown_ms, self.scale_down_cooldown_ms)
    }
}

/// One snapshot of the fleet's load, everything a controller may read.
/// Time is a field, not an ambient clock, so evaluation is deterministic.
#[derive(Debug, Clone, Default)]
pub struct FleetObservation {
    /// Observation time on the injected clock, ms.
    pub now_ms: u64,
    /// Workers currently live (routable).
    pub live: usize,
    /// Workers draining toward retirement (still finishing work).
    pub draining: usize,
    /// Invocations queued across live workers.
    pub queued: u64,
    /// Invocations executing across live workers.
    pub running: u64,
    /// Mean per-worker queue delay of recently dequeued work, ms.
    pub mean_queue_delay_ms: f64,
    /// Worst per-worker queue delay, ms.
    pub max_queue_delay_ms: u64,
    /// Per-worker concurrency limit (homogeneous fleet).
    pub concurrency_limit: usize,
    /// Invocations that arrived since the previous observation.
    pub arrivals: u64,
    /// Arrivals since the previous observation, per function, sorted by
    /// fqdn (determinism: stable iteration order for the forecasters).
    pub per_fn_arrivals: Vec<(String, u64)>,
    /// Invocations waiting in the balancer's pull-dispatch central queues
    /// (0 in push mode / with no pull plane attached). Backlog that has
    /// not reached any worker's queue yet, so it is invisible to `queued`
    /// — without it a pull-mode fleet would never scale up.
    pub pull_queue_depth: u64,
}

impl FleetObservation {
    /// Total in-flight work: queued plus running, plus backlog still
    /// parked in the pull-dispatch central queues.
    pub fn in_flight(&self) -> u64 {
        self.queued + self.running + self.pull_queue_depth
    }

    /// Work waiting in *some* queue — per-worker or central pull.
    pub fn total_queued(&self) -> u64 {
        self.queued + self.pull_queue_depth
    }
}

/// Scale directions, for event labels and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleDirection {
    Up,
    Down,
}

impl ScaleDirection {
    pub fn label(&self) -> &'static str {
        match self {
            ScaleDirection::Up => "up",
            ScaleDirection::Down => "down",
        }
    }
}

/// What a controller wants done this interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingDecision {
    /// No change.
    Hold,
    /// Add `add` workers.
    ScaleUp { add: usize, reason: &'static str },
    /// Drain `remove` workers.
    ScaleDown { remove: usize, reason: &'static str },
}

/// A journaled scale event: one applied decision.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Decision time on the injected clock, ms.
    pub t_ms: u64,
    pub direction: ScaleDirection,
    /// The controller's reason label (stable across runs; feeds the
    /// `iluvatar_scale_events_total{direction,reason}` counter).
    pub reason: String,
    /// Live fleet size before and after the decision.
    pub from: usize,
    pub to: usize,
}

/// A fleet-scaling controller. Implementations must be pure functions of
/// the observation stream: same observations in, same decisions out.
pub trait ScalingPolicy: Send {
    fn name(&self) -> &'static str;

    /// Evaluate one observation. Returning a non-[`Hold`] decision implies
    /// the caller will apply it (clamped to `[min_workers, max_workers]`),
    /// and starts the matching cooldown.
    ///
    /// [`Hold`]: ScalingDecision::Hold
    fn evaluate(&mut self, obs: &FleetObservation) -> ScalingDecision;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_off_with_reactive_default() {
        let c = AutoscaleConfig::default();
        assert!(!c.enabled, "autoscaling must be opt-in");
        assert_eq!(c.policy, ScalingPolicyKind::ReactiveQueueDelay);
        assert!(c.min_workers >= 1);
        assert!(c.max_workers >= c.min_workers);
    }

    #[test]
    fn config_roundtrips_and_old_configs_parse() {
        let mut c = AutoscaleConfig::enabled_with(ScalingPolicyKind::PredictiveMpc);
        c.max_workers = 5;
        let json = serde_json::to_string(&c).unwrap();
        let back: AutoscaleConfig = serde_json::from_str(&json).unwrap();
        assert!(back.enabled);
        assert_eq!(back.policy, ScalingPolicyKind::PredictiveMpc);
        assert_eq!(back.max_workers, 5);
    }

    #[test]
    fn all_three_policies_build() {
        for kind in ScalingPolicyKind::all() {
            let cfg = AutoscaleConfig::enabled_with(kind);
            let p = cfg.build_policy();
            assert_eq!(p.name(), kind.name());
        }
    }

    #[test]
    fn scale_event_serializes_for_the_fleet_api() {
        let e = ScaleEvent {
            t_ms: 1_000,
            direction: ScaleDirection::Up,
            reason: "queue_delay_high".into(),
            from: 1,
            to: 2,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: ScaleEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.direction.label(), "up");
    }
}
