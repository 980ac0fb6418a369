//! (c) The MPC-lite predictive controller.
//!
//! A receding-horizon controller: per-function arrival forecasters (the
//! least-squares trend of [`iluvatar_sync::ArrivalForecaster`]) predict
//! arrivals for each of the next `horizon_steps` intervals; a backlog
//! recursion rolls those predictions forward under a candidate fleet size,
//! and the smallest fleet whose predicted queue delay stays under target
//! wins. Because the forecast sees a ramp *while it is still ramping*, the
//! fleet is pre-provisioned ahead of the burst instead of after the queue
//! has already built — the core claim of arXiv:2508.07640.

use crate::policy::Cooldowns;
use crate::{FleetObservation, ScalingDecision, ScalingPolicy};
use iluvatar_sync::ArrivalForecaster;
use std::collections::BTreeMap;

/// MPC-lite configuration.
#[derive(Debug, Clone)]
pub struct MpcConfig {
    /// Prediction horizon, in evaluation intervals.
    pub horizon_steps: usize,
    /// Invocations one worker completes per evaluation interval — the
    /// service rate the backlog recursion drains at.
    pub service_rate_per_step: f64,
    /// Predicted-backlog ceiling, expressed in multiples of one interval's
    /// per-worker service: backlog ≤ target × fleet × service_rate keeps
    /// predicted queue delay under ~`target` intervals.
    pub target_backlog_intervals: f64,
    /// Forecaster window, in intervals, per function.
    pub forecast_window: usize,
}

impl Default for MpcConfig {
    fn default() -> Self {
        Self {
            horizon_steps: 4,
            service_rate_per_step: 8.0,
            target_backlog_intervals: 1.0,
            forecast_window: 8,
        }
    }
}

/// The predictive controller. Forecasters live in a BTreeMap so per-run
/// iteration order — and therefore every prediction — is deterministic.
pub struct MpcPolicy {
    cfg: MpcConfig,
    cooldowns: Cooldowns,
    max_step: usize,
    min_workers: usize,
    max_workers: usize,
    forecasters: BTreeMap<String, ArrivalForecaster>,
}

impl MpcPolicy {
    pub fn new(
        cfg: MpcConfig,
        cooldowns: Cooldowns,
        max_step: usize,
        min_workers: usize,
        max_workers: usize,
    ) -> Self {
        Self {
            cfg,
            cooldowns,
            max_step: max_step.max(1),
            min_workers: min_workers.max(1),
            max_workers: max_workers.max(1),
            forecasters: BTreeMap::new(),
        }
    }

    /// Total forecast arrivals `step` intervals ahead, summed across the
    /// per-function forecasters.
    fn forecast_arrivals(&self, step: usize) -> f64 {
        self.forecasters.values().map(|f| f.forecast(step)).sum()
    }

    /// Worst predicted backlog over the horizon if the fleet ran at size
    /// `m` the whole time.
    fn worst_backlog(&self, start_backlog: f64, m: usize) -> f64 {
        let drain = m as f64 * self.cfg.service_rate_per_step.max(0.001);
        let mut b = start_backlog;
        let mut worst: f64 = b;
        for k in 1..=self.cfg.horizon_steps.max(1) {
            b = (b + self.forecast_arrivals(k) - drain).max(0.0);
            worst = worst.max(b);
        }
        worst
    }

    /// The smallest fleet size in `[min, max]` whose worst predicted
    /// backlog stays under the target; `max` when none qualifies.
    fn plan(&self, obs: &FleetObservation) -> usize {
        let start = obs.in_flight() as f64;
        for m in self.min_workers..=self.max_workers {
            let ceiling = self.cfg.target_backlog_intervals.max(0.1)
                * m as f64
                * self.cfg.service_rate_per_step;
            if self.worst_backlog(start, m) <= ceiling {
                return m;
            }
        }
        self.max_workers
    }
}

impl ScalingPolicy for MpcPolicy {
    fn name(&self) -> &'static str {
        "predictive-mpc"
    }

    fn evaluate(&mut self, obs: &FleetObservation) -> ScalingDecision {
        // Feed this interval's arrivals into the per-function forecasters.
        // Functions absent from the observation saw zero arrivals.
        let window = self.cfg.forecast_window;
        for (fqdn, count) in &obs.per_fn_arrivals {
            self.forecasters
                .entry(fqdn.clone())
                .or_insert_with(|| ArrivalForecaster::new(window))
                .push_bucket(*count);
        }
        for (fqdn, f) in self.forecasters.iter_mut() {
            if !obs.per_fn_arrivals.iter().any(|(name, _)| name == fqdn) {
                f.push_bucket(0);
            }
        }

        let desired = self.plan(obs);
        let live = obs.live.max(1);
        if desired > live {
            if !self.cooldowns.allow_up(obs.now_ms) {
                return ScalingDecision::Hold;
            }
            let add = (desired - live).min(self.max_step);
            self.cooldowns.note_up(obs.now_ms);
            return ScalingDecision::ScaleUp {
                add,
                reason: "forecast_backlog",
            };
        }
        if desired < live {
            if obs.total_queued() > 0 || !self.cooldowns.allow_down(obs.now_ms) {
                return ScalingDecision::Hold;
            }
            let remove = (live - desired).min(self.max_step).max(1);
            self.cooldowns.note_down(obs.now_ms);
            return ScalingDecision::ScaleDown {
                remove,
                reason: "forecast_idle",
            };
        }
        ScalingDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScalingDecision as D;

    fn mpc(max_workers: usize) -> MpcPolicy {
        MpcPolicy::new(
            MpcConfig {
                horizon_steps: 4,
                service_rate_per_step: 10.0,
                target_backlog_intervals: 1.0,
                forecast_window: 6,
            },
            Cooldowns::new(0, 0),
            8,
            1,
            max_workers,
        )
    }

    fn obs(now_ms: u64, live: usize, in_flight: u64, arrivals: &[(&str, u64)]) -> FleetObservation {
        FleetObservation {
            now_ms,
            live,
            running: in_flight,
            arrivals: arrivals.iter().map(|(_, c)| c).sum(),
            per_fn_arrivals: arrivals.iter().map(|(n, c)| (n.to_string(), *c)).collect(),
            concurrency_limit: 8,
            ..Default::default()
        }
    }

    #[test]
    fn preprovisions_ahead_of_a_ramp() {
        let mut p = mpc(8);
        // A steep ramp: 0, 10, 20, 30 arrivals per interval. The trend
        // forecasts ~40-70 per interval over the horizon, far beyond one
        // worker's 10/interval — the controller grows while the observed
        // in-flight load is still tiny.
        assert_eq!(p.evaluate(&obs(0, 1, 0, &[("f-1", 0)])), D::Hold);
        p.evaluate(&obs(500, 1, 0, &[("f-1", 10)]));
        p.evaluate(&obs(1_000, 1, 5, &[("f-1", 20)]));
        match p.evaluate(&obs(1_500, 1, 8, &[("f-1", 30)])) {
            D::ScaleUp { add, reason } => {
                assert!(
                    add >= 2,
                    "forecast should ask for several workers, got {add}"
                );
                assert_eq!(reason, "forecast_backlog");
            }
            other => panic!("expected proactive ScaleUp, got {other:?}"),
        }
    }

    #[test]
    fn shrinks_after_the_burst_decays() {
        let mut p = mpc(8);
        for i in 0..4 {
            p.evaluate(&obs(i * 500, 4, 40, &[("f-1", 40)]));
        }
        // Burst over: arrivals collapse, forecast decays, fleet shrinks.
        let mut shrank = false;
        for i in 4..16 {
            if let D::ScaleDown { reason, .. } = p.evaluate(&obs(i * 500, 4, 0, &[("f-1", 0)])) {
                assert_eq!(reason, "forecast_idle");
                shrank = true;
                break;
            }
        }
        assert!(shrank, "decayed forecast must shrink the fleet");
    }

    #[test]
    fn respects_max_workers() {
        let mut p = mpc(3);
        for i in 0..8 {
            let d = p.evaluate(&obs(i * 500, 3, 500, &[("f-1", 500)]));
            assert_eq!(d, D::Hold, "already at ceiling: plan clamps to max");
        }
    }

    #[test]
    fn functions_absent_from_an_interval_decay_to_zero() {
        let mut p = mpc(8);
        for i in 0..3 {
            p.evaluate(&obs(i * 500, 2, 10, &[("f-1", 30)]));
        }
        // f-1 vanishes from the stream; its forecaster must see zeros.
        for i in 3..9 {
            p.evaluate(&obs(i * 500, 2, 0, &[]));
        }
        assert!(
            p.forecast_arrivals(1) < 10.0,
            "stale function trends must decay"
        );
    }
}
