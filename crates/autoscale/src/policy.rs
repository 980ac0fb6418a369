//! The reactive and concurrency-target controllers, plus the shared
//! cooldown bookkeeping every controller uses.

use crate::{FleetObservation, ScalingDecision, ScalingPolicy};
use iluvatar_sync::MovingWindow;

/// Asymmetric scale-up / scale-down cooldowns on observation time.
///
/// Scale-down is additionally gated on the *scale-up* timestamp: a fleet
/// that just grew must age `down_ms` before any shrink, which is the
/// classic anti-flap guard (grow fast, shrink slow).
#[derive(Debug, Clone)]
pub struct Cooldowns {
    up_ms: u64,
    down_ms: u64,
    last_up: Option<u64>,
    last_down: Option<u64>,
}

impl Cooldowns {
    pub fn new(up_ms: u64, down_ms: u64) -> Self {
        Self {
            up_ms,
            down_ms,
            last_up: None,
            last_down: None,
        }
    }

    pub fn allow_up(&self, now_ms: u64) -> bool {
        self.last_up
            .map(|t| now_ms.saturating_sub(t) >= self.up_ms)
            .unwrap_or(true)
    }

    pub fn allow_down(&self, now_ms: u64) -> bool {
        let since_down = self
            .last_down
            .map(|t| now_ms.saturating_sub(t) >= self.down_ms)
            .unwrap_or(true);
        let since_up = self
            .last_up
            .map(|t| now_ms.saturating_sub(t) >= self.down_ms)
            .unwrap_or(true);
        since_down && since_up
    }

    pub fn note_up(&mut self, now_ms: u64) {
        self.last_up = Some(now_ms);
    }

    pub fn note_down(&mut self, now_ms: u64) {
        self.last_down = Some(now_ms);
    }
}

/// Reactive queue-delay controller configuration.
#[derive(Debug, Clone)]
pub struct ReactiveConfig {
    /// Queue-delay setpoint, ms.
    pub target_queue_delay_ms: f64,
    /// Hysteresis band as a fraction of the target: no decision while the
    /// signal sits inside `target × [1 − band, 1 + band]`.
    pub hysteresis_band: f64,
}

impl Default for ReactiveConfig {
    fn default() -> Self {
        Self {
            target_queue_delay_ms: 100.0,
            hysteresis_band: 0.5,
        }
    }
}

/// (a) Reactive queue-delay target with hysteresis bands and cooldowns.
///
/// The signal is the mean per-worker queue delay. Above the upper band the
/// fleet grows proportionally to the overshoot; below the lower band it
/// shrinks by one. Inside the band: hold. Both directions respect their
/// cooldowns, and a shrink never follows a grow within the down cooldown.
pub struct ReactiveQueueDelayPolicy {
    cfg: ReactiveConfig,
    cooldowns: Cooldowns,
    max_step: usize,
}

impl ReactiveQueueDelayPolicy {
    pub fn new(cfg: ReactiveConfig, cooldowns: Cooldowns, max_step: usize) -> Self {
        Self {
            cfg,
            cooldowns,
            max_step: max_step.max(1),
        }
    }
}

impl ScalingPolicy for ReactiveQueueDelayPolicy {
    fn name(&self) -> &'static str {
        "reactive-queue-delay"
    }

    fn evaluate(&mut self, obs: &FleetObservation) -> ScalingDecision {
        let target = self.cfg.target_queue_delay_ms.max(1.0);
        let band = self.cfg.hysteresis_band.clamp(0.0, 1.0);
        let signal = obs.mean_queue_delay_ms;
        let upper = target * (1.0 + band);
        let lower = target * (1.0 - band);
        if signal > upper {
            if !self.cooldowns.allow_up(obs.now_ms) {
                return ScalingDecision::Hold;
            }
            // Proportional overshoot: delay at 2× the upper band asks for
            // one extra worker per live worker, clamped to the step bound.
            let overshoot = (signal / upper - 1.0).max(0.0);
            let add =
                ((obs.live.max(1) as f64 * overshoot).ceil() as usize).clamp(1, self.max_step);
            self.cooldowns.note_up(obs.now_ms);
            return ScalingDecision::ScaleUp {
                add,
                reason: "queue_delay_high",
            };
        }
        if signal < lower {
            // Never shrink while a queue is still standing: a draining
            // backlog with a momentarily idle dequeue path is not idleness.
            if obs.total_queued() > 0 || !self.cooldowns.allow_down(obs.now_ms) {
                return ScalingDecision::Hold;
            }
            self.cooldowns.note_down(obs.now_ms);
            return ScalingDecision::ScaleDown {
                remove: 1,
                reason: "queue_delay_low",
            };
        }
        ScalingDecision::Hold
    }
}

/// Concurrency-target controller configuration.
#[derive(Debug, Clone)]
pub struct ConcurrencyTargetConfig {
    /// Desired average in-flight invocations per worker.
    pub target_per_worker: f64,
    /// Sliding window length, in observations, that the in-flight average
    /// smooths over.
    pub window: usize,
}

impl Default for ConcurrencyTargetConfig {
    fn default() -> Self {
        Self {
            target_per_worker: 8.0,
            window: 6,
        }
    }
}

/// (b) Knative-style concurrency-target averaging over a sliding window.
///
/// Tracks total in-flight work (queued + running) in a [`MovingWindow`];
/// the desired fleet is `ceil(window mean ÷ target_per_worker)`. The fleet
/// steps toward the desired size at most `max_step` workers per decision,
/// growing on the raw desire but shrinking only when the desire has fallen
/// a *full worker* below the current size (implicit hysteresis: a desire
/// of `live − 0.2` never drains anyone).
pub struct ConcurrencyTargetPolicy {
    cfg: ConcurrencyTargetConfig,
    cooldowns: Cooldowns,
    max_step: usize,
    window: MovingWindow,
}

impl ConcurrencyTargetPolicy {
    pub fn new(cfg: ConcurrencyTargetConfig, cooldowns: Cooldowns, max_step: usize) -> Self {
        let window = MovingWindow::new(cfg.window.max(1));
        Self {
            cfg,
            cooldowns,
            max_step: max_step.max(1),
            window,
        }
    }
}

impl ScalingPolicy for ConcurrencyTargetPolicy {
    fn name(&self) -> &'static str {
        "concurrency-target"
    }

    fn evaluate(&mut self, obs: &FleetObservation) -> ScalingDecision {
        self.window.push(obs.in_flight() as f64);
        let target = self.cfg.target_per_worker.max(0.001);
        let desired_raw = self.window.mean() / target;
        let desired = desired_raw.ceil().max(1.0) as usize;
        let live = obs.live.max(1);
        if desired > live {
            if !self.cooldowns.allow_up(obs.now_ms) {
                return ScalingDecision::Hold;
            }
            let add = (desired - live).min(self.max_step);
            self.cooldowns.note_up(obs.now_ms);
            return ScalingDecision::ScaleUp {
                add,
                reason: "concurrency_high",
            };
        }
        // Hysteresis on the way down: require the *raw* desire to sit a
        // full worker under the current size, so sizes straddling a
        // ceil() boundary don't flap.
        if desired_raw < (live - 1) as f64 && live > 1 {
            if obs.total_queued() > 0 || !self.cooldowns.allow_down(obs.now_ms) {
                return ScalingDecision::Hold;
            }
            let remove = (live - desired.max(1)).min(self.max_step).max(1);
            self.cooldowns.note_down(obs.now_ms);
            return ScalingDecision::ScaleDown {
                remove,
                reason: "concurrency_low",
            };
        }
        ScalingDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScalingDecision as D;

    fn obs(now_ms: u64, live: usize, delay: f64, queued: u64) -> FleetObservation {
        FleetObservation {
            now_ms,
            live,
            mean_queue_delay_ms: delay,
            max_queue_delay_ms: delay as u64,
            queued,
            running: 0,
            concurrency_limit: 8,
            ..Default::default()
        }
    }

    #[test]
    fn reactive_holds_inside_the_band() {
        let mut p = ReactiveQueueDelayPolicy::new(
            ReactiveConfig {
                target_queue_delay_ms: 100.0,
                hysteresis_band: 0.5,
            },
            Cooldowns::new(0, 0),
            2,
        );
        for d in [51.0, 100.0, 149.0] {
            assert_eq!(
                p.evaluate(&obs(0, 2, d, 0)),
                D::Hold,
                "delay {d} is in-band"
            );
        }
    }

    #[test]
    fn reactive_scales_up_proportionally_and_down_by_one() {
        let mut p = ReactiveQueueDelayPolicy::new(
            ReactiveConfig {
                target_queue_delay_ms: 100.0,
                hysteresis_band: 0.5,
            },
            Cooldowns::new(0, 0),
            4,
        );
        match p.evaluate(&obs(0, 2, 400.0, 9)) {
            D::ScaleUp { add, reason } => {
                assert!(add >= 2, "2.7× overshoot with 2 live asks ≥2, got {add}");
                assert_eq!(reason, "queue_delay_high");
            }
            other => panic!("expected ScaleUp, got {other:?}"),
        }
        match p.evaluate(&obs(1_000, 4, 1.0, 0)) {
            D::ScaleDown { remove: 1, reason } => assert_eq!(reason, "queue_delay_low"),
            other => panic!("expected ScaleDown, got {other:?}"),
        }
    }

    #[test]
    fn reactive_never_shrinks_over_a_standing_queue() {
        let mut p =
            ReactiveQueueDelayPolicy::new(ReactiveConfig::default(), Cooldowns::new(0, 0), 2);
        assert_eq!(p.evaluate(&obs(0, 3, 0.0, 5)), D::Hold);
    }

    #[test]
    fn cooldowns_gate_both_directions() {
        let mut cd = Cooldowns::new(1_000, 5_000);
        assert!(cd.allow_up(0));
        cd.note_up(0);
        assert!(!cd.allow_up(500));
        assert!(cd.allow_up(1_000));
        // The up at t=0 also delays the first down to t=5000.
        assert!(!cd.allow_down(4_999));
        assert!(cd.allow_down(5_000));
        cd.note_down(5_000);
        assert!(!cd.allow_down(9_999));
        assert!(cd.allow_down(10_000));
    }

    fn cobs(now_ms: u64, live: usize, in_flight: u64) -> FleetObservation {
        FleetObservation {
            now_ms,
            live,
            running: in_flight,
            concurrency_limit: 8,
            ..Default::default()
        }
    }

    #[test]
    fn concurrency_target_steps_toward_desired() {
        let mut p = ConcurrencyTargetPolicy::new(
            ConcurrencyTargetConfig {
                target_per_worker: 10.0,
                window: 1,
            },
            Cooldowns::new(0, 0),
            2,
        );
        // 45 in flight at 10/worker wants 5 workers; from 1, step-bound 2.
        match p.evaluate(&cobs(0, 1, 45)) {
            D::ScaleUp { add: 2, .. } => {}
            other => panic!("expected ScaleUp by 2, got {other:?}"),
        }
        // Idle long enough for the window to drain → shrink.
        let mut shrank = false;
        for i in 1..=6 {
            if let D::ScaleDown { .. } = p.evaluate(&cobs(i * 1_000, 5, 0)) {
                shrank = true;
                break;
            }
        }
        assert!(shrank, "idle fleet must eventually shrink");
    }

    #[test]
    fn concurrency_target_has_downward_hysteresis() {
        let mut p = ConcurrencyTargetPolicy::new(
            ConcurrencyTargetConfig {
                target_per_worker: 10.0,
                window: 1,
            },
            Cooldowns::new(0, 0),
            2,
        );
        // Desire 2.1 workers with 3 live: under by less than a full
        // worker → hold, not flap.
        assert_eq!(p.evaluate(&cobs(0, 3, 21)), D::Hold);
        // Desire 1.0 with 3 live: a full worker under → shrink.
        match p.evaluate(&cobs(1_000, 3, 10)) {
            D::ScaleDown { .. } => {}
            other => panic!("expected ScaleDown, got {other:?}"),
        }
    }
}
