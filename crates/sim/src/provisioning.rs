//! Dynamic vertical scaling of the keep-alive cache (Fig. 8).
//!
//! §6.3: "Our policy seeks to keep the miss speed (cold starts per second)
//! close to a pre-specified target ... the cache resizing is done only when
//! the miss speed error exceeds 30%, and we can see that the cache size
//! increases with the miss speed, and decreases with it." The proportional
//! controller below reproduces that behaviour: it samples the cold-miss
//! rate each control interval and, outside the error deadband, applies a
//! proportional size adjustment (deliberately conservative to avoid memory
//! fragmentation from frequent small changes).

use crate::keepalive::{KeepaliveSim, SimConfig, SimOutcome};
use iluvatar_trace::azure::{FunctionProfile, TraceEvent};

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ProvisioningConfig {
    /// Target miss speed, cold starts per second (paper: 0.0015).
    pub target_miss_per_sec: f64,
    /// Relative error deadband before any resize (paper: 30%).
    pub error_tolerance: f64,
    /// Proportional gain: fractional size change per unit relative error.
    /// Deliberately small — the paper's controller is "extremely
    /// conservative" to avoid memory fragmentation from frequent resizes.
    pub gain: f64,
    /// Clamp on the relative error fed to the controller; cold-start storms
    /// would otherwise command unbounded growth in one step.
    pub max_rel_err: f64,
    /// Control interval, virtual ms.
    pub interval_ms: u64,
    /// Cache size clamps, MB.
    pub min_mb: u64,
    pub max_mb: u64,
    /// Initial cache size, MB.
    pub initial_mb: u64,
}

impl Default for ProvisioningConfig {
    fn default() -> Self {
        Self {
            target_miss_per_sec: 0.0015,
            error_tolerance: 0.30,
            gain: 0.15,
            max_rel_err: 3.0,
            interval_ms: 5 * 60_000,
            min_mb: 1_000,
            max_mb: 20_000,
            initial_mb: 10_000,
        }
    }
}

/// One controller sample (a Fig. 8 data point).
#[derive(Debug, Clone, Copy)]
pub struct ScalerSample {
    pub t_ms: u64,
    pub cache_mb: u64,
    pub miss_per_sec: f64,
    pub resized: bool,
}

/// Result of a scaled run: the underlying outcome plus the timeseries.
pub struct ScaledRun {
    pub outcome: SimOutcome,
    pub samples: Vec<ScalerSample>,
}

impl ScaledRun {
    /// Time-weighted mean provisioned cache size over the run.
    pub fn mean_cache_mb(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.cache_mb as f64).sum::<f64>() / self.samples.len() as f64
    }
}

/// The proportional miss-speed controller.
///
/// Growth reacts immediately (misses are user-visible pain); shrinking is
/// damped — a reduced gain plus a two-interval hysteresis — because
/// reclaiming memory too eagerly causes eviction storms the next time the
/// working set returns ("our dynamic scaling is extremely conservative",
/// §6.3).
pub struct DynamicScaler {
    cfg: ProvisioningConfig,
}

impl DynamicScaler {
    pub fn new(cfg: ProvisioningConfig) -> Self {
        Self { cfg }
    }

    /// Replay `events` through a keep-alive simulation whose cache size is
    /// controlled live by this scaler.
    pub fn run(
        &self,
        profiles: Vec<FunctionProfile>,
        events: &[TraceEvent],
        sim_cfg: SimConfig,
    ) -> ScaledRun {
        let mut sim = KeepaliveSim::new(
            profiles,
            SimConfig {
                cache_mb: self.cfg.initial_mb,
                ..sim_cfg
            },
        );
        let mut samples = Vec::new();
        let mut next_ctl = self.cfg.interval_ms;
        let mut below_streak = 0u32;
        let end = events.last().map(|e| e.time_ms).unwrap_or(0);
        for e in events {
            while next_ctl <= e.time_ms {
                let s = self.control_tick(&mut sim, next_ctl, &mut below_streak);
                samples.push(s);
                next_ctl += self.cfg.interval_ms;
            }
            sim.on_event(e.time_ms, e.func);
        }
        let outcome = sim.finish(end);
        ScaledRun { outcome, samples }
    }

    fn control_tick(
        &self,
        sim: &mut KeepaliveSim,
        now: u64,
        below_streak: &mut u32,
    ) -> ScalerSample {
        let misses = sim.take_misses();
        let miss_per_sec = misses as f64 / (self.cfg.interval_ms as f64 / 1000.0);
        let target = self.cfg.target_miss_per_sec;
        let rel_err = ((miss_per_sec - target) / target).clamp(-1.0, self.cfg.max_rel_err);
        let mut resized = false;
        if rel_err > self.cfg.error_tolerance {
            *below_streak = 0;
            let factor = 1.0 + self.cfg.gain * rel_err;
            let new = ((sim.cache_mb() as f64 * factor).round() as i64)
                .clamp(self.cfg.min_mb as i64, self.cfg.max_mb as i64) as u64;
            if new != sim.cache_mb() {
                sim.resize(now, new);
                resized = true;
            }
        } else if rel_err < -self.cfg.error_tolerance {
            *below_streak += 1;
            // Shrink only after two consecutive quiet intervals, at a
            // third of the growth gain.
            if *below_streak >= 2 {
                let factor = 1.0 + self.cfg.gain / 3.0 * rel_err;
                let new = ((sim.cache_mb() as f64 * factor).round() as i64)
                    .clamp(self.cfg.min_mb as i64, self.cfg.max_mb as i64)
                    as u64;
                if new != sim.cache_mb() {
                    sim.resize(now, new);
                    resized = true;
                }
            }
        } else {
            *below_streak = 0;
        }
        ScalerSample {
            t_ms: now,
            cache_mb: sim.cache_mb(),
            miss_per_sec,
            resized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iluvatar_core::config::KeepalivePolicyKind;

    fn profiles(n: usize) -> Vec<FunctionProfile> {
        (0..n)
            .map(|i| FunctionProfile {
                fqdn: format!("f{i}"),
                app: 0,
                mean_iat_ms: 60_000.0,
                warm_ms: 500,
                init_ms: 2_000,
                memory_mb: 200,
                diurnal: false,
            })
            .collect()
    }

    /// Round-robin arrivals over `n` functions every `gap` ms.
    fn round_robin(n: usize, gap: u64, duration: u64) -> Vec<TraceEvent> {
        let mut ev = Vec::new();
        let mut t = 0;
        let mut f = 0;
        while t < duration {
            ev.push(TraceEvent {
                time_ms: t,
                func: (f % n) as u32,
            });
            f += 1;
            t += gap;
        }
        ev
    }

    fn cfg() -> ProvisioningConfig {
        ProvisioningConfig {
            target_miss_per_sec: 0.01,
            error_tolerance: 0.30,
            gain: 0.15,
            max_rel_err: 3.0,
            interval_ms: 60_000,
            min_mb: 400,
            max_mb: 10_000,
            initial_mb: 4_000,
        }
    }

    #[test]
    fn shrinks_when_misses_below_target() {
        // One hot function: after the first cold start, zero misses — the
        // controller should shrink toward min.
        let run = DynamicScaler::new(cfg()).run(
            profiles(1),
            &round_robin(1, 5_000, 3 * 3_600_000),
            SimConfig::new(KeepalivePolicyKind::Gdsf, 4_000),
        );
        let last = run.samples.last().unwrap();
        assert!(
            last.cache_mb < 4_000,
            "cache should shrink from 4000, ended at {}",
            last.cache_mb
        );
        assert!(run.samples.iter().any(|s| s.resized));
    }

    #[test]
    fn grows_under_miss_pressure() {
        // 40 functions × 200MB = 8000MB working set, cache starts at 800:
        // constant misses → growth.
        let c = ProvisioningConfig {
            initial_mb: 800,
            ..cfg()
        };
        let run = DynamicScaler::new(c).run(
            profiles(40),
            &round_robin(40, 2_000, 2 * 3_600_000),
            SimConfig::new(KeepalivePolicyKind::Gdsf, 800),
        );
        let peak = run.samples.iter().map(|s| s.cache_mb).max().unwrap();
        assert!(
            peak > 800,
            "cache must grow above the initial 800MB, peaked {peak}"
        );
    }

    #[test]
    fn respects_clamps() {
        let c = ProvisioningConfig {
            min_mb: 1_000,
            max_mb: 2_000,
            initial_mb: 1_500,
            ..cfg()
        };
        let run = DynamicScaler::new(c).run(
            profiles(40),
            &round_robin(40, 1_000, 3_600_000),
            SimConfig::new(KeepalivePolicyKind::Gdsf, 1_500),
        );
        for s in &run.samples {
            assert!(s.cache_mb >= 1_000 && s.cache_mb <= 2_000);
        }
    }

    #[test]
    fn deadband_prevents_fiddling() {
        // Target exactly matching observed misses → no resizes.
        // One function, period 60s, always warm after first: misses ≈ 0;
        // target tiny → rel_err = -1 → would shrink. Instead pick target 0
        // is invalid; use a workload with stable small misses: 10 fns,
        // 300s period, cache big enough: after priming, zero misses.
        // Set target so low-miss means err within band: target 0.0001 and
        // misses 0 → rel err -1 (outside band). So instead verify the
        // inverse: with a huge tolerance nothing resizes.
        let c = ProvisioningConfig {
            error_tolerance: 1e9,
            ..cfg()
        };
        let run = DynamicScaler::new(c).run(
            profiles(5),
            &round_robin(5, 10_000, 3_600_000),
            SimConfig::new(KeepalivePolicyKind::Gdsf, 4_000),
        );
        assert!(run.samples.iter().all(|s| !s.resized));
        assert_eq!(run.samples.last().unwrap().cache_mb, 4_000);
    }

    #[test]
    fn saves_memory_versus_static_while_serving() {
        // The Fig. 8 claim: dynamic sizing averages below a conservative
        // static provision without large cold-start regressions.
        let static_mb = 4_000u64;
        let events = round_robin(10, 4_000, 4 * 3_600_000);
        let stat = KeepaliveSim::run(
            profiles(10),
            &events,
            SimConfig::new(KeepalivePolicyKind::Gdsf, static_mb),
        );
        let c = ProvisioningConfig {
            target_miss_per_sec: 0.01,
            initial_mb: static_mb,
            min_mb: 500,
            ..cfg()
        };
        let dyn_run = DynamicScaler::new(c).run(
            profiles(10),
            &events,
            SimConfig::new(KeepalivePolicyKind::Gdsf, static_mb),
        );
        assert!(
            dyn_run.mean_cache_mb() < static_mb as f64 * 0.8,
            "dynamic mean {} should undercut static {static_mb}",
            dyn_run.mean_cache_mb()
        );
        // Service stays comparable: the working set still fits most of the
        // time, so cold starts must not explode.
        assert!(
            dyn_run.outcome.cold_ratio() <= stat.cold_ratio() + 0.15,
            "dynamic cold ratio {} vs static {}",
            dyn_run.outcome.cold_ratio(),
            stat.cold_ratio()
        );
    }
}
