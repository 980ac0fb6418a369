//! The concurrency regulator (§4.1).
//!
//! "First, we have a concurrency regulator ... which enforces the
//! concurrency limit: the upper-bound on the number of concurrently running
//! functions. ... Ilúvatar can be deployed with a fixed concurrency limit
//! ... or use its dynamic concurrency limit mode. In the dynamic mode, we
//! use a simple TCP-like AIMD policy which increases the concurrency limit
//! until we hit congestion", congestion being normalized load above a
//! threshold.

use crate::config::ConcurrencyConfig;
use iluvatar_sync::aimd::AimdConfig;
use iluvatar_sync::{Aimd, Semaphore, SemaphorePermit};
use parking_lot::Mutex;

/// Concurrency regulator: a resizable semaphore, optionally driven by AIMD.
pub struct ConcurrencyRegulator {
    cfg: ConcurrencyConfig,
    sem: Semaphore,
    aimd: Option<Mutex<Aimd>>,
}

impl ConcurrencyRegulator {
    pub fn new(cfg: ConcurrencyConfig) -> Self {
        let sem = Semaphore::new(cfg.limit);
        let aimd = if cfg.dynamic {
            Some(Mutex::new(Aimd::new(
                cfg.limit as f64,
                AimdConfig {
                    increase: cfg.aimd_increase,
                    decrease: cfg.aimd_decrease,
                    min: 1.0,
                    max: cfg.max_limit as f64,
                },
            )))
        } else {
            None
        };
        Self { cfg, sem, aimd }
    }

    /// Take a run slot if one is free. Nothing blocks on the regulator: an
    /// executor that finds none parks on the queue instead, and the limit
    /// (never above `max_limit` in dynamic mode) is also the executor pool's
    /// size bound.
    pub fn try_acquire(&self) -> Option<SemaphorePermit> {
        self.sem.try_acquire()
    }

    /// One AIMD control interval: feed the congestion signal and resize.
    /// No-op in fixed mode. Returns the current limit.
    pub fn tick(&self, normalized_load: f64) -> usize {
        if let Some(aimd) = &self.aimd {
            let congested = normalized_load > self.cfg.congestion_load;
            let new_limit = aimd.lock().observe(congested);
            self.sem.resize(new_limit);
            new_limit
        } else {
            self.cfg.limit
        }
    }

    pub fn limit(&self) -> usize {
        self.sem.capacity()
    }

    /// Functions currently holding run slots.
    pub fn running(&self) -> usize {
        self.sem.in_use()
    }

    pub fn is_dynamic(&self) -> bool {
        self.aimd.is_some()
    }

    /// The control interval for the periodic tick task.
    pub fn interval_ms(&self) -> u64 {
        self.cfg.interval_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(limit: usize, dynamic: bool) -> ConcurrencyConfig {
        ConcurrencyConfig {
            limit,
            dynamic,
            congestion_load: 1.0,
            aimd_increase: 1.0,
            aimd_decrease: 0.5,
            interval_ms: 10,
            max_limit: 64,
        }
    }

    #[test]
    fn fixed_mode_enforces_limit() {
        let r = ConcurrencyRegulator::new(cfg(2, false));
        let _a = r.try_acquire().unwrap();
        let _b = r.try_acquire().unwrap();
        assert!(r.try_acquire().is_none());
        assert_eq!(r.running(), 2);
        assert_eq!(r.tick(10.0), 2, "tick is a no-op in fixed mode");
        assert_eq!(r.limit(), 2);
        assert!(!r.is_dynamic());
    }

    #[test]
    fn dynamic_grows_without_congestion() {
        let r = ConcurrencyRegulator::new(cfg(4, true));
        assert!(r.is_dynamic());
        for _ in 0..3 {
            r.tick(0.2);
        }
        assert_eq!(r.limit(), 7, "additive increase by 1 per clear interval");
    }

    #[test]
    fn dynamic_halves_on_congestion() {
        let r = ConcurrencyRegulator::new(cfg(16, true));
        r.tick(2.0);
        assert_eq!(r.limit(), 8);
        r.tick(2.0);
        assert_eq!(r.limit(), 4);
    }

    #[test]
    fn grown_limit_admits_more_work() {
        let r = ConcurrencyRegulator::new(cfg(1, true));
        let _a = r.try_acquire().unwrap();
        assert!(r.try_acquire().is_none());
        r.tick(0.0); // limit 2
        assert!(r.try_acquire().is_some());
    }

    #[test]
    fn capped_at_max_limit() {
        let r = ConcurrencyRegulator::new(cfg(60, true));
        for _ in 0..20 {
            r.tick(0.0);
        }
        assert_eq!(r.limit(), 64);
    }
}
