//! Deterministic exponential backoff with jitter.
//!
//! The retry hardening around the agent hop (worker → container) needs a
//! delay schedule that is (a) exponential so repeated failures back off the
//! failing component, (b) capped so one flaky container cannot stall an
//! invocation for seconds, (c) jittered so a herd of failed invocations does
//! not retry in lockstep, and (d) *deterministic* given a seed so chaos runs
//! with a fixed fault plan replay identically. Jitter therefore comes from a
//! hash of `(seed, attempt)` rather than a global RNG.
//!
//! Invariants (property-tested in `tests/proptests.rs`):
//! * nominal (pre-jitter) delays are monotone non-decreasing in the attempt,
//! * every jittered delay is `<= cap_ms`.

use crate::hash::splitmix64;

/// Retry/backoff policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct BackoffConfig {
    /// Delay before the first retry, ms.
    pub base_ms: u64,
    /// Upper bound on any single delay, ms.
    pub cap_ms: u64,
    /// Fraction of the nominal delay used as the jitter range, in `[0, 1]`.
    /// The jittered delay lies in `[nominal * (1 - jitter), nominal]`.
    pub jitter: f64,
}

/// A seeded, deterministic backoff schedule.
#[derive(Debug, Clone)]
pub struct Backoff {
    cfg: BackoffConfig,
    seed: u64,
}

impl Backoff {
    pub fn new(cfg: BackoffConfig, seed: u64) -> Self {
        Self { cfg, seed }
    }

    /// Nominal (pre-jitter) delay for retry `attempt` (0-based):
    /// `min(cap, base * 2^attempt)`, saturating. Monotone non-decreasing.
    pub fn nominal_ms(&self, attempt: u32) -> u64 {
        let doubled = self
            .cfg
            .base_ms
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        doubled.min(self.cfg.cap_ms)
    }

    /// Jittered delay for retry `attempt`: deterministic in `(seed,
    /// attempt)`, within `[nominal * (1 - jitter), nominal]`, never above
    /// the cap.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let nominal = self.nominal_ms(attempt);
        let j = self.cfg.jitter.clamp(0.0, 1.0);
        if j == 0.0 || nominal == 0 {
            return nominal;
        }
        // Map the hash to [0, 1): the subtracted jitter fraction.
        let unit = (splitmix64(self.seed ^ (attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F))
            >> 11) as f64
            / (1u64 << 53) as f64;
        let scale = 1.0 - j * unit;
        ((nominal as f64) * scale).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(base: u64, cap: u64, jitter: f64) -> BackoffConfig {
        BackoffConfig {
            base_ms: base,
            cap_ms: cap,
            jitter,
        }
    }

    #[test]
    fn nominal_doubles_then_caps() {
        let b = Backoff::new(cfg(10, 100, 0.0), 1);
        assert_eq!(b.nominal_ms(0), 10);
        assert_eq!(b.nominal_ms(1), 20);
        assert_eq!(b.nominal_ms(2), 40);
        assert_eq!(b.nominal_ms(3), 80);
        assert_eq!(b.nominal_ms(4), 100, "capped");
        assert_eq!(b.nominal_ms(63), 100);
    }

    #[test]
    fn zero_jitter_equals_nominal() {
        let b = Backoff::new(cfg(5, 1_000, 0.0), 9);
        for a in 0..4 {
            assert_eq!(b.delay_ms(a), b.nominal_ms(a));
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let delays = |seed| {
            let b = Backoff::new(cfg(10, 500, 0.5), seed);
            (0..6).map(|a| b.delay_ms(a)).collect::<Vec<_>>()
        };
        assert_eq!(delays(42), delays(42), "same seed, same schedule");
        assert_ne!(
            delays(42),
            delays(43),
            "different seed should jitter differently"
        );
    }

    #[test]
    fn overflow_attempt_saturates() {
        let b = Backoff::new(cfg(u64::MAX / 2, u64::MAX, 0.0), 1);
        assert_eq!(
            b.nominal_ms(40),
            u64::MAX,
            "saturating shift must not panic"
        );
    }
}
