//! Wall-clock and virtual time sources.
//!
//! The paper's in-situ simulation (§3.4) requires that "an experiment can be
//! run in-situ or in-silico, following identical code paths". All control
//! plane code therefore reads time exclusively through the [`Clock`] trait:
//! the live worker is driven by [`SystemClock`], tests and the discrete-event
//! simulator by [`ManualClock`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Milliseconds since an arbitrary epoch (process start for [`SystemClock`],
/// simulation start for [`ManualClock`]).
pub type TimeMs = u64;

/// A monotonic time source with millisecond resolution.
pub trait Clock: Send + Sync + 'static {
    /// Current time in milliseconds since the clock's epoch.
    fn now_ms(&self) -> TimeMs;

    /// µs since the same epoch; `now_ms() * 1000` keeps [`ManualClock`] exact.
    fn now_us(&self) -> u64 {
        self.now_ms() * 1000
    }

    /// Block the calling thread for `ms` milliseconds of *this clock's* time.
    ///
    /// For [`SystemClock`] this is a real sleep. [`ManualClock`] advances its
    /// own time instead, so single-threaded simulations never stall.
    fn sleep_ms(&self, ms: u64);

    /// Elapsed milliseconds since `start`, saturating at zero if the caller
    /// raced a concurrent reader and holds a timestamp from the future.
    fn elapsed_ms(&self, start: TimeMs) -> u64 {
        self.now_ms().saturating_sub(start)
    }
}

/// Wall-clock time, relative to process start.
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// A shared handle, convenient for components that store `Arc<dyn Clock>`.
    pub fn shared() -> Arc<dyn Clock> {
        Arc::new(Self::new())
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> TimeMs {
        self.epoch.elapsed().as_millis() as TimeMs
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn sleep_ms(&self, ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// A virtual clock advanced explicitly by the test or simulator driver.
///
/// `sleep_ms` advances the clock itself: a simulated function "executing" for
/// 8 s completes instantly in wall time while consuming 8 s of virtual time,
/// which is exactly how the null container backend simulates hundreds of
/// cores on one machine (§3.4).
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        Self {
            now: AtomicU64::new(0),
        }
    }

    pub fn starting_at(ms: TimeMs) -> Self {
        Self {
            now: AtomicU64::new(ms),
        }
    }

    /// Move time forward by `ms`; returns the new now.
    pub fn advance(&self, ms: u64) -> TimeMs {
        self.now.fetch_add(ms, Ordering::SeqCst) + ms
    }

    /// Jump to an absolute time. Panics if `ms` would move time backwards,
    /// as a monotonicity violation always indicates a driver bug.
    pub fn set(&self, ms: TimeMs) {
        let prev = self.now.swap(ms, Ordering::SeqCst);
        assert!(prev <= ms, "ManualClock moved backwards: {prev} -> {ms}");
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> TimeMs {
        self.now.load(Ordering::SeqCst)
    }

    fn sleep_ms(&self, ms: u64) {
        self.advance(ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn microseconds_share_the_millisecond_epoch() {
        let c = SystemClock::new();
        let (ms, us) = (c.now_ms(), c.now_us());
        assert!(us / 1000 >= ms && us / 1000 <= c.now_ms());
        let m = ManualClock::starting_at(7);
        assert_eq!(m.now_us(), 7_000);
        m.advance(2);
        assert_eq!(m.now_us(), 9_000);
    }

    #[test]
    fn system_clock_sleep_advances() {
        let c = SystemClock::new();
        let a = c.now_ms();
        c.sleep_ms(15);
        assert!(c.now_ms() >= a + 10, "sleep must advance wall time");
    }

    #[test]
    fn manual_clock_starts_at_zero() {
        let c = ManualClock::new();
        assert_eq!(c.now_ms(), 0);
    }

    #[test]
    fn manual_clock_advance_and_set() {
        let c = ManualClock::new();
        assert_eq!(c.advance(100), 100);
        c.set(250);
        assert_eq!(c.now_ms(), 250);
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn manual_clock_rejects_backwards() {
        let c = ManualClock::starting_at(10);
        c.set(5);
    }

    #[test]
    fn manual_clock_sleep_is_virtual() {
        let c = ManualClock::new();
        let wall = Instant::now();
        c.sleep_ms(60_000);
        assert_eq!(c.now_ms(), 60_000);
        assert!(wall.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn elapsed_saturates() {
        let c = ManualClock::starting_at(5);
        assert_eq!(c.elapsed_ms(100), 0);
        assert_eq!(c.elapsed_ms(2), 3);
    }
}
