//! A counting semaphore with dynamically adjustable capacity.
//!
//! The worker's *concurrency regulator* (§4.1) bounds the number of
//! concurrently running functions. The bound changes at runtime under the
//! AIMD policy, so the semaphore supports growing and shrinking its permit
//! count; shrinking below the number of permits currently held simply
//! delays future acquisitions until enough permits drain back.
//!
//! Acquisition never blocks: the executors that take permits wait for work
//! and for permits in one place (the invocation queue's condvar), because
//! an executor parked here would sleep through the push of the work it is
//! to run.

use parking_lot::Mutex;
use std::sync::Arc;

struct State {
    /// Permits currently available.
    available: isize,
    /// Configured capacity; `available` can go negative after a shrink.
    capacity: usize,
}

struct Inner {
    state: Mutex<State>,
}

/// A counting semaphore. Cloning shares the same permit pool.
#[derive(Clone)]
pub struct Semaphore {
    inner: Arc<Inner>,
}

/// An RAII permit; the permit returns to the pool on drop.
pub struct SemaphorePermit {
    inner: Arc<Inner>,
}

impl Semaphore {
    pub fn new(permits: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    available: permits as isize,
                    capacity: permits,
                }),
            }),
        }
    }

    /// Take a permit if one is free.
    pub fn try_acquire(&self) -> Option<SemaphorePermit> {
        let mut st = self.inner.state.lock();
        if st.available > 0 {
            st.available -= 1;
            Some(SemaphorePermit {
                inner: Arc::clone(&self.inner),
            })
        } else {
            None
        }
    }

    /// Change capacity to `new`. Outstanding permits are unaffected; the
    /// delta is applied to the available count, which may go negative.
    pub fn resize(&self, new: usize) {
        let mut st = self.inner.state.lock();
        let delta = new as isize - st.capacity as isize;
        st.capacity = new;
        st.available += delta;
    }

    pub fn capacity(&self) -> usize {
        self.inner.state.lock().capacity
    }

    /// Permits currently available (clamped at zero: a post-shrink debt is
    /// reported as zero availability).
    pub fn available(&self) -> usize {
        self.inner.state.lock().available.max(0) as usize
    }

    /// Permits currently held by users.
    pub fn in_use(&self) -> usize {
        let st = self.inner.state.lock();
        (st.capacity as isize - st.available).max(0) as usize
    }
}

impl Drop for SemaphorePermit {
    fn drop(&mut self) {
        self.inner.state.lock().available += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn try_acquire_respects_capacity() {
        let s = Semaphore::new(2);
        let a = s.try_acquire().unwrap();
        let _b = s.try_acquire().unwrap();
        assert!(s.try_acquire().is_none());
        assert_eq!(s.in_use(), 2);
        drop(a);
        assert!(s.try_acquire().is_some());
    }

    #[test]
    fn resize_grow_adds_permits() {
        let s = Semaphore::new(0);
        assert!(s.try_acquire().is_none());
        s.resize(1);
        assert!(s.try_acquire().is_some());
    }

    #[test]
    fn resize_shrink_creates_debt() {
        let s = Semaphore::new(2);
        let a = s.try_acquire().unwrap();
        let b = s.try_acquire().unwrap();
        s.resize(1);
        assert_eq!(s.available(), 0);
        drop(a);
        // One released, but capacity is 1 and b still holds it.
        assert!(s.try_acquire().is_none());
        drop(b);
        assert!(s.try_acquire().is_some());
    }

    #[test]
    fn concurrency_never_exceeds_capacity() {
        let s = Semaphore::new(4);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let (s, running, peak) = (s.clone(), Arc::clone(&running), Arc::clone(&peak));
                thread::spawn(move || {
                    for _ in 0..50 {
                        let Some(_p) = s.try_acquire() else {
                            thread::yield_now();
                            continue;
                        };
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::hint::spin_loop();
                        running.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 4);
    }
}
