//! Background task execution.
//!
//! §3.3: the worker handles "various aspects of the function's lifecycle
//! asynchronously off the critical path ... through background worker
//! threads for certain tasks". [`TaskPool`] runs named periodic tasks on
//! dedicated timer threads (keep-alive eviction sweeps, AIMD control
//! intervals, status reporting).
//!
//! Shutdown is cooperative: periodic tasks observe a shared flag between
//! ticks.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The periodic background tasks of one component, stopped together.
#[derive(Default)]
pub struct TaskPool {
    periodic: Mutex<Vec<JoinHandle<()>>>,
    shutdown: Arc<AtomicBool>,
}

impl TaskPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `tick` every `period`, starting one period from now, on a
    /// dedicated thread named `name`. The task stops at pool shutdown.
    pub fn spawn_periodic(
        &self,
        name: &str,
        period: Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) {
        let shutdown = Arc::clone(&self.shutdown);
        let handle = std::thread::Builder::new()
            .name(format!("iluvatar-{name}"))
            .spawn(move || {
                // Sleep in short slices so shutdown latency stays bounded
                // even for long periods.
                let slice = period.min(Duration::from_millis(50));
                let mut acc = Duration::ZERO;
                loop {
                    while acc < period {
                        if shutdown.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(slice);
                        acc += slice;
                    }
                    acc = Duration::ZERO;
                    if shutdown.load(Ordering::Relaxed) {
                        return;
                    }
                    tick();
                }
            })
            .expect("spawn periodic task");
        self.periodic.lock().push(handle);
    }

    /// Stop periodic tasks and join their threads.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for h in self.periodic.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn periodic_ticks() {
        let pool = TaskPool::new();
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        pool.spawn_periodic("test-tick", Duration::from_millis(10), move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(120));
        drop(pool);
        let ticks = n.load(Ordering::SeqCst);
        assert!(ticks >= 3, "expected a few ticks, got {ticks}");
    }

    #[test]
    fn shutdown_is_idempotent() {
        let pool = TaskPool::new();
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        pool.spawn_periodic("test-stop", Duration::from_millis(5), move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        pool.shutdown();
        pool.shutdown();
        let after = n.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(n.load(Ordering::SeqCst), after, "no tick after shutdown");
    }
}
