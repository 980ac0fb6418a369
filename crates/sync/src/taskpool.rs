//! Background task execution.
//!
//! §3.3: the worker handles "various aspects of the function's lifecycle
//! asynchronously off the critical path ... through background worker
//! threads for certain tasks". A [`TaskPool`] runs one component's periodic
//! tasks (keep-alive sweeps, metrics samples, AIMD intervals, the balancer's
//! scrape) on one timer thread, started with the first task, that sleeps on
//! a condvar until the earliest deadline: an idle component wakes once per
//! due tick. Ticks are fixed-delay (the next deadline is one period after a
//! tick returns, so a slow tick brings no catch-up burst) and run one at a
//! time (a slow tick delays the others, and neither drops nor doubles them).

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A scheduled task; its tick returns `true` when the task is done.
struct Task {
    due: Instant,
    period: Duration,
    tick: Box<dyn FnMut() -> bool + Send>,
}

struct Timer {
    /// The scheduled tasks, `None` once shut down. A component has a
    /// handful, so the earliest is found by a scan rather than a heap.
    tasks: Mutex<Option<Vec<Task>>>,
    wake: Condvar,
}

impl Timer {
    fn run(&self) {
        let mut tasks = self.tasks.lock();
        while let Some(list) = tasks.as_mut() {
            let Some(i) = (0..list.len()).min_by_key(|&i| list[i].due) else {
                self.wake.wait(&mut tasks);
                continue;
            };
            let due = list[i].due;
            if due > Instant::now() {
                self.wake.wait_until(&mut tasks, due);
                continue;
            }
            let mut task = list.swap_remove(i);
            drop(tasks);
            let done = (task.tick)();
            task.due = Instant::now() + task.period;
            tasks = self.tasks.lock();
            if let Some(list) = tasks.as_mut().filter(|_| !done) {
                list.push(task);
            }
        }
    }
}

/// The periodic tasks of one component, on one timer thread, stopped
/// together.
pub struct TaskPool {
    name: String,
    timer: Arc<Timer>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl TaskPool {
    /// An empty pool; its timer thread, `iluvatar-{name}`, starts with the
    /// first task.
    pub fn new(name: &str) -> Self {
        let timer = Timer {
            tasks: Mutex::new(Some(Vec::new())),
            wake: Condvar::new(),
        };
        Self {
            name: format!("iluvatar-{name}"),
            timer: Arc::new(timer),
            thread: Mutex::new(None),
        }
    }

    /// Run `tick` every `period`, first one period from now, until shutdown.
    pub fn spawn_periodic(&self, period: Duration, mut tick: impl FnMut() + Send + 'static) {
        self.spawn_until(period, move || {
            tick();
            false
        });
    }

    /// Run `tick` every `period`, first one period from now, until it
    /// returns `true` or the pool shuts down. A task added after shutdown
    /// never runs.
    pub fn spawn_until(&self, period: Duration, tick: impl FnMut() -> bool + Send + 'static) {
        let task = Task {
            due: Instant::now() + period,
            period,
            tick: Box::new(tick),
        };
        let mut thread = self.thread.lock();
        let Some(list) = &mut *self.timer.tasks.lock() else {
            return;
        };
        list.push(task);
        self.timer.wake.notify_one();
        if thread.is_none() {
            let timer = Arc::clone(&self.timer);
            let spawned = std::thread::Builder::new().name(self.name.clone());
            *thread = Some(spawned.spawn(move || timer.run()).expect("spawn timer"));
        }
    }

    /// Stop every task and join the timer thread, after the tick in
    /// progress, if any, returns.
    pub fn shutdown(&self) {
        // Ticks may own their component's state: drop them off the lock.
        let tasks = self.timer.tasks.lock().take();
        self.timer.wake.notify_all();
        let thread = self.thread.lock().take();
        if let Some(h) = thread {
            let _ = h.join();
        }
        drop(tasks);
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    #[test]
    fn periodic_ticks() {
        let pool = TaskPool::new("test-tick");
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        pool.spawn_periodic(Duration::from_millis(10), move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(120));
        drop(pool);
        let ticks = n.load(Ordering::SeqCst);
        assert!(ticks >= 3, "expected a few ticks, got {ticks}");
    }

    #[test]
    fn shutdown_is_idempotent() {
        let pool = TaskPool::new("test-stop");
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        pool.spawn_periodic(Duration::from_millis(5), move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        pool.shutdown();
        pool.shutdown();
        let after = n.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(n.load(Ordering::SeqCst), after, "no tick after shutdown");
    }

    /// Each tick's thread, per task.
    fn recorder() -> (Arc<Mutex<Vec<ThreadId>>>, impl FnMut() + Send + 'static) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        (seen, move || seen2.lock().push(std::thread::current().id()))
    }

    #[test]
    fn two_periods_tick_at_their_own_rates_on_one_thread() {
        let pool = TaskPool::new("test-rates");
        let (fast, fast_tick) = recorder();
        let (slow, slow_tick) = recorder();
        pool.spawn_periodic(Duration::from_millis(10), fast_tick);
        pool.spawn_periodic(Duration::from_millis(50), slow_tick);
        std::thread::sleep(Duration::from_millis(400));
        pool.shutdown();
        let (fast, slow) = (fast.lock().clone(), slow.lock().clone());
        assert!(slow.len() >= 3, "{} slow ticks in 400 ms", slow.len());
        assert!(
            fast.len() >= 3 * slow.len(),
            "{} fast ticks against {} slow ones",
            fast.len(),
            slow.len()
        );
        let thread = fast[0];
        assert!(
            fast.iter().chain(&slow).all(|&t| t == thread),
            "both tasks tick on the one timer thread"
        );
    }

    #[test]
    fn shutdown_returns_at_once_with_a_long_period_pending() {
        let pool = TaskPool::new("test-hour");
        pool.spawn_periodic(Duration::from_secs(3600), || {});
        // Let the timer thread reach its wait for the hour-long deadline.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        pool.shutdown();
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(10), "shutdown took {took:?}");
    }

    #[test]
    fn a_slow_tick_delays_the_others_without_dropping_or_doubling_them() {
        let pool = TaskPool::new("test-slow");
        let period = Duration::from_millis(10);
        let fast = Arc::new(Mutex::new(Vec::<Instant>::new()));
        let fast2 = Arc::clone(&fast);
        pool.spawn_periodic(period, move || fast2.lock().push(Instant::now()));
        // One 100 ms tick, 25 ms in; the task is done after it.
        let slow = Arc::new(Mutex::new(None));
        let slow2 = Arc::clone(&slow);
        pool.spawn_until(Duration::from_millis(25), move || {
            let start = Instant::now();
            std::thread::sleep(Duration::from_millis(100));
            *slow2.lock() = Some((start, Instant::now()));
            true
        });
        std::thread::sleep(Duration::from_millis(250));
        pool.shutdown();
        let (start, end) = slow.lock().expect("the slow task ticked");
        let fast = fast.lock().clone();
        for pair in fast.windows(2) {
            assert!(
                pair[1] - pair[0] >= period,
                "two ticks {:?} apart: a tick was doubled",
                pair[1] - pair[0]
            );
        }
        assert!(
            fast.iter().any(|&t| t < start) && fast.iter().any(|&t| t >= end),
            "the fast task ticks on both sides of the slow tick"
        );
        assert!(
            !fast.iter().any(|&t| t > start && t < end),
            "ticks run one at a time"
        );
    }
}
