//! Bounded execution: under an open-loop flood far above capacity the run
//! stage is `concurrency.limit` long-lived executor threads and nothing
//! else — no thread per invocation, no dispatcher in front — every refusal
//! is explicit backpressure, nothing accepted is lost, and a stopped worker
//! leaves no thread behind.
//!
//! One `#[test]` in a file of its own: `/proc/self/task` lists every thread
//! of the process, so no sibling test may share it.

mod common;

use common::thread_names;
use iluvatar::prelude::*;
use iluvatar_core::InvokeError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LIMIT: usize = 4;

fn executors(threads: &[String]) -> usize {
    threads
        .iter()
        .filter(|t| t.starts_with("iluvatar-exec"))
        .count()
}

fn worker() -> Worker {
    let clock: Arc<dyn Clock> = SystemClock::shared();
    let backend = Arc::new(SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale: 0.05,
            ..Default::default()
        },
    ));
    let mut cfg = WorkerConfig::for_testing();
    cfg.concurrency.limit = LIMIT;
    cfg.queue.max_len = 16;
    let w = Worker::new(cfg, backend, clock);
    // 2 ms charged per call: four executors serve about 2 000 a second.
    w.register(FunctionSpec::new("f", "1").with_timing(40, 0))
        .unwrap();
    w
}

#[test]
fn overload_runs_on_at_most_limit_executors_and_loses_nothing() {
    let threads_at_start = thread_names().len();
    let mut w = worker();

    // --- one second of submissions as fast as a thread can make them ------
    let flooding = AtomicBool::new(true);
    let (handles, rejected, most_executors) = std::thread::scope(|scope| {
        let flood = scope.spawn(|| {
            let (mut handles, mut rejected) = (Vec::new(), 0u64);
            let until = Instant::now() + Duration::from_secs(1);
            while Instant::now() < until {
                match w.async_invoke_tenant("f-1", "{}", None) {
                    Ok(h) => handles.push(h),
                    Err(InvokeError::QueueFull) => rejected += 1,
                    Err(e) => panic!("a refusal under overload must be QueueFull, got {e}"),
                }
            }
            flooding.store(false, Ordering::SeqCst);
            (handles, rejected)
        });
        let mut most = 0;
        while flooding.load(Ordering::SeqCst) {
            let threads = thread_names();
            let n = executors(&threads);
            assert!(n <= LIMIT, "{n} executors over a limit of {LIMIT}");
            for gone in ["iluvatar-invoke", "iluvatar-queue-"] {
                assert!(
                    !threads.iter().any(|t| t.starts_with(gone)),
                    "a `{gone}*` thread is back: {threads:?}"
                );
            }
            most = most.max(n);
            std::thread::sleep(Duration::from_millis(2));
        }
        let (handles, rejected) = flood.join().expect("flood thread");
        (handles, rejected, most)
    });
    assert_eq!(most_executors, LIMIT, "the pool grows to the limit");
    assert!(rejected > 0, "the flood never filled the queue");

    let accepted = handles.len() as u64;
    for h in handles {
        h.wait().expect("an accepted invocation completes");
    }
    let st = w.status();
    assert_eq!(st.completed, accepted);
    assert_eq!(
        st.completed + st.dropped,
        accepted + rejected,
        "every attempt is either completed or booked as dropped"
    );

    w.shutdown();
    let threads = thread_names();
    assert_eq!(executors(&threads), 0, "left after shutdown: {threads:?}");
    drop(w);

    // --- twenty lifetimes leak no thread ----------------------------------
    for _ in 0..20 {
        let w = worker();
        w.invoke_tenant("f-1", "{}", None).unwrap();
    }
    assert_eq!(thread_names().len(), threads_at_start);
}
