//! Load generators and the window sampler.
//!
//! Two drivers per transport. `sat` is a closed loop that keeps the one
//! pinned CPU busy (capacity); `paced` is a seeded Poisson open loop at a
//! fixed rate, timed **from the due time** so a stall is charged to every
//! request it delays (latency and CPU cost). At most two load-generator
//! threads and two connections: the sandbox has two vCPUs and the process
//! is pinned to one.
//!
//! While a phase runs, the calling thread is the sampler: at every window
//! boundary it reads the success counter, the process CPU clock and the
//! load-generator threads' CPU clocks, so per-window throughput and CPU per
//! invocation need no cooperation from the generators.

use crate::inputs::{expected_body, Item};
use crate::sys::{self, ThreadCpuClock};
use crate::topo::Topology;
use crate::trace::names;
use crate::wraps::Tap;
use iluvatar_core::api::WireResult;
use iluvatar_core::{InvocationHandle, InvocationResult, InvokeError, Worker};
use iluvatar_http::{Method, PooledClient, Request, Response};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Async invocations each `sat` thread keeps in flight on a worker.
const SAT_OUTSTANDING: usize = 32;
/// Load-generator threads (and HTTP connections) per phase.
const GENERATORS: usize = 2;
const HTTP_TIMEOUT: Duration = Duration::from_secs(30);

/// What a driver calls.
#[derive(Clone)]
pub enum Target {
    Worker(Arc<Worker>),
    Http(SocketAddr),
}

impl Target {
    pub fn of(topo: &Topology) -> Self {
        match topo.lb_addr() {
            Some(addr) => Target::Http(addr),
            None => Target::Worker(Arc::clone(&topo.workers[0])),
        }
    }
}

/// One checked outcome.
struct Checked {
    /// `Err` says what was wrong (refused, errored, wrong body, wrong
    /// tenant, or cold).
    verdict: Result<(), String>,
    trace_id: u64,
    queue_ms: u64,
}

fn check_fields(item: &Item, body: &str, cold: bool, tenant: Option<&str>) -> Result<(), String> {
    if body != expected_body(item.func) {
        return Err(format!("{}: wrong body {body}", item.fqdn));
    }
    if cold {
        return Err(format!("{}: cold start in a warm phase", item.fqdn));
    }
    if item.tenant.is_some() && tenant != item.tenant {
        return Err(format!(
            "{}: tenant {:?} came back as {tenant:?}",
            item.fqdn, item.tenant
        ));
    }
    Ok(())
}

fn check_worker(item: &Item, r: Result<InvocationResult, InvokeError>) -> Checked {
    match r {
        Ok(r) => Checked {
            verdict: check_fields(item, &r.body, r.cold, r.tenant.as_deref()),
            trace_id: r.trace_id,
            queue_ms: r.queue_ms,
        },
        Err(e) => Checked {
            verdict: Err(format!("{}: {e}", item.fqdn)),
            trace_id: 0,
            queue_ms: 0,
        },
    }
}

fn check_http(item: &Item, r: Result<Response, iluvatar_http::HttpError>) -> Checked {
    let failed = |why: String| Checked {
        verdict: Err(format!("{}: {why}", item.fqdn)),
        trace_id: 0,
        queue_ms: 0,
    };
    match r {
        Ok(resp) if resp.status.is_success() => {
            match serde_json::from_str::<WireResult>(resp.body_str()) {
                Ok(w) => Checked {
                    verdict: check_fields(item, &w.body, w.cold, w.tenant.as_deref()),
                    trace_id: w.trace_id,
                    queue_ms: w.queue_ms,
                },
                Err(e) => failed(format!("undecodable result: {e}")),
            }
        }
        Ok(resp) => failed(format!("HTTP {} {}", resp.status.0, resp.body_str())),
        Err(e) => failed(e.to_string()),
    }
}

fn http_request(item: &Item) -> Request {
    Request::new(Method::Post, "/invoke").with_body(item.http_body.clone())
}

/// Counters the generators bump and the sampler reads.
#[derive(Default)]
struct Tally {
    attempted: AtomicU64,
    ok: AtomicU64,
    failed: AtomicU64,
    queue_ms: AtomicU64,
    first_failure: Mutex<Option<String>>,
}

impl Tally {
    fn note(&self, c: &Checked) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        self.queue_ms.fetch_add(c.queue_ms, Ordering::Relaxed);
        match &c.verdict {
            Ok(()) => {
                self.ok.fetch_add(1, Ordering::Relaxed);
            }
            Err(why) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                self.first_failure.lock().get_or_insert_with(|| why.clone());
            }
        }
    }
}

/// Process-wide readings at one window boundary.
#[derive(Clone, Copy)]
struct Boundary {
    at_ns: u64,
    ok: u64,
    process_cpu_ns: u64,
    loadgen_cpu_ns: u64,
    ctx_switches: u64,
    allocs: u64,
    alloc_bytes: u64,
    spawns: u64,
    steal_ticks: u64,
    /// Speed-probe iterations, and the CPU time they took, since the
    /// previous boundary.
    probe_iters: u64,
    probe_cpu_ns: u64,
}

/// One completed open-loop request.
#[derive(Debug, Clone, Copy)]
pub struct PacedSample {
    pub due_ns: u64,
    /// Completion − due time; the modelled execution time is 0 ms, so all
    /// of it is control-plane overhead.
    pub overhead_us: f64,
    /// Send time − due time: how late the generator itself ran.
    pub late_us: f64,
}

/// What happened between two consecutive boundaries.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub secs: f64,
    /// Invocations that completed and passed the check.
    pub ok: u64,
    pub process_cpu_ns: u64,
    /// CPU of the load-generator threads, the sampler and the keep-awake
    /// spinner: everything in the process that is not the control plane.
    pub loadgen_cpu_ns: u64,
    pub ctx_switches: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub spawns: u64,
    /// 10 ms ticks the hypervisor took from the pinned CPU.
    pub steal_ticks: u64,
    /// The machine's speed over the window: [`speed_probe`] iterations per
    /// ns of the CPU time they took, probed every few ms throughout.
    pub speed: f64,
    /// Open-loop requests that were *due* in this window.
    pub samples: Vec<PacedSample>,
}

impl Window {
    /// CPU µs the control plane spent per successful invocation.
    pub fn control_plane_cpu_us_per_inv(&self) -> f64 {
        self.process_cpu_ns.saturating_sub(self.loadgen_cpu_ns) as f64 / 1e3 / self.ok.max(1) as f64
    }
}

/// Everything one phase measured. Phases of the same kind concatenate.
#[derive(Default)]
pub struct Phase {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub queue_ms_sum: u64,
    pub windows: Vec<Window>,
}

impl Phase {
    pub fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.queue_ms_sum += other.queue_ms_sum;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.windows.extend(other.windows);
    }

    pub fn per_window(&self, f: impl Fn(&Window) -> f64) -> Vec<f64> {
        self.windows.iter().map(f).collect()
    }

    /// Sum of `f` over all windows.
    pub fn total(&self, f: impl Fn(&Window) -> u64) -> u64 {
        self.windows.iter().map(f).sum()
    }

    pub fn samples(&self) -> impl Iterator<Item = &PacedSample> {
        self.windows.iter().flat_map(|w| w.samples.iter())
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Window length and count for a phase of `secs`: quarter-second windows
/// (a single shorter one if the phase is shorter). The sandbox flips between
/// a fast and a slow state every second or so; short windows are the ones
/// that fit wholly inside a fast stretch.
fn windows_of(secs: f64) -> (Duration, usize) {
    const WINDOW: f64 = 0.25;
    if secs < WINDOW {
        (Duration::from_secs_f64(secs), 1)
    } else {
        (
            Duration::from_secs_f64(WINDOW),
            (secs / WINDOW).floor() as usize,
        )
    }
}

/// What one load-generator thread runs; it returns the open-loop samples it
/// took (none for closed loops and helpers).
type Body = Box<dyn FnOnce() -> Vec<PacedSample> + Send>;

/// The generator threads' handles and CPU clocks.
struct Generators {
    handles: Vec<JoinHandle<Vec<PacedSample>>>,
    clocks: Vec<ThreadCpuClock>,
}

impl Generators {
    /// `done` must count every body and the sampler.
    fn spawn(bodies: Vec<Body>, done: &Arc<Barrier>) -> Self {
        let handles: Vec<_> = bodies
            .into_iter()
            .map(|body| {
                let done = Arc::clone(done);
                std::thread::Builder::new()
                    .name("perf-loadgen".into())
                    .spawn(move || {
                        let samples = body();
                        // Stay alive until the sampler has read this
                        // thread's CPU clock for the last time.
                        done.wait();
                        samples
                    })
                    .expect("spawn load generator")
            })
            .collect();
        let clocks = handles
            .iter()
            .map(|h| ThreadCpuClock::of(h).expect("thread cpu clock"))
            .collect();
        Self { handles, clocks }
    }

    fn cpu_ns(&self) -> u64 {
        self.clocks.iter().map(ThreadCpuClock::now_ns).sum::<u64>() + sys::thread_cpu_ns()
    }
}

/// Sample the boundaries of `n` windows from `start`, then release the
/// generators (`stop` ends closed loops) and collect what they recorded.
fn sample_phase(
    start: Instant,
    window: Duration,
    n: usize,
    tally: &Tally,
    gens: Generators,
    stop: &AtomicBool,
    done: &Barrier,
) -> Phase {
    let mut boundaries = Vec::with_capacity(n + 1);
    for k in 0..=n {
        // Between boundaries the sampler wakes every few ms to probe the
        // machine's speed: about 0.4 % of the CPU.
        let boundary = start + window * k as u32;
        let (mut probe_iters, mut probe_cpu_ns) = (0, 0);
        while let Some(left) = boundary.checked_duration_since(Instant::now()) {
            std::thread::sleep(left.min(PROBE_PERIOD));
            let (iters, cpu_ns) = speed_probe();
            probe_iters += iters;
            probe_cpu_ns += cpu_ns;
        }
        let (allocs, alloc_bytes) = sys::alloc_counts();
        boundaries.push(Boundary {
            at_ns: start.elapsed().as_nanos() as u64,
            ok: tally.ok.load(Ordering::Relaxed),
            process_cpu_ns: sys::process_cpu_ns(),
            loadgen_cpu_ns: gens.cpu_ns(),
            ctx_switches: sys::ctx_switches(),
            allocs,
            alloc_bytes,
            spawns: sys::system_spawns(),
            steal_ticks: sys::steal_ticks(),
            probe_iters,
            probe_cpu_ns,
        });
    }
    stop.store(true, Ordering::SeqCst);
    done.wait();
    let mut windows: Vec<Window> = boundaries
        .windows(2)
        .map(|b| Window {
            secs: (b[1].at_ns - b[0].at_ns) as f64 / 1e9,
            ok: b[1].ok - b[0].ok,
            process_cpu_ns: b[1].process_cpu_ns - b[0].process_cpu_ns,
            loadgen_cpu_ns: b[1].loadgen_cpu_ns - b[0].loadgen_cpu_ns,
            ctx_switches: b[1].ctx_switches - b[0].ctx_switches,
            allocs: b[1].allocs - b[0].allocs,
            alloc_bytes: b[1].alloc_bytes - b[0].alloc_bytes,
            spawns: b[1].spawns - b[0].spawns,
            steal_ticks: b[1].steal_ticks - b[0].steal_ticks,
            speed: b[1].probe_iters as f64 / b[1].probe_cpu_ns.max(1) as f64,
            samples: Vec::new(),
        })
        .collect();
    for h in gens.handles {
        for sample in h.join().expect("load generator panicked") {
            // Requests due after the last full window are not reported.
            if let Some(w) = windows.get_mut((sample.due_ns / window.as_nanos() as u64) as usize) {
                w.samples.push(sample);
            }
        }
    }
    Phase {
        attempted: tally.attempted.load(Ordering::Relaxed),
        ok: tally.ok.load(Ordering::Relaxed),
        failed: tally.failed.load(Ordering::Relaxed),
        first_failure: tally.first_failure.lock().clone(),
        queue_ms_sum: tally.queue_ms.load(Ordering::Relaxed),
        windows,
    }
}

/// `sat`: closed loop for `secs`. On a worker, two threads × 32 async
/// invocations in flight; over HTTP, two keep-alive connections with one
/// request in flight each.
pub fn run_sat(target: &Target, items: &Arc<Vec<Item>>, secs: f64) -> Phase {
    let (window, n) = windows_of(secs);
    let tally = Arc::new(Tally::default());
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(Barrier::new(GENERATORS + 1));
    let start = Instant::now() + Duration::from_millis(20);
    let bodies = (0..GENERATORS)
        .map(|g| {
            let (target, items) = (target.clone(), Arc::clone(items));
            let (tally, stop) = (Arc::clone(&tally), Arc::clone(&stop));
            Box::new(move || {
                sleep_until(start);
                // Each thread walks its own half of the items.
                let mut next = (g..).step_by(GENERATORS).map(|i| &items[i % items.len()]);
                match target {
                    Target::Worker(worker) => {
                        let mut flying: VecDeque<(InvocationHandle, &Item)> = VecDeque::new();
                        loop {
                            let stopping = stop.load(Ordering::Relaxed);
                            while !stopping && flying.len() < SAT_OUTSTANDING {
                                let item = next.next().expect("endless");
                                match worker.async_invoke_tenant(
                                    &item.fqdn,
                                    &item.args,
                                    item.tenant,
                                ) {
                                    Ok(h) => flying.push_back((h, item)),
                                    Err(e) => tally.note(&check_worker(item, Err(e))),
                                }
                                if stop.load(Ordering::Relaxed) {
                                    break;
                                }
                            }
                            match flying.pop_front() {
                                Some((h, item)) => tally.note(&check_worker(item, h.wait())),
                                None if stopping => break,
                                None => {}
                            }
                        }
                    }
                    Target::Http(addr) => {
                        let client = PooledClient::new(HTTP_TIMEOUT);
                        while !stop.load(Ordering::Relaxed) {
                            let item = next.next().expect("endless");
                            tally.note(&check_http(item, client.send(addr, &http_request(item))));
                        }
                    }
                }
                Vec::new()
            }) as Body
        })
        .collect();
    let gens = Generators::spawn(bodies, &done);
    sample_phase(start, window, n, &tally, gens, &stop, &done)
}

/// One submitted-but-unfinished open-loop invocation on a worker.
struct InFlight {
    handle: InvocationHandle,
    index: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
}

/// `paced`: open loop following `due_ns` (offsets from the phase start).
/// On a worker, one generator thread submits asynchronously at each due
/// time and one collector thread waits for the results in order; over
/// HTTP, two sender threads each claim the next due request, wait for its
/// due time and send it synchronously. With a `tap` whose recorder is on,
/// the client-side spans of each invocation are recorded too.
pub fn run_paced(
    target: &Target,
    items: &Arc<Vec<Item>>,
    due_ns: Arc<Vec<u64>>,
    secs: f64,
    tap: Option<&Tap>,
) -> Phase {
    let (window, n) = windows_of(secs);
    let tally = Arc::new(Tally::default());
    let stop = Arc::new(AtomicBool::new(false));
    // Two generators, the keep-awake spinner and the sampler.
    let done = Arc::new(Barrier::new(GENERATORS + 2));
    let start = Instant::now() + Duration::from_millis(20);
    let tap = tap.filter(|t| t.rec.enabled()).cloned();
    // Client spans are stamped on the recorder's clock.
    let span_ns = move |tap: &Tap, t: Instant| tap.rec.now_ns() - t.elapsed().as_nanos() as u64;
    let sample = move |due: Instant, sent: Instant, finished: Instant| PacedSample {
        due_ns: (due - start).as_nanos() as u64,
        overhead_us: (finished - due).as_nanos() as f64 / 1e3,
        late_us: (sent - due).as_nanos() as f64 / 1e3,
    };
    let mut bodies: Vec<Body> = match target {
        Target::Worker(worker) => {
            let (tx, rx) = mpsc::channel::<InFlight>();
            let generator = {
                let (worker, items, due_ns) =
                    (Arc::clone(worker), Arc::clone(items), Arc::clone(&due_ns));
                let tally = Arc::clone(&tally);
                Box::new(move || {
                    sys::tighten_timer_slack();
                    for (index, &offset) in due_ns.iter().enumerate() {
                        let item = &items[index % items.len()];
                        let due = start + Duration::from_nanos(offset);
                        sleep_until(due);
                        let sent = Instant::now();
                        match worker.async_invoke_tenant(&item.fqdn, &item.args, item.tenant) {
                            Ok(handle) => {
                                let _ = tx.send(InFlight {
                                    handle,
                                    index,
                                    due,
                                    sent,
                                    submitted: Instant::now(),
                                });
                            }
                            Err(e) => tally.note(&check_worker(item, Err(e))),
                        }
                    }
                    Vec::new()
                }) as Body
            };
            let collector = {
                let (items, tally, tap) = (Arc::clone(items), Arc::clone(&tally), tap.clone());
                Box::new(move || {
                    let mut samples = Vec::new();
                    for f in rx {
                        let checked = check_worker(&items[f.index % items.len()], f.handle.wait());
                        let finished = Instant::now();
                        tally.note(&checked);
                        if checked.verdict.is_ok() {
                            samples.push(sample(f.due, f.sent, finished));
                        }
                        if let Some(tap) = &tap {
                            let (t0, t1, t2) = (
                                span_ns(tap, f.sent),
                                span_ns(tap, f.submitted),
                                span_ns(tap, finished),
                            );
                            tap.rec
                                .record(names::CORE_ASYNC_SUBMIT, checked.trace_id, t0, t1);
                            tap.rec
                                .record(names::CORE_SYNC_INVOKE, checked.trace_id, t0, t2);
                        }
                    }
                    samples
                }) as Body
            };
            vec![generator, collector]
        }
        Target::Http(addr) => {
            let claim = Arc::new(AtomicUsize::new(0));
            (0..GENERATORS)
                .map(|_| {
                    let (addr, items, due_ns) = (*addr, Arc::clone(items), Arc::clone(&due_ns));
                    let (tally, claim, tap) = (Arc::clone(&tally), Arc::clone(&claim), tap.clone());
                    Box::new(move || {
                        sys::tighten_timer_slack();
                        let client = PooledClient::new(HTTP_TIMEOUT);
                        let mut samples = Vec::new();
                        loop {
                            let index = claim.fetch_add(1, Ordering::Relaxed);
                            let Some(&offset) = due_ns.get(index) else {
                                return samples;
                            };
                            let item = &items[index % items.len()];
                            let due = start + Duration::from_nanos(offset);
                            sleep_until(due);
                            let sent = Instant::now();
                            let checked = check_http(item, client.send(addr, &http_request(item)));
                            let finished = Instant::now();
                            tally.note(&checked);
                            if checked.verdict.is_ok() {
                                samples.push(sample(due, sent, finished));
                            }
                            if let Some(tap) = &tap {
                                tap.rec.record(
                                    names::LB_HTTP_INVOKE,
                                    checked.trace_id,
                                    span_ns(tap, sent),
                                    span_ns(tap, finished),
                                );
                            }
                        }
                    }) as Body
                })
                .collect()
        }
    };
    bodies.push(keep_awake(Arc::clone(&stop)));
    let gens = Generators::spawn(bodies, &done);
    sample_phase(start, window, n, &tally, gens, &stop, &done)
}

/// A `SCHED_IDLE` spinner on the pinned CPU, for open-loop phases. An idle
/// vCPU halts, and waking it is the hypervisor's business: that took
/// anywhere from a few to a few hundred µs here and would land in every
/// latency taken after a pause. The spinner keeps the vCPU running, runs
/// only when nothing else wants the CPU and yields at once. Its CPU time is
/// accounted with the load generators', not the control plane's. If the
/// kernel refuses `SCHED_IDLE` it does not spin at all.
fn keep_awake(stop: Arc<AtomicBool>) -> Body {
    Box::new(move || {
        if sys::demote_to_sched_idle() {
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
        Vec::new()
    })
}

/// How often the sampler probes the machine's speed.
const PROBE_PERIOD: Duration = Duration::from_millis(5);

/// One reading of the machine's speed: a fixed user-space loop, returned as
/// (iterations, ns of this thread's CPU time they took — CPU time, so being
/// preempted half-way does not count against it). The sandbox's CPU flips
/// between a fast state and one about 1.8× slower with no steal reported;
/// iterations per ns is the one way to tell which state a window ran in
/// without asking the program. About 20 µs per call.
fn speed_probe() -> (u64, u64) {
    const ITERS: u64 = 50_000;
    let start = sys::thread_cpu_ns();
    for x in 0..ITERS {
        std::hint::black_box(x.wrapping_mul(3));
    }
    (ITERS, sys::thread_cpu_ns().saturating_sub(start))
}

/// The fixed-count warm-up: `count` synchronous invocations from the
/// calling thread. Returns how many failed and the first reason.
pub fn warm_up(target: &Target, items: &[Item], count: usize) -> (u64, Option<String>) {
    let tally = Tally::default();
    let client = PooledClient::new(HTTP_TIMEOUT);
    for item in items.iter().cycle().take(count) {
        let mut checked = match target {
            Target::Worker(w) => {
                check_worker(item, w.invoke_tenant(&item.fqdn, &item.args, item.tenant))
            }
            Target::Http(addr) => check_http(item, client.send(*addr, &http_request(item))),
        };
        // Warm-up may legitimately start a container cold; anything else
        // that goes wrong is a failure.
        if matches!(&checked.verdict, Err(why) if why.ends_with("cold start in a warm phase")) {
            checked.verdict = Ok(());
        }
        tally.note(&checked);
    }
    let first = tally.first_failure.lock().clone();
    (tally.failed.load(Ordering::Relaxed), first)
}
