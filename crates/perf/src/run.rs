//! One workload, start to finish: set-up (timed, repeated), the measured
//! phases, the self-check, and the metrics.
//!
//! The untraced run yields the end-to-end metrics; the traced run yields
//! the per-layer ones. They are never mixed: end-to-end numbers always come
//! from a topology without a single harness wrapper in it.

use crate::drive::{run_paced, run_sat, warm_up, Phase, Target, Window};
use crate::inputs::{self, Item};
use crate::probes::{self, Budget};
use crate::stats::{median, quantile, quiet_quartile, quietest, spread, Better};
use crate::topo::{Topology, Workload};
use crate::trace::{self, names};
use crate::wraps::Tap;
use iluvatar_core::SpanExport;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics: `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("capacity_ips", "1/s"),
    ("overhead_p50_us", "us"),
    ("cpu_us_per_inv", "us"),
    ("setup_s", "s"),
];

/// The program's own Table-1 spans the traced run reads through
/// `Worker::spans()` and reports as `core.span.<name>_us`.
const CORE_SPANS: &[&str] = &[
    "invoke",
    "enqueue_invocation",
    "spawn_worker",
    "dequeue",
    "acquire_container",
    "call_container",
    "return_results",
];

/// Harness spans reported as the median duration (`<metric>_us`) and, where
/// the span has children, the median self time (`<metric>_self_us`).
const SPAN_METRICS: &[(&str, &str, bool)] = &[
    ("core.sync_invoke", names::CORE_SYNC_INVOKE, true),
    ("core.async_submit", names::CORE_ASYNC_SUBMIT, false),
    ("core.wal_fsync", names::WAL_FSYNC, false),
    ("containers.invoke", names::CONTAINERS_INVOKE, false),
    ("lb.invoke", names::LB_INVOKE, true),
    ("lb.hop", names::LB_HOP, true),
    ("lb.probe", names::LB_PROBE, false),
    ("lb.http_invoke", names::LB_HTTP_INVOKE, true),
    ("dispatch.http_pull", names::DISPATCH_HTTP_PULL, false),
    (
        "dispatch.http_complete",
        names::DISPATCH_HTTP_COMPLETE,
        false,
    ),
    ("dispatch.exec", names::DISPATCH_EXEC, false),
];

/// In-process `Cluster::invoke_tenant` calls made after the traced phase of
/// `cluster_push`, for `lb.invoke_us`.
const LB_INVOKE_CALLS: usize = 200;

/// `sat` and `paced` alternate in slices of about this long, so that each
/// metric samples the whole run and not one contiguous half of it: the
/// sandbox's fast and slow stretches last a few seconds each, its steal
/// bursts 10–30 s.
const SLICE_SECS: f64 = 2.0;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

pub struct Options {
    pub seed: u64,
    /// Measured seconds per workload (`sat` and `paced` get half each).
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: one set-up, a tenth of the warm-up, tiny probe budgets.
    pub quick: bool,
    /// Directory for WAL files and span files.
    pub out_dir: PathBuf,
}

impl Options {
    fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    fn warmup(&self, w: Workload) -> usize {
        if self.quick {
            w.warmup() / 10
        } else {
            w.warmup()
        }
    }
}

/// What one workload produced.
pub struct Report {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// Self-check violations; empty means correct.
    pub problems: Vec<String>,
    /// The contract metrics: end-to-end ones, or per-layer with `--trace`.
    pub metrics: Vec<Metric>,
    /// Diagnostics for the human report only.
    pub notes: Vec<Metric>,
}

impl Report {
    fn new(workload: Workload) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push(Metric::new(name, value, unit));
    }

    /// Book a batch of invocations and check it.
    fn absorb(&mut self, what: &str, attempted: u64, ok: u64, failed: u64, first: Option<&str>) {
        self.attempted += attempted;
        self.failed += failed;
        if ok + failed != attempted {
            self.problems.push(format!(
                "{what}: completed {ok} + failed {failed} != attempted {attempted}"
            ));
        }
        if let Some(why) = first {
            self.problems
                .push(format!("{what}: {failed} failed, first: {why}"));
        }
        if attempted == 0 {
            self.problems.push(format!("{what}: nothing attempted"));
        }
    }

    fn absorb_phase(&mut self, what: &str, p: &Phase) {
        self.absorb(
            what,
            p.attempted,
            p.ok,
            p.failed,
            p.first_failure.as_deref(),
        );
    }
}

/// A fresh, empty directory of this process's own for WAL files.
fn scratch_dir(opts: &Options, w: Workload, tag: &str) -> PathBuf {
    let dir = opts
        .out_dir
        .join(format!("scratch-{}-{}-{tag}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Build + warm-up = set-up. Returns the ready topology, its target and the
/// set-up time; the warm-up's invocations are booked on `report`.
fn set_up(
    w: Workload,
    items: &[Item],
    warmup: usize,
    scratch: &Path,
    tap: Option<&Tap>,
    report: &mut Report,
) -> (Topology, Target, f64) {
    let started = Instant::now();
    let topo = Topology::build(w, scratch, tap);
    let target = Target::of(&topo);
    let (failed, why) = warm_up(&target, items, warmup);
    let secs = started.elapsed().as_secs_f64();
    let attempted = warmup as u64;
    report.absorb(
        "warm-up",
        attempted,
        attempted - failed,
        failed,
        why.as_deref(),
    );
    (topo, target, secs)
}

/// Tear down and run the checks that need a stopped topology.
fn tear_down(topo: Topology, target: Target, report: &mut Report) {
    if let Some(plane) = &topo.plane {
        if plane.depth() != 0 || plane.live_leases() != 0 {
            report.problems.push(format!(
                "pull plane not drained: depth {} live leases {}",
                plane.depth(),
                plane.live_leases()
            ));
        }
    }
    let wal = topo.wal_path.clone();
    drop(target);
    topo.teardown();
    if let Some(path) = wal {
        match iluvatar_core::wal::replay(&path) {
            Ok(state) if state.pending.is_empty() => {}
            Ok(state) => report.problems.push(format!(
                "WAL replay after shutdown has {} pending invocations",
                state.pending.len()
            )),
            Err(e) => report.problems.push(format!("WAL replay failed: {e}")),
        }
    }
}

/// The best probe speed any window of the given phases ran at: the
/// reference a window must come close to to count as undisturbed.
fn reference_speed(phases: &[&Phase]) -> f64 {
    phases
        .iter()
        .flat_map(|p| p.windows.iter())
        .map(|w| w.speed)
        .fold(0.0, f64::max)
}

/// The windows of `phase` the sandbox disturbed least (see [`quietest`]).
fn quiet_windows(phase: &Phase, reference: f64) -> Vec<&Window> {
    let steal: Vec<u64> = phase.windows.iter().map(|w| w.steal_ticks).collect();
    let speed: Vec<f64> = phase.windows.iter().map(|w| w.speed).collect();
    quietest(&steal, &speed, reference)
        .into_iter()
        .map(|i| &phase.windows[i])
        .collect()
}

/// The quiet quartile of `f` over `windows`.
fn quiet_value(windows: &[&Window], better: Better, f: impl Fn(&Window) -> f64) -> f64 {
    let per_window: Vec<f64> = windows.iter().map(|w| f(w)).collect();
    quiet_quartile(&per_window, better)
}

fn throughput(w: &Window) -> f64 {
    w.ok as f64 / w.secs
}

/// Lower quartile of the quiet windows' median overhead, µs.
fn overhead_p50_us(paced: &Phase, reference: f64) -> f64 {
    let with_samples: Vec<&Window> = quiet_windows(paced, reference)
        .into_iter()
        .filter(|w| !w.samples.is_empty())
        .collect();
    quiet_value(&with_samples, Better::Lower, |w| {
        median(&w.samples.iter().map(|s| s.overhead_us).collect::<Vec<_>>())
    })
}

/// A named per-window reading.
type Signal<'a> = (&'a str, fn(&Window) -> f64);

/// One line per signal: every window's value, for the human report.
fn print_windows(w: Workload, kind: &str, phase: &Phase, value: Signal) {
    let signals: [Signal; 5] = [
        value,
        ("completed", |w| w.ok as f64),
        ("overhead p50 us", |w| {
            median(&w.samples.iter().map(|s| s.overhead_us).collect::<Vec<_>>())
        }),
        ("steal ticks", |w| w.steal_ticks as f64),
        ("probe speed", |w| w.speed),
    ];
    for (label, f) in signals {
        eprintln!(
            "{} {kind} windows, {label}: {:.2?}",
            w.name(),
            phase.per_window(f)
        );
    }
}

/// Untraced run: the four end-to-end metrics.
fn run_untraced(w: Workload, opts: &Options) -> Report {
    let mut report = Report::new(w);
    let items = Arc::new(inputs::items(opts.seed, w.tenants()));
    let mut setups = Vec::new();
    let mut scratches = Vec::new();
    let mut ready = None;
    for rep in 0..opts.setup_reps() {
        if let Some((topo, target)) = ready.take() {
            tear_down(topo, target, &mut report);
        }
        let scratch = scratch_dir(opts, w, &rep.to_string());
        let (topo, target, secs) = set_up(w, &items, opts.warmup(w), &scratch, None, &mut report);
        setups.push(secs);
        scratches.push(scratch);
        ready = Some((topo, target));
    }
    let (topo, target) = ready.expect("at least one set-up");

    let slices = ((opts.seconds / (2.0 * SLICE_SECS)).round() as u64).max(1);
    let slice_secs = opts.seconds / (2 * slices) as f64;
    let (mut sat, mut paced) = (Phase::default(), Phase::default());
    for slice in 0..slices {
        sat.absorb(run_sat(&target, &items, slice_secs));
        let due = inputs::poisson_due_ns(opts.seed ^ (slice << 32), w.paced_rate(), slice_secs);
        paced.absorb(run_paced(&target, &items, Arc::new(due), slice_secs, None));
    }
    report.absorb_phase("sat", &sat);
    report.absorb_phase("paced", &paced);
    tear_down(topo, target, &mut report);
    for dir in scratches {
        let _ = std::fs::remove_dir_all(dir);
    }

    let reference = reference_speed(&[&sat, &paced]);
    let quiet_sat = quiet_windows(&sat, reference);
    let quiet_paced = quiet_windows(&paced, reference);
    report.push(
        "capacity_ips",
        quiet_value(&quiet_sat, Better::Higher, throughput),
        "1/s",
    );
    report.push("overhead_p50_us", overhead_p50_us(&paced, reference), "us");
    report.push(
        "cpu_us_per_inv",
        quiet_value(
            &quiet_paced,
            Better::Lower,
            Window::control_plane_cpu_us_per_inv,
        ),
        "us",
    );
    report.push("setup_s", median(&setups), "s");

    print_windows(w, "sat", &sat, ("1/s", throughput));
    print_windows(
        w,
        "paced",
        &paced,
        ("cpu us/inv", Window::control_plane_cpu_us_per_inv),
    );
    report.note("sat.windows", sat.windows.len() as f64, "count");
    report.note("sat.quiet_windows", quiet_sat.len() as f64, "count");
    report.note("sat.completed", sat.ok as f64, "count");
    report.note("paced.windows", paced.windows.len() as f64, "count");
    report.note("paced.quiet_windows", quiet_paced.len() as f64, "count");
    report.note("paced.completed", paced.ok as f64, "count");
    report.note("setup.samples", setups.len() as f64, "count");
    report.note(
        "loadgen.sat_window_spread",
        spread(&sat.per_window(throughput)),
        "ratio",
    );
    report.notes.extend(process_and_loadgen(&paced));
    report
}

/// `process.*` and `loadgen.*` from one paced phase.
fn process_and_loadgen(paced: &Phase) -> Vec<Metric> {
    let ok = paced.total(|w| w.ok).max(1) as f64;
    let per_inv = |f: fn(&Window) -> u64| paced.total(f) as f64 / ok;
    let late: Vec<f64> = paced.samples().map(|s| s.late_us).collect();
    let over: Vec<f64> = paced.samples().map(|s| s.overhead_us).collect();
    let wall_ns: f64 = paced.windows.iter().map(|w| w.secs * 1e9).sum();
    // The control plane's share of the CPU: with the keep-awake spinner the
    // whole process's share is 1.0 by construction.
    let control_plane_ns = paced.total(|w| w.process_cpu_ns.saturating_sub(w.loadgen_cpu_ns));
    vec![
        Metric::new("process.allocs_per_inv", per_inv(|w| w.allocs), "count"),
        Metric::new(
            "process.alloc_bytes_per_inv",
            per_inv(|w| w.alloc_bytes),
            "bytes",
        ),
        Metric::new(
            "process.thread_spawns_per_inv",
            per_inv(|w| w.spawns),
            "count",
        ),
        Metric::new(
            "process.ctx_switches_per_inv",
            per_inv(|w| w.ctx_switches),
            "count",
        ),
        Metric::new(
            "process.cpu_util",
            control_plane_ns as f64 / wall_ns.max(1.0),
            "ratio",
        ),
        Metric::new("loadgen.late_p90_us", quantile(&late, 0.9), "us"),
        Metric::new("loadgen.overhead_p90_us", quantile(&over, 0.9), "us"),
        Metric::new("loadgen.overhead_p99_us", quantile(&over, 0.99), "us"),
    ]
}

/// The workers' Table-1 spans, merged.
fn core_spans(topo: &Topology) -> Vec<SpanExport> {
    let sets: Vec<Vec<SpanExport>> = topo.workers.iter().map(|w| w.spans().export()).collect();
    iluvatar_core::merge_span_exports(&sets)
}

/// Mean µs of span `name` between two exports.
fn span_delta_us(before: &[SpanExport], after: &[SpanExport], name: &str) -> f64 {
    let find = |set: &[SpanExport]| {
        set.iter()
            .find(|e| e.name == name)
            .map(|e| (e.count, e.total_us))
            .unwrap_or((0, 0))
    };
    let ((c0, t0), (c1, t1)) = (find(before), find(after));
    if c1 > c0 {
        (t1 - t0) as f64 / (c1 - c0) as f64
    } else {
        0.0
    }
}

/// Traced run: every per-layer metric.
fn run_traced(w: Workload, opts: &Options) -> Report {
    let mut report = Report::new(w);
    let items = Arc::new(inputs::items(opts.seed, w.tenants()));
    let tap = Tap::new();
    let scratch = scratch_dir(opts, w, "trace");
    let (topo, target, _) = set_up(w, &items, opts.warmup(w), &scratch, Some(&tap), &mut report);

    // Same topology twice: recorder off (the baseline the tracing overhead
    // is measured against), then recorder on.
    let phase_secs = (opts.seconds / 4.0).min(5.0);
    let schedule = |salt: u64| {
        Arc::new(inputs::poisson_due_ns(
            opts.seed ^ salt,
            w.paced_rate(),
            phase_secs,
        ))
    };
    let baseline = run_paced(&target, &items, schedule(0), phase_secs, Some(&tap));
    report.absorb_phase("paced (recorder off)", &baseline);

    tap.rec.set_enabled(true);
    let spans_before = core_spans(&topo);
    let served_before = topo.http_served();
    let traced = run_paced(&target, &items, schedule(0x7ACE), phase_secs, Some(&tap));
    report.absorb_phase("paced (recorder on)", &traced);
    let spans_after = core_spans(&topo);
    // One `GET /metrics` of our own sits between the two readings.
    let served = topo.http_served().saturating_sub(served_before + 1);
    // Per-invocation counts, read before the extra balancer calls below.
    let inv = traced.ok.max(1) as f64;
    let per_inv = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64 / inv;
    let counts = &tap.counts;
    let (pulls, useful) = (per_inv(&counts.pulls), per_inv(&counts.useful_pulls));
    report.push("http.requests_per_inv", served as f64 / inv, "count");
    report.push("core.queue_ms_mean", traced.queue_ms_sum as f64 / inv, "ms");
    report.push(
        "core.wal_appends_per_inv",
        per_inv(&counts.wal_writes),
        "count",
    );
    report.push(
        "core.wal_bytes_per_inv",
        per_inv(&counts.wal_bytes),
        "bytes",
    );
    report.push(
        "core.wal_fsyncs_per_inv",
        per_inv(&counts.wal_fsyncs),
        "count",
    );
    report.push(
        "containers.invokes_per_inv",
        per_inv(&counts.container_invokes),
        "count",
    );
    report.push("dispatch.empty_pulls_per_inv", pulls - useful, "count");
    report.push(
        "dispatch.useful_pull_ratio",
        if pulls > 0.0 { useful / pulls } else { 0.0 },
        "ratio",
    );
    report.push(
        "telemetry.events_per_inv",
        per_inv(&counts.telemetry_events),
        "count",
    );
    for span in CORE_SPANS {
        report.push(
            format!("core.span.{span}_us"),
            span_delta_us(&spans_before, &spans_after, span),
            "us",
        );
    }

    if let Some(cluster) = topo.cluster.as_ref().filter(|_| w == Workload::ClusterPush) {
        for item in items.iter().take(LB_INVOKE_CALLS) {
            let start = tap.rec.now_ns();
            let r = cluster.invoke_tenant(&item.fqdn, &item.args, item.tenant);
            let id = r.map(|r| r.trace_id).unwrap_or(0);
            tap.rec
                .record(names::LB_INVOKE, id, start, tap.rec.now_ns());
        }
    }
    tap.rec.set_enabled(false);
    tear_down(topo, target, &mut report);

    let spans = tap.rec.take();
    let root = if w.over_http() {
        names::LB_HTTP_INVOKE
    } else {
        names::CORE_SYNC_INVOKE
    };
    let summary = trace::summarize(&spans, root);
    let file = opts.out_dir.join(format!("trace-{}.jsonl", w.name()));
    if let Err(e) = trace::write_jsonl(&file, &spans) {
        report
            .problems
            .push(format!("cannot write {}: {e}", file.display()));
    }
    for (metric, span, has_children) in SPAN_METRICS {
        report.push(format!("{metric}_us"), summary.dur_us(span), "us");
        if *has_children {
            report.push(format!("{metric}_self_us"), summary.self_us(span), "us");
        }
    }
    // Client latency not covered by pull, exec or complete: waiting for a
    // pull loop to come round. Only meaningful where leases exist.
    report.push(
        "dispatch.lease_wait_us",
        if w == Workload::ClusterPull {
            summary.self_us(names::LB_HTTP_INVOKE)
        } else {
            0.0
        },
        "us",
    );

    let probe_values = probes::run_all(
        opts.seed,
        Budget {
            rep: Duration::from_millis(if opts.quick { 2 } else { 50 }),
            quick: opts.quick,
        },
        &scratch,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    for (name, value) in probe_values {
        // Probe names end in their unit.
        let unit = if name.ends_with("_ns") { "ns" } else { "us" };
        report.push(name, value, unit);
    }

    // process and loadgen, from the recorder-off half
    report.metrics.extend(process_and_loadgen(&baseline));
    let reference = reference_speed(&[&baseline, &traced]);
    let (p50_off, p50_on) = (
        overhead_p50_us(&baseline, reference),
        overhead_p50_us(&traced, reference),
    );
    report.push(
        "trace.overhead_pct",
        if p50_off > 0.0 {
            100.0 * (p50_on - p50_off) / p50_off
        } else {
            0.0
        },
        "%",
    );
    report.push("trace.covered_pct", summary.covered_pct, "%");
    report.note("trace.spans", spans.len() as f64, "count");
    report.note("trace.overhead_p50_us.recorder_off", p50_off, "us");
    report.note("trace.overhead_p50_us.recorder_on", p50_on, "us");
    for name in summary.names() {
        report.note(
            format!("span.{name}.count"),
            summary.count(name) as f64,
            "count",
        );
        report.note(format!("span.{name}.self_us"), summary.self_us(name), "us");
    }
    report
}

pub fn run_workload(w: Workload, opts: &Options) -> Report {
    if opts.trace {
        run_traced(w, opts)
    } else {
        run_untraced(w, opts)
    }
}
