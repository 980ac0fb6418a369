//! Prometheus text-format exposition (§5).
//!
//! The paper's worker tracks "key system metrics like CPU usage, load
//! averages ... and system energy usage" and exports function latencies for
//! analysis. This module renders that state — span histograms, queue depth,
//! pool occupancy, cold/warm/failed counters, load averages, energy — in the
//! Prometheus text format, so `GET /metrics` on a worker (or the merged
//! cluster view on the load balancer) is scrapeable by any standard stack.
//!
//! The writer emits `# HELP`/`# TYPE` once per metric family even when a
//! family repeats with different label sets, as the format requires.

use crate::spans::SpanExport;
use crate::worker::Worker;
use iluvatar_sync::LogHistogram;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Bucket edges for span histograms, µs. Spans range from sub-millisecond
/// control-plane hops to multi-second cold starts; `le` labels are rendered
/// in seconds per Prometheus convention.
pub const DEFAULT_EDGES_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Incremental Prometheus text writer.
pub struct PromWriter {
    out: String,
    seen: HashSet<String>,
}

impl PromWriter {
    pub fn new() -> Self {
        Self {
            out: String::new(),
            seen: HashSet::new(),
        }
    }

    fn preamble(&mut self, name: &str, help: &str, kind: &str) {
        if self.seen.insert(name.to_string()) {
            let _ = writeln!(self.out, "# HELP {name} {help}");
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
        }
    }

    fn label_str(labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={:?}", v)).collect();
        format!("{{{}}}", inner.join(","))
    }

    /// Extend a label set with one more pair (for `le` on buckets).
    fn label_str_plus(labels: &[(&str, &str)], extra: (&str, &str)) -> String {
        let mut all: Vec<(&str, &str)> = labels.to_vec();
        all.push(extra);
        Self::label_str(&all)
    }

    /// Exposition must never emit an unparseable sample: a NaN or ±Inf
    /// value (a mean over zero samples, a ratio against a zero gauge)
    /// renders as `0` rather than poisoning the whole scrape.
    fn finite(value: f64) -> f64 {
        if value.is_finite() {
            value
        } else {
            0.0
        }
    }

    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.preamble(name, help, "counter");
        let _ = writeln!(
            self.out,
            "{name}{} {}",
            Self::label_str(labels),
            Self::finite(value)
        );
    }

    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.preamble(name, help, "gauge");
        let _ = writeln!(
            self.out,
            "{name}{} {}",
            Self::label_str(labels),
            Self::finite(value)
        );
    }

    /// Render a [`LogHistogram`] of **microsecond** samples as a Prometheus
    /// histogram in **seconds** at the given µs bucket edges.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: &LogHistogram,
        edges_us: &[u64],
    ) {
        self.preamble(name, help, "histogram");
        for &edge in edges_us {
            let le = edge as f64 / 1e6;
            let ls = Self::label_str_plus(labels, ("le", &le.to_string()));
            let _ = writeln!(self.out, "{name}_bucket{ls} {}", hist.count_le(edge));
        }
        let inf = Self::label_str_plus(labels, ("le", "+Inf"));
        let _ = writeln!(self.out, "{name}_bucket{inf} {}", hist.count());
        let ls = Self::label_str(labels);
        let _ = writeln!(self.out, "{name}_sum{ls} {}", hist.sum() as f64 / 1e6);
        let _ = writeln!(self.out, "{name}_count{ls} {}", hist.count());
    }

    pub fn finish(self) -> String {
        self.out
    }
}

impl Default for PromWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Render one `iluvatar_span_seconds` histogram per span export, labeled
/// with the span name. Shared by the worker and the load balancer's merged
/// cluster view.
pub fn render_span_histograms(w: &mut PromWriter, base: &[(&str, &str)], spans: &[SpanExport]) {
    for e in spans {
        let mut labels: Vec<(&str, &str)> = base.to_vec();
        labels.push(("span", &e.name));
        w.histogram(
            "iluvatar_span_seconds",
            "Control-plane component latency (Table 1 spans)",
            &labels,
            &e.hist,
            DEFAULT_EDGES_US,
        );
    }
}

/// The full `/metrics` payload for one worker. `http_requests` is the API
/// server's served-request count (0 when unserved).
pub fn render_worker(worker: &Worker, http_requests: u64) -> String {
    let st = worker.status();
    let pool = worker.pool_stats();
    let m = worker.metrics();
    let base: &[(&str, &str)] = &[("worker", &st.name)];
    let mut w = PromWriter::new();

    w.gauge(
        "iluvatar_queue_depth",
        "Invocations waiting in the queue",
        base,
        st.queue_len as f64,
    );
    w.gauge(
        "iluvatar_running_invocations",
        "Invocations currently executing",
        base,
        st.running as f64,
    );
    w.gauge(
        "iluvatar_concurrency_limit",
        "Current concurrency limit (fixed or AIMD)",
        base,
        st.concurrency_limit as f64,
    );
    w.gauge(
        "iluvatar_normalized_load",
        "(running + queued) / cores",
        base,
        st.normalized_load,
    );
    w.gauge(
        "iluvatar_pool_used_mem_mb",
        "Memory held by pooled containers, MB",
        base,
        st.used_mem_mb as f64,
    );
    w.gauge(
        "iluvatar_pool_free_mem_mb",
        "Memory available for cold starts, MB",
        base,
        st.free_mem_mb as f64,
    );
    w.gauge(
        "iluvatar_pool_idle_containers",
        "Warm containers parked in the pool",
        base,
        pool.idle_containers as f64,
    );

    w.counter(
        "iluvatar_invocations_completed_total",
        "Successfully completed invocations",
        base,
        st.completed as f64,
    );
    w.counter(
        "iluvatar_invocations_dropped_total",
        "Invocations dropped (backpressure / no memory)",
        base,
        st.dropped as f64,
    );
    w.counter(
        "iluvatar_invocations_failed_total",
        "Invocations that errored at dispatch",
        base,
        st.failed as f64,
    );
    w.counter(
        "iluvatar_cold_starts_total",
        "Invocations that paid a cold start",
        base,
        st.cold_starts as f64,
    );
    w.counter(
        "iluvatar_warm_hits_total",
        "Invocations served by a warm container",
        base,
        st.warm_hits as f64,
    );
    w.counter(
        "iluvatar_pool_evictions_total",
        "Keep-alive evictions",
        base,
        pool.evictions as f64,
    );
    w.counter(
        "iluvatar_http_requests_total",
        "Requests served by the worker API",
        base,
        http_requests as f64,
    );

    w.counter(
        "iluvatar_retries_total",
        "Retries scheduled after transient backend failures",
        base,
        st.retries as f64,
    );
    w.counter(
        "iluvatar_agent_timeouts_total",
        "Agent calls abandoned at the agent timeout",
        base,
        st.agent_timeouts as f64,
    );
    w.counter(
        "iluvatar_containers_quarantined_total",
        "Containers quarantined after a failed agent hop",
        base,
        st.quarantined as f64,
    );
    w.counter(
        "iluvatar_dropped_retry_exhausted_total",
        "Invocations failed after the retry budget was exhausted or shed",
        base,
        st.dropped_retry_exhausted as f64,
    );

    w.counter(
        "iluvatar_dropped_admission_total",
        "Invocations rejected by admission control (throttled + shed)",
        base,
        st.dropped_admission as f64,
    );

    // Result cache: totals always, per-tenant evictions when the cache has
    // seen traffic (the tenant label is the cache partition).
    w.counter(
        "iluvatar_cache_hits_total",
        "Invocations served from the result cache without dispatching",
        base,
        st.cache_hits as f64,
    );
    w.counter(
        "iluvatar_cache_misses_total",
        "Result-cache lookups that fell through to dispatch",
        base,
        st.cache_misses as f64,
    );
    for t in worker.cache_stats() {
        let labels: &[(&str, &str)] = &[("worker", &st.name), ("tenant", &t.tenant)];
        w.counter(
            "iluvatar_cache_evictions_total",
            "Result-cache entries evicted under the per-tenant capacity bound",
            labels,
            t.evictions as f64,
        );
    }
    w.gauge(
        "iluvatar_warm_gb_seconds",
        "Warm-container residency across the keep-alive pool, GB*s",
        base,
        st.warm_gb_s,
    );

    // WAL durability health: is the disk failing, stalling, or lying?
    w.gauge(
        "iluvatar_wal_degraded",
        "1 while the WAL serves in degraded (non-durable) mode",
        base,
        if st.wal_degraded { 1.0 } else { 0.0 },
    );
    w.counter(
        "iluvatar_wal_non_durable_total",
        "Invocations accepted while the WAL was degraded",
        base,
        st.wal_non_durable as f64,
    );
    w.counter(
        "iluvatar_wal_stall_sheds_total",
        "Appends shed at the WAL stall deadline (503 + Retry-After)",
        base,
        st.wal_stall_sheds as f64,
    );
    w.counter(
        "iluvatar_wal_rotations_total",
        "WAL segment rotations (size, error ladder, re-arm)",
        base,
        st.wal_rotations as f64,
    );
    w.counter(
        "iluvatar_wal_quarantined_total",
        "Corrupt or torn WAL frames quarantined during recovery",
        base,
        st.wal_quarantined as f64,
    );
    for t in worker.tenant_stats() {
        let labels: &[(&str, &str)] = &[("worker", &st.name), ("tenant", &t.tenant)];
        w.gauge(
            "iluvatar_tenant_weight",
            "DRR fair-share weight",
            labels,
            t.weight,
        );
        w.counter(
            "iluvatar_tenant_admitted_total",
            "Invocations admitted for the tenant",
            labels,
            t.admitted as f64,
        );
        w.counter(
            "iluvatar_tenant_throttled_total",
            "Invocations throttled by the tenant rate limit",
            labels,
            t.throttled as f64,
        );
        w.counter(
            "iluvatar_tenant_shed_total",
            "Best-effort invocations shed under overload",
            labels,
            t.shed as f64,
        );
        w.counter(
            "iluvatar_tenant_served_total",
            "Invocations completed for the tenant",
            labels,
            t.served as f64,
        );
    }

    w.gauge(
        "iluvatar_load_average",
        "Damped busy-core load average",
        &[("worker", &st.name), ("window", "1m")],
        m.load_1,
    );
    w.gauge(
        "iluvatar_load_average",
        "Damped busy-core load average",
        &[("worker", &st.name), ("window", "5m")],
        m.load_5,
    );
    w.gauge(
        "iluvatar_load_average",
        "Damped busy-core load average",
        &[("worker", &st.name), ("window", "15m")],
        m.load_15,
    );
    w.counter(
        "iluvatar_energy_joules_total",
        "Modelled cumulative energy",
        base,
        m.energy_j,
    );
    w.gauge(
        "iluvatar_power_watts",
        "Modelled instantaneous power",
        base,
        m.power_w,
    );

    // The canonical telemetry stream, bridged to counters by kind.
    for (kind, tenant, count) in worker.telemetry_counts() {
        let mut labels: Vec<(&str, &str)> = vec![("worker", &st.name), ("kind", &kind)];
        if !tenant.is_empty() {
            labels.push(("tenant", &tenant));
        }
        w.counter(
            "iluvatar_telemetry_events_total",
            "Canonical telemetry events by kind",
            &labels,
            count as f64,
        );
    }

    render_span_histograms(&mut w, base, &worker.spans().export());
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkerConfig;
    use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
    use iluvatar_containers::FunctionSpec;
    use iluvatar_sync::SystemClock;
    use std::sync::Arc;

    /// Minimal validity check for the Prometheus text format: every line is
    /// a comment or `name{labels} value` with a parseable float value.
    fn assert_valid_prom(text: &str) {
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (_, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("bad line: {line}"));
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparseable value in line: {line}"
            );
        }
    }

    #[test]
    fn writer_emits_help_and_type_once() {
        let mut w = PromWriter::new();
        w.gauge("x_depth", "depth", &[("worker", "a")], 1.0);
        w.gauge("x_depth", "depth", &[("worker", "b")], 2.0);
        let out = w.finish();
        assert_eq!(out.matches("# HELP x_depth").count(), 1);
        assert_eq!(out.matches("# TYPE x_depth gauge").count(), 1);
        assert!(out.contains("x_depth{worker=\"a\"} 1"));
        assert!(out.contains("x_depth{worker=\"b\"} 2"));
        assert_valid_prom(&out);
    }

    #[test]
    fn non_finite_values_render_as_zero() {
        // `f64::parse` accepts "NaN" and "inf", so assert_valid_prom alone
        // would let an unscrapeable line through — check the rendered text.
        let mut w = PromWriter::new();
        w.gauge("x_nan", "not-a-number gauge", &[("worker", "a")], f64::NAN);
        w.gauge("x_pos", "overflow gauge", &[("worker", "a")], f64::INFINITY);
        w.counter(
            "x_neg",
            "underflow counter",
            &[("worker", "a")],
            f64::NEG_INFINITY,
        );
        w.gauge("x_ok", "ok", &[("worker", "a")], 1.5);
        let out = w.finish();
        assert!(out.contains("x_nan{worker=\"a\"} 0"), "out: {out}");
        assert!(out.contains("x_pos{worker=\"a\"} 0"), "out: {out}");
        assert!(out.contains("x_neg{worker=\"a\"} 0"), "out: {out}");
        assert!(out.contains("x_ok{worker=\"a\"} 1.5"), "out: {out}");
        assert!(!out.contains("NaN"), "out: {out}");
        assert!(!out.contains("inf"), "out: {out}");
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let mut h = LogHistogram::new();
        for us in [50u64, 200, 900, 40_000] {
            h.record(us);
        }
        let mut w = PromWriter::new();
        w.histogram("x_seconds", "x", &[("span", "s")], &h, DEFAULT_EDGES_US);
        let out = w.finish();
        assert!(
            out.contains("x_seconds_bucket{span=\"s\",le=\"0.0001\"} 1"),
            "out: {out}"
        );
        assert!(
            out.contains("x_seconds_bucket{span=\"s\",le=\"0.001\"} 3"),
            "out: {out}"
        );
        assert!(out.contains("x_seconds_bucket{span=\"s\",le=\"+Inf\"} 4"));
        assert!(out.contains("x_seconds_count{span=\"s\"} 4"));
        // Cumulative counts never decrease across increasing edges.
        let counts: Vec<u64> = out
            .lines()
            .filter(|l| l.starts_with("x_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_valid_prom(&out);
    }

    #[test]
    fn worker_metrics_cover_the_checklist() {
        let clock = SystemClock::shared();
        let backend = Arc::new(SimBackend::new(
            Arc::clone(&clock),
            SimBackendConfig {
                time_scale: 0.02,
                ..Default::default()
            },
        ));
        let worker = Worker::new(WorkerConfig::for_testing(), backend, clock);
        worker
            .register(FunctionSpec::new("f", "1").with_timing(100, 400))
            .unwrap();
        worker.invoke_tenant("f-1", "{}", None).unwrap();
        worker.invoke_tenant("f-1", "{}", None).unwrap();
        let text = render_worker(&worker, 7);
        assert_valid_prom(&text);
        for family in [
            "iluvatar_queue_depth",
            "iluvatar_running_invocations",
            "iluvatar_pool_used_mem_mb",
            "iluvatar_pool_free_mem_mb",
            "iluvatar_invocations_completed_total",
            "iluvatar_invocations_dropped_total",
            "iluvatar_invocations_failed_total",
            "iluvatar_cold_starts_total",
            "iluvatar_warm_hits_total",
            "iluvatar_load_average",
            "iluvatar_energy_joules_total",
            "iluvatar_power_watts",
            "iluvatar_http_requests_total",
            "iluvatar_retries_total",
            "iluvatar_agent_timeouts_total",
            "iluvatar_containers_quarantined_total",
            "iluvatar_dropped_retry_exhausted_total",
            "iluvatar_dropped_admission_total",
            "iluvatar_cache_hits_total",
            "iluvatar_cache_misses_total",
            "iluvatar_warm_gb_seconds",
            "iluvatar_wal_degraded",
            "iluvatar_wal_non_durable_total",
            "iluvatar_wal_stall_sheds_total",
            "iluvatar_wal_rotations_total",
            "iluvatar_wal_quarantined_total",
            "iluvatar_telemetry_events_total",
            "iluvatar_span_seconds_bucket",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        assert!(text.contains("iluvatar_http_requests_total{worker=\"test-worker\"} 7"));
        // At least one span histogram per Table-1 group that ran.
        assert!(
            text.contains("span=\"call_container\""),
            "span labels present"
        );
        assert!(text.contains("span=\"invoke\""));
        // Admission disabled: no per-tenant families rendered.
        assert!(!text.contains("iluvatar_tenant_admitted_total{"));
    }

    #[test]
    fn per_tenant_metrics_render_when_admission_enabled() {
        use iluvatar_admission::{AdmissionConfig, TenantSpec};
        let clock = SystemClock::shared();
        let backend = Arc::new(SimBackend::new(
            Arc::clone(&clock),
            SimBackendConfig {
                time_scale: 0.02,
                ..Default::default()
            },
        ));
        let mut cfg = WorkerConfig::for_testing();
        cfg.admission = AdmissionConfig::enabled_with(vec![
            TenantSpec::new("gold").with_weight(3.0),
            TenantSpec::new("free").with_rate(0.001, 1.0),
        ]);
        let worker = Worker::new(cfg, backend, clock);
        worker
            .register(FunctionSpec::new("f", "1").with_timing(100, 400))
            .unwrap();
        worker.invoke_tenant("f-1", "{}", Some("gold")).unwrap();
        worker.invoke_tenant("f-1", "{}", Some("free")).unwrap();
        let _ = worker.invoke_tenant("f-1", "{}", Some("free")); // throttled
        let text = render_worker(&worker, 0);
        assert_valid_prom(&text);
        assert!(
            text.contains("iluvatar_tenant_weight{worker=\"test-worker\",tenant=\"gold\"} 3"),
            "{text}"
        );
        assert!(text
            .contains("iluvatar_tenant_admitted_total{worker=\"test-worker\",tenant=\"gold\"} 1"));
        assert!(text
            .contains("iluvatar_tenant_throttled_total{worker=\"test-worker\",tenant=\"free\"} 1"));
        assert!(
            text.contains("iluvatar_tenant_served_total{worker=\"test-worker\",tenant=\"gold\"} 1")
        );
        assert!(text.contains("iluvatar_dropped_admission_total{worker=\"test-worker\"} 1"));
    }
}
