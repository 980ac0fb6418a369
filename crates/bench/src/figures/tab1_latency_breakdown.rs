//! Table 1 — latency of the worker components for a single warm invocation.
//!
//! Runs the real hot path end-to-end over HTTP: the worker serves its API on
//! loopback, invocations arrive through the typed client, and in-process
//! containers serve the genuine agent protocol. Afterwards the span
//! distributions are scraped back over `GET /spans` — the same mergeable
//! histograms a load balancer aggregates — and printed in the paper's
//! Table 1 grouping (mean/p50/p99 per component, µs).

use crate::print_table;
use iluvatar::prelude::*;
use iluvatar_containers::NamespacePool;
use iluvatar_core::api::{WorkerApi, WorkerApiClient};
use iluvatar_core::spans::{GROUPS, NAMES};
use iluvatar_core::SpanExport;
use std::io::{self, Write};
use std::sync::Arc;

/// Warm invocations measured.
const ITERATIONS: u64 = 500;

pub fn run(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    let clock = SystemClock::shared();
    let netns = Arc::new(NamespacePool::new(4, 0, Arc::clone(&clock)));
    netns.prefill();
    let backend = Arc::new(InProcessBackend::new(netns));
    backend.register_behavior("pyaes-1", FbApp::PyAes.behavior());
    let worker = Arc::new(Worker::new(WorkerConfig::default(), backend, clock));
    let api = WorkerApi::serve(Arc::clone(&worker)).expect("serve worker API");
    let client = WorkerApiClient::new(api.addr());
    client
        .register(&FbApp::PyAes.spec())
        .expect("register over HTTP");

    // One cold start, then measure pure warm invocations.
    let invoke = || client.invoke_tenant("pyaes-1", "{}", None);
    invoke().expect("cold start");
    for _ in 0..ITERATIONS {
        let r = invoke().expect("warm invoke");
        assert!(!r.cold, "Table 1 measures warm invocations");
    }

    // Scrape the span distributions back over the wire, as a balancer would.
    let exports: Vec<SpanExport> = client.spans().expect("scrape /spans");
    let find = |name: &str| exports.iter().find(|e| e.name == name);

    let mut rows = Vec::new();
    for (group, spans) in GROUPS {
        for (i, span) in spans.iter().map(|&s| NAMES[s as usize]).enumerate() {
            let (mean, p50, p99) = find(span)
                .filter(|e| e.count > 0)
                .map(|e| {
                    (
                        e.total_us as f64 / e.count as f64,
                        e.hist.percentile(0.50),
                        e.hist.percentile(0.99),
                    )
                })
                .unwrap_or((0.0, 0.0, 0.0));
            rows.push(vec![
                if i == 0 {
                    group.to_string()
                } else {
                    String::new()
                },
                span.to_string(),
                format!("{mean:.1}"),
                format!("{p50:.0}"),
                format!("{p99:.0}"),
            ]);
        }
    }
    print_table(
        out,
        &format!("Table 1: worker component latency over {ITERATIONS} warm invocations (scraped from GET /spans)"),
        &["group", "component", "mean µs", "p50 µs", "p99 µs"],
        &rows,
    )?;

    let trace = client
        .traces(1)
        .ok()
        .and_then(|mut t| t.pop())
        .expect("journal holds the last invocation");
    writeln!(
        out,
        "\nLast trace {} ({}): {} events, cold={:?}",
        trace.trace_id,
        trace.fqdn,
        trace.events.len(),
        trace.cold()
    )?;
    let metrics = client.metrics_text().expect("scrape /metrics");
    let hist_lines = metrics
        .lines()
        .filter(|l| l.starts_with("iluvatar_span_seconds_bucket"))
        .count();
    writeln!(
        out,
        "GET /metrics: {} bytes, {hist_lines} span histogram bucket lines",
        metrics.len()
    )?;
    writeln!(out, "\nExpected shape (paper, Table 1): agent communication (call_container) dominates at ~1 000-2 000 µs; queuing and container operations each well under 100 µs.")?;
    Ok(true)
}
