//! Telemetry: one seeded fault-injected run, one digest computed from the
//! canonical telemetry stream.
//!
//! Drives the chaos rig with the WAL on and the injector wired into the
//! worker's telemetry bus and flight recorder (`--invocations`, default
//! 30), then digests what flowed through the pipeline: per-trace
//! event-label sequences, aggregate per-kind counts, the per-tenant books,
//! and the flight-recorder snapshot reasons.
//!
//! The digest deliberately folds *labels and counts*, never sequence
//! numbers or timestamps: seqnos are assigned across worker threads and
//! timestamps come from the wall clock, so neither is reproducible.

use super::chaos::{chaos_worker, f_spec, tap, tenant_of, wait_completed};
use super::{tenant_books, Args, Scratch};
use iluvatar_sync::Fnv1a;
use std::collections::BTreeMap;

pub fn run(args: &Args) -> u64 {
    let invocations = args.invocations.unwrap_or(30) as usize;
    // The WAL puts the wal:* event family on the stream.
    let scratch = Scratch::new("telemetry");
    let (mut worker, injector) = chaos_worker(args.seed, Some(&scratch.file("queue.wal")), false);
    let sink = tap(&worker, &injector);
    worker.register(f_spec()).expect("register");

    let mut failed = 0usize;
    for i in 0..invocations {
        let id = match worker.invoke_tenant("f-1", &format!("{{\"i\":{i}}}"), Some(tenant_of(i))) {
            Ok(r) => r.trace_id,
            Err(_) => {
                failed += 1;
                worker.recent_traces(1)[0].trace_id
            }
        };
        // Serialize the stream: this invocation's timeline completes
        // before the next one starts emitting.
        wait_completed(&worker, id);
    }
    worker.shutdown();

    let events = sink.events();
    let mut by_trace: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for e in &events {
        let label = e.kind.label();
        *totals.entry(label.clone()).or_default() += 1;
        if let Some(t) = e.trace_id {
            by_trace.entry(t).or_default().push(label);
        }
    }
    let mut digest = Fnv1a::new();
    // Per-trace label sequences, traces in id order (ids are folded by
    // position, not value — the counter's start is an implementation detail).
    for (i, labels) in by_trace.values().enumerate() {
        digest.write(format!("t{i}=").as_bytes());
        for l in labels {
            digest.write(l.as_bytes());
            digest.write(b",");
        }
        digest.write(b";");
    }
    for (label, count) in &totals {
        digest.write(format!("{label}:{count};").as_bytes());
    }
    digest.write(tenant_books(&worker).as_bytes());
    let snapshots = worker.flight_recorder().snapshots();
    for s in &snapshots {
        digest.write(format!("snap:{};", s.reason).as_bytes());
    }

    eprintln!(
        "seed={} invocations={invocations} ok={} failed={failed} events={}",
        args.seed,
        invocations - failed,
        events.len()
    );
    for (label, count) in &totals {
        eprintln!("  {label}: {count}");
    }
    eprintln!("  flight-recorder snapshots: {}", snapshots.len());
    for s in &snapshots {
        eprintln!("    {} ({} events)", s.reason, s.events.len());
    }
    digest.finish()
}
