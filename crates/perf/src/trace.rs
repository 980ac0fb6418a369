//! The harness's own span recorder and the self-time analysis.
//!
//! Spans are recorded from *outside* the program, around the calls into
//! each layer (wrappers in [`crate::wraps`], client spans in
//! [`crate::drive`]). They stay in memory during the run and are written as
//! JSON lines when it ends. Spans of one invocation share a trace id; a
//! span's parent is the nearest enclosing layer present in the same trace
//! (see [`PARENTS`]).

use crate::stats::median;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Span names, outermost layer first.
pub mod names {
    pub const CORE_SYNC_INVOKE: &str = "core.sync_invoke";
    pub const CORE_ASYNC_SUBMIT: &str = "core.async_submit";
    pub const CONTAINERS_INVOKE: &str = "containers.invoke";
    pub const WAL_WRITE: &str = "core.wal_write";
    pub const WAL_FSYNC: &str = "core.wal_fsync";
    pub const LB_HTTP_INVOKE: &str = "lb.http_invoke";
    pub const LB_INVOKE: &str = "lb.invoke";
    pub const LB_HOP: &str = "lb.hop";
    pub const LB_PROBE: &str = "lb.probe";
    pub const DISPATCH_HTTP_PULL: &str = "dispatch.http_pull";
    pub const DISPATCH_EXEC: &str = "dispatch.exec";
    pub const DISPATCH_HTTP_COMPLETE: &str = "dispatch.http_complete";
}

/// For each span name, the layers that can enclose it, innermost first. A
/// span's parent is the first of these present in its trace.
const PARENTS: &[(&str, &[&str])] = &[
    (names::CORE_ASYNC_SUBMIT, &[names::CORE_SYNC_INVOKE]),
    (
        names::CONTAINERS_INVOKE,
        &[names::DISPATCH_EXEC, names::LB_HOP, names::CORE_SYNC_INVOKE],
    ),
    (names::LB_HOP, &[names::LB_INVOKE, names::LB_HTTP_INVOKE]),
    (names::LB_PROBE, &[names::LB_INVOKE, names::LB_HTTP_INVOKE]),
    (names::DISPATCH_HTTP_PULL, &[names::LB_HTTP_INVOKE]),
    (names::DISPATCH_EXEC, &[names::LB_HTTP_INVOKE]),
    (names::DISPATCH_HTTP_COMPLETE, &[names::LB_HTTP_INVOKE]),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// 0 for work that belongs to no single invocation (a group fsync, an
    /// empty pull, a background load probe).
    pub trace_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by every wrapper of one traced topology.
/// Wrappers check [`Recorder::enabled`] first and pass straight through
/// while it is off, so one topology serves both halves of the traced run
/// (recording off → baseline, recording on → spans).
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// (worker trace id → balancer task id): in pull mode the worker mints
    /// its own id for an invocation the balancer already numbered.
    aliases: Mutex<Vec<(u64, u64)>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            aliases: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(&self, name: &'static str, trace_id: u64, start_ns: u64, end_ns: u64) {
        self.spans.lock().push(Span {
            name,
            trace_id,
            start_ns,
            end_ns,
        });
    }

    pub fn alias(&self, from: u64, to: u64) {
        self.aliases.lock().push((from, to));
    }

    /// Drain the recorded spans, with aliased trace ids rewritten.
    pub fn take(&self) -> Vec<Span> {
        let aliases: HashMap<u64, u64> = self.aliases.lock().drain(..).collect();
        let mut spans = std::mem::take(&mut *self.spans.lock());
        for s in &mut spans {
            if let Some(&to) = aliases.get(&s.trace_id) {
                s.trace_id = to;
            }
        }
        spans
    }
}

/// `span`'s duration minus the part of it its children cover. Children may
/// overlap each other and may stick out of the parent (a long-poll that
/// started before the request did); both are handled by clipping to the
/// parent and taking the union.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.dur_ns() - covered
}

/// One span with its resolved parent and self time.
pub struct Resolved<'a> {
    pub span: &'a Span,
    pub parent: Option<&'static str>,
    pub self_ns: u64,
}

fn candidates(name: &str) -> &'static [&'static str] {
    PARENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, p)| *p)
        .unwrap_or(&[])
}

/// Resolve every span's parent within its trace and compute self times.
pub fn resolve(spans: &[Span]) -> Vec<Resolved<'_>> {
    let mut by_trace: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.trace_id != 0 {
            by_trace.entry(s.trace_id).or_default().push(i);
        }
    }
    let mut parent: Vec<Option<&'static str>> = vec![None; spans.len()];
    for members in by_trace.values() {
        for &i in members {
            parent[i] = candidates(spans[i].name)
                .iter()
                .copied()
                .find(|p| members.iter().any(|&j| spans[j].name == *p));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let children: Vec<&Span> = by_trace
                .get(&span.trace_id)
                .map(|m| {
                    m.iter()
                        .filter(|&&j| j != i && parent[j] == Some(span.name))
                        .map(|&j| &spans[j])
                        .collect()
                })
                .unwrap_or_default();
            Resolved {
                span,
                parent: parent[i],
                self_ns: self_time_ns(span, &children),
            }
        })
        .collect()
}

/// Per-name medians over one traced phase.
pub struct Summary {
    /// name → (count, median duration µs, median self time µs)
    by_name: HashMap<&'static str, (usize, f64, f64)>,
    /// Median share of a root span its descendants cover, percent.
    pub covered_pct: f64,
}

impl Summary {
    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map(|e| e.0).unwrap_or(0)
    }

    pub fn dur_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map(|e| e.1).unwrap_or(0.0)
    }

    pub fn self_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map(|e| e.2).unwrap_or(0.0)
    }

    /// Names seen, sorted, for the human report.
    pub fn names(&self) -> Vec<&'static str> {
        let mut n: Vec<_> = self.by_name.keys().copied().collect();
        n.sort_unstable();
        n
    }
}

pub fn summarize(spans: &[Span], root: &str) -> Summary {
    let resolved = resolve(spans);
    let mut durs: HashMap<&'static str, (Vec<f64>, Vec<f64>)> = HashMap::new();
    for r in &resolved {
        let e = durs.entry(r.span.name).or_default();
        e.0.push(r.span.dur_ns() as f64 / 1e3);
        e.1.push(r.self_ns as f64 / 1e3);
    }
    // Coverage: everything in a root's trace is its descendant.
    let mut by_trace: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.trace_id != 0 && s.name != root) {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let shares: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == root && s.dur_ns() > 0)
        .map(|r| {
            let kids = by_trace.get(&r.trace_id).cloned().unwrap_or_default();
            100.0 * (1.0 - self_time_ns(r, &kids) as f64 / r.dur_ns() as f64)
        })
        .collect();
    Summary {
        by_name: durs
            .into_iter()
            .map(|(n, (d, s))| (n, (d.len(), median(&d), median(&s))))
            .collect(),
        covered_pct: median(&shares),
    }
}

/// Write spans as JSON lines: `{name, trace_id, parent, start_ns, end_ns}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in resolve(spans) {
        let parent = match r.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".into(),
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"trace_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            r.span.name, r.span.trace_id, r.span.start_ns, r.span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, trace_id: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace_id,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let root = span(names::LB_HTTP_INVOKE, 1, 0, 1_000);
        let hop = span(names::LB_HOP, 1, 100, 900);
        let ctr = span(names::CONTAINERS_INVOKE, 1, 400, 500);
        assert_eq!(self_time_ns(&root, &[&hop]), 200);
        assert_eq!(self_time_ns(&hop, &[&ctr]), 700);
        assert_eq!(self_time_ns(&ctr, &[]), 100);
    }

    #[test]
    fn self_time_unions_overlapping_and_clips_protruding_children() {
        let root = span(names::LB_HTTP_INVOKE, 1, 1_000, 2_000);
        // A long-poll that began before the request, overlapping the exec.
        let pull = span(names::DISPATCH_HTTP_PULL, 1, 200, 1_400);
        let exec = span(names::DISPATCH_EXEC, 1, 1_300, 1_700);
        let done = span(names::DISPATCH_HTTP_COMPLETE, 1, 1_700, 2_300);
        // Covered: [1000,1400) ∪ [1300,1700) ∪ [1700,2000) = the whole span.
        assert_eq!(self_time_ns(&root, &[&pull, &exec, &done]), 0);
        assert_eq!(self_time_ns(&root, &[&pull, &exec]), 300);
        // A child entirely outside contributes nothing.
        let stray = span(names::DISPATCH_EXEC, 1, 5_000, 6_000);
        assert_eq!(self_time_ns(&root, &[&stray]), 1_000);
    }

    #[test]
    fn parents_resolve_to_the_nearest_layer_present_in_the_trace() {
        let spans = vec![
            span(names::LB_HTTP_INVOKE, 7, 0, 100),
            span(names::LB_HOP, 7, 10, 90),
            span(names::CONTAINERS_INVOKE, 7, 40, 50),
            // A worker-only trace: the container hangs off the sync invoke.
            span(names::CORE_SYNC_INVOKE, 8, 0, 100),
            span(names::CONTAINERS_INVOKE, 8, 40, 60),
            // Trace 0 never gets a parent.
            span(names::WAL_FSYNC, 0, 0, 5),
        ];
        let r = resolve(&spans);
        assert_eq!(r[0].parent, None);
        assert_eq!(r[1].parent, Some(names::LB_HTTP_INVOKE));
        assert_eq!(r[2].parent, Some(names::LB_HOP));
        assert_eq!(r[4].parent, Some(names::CORE_SYNC_INVOKE));
        assert_eq!(r[5].parent, None);
        assert_eq!(r[0].self_ns, 20);
        assert_eq!(r[1].self_ns, 70);
        assert_eq!(r[3].self_ns, 80);
        let s = summarize(&spans, names::LB_HTTP_INVOKE);
        assert_eq!(s.count(names::CONTAINERS_INVOKE), 2);
        assert_eq!(s.dur_us(names::LB_HOP), 0.08);
        assert_eq!(s.covered_pct, 80.0);
    }

    #[test]
    fn aliases_rewrite_trace_ids_on_take() {
        let rec = Recorder::new();
        rec.record(names::CONTAINERS_INVOKE, 0xABCD, 1, 2);
        rec.record(names::DISPATCH_EXEC, 5, 0, 3);
        rec.alias(0xABCD, 5);
        let spans = rec.take();
        assert!(spans.iter().all(|s| s.trace_id == 5));
        assert!(rec.take().is_empty());
    }
}
