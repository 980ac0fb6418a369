//! Per-component latency tracking.
//!
//! §5: "we also use and provide Rust-function tracing for fine-grained
//! performance logging and analysis ... to instrument the passage of
//! invocations through the control plane components". The worker's hot path
//! records a span per component; aggregating them regenerates Table 1's
//! latency breakdown.
//!
//! Span recording is one short lock-protected histogram update on a
//! pre-registered slot — cheap enough to leave on (unlike the paper's full
//! tracing, which they disable by default for overhead reasons). Each span
//! is one mergeable [`LogHistogram`]: count, mean and percentiles all read
//! from it, and it exports over the wire and aggregates across workers
//! without shipping raw samples.

use iluvatar_sync::{LogHistogram, ShardedMap};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// The hot-path span names, in invocation order (Table 1 rows).
pub mod names {
    pub const INVOKE: &str = "invoke";
    pub const SYNC_INVOKE: &str = "sync_invoke";
    pub const ENQUEUE_INVOCATION: &str = "enqueue_invocation";
    pub const ADD_ITEM_TO_Q: &str = "add_item_to_q";
    pub const SPAWN_WORKER: &str = "spawn_worker";
    pub const DEQUEUE: &str = "dequeue";
    pub const ACQUIRE_CONTAINER: &str = "acquire_container";
    pub const TRY_LOCK_CONTAINER: &str = "try_lock_container";
    pub const PREPARE_INVOKE: &str = "prepare_invoke";
    pub const CALL_CONTAINER: &str = "call_container";
    pub const DOWNLOAD_RESULT: &str = "download_result";
    pub const RETURN_CONTAINER: &str = "return_container";
    pub const RETURN_RESULTS: &str = "return_results";

    /// Table 1 grouping: (group, spans).
    pub const GROUPS: &[(&str, &[&str])] = &[
        (
            "Ingestion & Queuing",
            &[INVOKE, SYNC_INVOKE, ENQUEUE_INVOCATION, ADD_ITEM_TO_Q],
        ),
        (
            "Container Operations",
            &[SPAWN_WORKER, DEQUEUE, ACQUIRE_CONTAINER, TRY_LOCK_CONTAINER],
        ),
        (
            "Agent Communication",
            &[PREPARE_INVOKE, CALL_CONTAINER, DOWNLOAD_RESULT],
        ),
        ("Returning", &[RETURN_CONTAINER, RETURN_RESULTS]),
    ];
}

#[derive(Default)]
struct SpanStats {
    hist: Mutex<LogHistogram>,
}

impl SpanStats {
    /// The single recording path: every way a sample enters a span —
    /// guard drop or external measurement — funnels through here.
    fn record(&self, us: u64) {
        self.hist.lock().record(us);
    }

    /// `None` until the first sample.
    fn summary(&self, name: &str) -> Option<SpanSummary> {
        let h = self.hist.lock();
        (!h.is_empty()).then(|| SpanSummary {
            name: name.to_string(),
            count: h.count(),
            mean_ms: h.mean() / 1000.0,
            p99_ms: h.percentile(0.99) / 1000.0,
        })
    }
}

/// Aggregated view of one span.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    pub name: String,
    pub count: u64,
    /// Mean duration, ms.
    pub mean_ms: f64,
    /// p99, ms (within the histogram's relative error).
    pub p99_ms: f64,
}

/// Wire form of one span's full distribution: what a load balancer scrapes
/// from `GET /spans` and merges into its cluster view.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanExport {
    pub name: String,
    pub count: u64,
    pub total_us: u64,
    /// Mergeable log-linear histogram of durations, µs.
    pub hist: LogHistogram,
}

impl SpanExport {
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64 / 1000.0
        }
    }

    /// The `q`-percentile in milliseconds, from the histogram.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        self.hist.percentile(q) / 1000.0
    }
}

/// Merge span exports from many workers by span name (cluster aggregation).
pub fn merge_span_exports(sets: &[Vec<SpanExport>]) -> Vec<SpanExport> {
    let mut merged: Vec<SpanExport> = Vec::new();
    for set in sets {
        for e in set {
            match merged.iter_mut().find(|m| m.name == e.name) {
                Some(m) => {
                    m.count += e.count;
                    m.total_us = m.total_us.saturating_add(e.total_us);
                    m.hist.merge(&e.hist);
                }
                None => merged.push(e.clone()),
            }
        }
    }
    merged.sort_by(|a, b| a.name.cmp(&b.name));
    merged
}

/// Registry of named spans.
#[derive(Clone)]
pub struct Spans {
    stats: Arc<ShardedMap<&'static str, Arc<SpanStats>>>,
}

/// RAII timer: records the elapsed time into its span on drop.
pub struct SpanGuard {
    stats: Arc<SpanStats>,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.stats.record(self.start.elapsed().as_micros() as u64);
    }
}

impl Spans {
    pub fn new() -> Self {
        Self {
            stats: Arc::new(ShardedMap::new()),
        }
    }

    fn slot(&self, name: &'static str) -> Arc<SpanStats> {
        if let Some(s) = self.stats.get(name) {
            return s;
        }
        self.stats
            .update_or_insert(name, Arc::<SpanStats>::default, |s| Arc::clone(s))
    }

    /// Start timing `name`; the span records when the guard drops.
    pub fn time(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            stats: self.slot(name),
            start: Instant::now(),
        }
    }

    /// Record an externally measured duration (µs).
    pub fn record_us(&self, name: &'static str, us: u64) {
        self.slot(name).record(us);
    }

    pub fn summary(&self, name: &'static str) -> Option<SpanSummary> {
        self.stats.get(&name)?.summary(name)
    }

    /// All spans with at least one sample.
    pub fn all(&self) -> Vec<SpanSummary> {
        let mut out = Vec::new();
        self.stats.for_each(|name, s| out.extend(s.summary(name)));
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Exportable distributions for every span with at least one sample,
    /// sorted by name. This is the `GET /spans` payload.
    pub fn export(&self) -> Vec<SpanExport> {
        let mut out = Vec::new();
        self.stats.for_each(|name, s| {
            let hist = s.hist.lock();
            if !hist.is_empty() {
                out.push(SpanExport {
                    name: name.to_string(),
                    count: hist.count(),
                    total_us: hist.sum(),
                    hist: hist.clone(),
                });
            }
        });
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn guard_records_on_drop() {
        let spans = Spans::new();
        {
            let _g = spans.time(names::CALL_CONTAINER);
            std::thread::sleep(Duration::from_millis(5));
        }
        let s = spans.summary(names::CALL_CONTAINER).unwrap();
        assert_eq!(s.count, 1);
        assert!(s.mean_ms >= 4.0, "mean {} too small", s.mean_ms);
    }

    #[test]
    fn record_us_accumulates() {
        let spans = Spans::new();
        spans.record_us(names::DEQUEUE, 100);
        spans.record_us(names::DEQUEUE, 300);
        let s = spans.summary(names::DEQUEUE).unwrap();
        assert_eq!(s.count, 2);
        assert!((s.mean_ms - 0.2).abs() < 1e-9);
    }

    #[test]
    fn unknown_span_is_none() {
        let spans = Spans::new();
        assert!(spans.summary(names::INVOKE).is_none());
    }

    #[test]
    fn all_lists_active_spans_sorted() {
        let spans = Spans::new();
        spans.record_us(names::RETURN_RESULTS, 10);
        spans.record_us(names::ACQUIRE_CONTAINER, 10);
        let all = spans.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].name, names::ACQUIRE_CONTAINER);
    }

    #[test]
    fn groups_cover_all_table_rows() {
        let total: usize = names::GROUPS.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, 13, "Table 1 has 13 component rows");
    }

    #[test]
    fn concurrent_recording() {
        let spans = Spans::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let spans = spans.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        spans.record_us(names::INVOKE, 7);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(spans.summary(names::INVOKE).unwrap().count, 8000);
    }

    #[test]
    fn export_carries_histogram() {
        let spans = Spans::new();
        for us in [100u64, 200, 300, 400, 10_000] {
            spans.record_us(names::CALL_CONTAINER, us);
        }
        let export = spans.export();
        assert_eq!(export.len(), 1);
        let e = &export[0];
        assert_eq!(e.name, names::CALL_CONTAINER);
        assert_eq!(e.count, 5);
        assert_eq!(e.hist.count(), 5);
        assert!((e.mean_ms() - 2.2).abs() < 1e-9, "mean {}", e.mean_ms());
        let p99 = e.percentile_ms(0.99);
        assert!(
            (p99 - 10.0).abs() / 10.0 < 0.02,
            "p99 {} should be ~10ms",
            p99
        );
    }

    #[test]
    fn merged_exports_equal_union() {
        let a = Spans::new();
        let b = Spans::new();
        let union = Spans::new();
        for us in [10u64, 20, 30] {
            a.record_us(names::DEQUEUE, us);
            union.record_us(names::DEQUEUE, us);
        }
        for us in [40u64, 50] {
            b.record_us(names::DEQUEUE, us);
            union.record_us(names::DEQUEUE, us);
        }
        b.record_us(names::INVOKE, 7);
        union.record_us(names::INVOKE, 7);
        let merged = merge_span_exports(&[a.export(), b.export()]);
        let expect = union.export();
        assert_eq!(merged.len(), expect.len());
        for (m, e) in merged.iter().zip(expect.iter()) {
            assert_eq!(m.name, e.name);
            assert_eq!(m.count, e.count);
            assert_eq!(m.total_us, e.total_us);
            assert_eq!(m.hist, e.hist);
        }
    }
}
