//! Per-invocation timeline and per-component latency (Table 1).
//!
//! §5: "we also use and provide Rust-function tracing ... to instrument the
//! passage of invocations through the control plane components". Each
//! invocation carries one `Timeline` of µs stamps, one per `Stage`, on
//! every route; each is one read of `Clock::now_us`, and the journal's
//! milestone times are the same stamps in ms. A Table-1 span is the
//! interval between two stamps: the three that end on the ingest thread
//! are recorded there as `accept` returns, the rest and the `/breakdown`
//! stages in one fold at completion. `sync_invoke` and `spawn_worker` do
//! not end on the invocation's path: the synchronous caller and the
//! executor record them from their own pair of reads. A rejected invocation
//! records nothing. The histograms are fixed arrays of mergeable
//! [`LogHistogram`]s under one lock — cheap enough to leave on (unlike the
//! paper's tracing) — that export and aggregate across workers without
//! shipping raw samples.

use crate::breakdown::{stages, StageBreakdown};
use iluvatar_sync::LogHistogram;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// A stamp point, in path order: the moment a stage of the invocation
/// ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Entered `submit`, before the cache consult; or replayed after a crash.
    Ingest,
    /// Its `Enqueued` record is durable, or needs none.
    Logged,
    /// Its executor took the run permit it pops under.
    Permit,
    /// Its runner took it: a pop, a hand-off, or its own caller.
    Dequeued,
    /// The pool's warm lookup returned.
    Locked,
    Acquired,
    Called,
    Answered,
    /// The agent's output was checked and taken.
    Downloaded,
    Released,
    Returned,
}

/// One invocation's stamps as µs after `Ingest`, plus one (0: not reached),
/// to move through the queue by value; a stage ~71 min after ingest reads as
/// that cap. A retry re-stamps the stages of its attempt.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Timeline {
    origin: u64,
    after: [u32; Stage::Returned as usize + 1],
    /// Whether any attempt paid a cold start.
    pub cold: bool,
}

impl Timeline {
    pub fn stamp(&mut self, stage: Stage, us: u64) {
        if stage == Stage::Ingest {
            self.origin = us;
        }
        let after = us.saturating_sub(self.origin).min(u32::MAX as u64 - 1);
        self.after[stage as usize] = after as u32 + 1;
    }

    pub fn get(&self, stage: Stage) -> Option<u64> {
        let after = self.after[stage as usize].checked_sub(1)?;
        Some(self.origin + after as u64)
    }
}

/// One Table-1 row, in invocation order; [`NAMES`] holds its wire name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    Invoke,
    SyncInvoke,
    EnqueueInvocation,
    AddItemToQ,
    SpawnWorker,
    Dequeue,
    AcquireContainer,
    TryLockContainer,
    PrepareInvoke,
    CallContainer,
    DownloadResult,
    ReturnContainer,
    ReturnResults,
}

/// Each span's name on `GET /spans` and `/metrics`, indexed by [`Span`].
pub const NAMES: [&str; 13] = [
    "invoke",
    "sync_invoke",
    "enqueue_invocation",
    "add_item_to_q",
    "spawn_worker",
    "dequeue",
    "acquire_container",
    "try_lock_container",
    "prepare_invoke",
    "call_container",
    "download_result",
    "return_container",
    "return_results",
];

/// Table 1 grouping: (group, spans).
pub const GROUPS: &[(&str, &[Span])] = &[
    (
        "Ingestion & Queuing",
        &[
            Span::Invoke,
            Span::SyncInvoke,
            Span::EnqueueInvocation,
            Span::AddItemToQ,
        ],
    ),
    (
        "Container Operations",
        &[
            Span::SpawnWorker,
            Span::Dequeue,
            Span::AcquireContainer,
            Span::TryLockContainer,
        ],
    ),
    (
        "Agent Communication",
        &[
            Span::PrepareInvoke,
            Span::CallContainer,
            Span::DownloadResult,
        ],
    ),
    ("Returning", &[Span::ReturnContainer, Span::ReturnResults]),
];

/// The spans folded at completion, each `to - from` of its stamps.
const FOLDED: [(Span, Stage, Stage); 8] = [
    (Span::Dequeue, Stage::Permit, Stage::Dequeued),
    (Span::AcquireContainer, Stage::Dequeued, Stage::Acquired),
    (Span::TryLockContainer, Stage::Dequeued, Stage::Locked),
    (Span::PrepareInvoke, Stage::Acquired, Stage::Called), // journal, ready the call
    (Span::CallContainer, Stage::Called, Stage::Answered),
    (Span::DownloadResult, Stage::Answered, Stage::Downloaded), // check, take output
    (Span::ReturnContainer, Stage::Downloaded, Stage::Released),
    (Span::ReturnResults, Stage::Released, Stage::Returned),
];

/// Each `/breakdown` stage's stamps, in [`stages::ALL`] order, read in whole
/// ms as the journal's timestamps are.
const STAGED: [(Stage, Stage); 6] = [
    (Stage::Ingest, Stage::Logged),
    (Stage::Logged, Stage::Dequeued),
    (Stage::Dequeued, Stage::Acquired),
    (Stage::Acquired, Stage::Called),
    (Stage::Called, Stage::Returned),
    (Stage::Ingest, Stage::Returned),
];

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

/// A worker's Table-1 span histograms (µs) and `/breakdown` stage
/// histograms (ms) with their cold/warm split, accumulated over its life.
#[derive(Default)]
pub struct Spans {
    books: Mutex<Books>,
}

#[derive(Default)]
struct Books {
    spans: [LogHistogram; NAMES.len()],
    stages: [LogHistogram; STAGED.len()],
    /// Completions that reached the agent call: warm, cold.
    warm_cold: [u64; 2],
}

impl Spans {
    /// Record samples under one lock; `None` records nothing.
    pub(crate) fn record(&self, samples: &[(Span, Option<u64>)]) {
        let mut books = self.books.lock();
        for &(span, us) in samples {
            if let Some(us) = us {
                books.spans[span as usize].record(us);
            }
        }
    }

    /// The completion fold: every span whose two stamps `t` holds, and —
    /// when it reached the agent call — one sample per stage.
    pub(crate) fn record_timeline(&self, t: &Timeline) {
        let mut books = self.books.lock();
        for (span, from, to) in FOLDED {
            if let (Some(from), Some(to)) = (t.get(from), t.get(to)) {
                books.spans[span as usize].record(to.saturating_sub(from));
            }
        }
        let ms =
            STAGED.map(|(from, to)| Some((t.get(to)? / 1000).saturating_sub(t.get(from)? / 1000)));
        if ms.iter().all(Option::is_some) {
            for (h, ms) in books.stages.iter_mut().zip(ms.into_iter().flatten()) {
                h.record(ms);
            }
            books.warm_cold[t.cold as usize] += 1;
        }
    }

    /// The `/breakdown` stages in path order, and the cold and warm counts.
    pub(crate) fn stage_report(&self) -> (Vec<StageBreakdown>, u64, u64) {
        let books = self.books.lock();
        let report = stages::ALL.iter().zip(books.stages.iter());
        let stages = report
            .map(|(stage, h)| StageBreakdown {
                stage: stage.to_string(),
                count: h.count(),
                hist_ms: h.clone(),
            })
            .collect();
        (stages, books.warm_cold[1], books.warm_cold[0])
    }

    /// Exportable distributions for every span with at least one sample,
    /// sorted by name. This is the `GET /spans` payload.
    pub fn export(&self) -> Vec<SpanExport> {
        let books = self.books.lock();
        let mut out: Vec<SpanExport> = NAMES
            .iter()
            .zip(books.spans.iter())
            .filter(|(_, h)| !h.is_empty())
            .map(|(name, h)| SpanExport {
                name: name.to_string(),
                count: h.count(),
                total_us: h.sum(),
                hist: h.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iluvatar_sync::{Clock, ManualClock};

    fn one(spans: &Spans, span: Span, us: u64) {
        spans.record(&[(span, Some(us))]);
    }

    /// The named span's export, if it has samples.
    fn get(spans: &Spans, name: &str) -> Option<SpanExport> {
        spans.export().into_iter().find(|e| e.name == name)
    }

    const PATH: [Stage; 11] = [
        Stage::Ingest,
        Stage::Logged,
        Stage::Permit,
        Stage::Dequeued,
        Stage::Locked,
        Stage::Acquired,
        Stage::Called,
        Stage::Answered,
        Stage::Downloaded,
        Stage::Released,
        Stage::Returned,
    ];

    /// Walk one invocation down the path on a manual clock, stepping it by
    /// `steps[i]` ms before stamping stage `i + 1`, skipping `skip`.
    fn walk(clock: &ManualClock, steps: [u64; 10], cold: bool, skip: &[Stage]) -> Timeline {
        let mut t = Timeline {
            cold,
            ..Timeline::default()
        };
        t.stamp(PATH[0], clock.now_us());
        for (stage, ms) in PATH[1..].iter().zip(steps) {
            clock.advance(ms);
            if !skip.contains(stage) {
                t.stamp(*stage, clock.now_us());
            }
        }
        t
    }

    #[test]
    fn unset_stages_read_none() {
        let mut t = Timeline::default();
        assert_eq!(t.get(Stage::Ingest), None);
        t.stamp(Stage::Ingest, 0);
        t.stamp(Stage::Returned, 2_500);
        assert_eq!(t.get(Stage::Ingest), Some(0), "a stamp at 0 is still set");
        assert_eq!(t.get(Stage::Returned), Some(2_500));
        assert_eq!(t.get(Stage::Called), None);
    }

    #[test]
    fn stamps_keep_their_absolute_time() {
        let mut t = Timeline::default();
        t.stamp(Stage::Ingest, 5_000_000_000);
        t.stamp(Stage::Dequeued, 5_000_000_250);
        assert_eq!(t.get(Stage::Dequeued), Some(5_000_000_250));
        // Hours after ingest a stage reads as the cap, not as a wrap.
        t.stamp(Stage::Returned, 5_000_000_000 + 10 * 3_600_000_000);
        assert_eq!(
            t.get(Stage::Returned),
            Some(5_000_000_000 + u32::MAX as u64 - 1)
        );
    }

    #[test]
    fn stage_and_span_durations_come_from_the_stamps() {
        let clock = ManualClock::starting_at(100);
        let spans = Spans::default();
        // logged, permit, dequeued, locked, acquired, called, answered,
        // downloaded, released, returned
        let steps = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        spans.record_timeline(&walk(&clock, steps, true, &[]));
        let us = |name: &str| {
            let e = get(&spans, name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(e.count, 1, "{name}");
            e.total_us
        };
        assert_eq!(us("dequeue"), 3_000);
        assert_eq!(us("try_lock_container"), 4_000);
        assert_eq!(us("acquire_container"), 9_000);
        assert_eq!(us("prepare_invoke"), 6_000);
        assert_eq!(us("call_container"), 7_000);
        assert_eq!(us("download_result"), 8_000);
        assert_eq!(us("return_container"), 9_000);
        assert_eq!(us("return_results"), 10_000);
        // The ingest thread's spans and the two recorded by the thread that
        // ends them are not read off the record at completion.
        assert_eq!(spans.export().len(), FOLDED.len());

        let (stages, cold, warm) = spans.stage_report();
        assert_eq!((cold, warm), (1, 0));
        let ms: Vec<f64> = stages.iter().map(|s| s.hist_ms.percentile(0.5)).collect();
        // ingest, queue, acquire, prepare, agent_return, e2e
        assert_eq!(ms, [1.0, 5.0, 9.0, 6.0, 34.0, 55.0]);
        assert!(stages.iter().all(|s| s.count == 1));

        // A caller-run has no run permit to pop under: no `dequeue`.
        spans.record_timeline(&walk(&clock, [0; 10], false, &[Stage::Permit]));
        assert_eq!(get(&spans, "dequeue").unwrap().count, 1);
        assert_eq!(get(&spans, "call_container").unwrap().count, 2);
        assert_eq!(spans.stage_report().2, 1, "a warm completion");

        // One that never reached the agent call covers no stage.
        spans.record_timeline(&walk(&clock, [0; 10], false, &[Stage::Called]));
        let (stages, cold, warm) = spans.stage_report();
        assert_eq!((cold, warm), (1, 1));
        assert!(stages.iter().all(|s| s.count == 2));
    }

    #[test]
    fn a_stage_reads_whole_milliseconds_as_the_journal_does() {
        // 999 µs and 1 001 µs are 2 µs apart, but the journal's ms
        // timestamps 0 and 1 read one ms; so does the `ingest` stage.
        let spans = Spans::default();
        let mut t = Timeline::default();
        for (stage, us) in PATH.iter().zip([999, 1_001, 1_001, 1_001, 1_001]) {
            t.stamp(*stage, us);
        }
        for stage in &PATH[5..] {
            t.stamp(*stage, 1_001);
        }
        spans.record_timeline(&t);
        let (stages, _, _) = spans.stage_report();
        assert_eq!(stages[0].stage, stages::INGEST);
        assert_eq!(stages[0].hist_ms.max(), 1);
    }

    #[test]
    fn span_names_follow_the_enum() {
        assert_eq!(NAMES[Span::Invoke as usize], "invoke");
        assert_eq!(NAMES[Span::SpawnWorker as usize], "spawn_worker");
        assert_eq!(NAMES[Span::ReturnResults as usize], "return_results");
    }

    #[test]
    fn record_accumulates_and_skips_none() {
        let spans = Spans::default();
        spans.record(&[(Span::Dequeue, Some(100)), (Span::Invoke, None)]);
        one(&spans, Span::Dequeue, 300);
        let e = get(&spans, "dequeue").unwrap();
        assert_eq!(e.count, 2);
        assert_eq!(e.total_us, 400);
        assert!(get(&spans, "invoke").is_none());
    }

    #[test]
    fn export_lists_active_spans_sorted() {
        let spans = Spans::default();
        one(&spans, Span::ReturnResults, 10);
        one(&spans, Span::AcquireContainer, 10);
        let all = spans.export();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].name, "acquire_container");
    }

    #[test]
    fn groups_cover_all_table_rows() {
        let total: usize = GROUPS.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, 13, "Table 1 has 13 component rows");
    }

    #[test]
    fn concurrent_recording() {
        let spans = Spans::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        one(&spans, Span::Invoke, 7);
                    }
                });
            }
        });
        assert_eq!(get(&spans, "invoke").unwrap().count, 8000);
    }

    #[test]
    fn export_carries_histogram() {
        let spans = Spans::default();
        for us in [100u64, 200, 300, 400, 10_000] {
            one(&spans, Span::CallContainer, us);
        }
        let export = spans.export();
        assert_eq!(export.len(), 1);
        let e = &export[0];
        assert_eq!(e.name, "call_container");
        assert_eq!(e.count, 5);
        assert_eq!(e.hist.count(), 5);
        assert_eq!(e.total_us, 11_000);
        let p99 = e.hist.percentile(0.99) / 1000.0;
        assert!(
            (p99 - 10.0).abs() / 10.0 < 0.02,
            "p99 {} should be ~10ms",
            p99
        );
    }

    #[test]
    fn merged_exports_equal_union() {
        let a = Spans::default();
        let b = Spans::default();
        let union = Spans::default();
        for us in [10u64, 20, 30] {
            one(&a, Span::Dequeue, us);
            one(&union, Span::Dequeue, us);
        }
        for us in [40u64, 50] {
            one(&b, Span::Dequeue, us);
            one(&union, Span::Dequeue, us);
        }
        one(&b, Span::Invoke, 7);
        one(&union, Span::Invoke, 7);
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
