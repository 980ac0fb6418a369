//! Per-invocation critical-path breakdown.
//!
//! §5's "single consistent view of the system performance", turned into a
//! queryable report: where did each invocation's time go on the path
//! ingest → queue → container-acquire → agent → return? The report reads
//! the one timeline of µs stamps each invocation carries
//! ([`crate::spans`]): the *stage* histograms (queue wait, container
//! acquisition, agent round-trip) and the cold/warm split are folded from
//! its stamps at completion, and the paper's Table 1 *groups* ("Ingestion
//! & Queuing", "Container Operations", "Agent Communication", "Returning")
//! fold the span histograms read off the same stamps. Both accumulate over
//! the worker's lifetime; neither is a window over recently journaled
//! traces.
//!
//! Everything is carried in mergeable [`LogHistogram`]s, so the load
//! balancer can fetch each worker's `GET /breakdown` and fold them into
//! one cluster-wide report with exact (lossless) bucket merges — the same
//! trick the span scrape path uses. The `abl_overhead_budget` gate
//! computes its p50/p99 per-group overhead from this report.

use crate::spans::{SpanExport, GROUPS, NAMES};
use iluvatar_sync::LogHistogram;
use serde::{Deserialize, Serialize};

/// The critical-path stages, in path order. Each is the interval between
/// two timeline stamps, read in whole ms as the journal's timestamps are.
pub mod stages {
    /// Ingest until the `Enqueued` record is durable (or needs none) —
    /// admission control and the durable accept.
    pub const INGEST: &str = "ingest";
    /// Queue residency: durable until the invocation's runner took it. On
    /// a bypass, the wait of a hand-off for its executor.
    pub const QUEUE: &str = "queue";
    /// Dequeue until a container was in hand (cold creates included).
    pub const ACQUIRE: &str = "acquire";
    /// Container in hand until the agent call went out.
    pub const PREPARE: &str = "prepare";
    /// Agent call until the result was delivered back to the caller.
    pub const AGENT_RETURN: &str = "agent_return";
    /// Ingest until result delivery — the whole critical path.
    pub const E2E: &str = "e2e";

    pub const ALL: &[&str] = &[INGEST, QUEUE, ACQUIRE, PREPARE, AGENT_RETURN, E2E];
}

/// One stage's latency distribution (ms).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageBreakdown {
    pub stage: String,
    pub count: u64,
    /// Distribution of stage durations, milliseconds.
    pub hist_ms: LogHistogram,
}

/// One Table-1 group's latency distribution (µs, from spans).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupBreakdown {
    pub group: String,
    pub count: u64,
    /// Distribution of per-component durations, microseconds.
    pub hist_us: LogHistogram,
}

/// Per-tenant completion counts riding along the breakdown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantBreakdown {
    pub tenant: String,
    pub completed: u64,
}

/// Wire form of `GET /breakdown` — per-worker, or cluster-merged by the
/// load balancer. The stages are accumulated at completion from each
/// invocation's timeline, as the spans are, over the worker's lifetime.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakdownReport {
    /// Emitting worker name, or `cluster` for a merged report.
    pub source: String,
    /// Completed invocations the stage histograms cover: every completion
    /// that reached the agent call, since the worker started (not a window
    /// of recent traces).
    pub invocations: u64,
    pub cold: u64,
    pub warm: u64,
    /// Critical-path stage distributions (ms), in path order.
    pub stages: Vec<StageBreakdown>,
    /// Table-1 group distributions (µs), in table order.
    pub groups: Vec<GroupBreakdown>,
    /// Per-tenant completion counts, sorted by tenant.
    #[serde(default)]
    pub tenants: Vec<TenantBreakdown>,
}

impl BreakdownReport {
    /// Stage distribution by name, if present.
    pub fn stage(&self, name: &str) -> Option<&StageBreakdown> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Group distribution by name, if present.
    pub fn group(&self, name: &str) -> Option<&GroupBreakdown> {
        self.groups.iter().find(|g| g.group == name)
    }

    /// Merge many per-worker reports into one cluster view. Histogram
    /// merges are lossless; counts sum; tenants union by label.
    pub fn merge(reports: &[BreakdownReport]) -> BreakdownReport {
        let mut out = BreakdownReport {
            source: "cluster".into(),
            invocations: 0,
            cold: 0,
            warm: 0,
            stages: Vec::new(),
            groups: Vec::new(),
            tenants: Vec::new(),
        };
        for r in reports {
            out.invocations += r.invocations;
            out.cold += r.cold;
            out.warm += r.warm;
            for s in &r.stages {
                match out.stages.iter_mut().find(|m| m.stage == s.stage) {
                    Some(m) => {
                        m.count += s.count;
                        m.hist_ms.merge(&s.hist_ms);
                    }
                    None => out.stages.push(s.clone()),
                }
            }
            for g in &r.groups {
                match out.groups.iter_mut().find(|m| m.group == g.group) {
                    Some(m) => {
                        m.count += g.count;
                        m.hist_us.merge(&g.hist_us);
                    }
                    None => out.groups.push(g.clone()),
                }
            }
            for t in &r.tenants {
                match out.tenants.iter_mut().find(|m| m.tenant == t.tenant) {
                    Some(m) => m.completed += t.completed,
                    None => out.tenants.push(t.clone()),
                }
            }
        }
        out.tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }
}

/// Fold span exports into the paper's Table-1 groups: each group's
/// histogram is the lossless union of its member spans' histograms.
pub fn groups_from_spans(exports: &[SpanExport]) -> Vec<GroupBreakdown> {
    GROUPS
        .iter()
        .map(|(group, members)| {
            let mut hist_us = LogHistogram::new();
            let mut count = 0u64;
            let member = |name: &str| members.iter().any(|&m| NAMES[m as usize] == name);
            for e in exports.iter().filter(|e| member(&e.name)) {
                hist_us.merge(&e.hist);
                count += e.count;
            }
            GroupBreakdown {
                group: group.to_string(),
                count,
                hist_us,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn groups_fold_member_spans_losslessly() {
        let mk = |name: &str, values: &[u64]| {
            let mut hist = LogHistogram::new();
            let mut total = 0u64;
            for &v in values {
                hist.record(v);
                total += v;
            }
            SpanExport {
                name: name.into(),
                count: values.len() as u64,
                total_us: total,
                hist,
            }
        };
        let exports = vec![
            mk("invoke", &[10, 20]),
            mk("enqueue_invocation", &[30]),
            mk("call_container", &[1000, 2000]),
        ];
        let groups = groups_from_spans(&exports);
        assert_eq!(groups.len(), GROUPS.len());
        let iq = &groups[0];
        assert_eq!(iq.group, "Ingestion & Queuing");
        assert_eq!(iq.count, 3);
        assert_eq!(iq.hist_us.count(), 3);
        let agent = groups
            .iter()
            .find(|g| g.group == "Agent Communication")
            .unwrap();
        assert_eq!(agent.count, 2);
        // Groups with no member samples render empty, not absent.
        let ret = groups.iter().find(|g| g.group == "Returning").unwrap();
        assert_eq!(ret.count, 0);
    }

    #[test]
    fn merge_is_lossless_and_serde_roundtrips() {
        let report = |source: &str, e2e_ms: &[u64], cold: u64| {
            let mut hist_ms = LogHistogram::new();
            e2e_ms.iter().for_each(|&ms| hist_ms.record(ms));
            let n = e2e_ms.len() as u64;
            BreakdownReport {
                source: source.into(),
                invocations: n,
                cold,
                warm: n - cold,
                stages: vec![StageBreakdown {
                    stage: stages::E2E.into(),
                    count: n,
                    hist_ms,
                }],
                groups: groups_from_spans(&[]),
                tenants: vec![TenantBreakdown {
                    tenant: "t0".into(),
                    completed: n,
                }],
            }
        };
        let merged = BreakdownReport::merge(&[report("w0", &[10], 1), report("w1", &[10, 30], 0)]);
        assert_eq!(merged.source, "cluster");
        assert_eq!(merged.invocations, 3);
        assert_eq!((merged.cold, merged.warm), (1, 2));
        let e2e = merged.stage(stages::E2E).unwrap();
        assert_eq!(e2e.count, 3);
        assert_eq!(e2e.hist_ms.count(), 3);
        assert_eq!(e2e.hist_ms.percentile(0.5), 10.0);
        assert_eq!(merged.tenants[0].completed, 3);
        let json = serde_json::to_string(&merged).unwrap();
        let back: BreakdownReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.invocations, 3);
        assert_eq!(
            back.stage(stages::E2E).unwrap().hist_ms.percentile(0.5),
            e2e.hist_ms.percentile(0.5)
        );
    }
}
