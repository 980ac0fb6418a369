//! The conformance mutation battery: each case flips one event in a
//! known-good stream (or damages a framed WAL segment on disk) and the
//! checker — or the frame scanner — must report the injected violation
//! with the expected rule and its event context. A silent pass means the
//! checker has gone blind and the replay gate is vacuous.

use super::check;
use iluvatar_conformance::Checker;
use iluvatar_core::{wal, TelemetryEvent, TelemetryKind, WalRecord};
use std::collections::BTreeMap;

/// Rewrite per-source seqs to 1..n in stream order so mutations (which may
/// append cloned events) can mint fresh, non-colliding seqs.
fn normalize(events: &[TelemetryEvent]) -> Vec<TelemetryEvent> {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    events
        .iter()
        .map(|e| {
            let c = counters.entry(e.source.clone()).or_insert(0);
            *c += 1;
            let mut e = e.clone();
            e.seq = *c;
            e
        })
        .collect()
}

fn wal_op_of(e: &TelemetryEvent) -> Option<&str> {
    match &e.kind {
        TelemetryKind::Wal { op, .. } => Some(op.as_str()),
        _ => None,
    }
}

fn is_trace_stage(e: &TelemetryEvent, prefix: &str) -> bool {
    matches!(&e.kind, TelemetryKind::Trace { stage } if stage.starts_with(prefix))
}

/// A (completed ok=true, result_returned(true)) index pair for one trace.
fn completed_result_pair(events: &[TelemetryEvent]) -> Option<(usize, usize)> {
    for (i, e) in events.iter().enumerate() {
        if wal_op_of(e) == Some("completed")
            && matches!(&e.kind, TelemetryKind::Wal { ok: Some(true), .. })
        {
            let id = e.trace_id?;
            if let Some(j) = events.iter().enumerate().skip(i + 1).find_map(|(j, x)| {
                (x.trace_id == Some(id) && is_trace_stage(x, "result_returned(true)")).then_some(j)
            }) {
                return Some((i, j));
            }
        }
    }
    None
}

#[derive(Default)]
struct Battery {
    caught: u32,
    total: u32,
}

impl Battery {
    fn run(
        &mut self,
        name: &str,
        events: Vec<TelemetryEvent>,
        mk_checker: impl Fn() -> Checker,
        expected_rules: &[&str],
    ) {
        self.total += 1;
        let mut checker = mk_checker();
        for ev in &events {
            checker.ingest(ev);
        }
        let report = checker.finish();
        let hit = report
            .violations
            .iter()
            .find(|v| expected_rules.contains(&v.rule));
        match hit {
            Some(v) => {
                let ctx_ok = v.event.is_none() || !v.context.is_empty();
                if ctx_ok {
                    self.caught += 1;
                    eprintln!("  mutation {name}: caught [{}/{}]", v.model, v.rule);
                } else {
                    eprintln!(
                        "  mutation {name}: caught [{}] but with no event context",
                        v.rule
                    );
                }
            }
            None => {
                eprintln!(
                    "  mutation {name}: MISSED (wanted one of {expected_rules:?}, got {:?})",
                    report.violations.iter().map(|v| v.rule).collect::<Vec<_>>()
                );
            }
        }
    }
}

/// Run every case over the captured chaos (A) and fleet (C) streams:
/// `(caught, total)`.
pub(super) fn battery(chaos: &[TelemetryEvent], fleet: &[TelemetryEvent]) -> (u32, u32) {
    let a = normalize(chaos);
    let c = normalize(fleet);
    let a_checker = Checker::new;
    let c_checker = || Checker::new().seed_worker("w0");
    let mut b = Battery::default();

    // Sanity: the normalized, unmutated streams stay clean.
    check("mutation sanity-A", a_checker(), &a);
    check("mutation sanity-C", c_checker(), &c);

    let fresh_seq =
        |events: &[TelemetryEvent]| events.iter().map(|e| e.seq).max().unwrap_or(0) + 1_000;

    // M1: duplicate a completion record → double-complete.
    {
        let mut ev = a.clone();
        let i = ev
            .iter()
            .rposition(|e| wal_op_of(e) == Some("completed"))
            .expect("stream A has completions");
        let mut dup = ev[i].clone();
        dup.seq = fresh_seq(&ev);
        ev.push(dup);
        b.run("duplicate-completed", ev, a_checker, &["double-complete"]);
    }

    // M2: drop a durable enqueue that is later completed → the acceptance or
    // the completion becomes unjustified.
    {
        let mut ev = a.clone();
        let i = ev
            .iter()
            .position(|e| {
                wal_op_of(e) == Some("enqueued")
                    && ev
                        .iter()
                        .any(|x| x.trace_id == e.trace_id && wal_op_of(x) == Some("completed"))
            })
            .expect("stream A has a completed enqueue");
        ev.remove(i);
        b.run(
            "drop-enqueued",
            ev,
            a_checker,
            &[
                "accepted-not-durable",
                "dequeue-of-unknown",
                "complete-of-unknown",
            ],
        );
    }

    // M3: move a completion record after its caller-visible result →
    // result-before-durable.
    {
        let mut ev = a.clone();
        let (i, j) = completed_result_pair(&ev).expect("stream A has an ok completion");
        let moved = ev.remove(i);
        ev.insert(j, moved); // j shifted left by the removal: lands after it
        b.run(
            "completed-after-result",
            ev,
            a_checker,
            &["result-before-durable"],
        );
    }

    // M4: flip a completion's ok bit → exactly-once accounting breaks.
    {
        let mut ev = a.clone();
        let (i, _) = completed_result_pair(&ev).expect("stream A has an ok completion");
        if let TelemetryKind::Wal { ok, .. } = &mut ev[i].kind {
            *ok = Some(false);
        }
        b.run("flip-completed-ok", ev, a_checker, &["accounting-mismatch"]);
    }

    // M5: rewrite a half_open announcement as closed → illegal breaker edge
    // (Open → Closed skips the probe).
    {
        let mut ev = c.clone();
        let i = ev
            .iter()
            .position(
                |e| matches!(&e.kind, TelemetryKind::Breaker { state, .. } if state == "half_open"),
            )
            .expect("stream C has breaker half_open events");
        if let TelemetryKind::Breaker { state, .. } = &mut ev[i].kind {
            *state = "closed".to_string();
        }
        b.run(
            "breaker-skip-probe",
            ev,
            c_checker,
            &["breaker-illegal-transition"],
        );
    }

    // M6: erase the drain marker before a detach → the reaper "killed" a
    // worker that was never drained.
    {
        let mut ev = c.clone();
        let target = ev
            .iter()
            .find_map(|e| match &e.kind {
                TelemetryKind::Membership { target, change } if change == "detach" => {
                    Some(target.clone())
                }
                _ => None,
            })
            .expect("stream C has detaches");
        ev.retain(|e| {
            !matches!(&e.kind, TelemetryKind::Membership { target: t, change }
                if change == "draining" && *t == target)
        });
        b.run("drop-draining", ev, c_checker, &["drain-never-kill"]);
    }

    // M7: attach the same target twice → the slot CAS must refuse.
    {
        let mut ev = c.clone();
        let i = ev
            .iter()
            .position(|e| {
                matches!(&e.kind, TelemetryKind::Membership { change, .. } if change == "attach")
            })
            .expect("stream C has attaches");
        let mut dup = ev[i].clone();
        dup.seq = fresh_seq(&ev);
        ev.insert(i + 1, dup);
        b.run("duplicate-attach", ev, c_checker, &["slot-cas"]);
    }

    // M8: replay a served hit far past its fill's advertised TTL → the
    // cache model must call the serve stale.
    {
        let mut ev = a.clone();
        let key = ev
            .iter()
            .find_map(|e| match &e.kind {
                TelemetryKind::Cache { op, key, .. } if op == "hit" => Some(key.clone()),
                _ => None,
            })
            .expect("stream A has cache hits");
        let exp = ev
            .iter()
            .find_map(|e| match &e.kind {
                TelemetryKind::Cache {
                    op,
                    key: k,
                    expires_at_ms: Some(x),
                } if op == "fill" && *k == key => Some(*x),
                _ => None,
            })
            .expect("the hit key has a fill with an expiry");
        let i = ev
            .iter()
            .position(
                |e| matches!(&e.kind, TelemetryKind::Cache { op, key: k, .. } if op == "hit" && *k == key),
            )
            .expect("hit index");
        let mut stale = ev[i].clone();
        stale.seq = fresh_seq(&ev);
        stale.at_ms = exp + 60_000;
        ev.push(stale);
        b.run("stale-hit", ev, a_checker, &["cache-stale-hit"]);
    }

    // M9/M10: seeded *on-disk* corruption — a bit-flipped record and a
    // truncated segment. Here the catching layer is the frame scanner: it
    // must quarantine exactly the damaged frame (CRC mismatch / torn tail)
    // and the surviving records must still replay model-legal. A scanner
    // that swallows the damage, loses extra frames, or hands the model an
    // illegal stream fails the case.
    {
        let inv = |id: u64| wal::PendingInvocation {
            id,
            fqdn: "f-1".to_string(),
            tenant: Some("mut-a".to_string()),
            tenant_weight: 1.0,
            ..Default::default()
        };
        let done = |id: u64| WalRecord::Completed {
            id,
            ok: true,
            tenant: Some("mut-a".to_string()),
        };
        let records = vec![
            WalRecord::Enqueued { inv: inv(1) },
            WalRecord::Dequeued { id: 1 },
            done(1),
            WalRecord::Enqueued { inv: inv(2) },
            WalRecord::Dequeued { id: 2 },
            done(2),
            WalRecord::Enqueued { inv: inv(3) },
        ];
        let mut bytes = Vec::new();
        let mut offsets = Vec::new();
        for r in &records {
            offsets.push(bytes.len());
            bytes.extend_from_slice(&wal::encode_frame(r));
        }
        let total = records.len();
        let mut check_damage = |name: &str, damaged: &[u8], want_corrupt: u64, want_torn: u64| {
            b.total += 1;
            let scan = wal::scan_frames(damaged);
            let mut checker = Checker::new();
            for rec in wal::dedup_records(&scan.records) {
                checker.ingest_wal_record("wal-file", rec);
            }
            let report = checker.finish();
            let quarantined_one = scan.corrupt_frames == want_corrupt
                && scan.torn_tail == want_torn
                && scan.records.len() == total - 1;
            if quarantined_one && report.ok() {
                b.caught += 1;
                eprintln!("  mutation {name}: caught [wal/frame-quarantine]");
            } else {
                eprintln!(
                        "  mutation {name}: MISSED (corrupt={} torn={} survivors={}/{total} violations={})",
                        scan.corrupt_frames,
                        scan.torn_tail,
                        scan.records.len(),
                        report.violations.len()
                    );
            }
        };
        // M9: flip one payload bit in the middle completion → CRC mismatch.
        let mut flipped = bytes.clone();
        flipped[offsets[2] + 14] ^= 0x01;
        check_damage("bitflip-record", &flipped, 1, 0);
        // M10: cut the final frame short → torn tail.
        check_damage("truncate-segment", &bytes[..bytes.len() - 3], 0, 1);
    }

    // M11/M12: pull-dispatch lease stream mutations. The reference is a
    // clean lease lifecycle with one expiry-requeue cycle; each mutation
    // breaks one plane invariant and the DispatchModel must name it.
    {
        let lease =
            |seq: u64, at_ms: u64, op: &str, worker: &str, expires: Option<u64>| TelemetryEvent {
                seq,
                at_ms,
                source: "lb".to_string(),
                trace_id: Some(7),
                tenant: Some("mut-a".to_string()),
                kind: TelemetryKind::Lease {
                    op: op.to_string(),
                    worker: worker.to_string(),
                    expires_at_ms: expires,
                    class: Some("best_effort".to_string()),
                },
            };
        let clean = vec![
            lease(1, 0, "queued", "", None),
            lease(2, 10, "issued", "w0", Some(2_000)),
            lease(3, 2_010, "expired", "w0", None),
            lease(4, 2_010, "requeued", "", None),
            lease(5, 2_020, "issued", "w1", Some(4_020)),
            lease(6, 2_050, "completed", "w1", None),
        ];
        check(
            "mutation sanity-lease",
            Checker::new().with_require_terminal(false),
            &clean,
        );
        let mk = || Checker::new().with_require_terminal(false);
        // M11: issue the invocation a second time while w0's lease is
        // still live → lease exclusivity broken.
        let mut ev = clean.clone();
        ev.insert(2, lease(1_000, 20, "issued", "w2", Some(2_020)));
        b.run("double-lease", ev, mk, &["dispatch-double-lease"]);
        // M12: the plane expires the lease but loses the requeue — the
        // later re-issue grabs a task that is not in any queue.
        let mut ev = clean.clone();
        ev.remove(3);
        b.run("dropped-requeue", ev, mk, &["dispatch-lease-not-queued"]);
    }

    (b.caught, b.total)
}
