//! Figures 4 and 5 (a–c) — one sweep over trace sample × keep-alive policy
//! × cache size, read two ways.
//!
//! Figure 4 is the increase in execution time due to cold starts. §6.2: for
//! the Representative trace, GD should cut the overhead >3× vs TTL across
//! 15–80 GB and reach ~TTL-at-50GB quality with a ~3× smaller cache; LRU
//! should win on Rare and Random, where recency dominates.
//!
//! Figure 5 is the fraction of cold starts (the miss-ratio-curve view).
//! §6.2 notes the cold-start *ratio* differences diverge from the
//! cold-start *overhead* differences because miss-ratio curves ignore the
//! per-function miss cost that Greedy-Dual optimizes.

use super::base_population;
use crate::print_table;
use iluvatar_core::config::KeepalivePolicyKind;
use iluvatar_sim::{KeepaliveSim, SimConfig, SimOutcome};
use iluvatar_trace::{SampleKind, TraceSample};
use std::io::{self, Write};

/// The cache-size x-axis, GB.
const SIZES_GB_QUICK: &[f64] = &[5.0, 15.0, 30.0, 50.0, 80.0];
const SIZES_GB_FULL: &[f64] = &[5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0];

/// One table per trace sample, titled `<figure> (<sample>): <metric> vs
/// cache size`: a row per cache size, a column per policy, each cell
/// `cell(outcome)`.
fn sweep(
    out: &mut dyn Write,
    full: bool,
    figure: &str,
    metric: &str,
    cell: fn(&SimOutcome) -> String,
) -> io::Result<()> {
    let base = base_population(full, 6);
    let policies = KeepalivePolicyKind::all();
    let header: Vec<&str> = std::iter::once("cache")
        .chain(policies.iter().map(|p| p.name()))
        .collect();

    for kind in SampleKind::all() {
        let trace = TraceSample::draw(kind, &base, 7).trace;
        eprintln!(
            "{}: {} functions, {} invocations",
            kind.name(),
            trace.profiles.len(),
            trace.events.len()
        );
        let mut rows = Vec::new();
        for &gb in if full { SIZES_GB_FULL } else { SIZES_GB_QUICK } {
            let mut row = vec![format!("{gb:.0} GB")];
            for &p in &policies {
                let cfg = SimConfig::new(p, (gb * 1024.0) as u64);
                let outcome = KeepaliveSim::run(trace.profiles.clone(), &trace.events, cfg);
                row.push(cell(&outcome));
            }
            rows.push(row);
        }
        print_table(
            out,
            &format!("{figure} ({}): {metric} vs cache size", kind.name()),
            &header,
            &rows,
        )?;
    }
    Ok(())
}

pub fn fig4(out: &mut dyn Write, full: bool) -> io::Result<bool> {
    sweep(out, full, "Figure 4", "increase in execution time", |o| {
        format!("{:.2}%", o.exec_increase_pct())
    })?;
    writeln!(out, "\nExpected shape: GD lowest on Representative (≥3× below TTL mid-range); LRU best on Rare/Random; HIST between TTL and caching policies on Rare.")?;
    Ok(true)
}

pub fn fig5(out: &mut dyn Write, full: bool) -> io::Result<bool> {
    sweep(out, full, "Figure 5", "cold-start fraction", |o| {
        format!("{:.3}", o.cold_ratio())
    })?;
    writeln!(out, "\nExpected shape: all caching policies monotonically improve with cache size; TTL flattens early (non-work-conserving); ranking differences vs Figure 4 reflect miss-cost weighting.")?;
    Ok(true)
}
