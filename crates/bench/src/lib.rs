//! The experiment harness: every table, figure and ablation is one entry
//! of [`figures::FIGURES`], and [`cli`] is the `bench` command line over
//! such a table. The helpers here cover output formatting and the litmus
//! workload builders.

pub mod figures;

use figures::Figure;
use iluvatar_trace::azure::{FunctionProfile, TraceEvent};
use iluvatar_trace::functionbench::FbApp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write};

/// `bench --list | --figure <name> [--full]` over `table`; returns the
/// process exit code. The figure's table goes to `out`; usage errors, a
/// failed gate and write errors are reported on `err` with a non-zero code.
pub fn cli(
    table: &[(&str, Figure)],
    argv: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> u8 {
    let (mut list, mut full, mut name) = (false, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--list" => list = true,
            "--full" => full = true,
            "--figure" => name = it.next(),
            other => return usage(table, err, &format!("unknown argument {other:?}")),
        }
    }
    if list {
        let listed = table.iter().try_for_each(|(n, _)| writeln!(out, "{n}"));
        return u8::from(listed.is_err());
    }
    let Some(name) = name else {
        return usage(table, err, "--figure <name> or --list is required");
    };
    let Some((_, run)) = table.iter().find(|(n, _)| n == name) else {
        return usage(table, err, &format!("unknown figure {name:?}"));
    };
    match run(out, full) {
        Ok(true) => 0,
        Ok(false) => {
            let _ = writeln!(err, "bench: {name}: gate FAILED");
            1
        }
        Err(e) => {
            let _ = writeln!(err, "bench: {name}: {e}");
            1
        }
    }
}

fn usage(table: &[(&str, Figure)], err: &mut dyn Write, problem: &str) -> u8 {
    let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
    let _ = writeln!(
        err,
        "bench: {problem}\nusage: bench --list | --figure <name> [--full]\nfigures: {}",
        names.join(" ")
    );
    2
}

/// Draw exponential inter-arrivals with the given mean (Poisson process) —
/// bursts are what make keep-alive spare containers (and thus eviction
/// *choice*) matter in the litmus experiments.
fn poisson_arrivals(rng: &mut StdRng, mean_iat_ms: u64, duration_ms: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -(mean_iat_ms as f64) * u.ln();
        if t >= duration_ms as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Percentile over unsorted samples.
pub fn pctl(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    iluvatar_sync::stats::percentile(xs, q)
}

/// Print a header row followed by aligned numeric rows.
pub fn print_table(
    out: &mut dyn Write,
    title: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    writeln!(out, "\n== {title} ==")?;
    // In chars, as `{:>width$}` pads: headers carry `µ`.
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    writeln!(
        out,
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    )?;
    rows.iter()
        .try_for_each(|row| writeln!(out, "{}", fmt_row(row)))
}

/// A litmus workload: FunctionBench apps firing at fixed IATs for a given
/// duration, producing the merged time-sorted event stream (Figs. 6–7).
pub fn litmus_workload(
    apps: &[(FbApp, u64)], // (application, IAT ms)
    duration_ms: u64,
) -> (Vec<FunctionProfile>, Vec<TraceEvent>) {
    let profiles: Vec<FunctionProfile> = apps
        .iter()
        .map(|(app, iat)| {
            let (mem, run, init) = app.table3();
            FunctionProfile {
                fqdn: app.name().to_string(),
                app: 0,
                mean_iat_ms: *iat as f64,
                warm_ms: run - init,
                init_ms: init,
                memory_mb: mem,
                diurnal: false,
            }
        })
        .collect();
    let mut events = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x11707);
    for (idx, (_, iat)) in apps.iter().enumerate() {
        for t in poisson_arrivals(&mut rng, *iat, duration_ms) {
            events.push(TraceEvent {
                time_ms: t,
                func: idx as u32,
            });
        }
    }
    events.sort_by_key(|e| e.time_ms);
    (profiles, events)
}

/// A litmus workload with replicated applications: `groups` of
/// (app, copies, IAT ms) produce `copies` distinct functions each — larger
/// populations make eviction *choice* (not just pressure) matter.
pub fn replicated_litmus(
    groups: &[(FbApp, usize, u64)],
    duration_ms: u64,
) -> (Vec<FunctionProfile>, Vec<TraceEvent>) {
    let mut profiles = Vec::new();
    let mut events = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for (g, &(app, copies, iat)) in groups.iter().enumerate() {
        let (mem, run, init) = app.table3();
        for c in 0..copies {
            let idx = profiles.len() as u32;
            profiles.push(FunctionProfile {
                fqdn: format!("{}-{g}-{c}", app.name()),
                app: g as u32,
                mean_iat_ms: iat as f64,
                warm_ms: run - init,
                init_ms: init,
                memory_mb: mem,
                diurnal: false,
            });
            for t in poisson_arrivals(&mut rng, iat, duration_ms) {
                events.push(TraceEvent {
                    time_ms: t,
                    func: idx,
                });
            }
        }
    }
    events.sort_by_key(|e| e.time_ms);
    (profiles, events)
}

/// A cyclic litmus workload: phases rotate which function is hot.
pub fn cyclic_workload(
    apps: &[(FbApp, u64, u64)], // (app, hot IAT, cold IAT)
    phase_ms: u64,
    duration_ms: u64,
) -> (Vec<FunctionProfile>, Vec<TraceEvent>) {
    let base: Vec<(FbApp, u64)> = apps.iter().map(|&(a, hot, _)| (a, hot)).collect();
    let (profiles, _) = litmus_workload(&base, 0);
    let mut events = Vec::new();
    let n = apps.len() as u64;
    for (idx, &(_, hot, cold)) in apps.iter().enumerate() {
        let mut t = 0u64;
        while t < duration_ms {
            let phase = (t / phase_ms) % n;
            let iat = if phase == idx as u64 { hot } else { cold };
            events.push(TraceEvent {
                time_ms: t,
                func: idx as u32,
            });
            t += iat;
        }
    }
    events.sort_by_key(|e| e.time_ms);
    (profiles, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn litmus_workload_paces_events() {
        let (profiles, events) = litmus_workload(
            &[(FbApp::FloatingPoint, 400), (FbApp::MlInference, 1500)],
            60_000,
        );
        assert_eq!(profiles.len(), 2);
        let fp_events = events.iter().filter(|e| e.func == 0).count();
        assert!(
            (100..=210).contains(&fp_events),
            "~150 expected, got {fp_events}"
        );
        let ml_events = events.iter().filter(|e| e.func == 1).count();
        assert!(
            (20..=65).contains(&ml_events),
            "~40 expected, got {ml_events}"
        );
        assert!(events.windows(2).all(|w| w[0].time_ms <= w[1].time_ms));
    }

    #[test]
    fn cyclic_workload_rotates_hotness() {
        let (_, events) = cyclic_workload(
            &[
                (FbApp::WebServing, 100, 10_000),
                (FbApp::DiskBench, 100, 10_000),
            ],
            30_000,
            60_000,
        );
        // First phase: fn0 hot; second: fn1 hot.
        let first: Vec<_> = events.iter().filter(|e| e.time_ms < 30_000).collect();
        let second: Vec<_> = events.iter().filter(|e| e.time_ms >= 30_000).collect();
        let hot0 = first.iter().filter(|e| e.func == 0).count();
        let hot1 = second.iter().filter(|e| e.func == 1).count();
        assert!(hot0 > first.len() * 3 / 4);
        assert!(hot1 > second.len() * 3 / 4);
    }

    #[test]
    fn replicated_litmus_copies_functions() {
        let (profiles, events) = replicated_litmus(
            &[
                (FbApp::WebServing, 3, 2_000),
                (FbApp::MlInference, 2, 5_000),
            ],
            60_000,
        );
        assert_eq!(profiles.len(), 5);
        let f0 = events.iter().filter(|e| e.func == 0).count();
        assert!((15..=50).contains(&f0), "~30 expected, got {f0}");
        let names: std::collections::HashSet<_> = profiles.iter().map(|p| &p.fqdn).collect();
        assert_eq!(names.len(), 5, "distinct fqdns per copy");
    }

    #[test]
    fn table_printer_right_aligns_columns() {
        let mut out = Vec::new();
        print_table(
            &mut out,
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        )
        .unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "\n== demo ==\n  a  b\n  1  2\n333  4\n"
        );
    }
}
