//! Command line, report printing and the `--repeat` noise harness.

use crate::run::{run_workload, Metric, Options, Report, END_TO_END};
use crate::stats::{median, quartiles_exclusive, spread};
use crate::topo::Workload;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::PathBuf;

const USAGE: &str = "usage: perf [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace [0|1]] [--quick] [--repeat <n>]
  workloads: worker_warm worker_durable cluster_push cluster_pull (default: all four)
  --seconds  measured seconds per workload: sat and paced get half each (default 24)
  --trace    traced run: per-layer metrics and crates/perf/out/trace-<workload>.jsonl
  --quick    smoke run: 0.5 s phases, one set-up, short warm-up
  --repeat   noise harness: run the selection n times (seed, seed+1, ...) and print the spread";

struct Args {
    workloads: Vec<Workload>,
    /// Exactly one `--workload` was named: print the bare contract object.
    single: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: Option<usize>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        single: false,
        seed: 1,
        seconds: 24.0,
        trace: false,
        quick: false,
        repeat: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
                args.workloads.push(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                args.repeat = Some(n.max(1));
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; a bare `--trace` means 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.single = args.workloads.len() == 1;
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    if args.quick {
        args.seconds = 1.0;
    }
    Ok(args)
}

/// Span files and WAL scratch go under the benchmark's own directory. The
/// benchmark is run from the repository root; from anywhere else (a test's
/// working directory) they go to `./out`.
fn out_dir() -> PathBuf {
    let home = PathBuf::from("crates/perf");
    if home.is_dir() {
        home.join("out")
    } else {
        PathBuf::from("out")
    }
}

fn json_line(report: &Report, with_name: bool) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let name = if with_name {
        format!("\"workload\": \"{}\", ", report.workload.name())
    } else {
        String::new()
    };
    format!(
        "{{{name}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn print_human(report: &Report) {
    let line = |m: &Metric| eprintln!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    eprintln!(
        "{}: attempted {} failed {} — self-check {}",
        report.workload.name(),
        report.attempted,
        report.failed,
        if report.correct() { "passed" } else { "FAILED" }
    );
    report.metrics.iter().for_each(line);
    if !report.notes.is_empty() {
        eprintln!("  -- diagnostics (not part of the result) --");
        report.notes.iter().for_each(line);
    }
    for p in &report.problems {
        eprintln!("  PROBLEM: {p}");
    }
}

/// The result object a child run prints as its last line.
#[derive(Deserialize)]
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, ChildMetric>,
}

#[derive(Deserialize)]
struct ChildMetric {
    value: f64,
}

/// Run one `(workload, seed)` in a child process, as the driver does, and
/// return its end-to-end values in [`END_TO_END`] order.
fn run_child(w: Workload, seed: u64, args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!("{} seed {seed}: {} {last}", w.name(), out.status));
    }
    let parsed: ChildResult = serde_json::from_str(last).map_err(|e| e.to_string())?;
    if !parsed.correct {
        return Err(format!("{} seed {seed}: self-check failed", w.name()));
    }
    END_TO_END
        .iter()
        .map(|(name, _)| {
            parsed
                .metrics
                .get(*name)
                .map(|m| m.value)
                .ok_or(format!("{}: no {name} in {last}", w.name()))
        })
        .collect()
}

/// `--repeat N`: the full selection N times, each run a fresh process with
/// its own seed, then per metric and workload min / median / max, the
/// range over the median, and the quartile distance over the median (the
/// spread the benchmark driver gates on).
fn noise(args: &Args, n: usize) -> i32 {
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; args.workloads.len()];
    for run in 0..n {
        for (wi, &w) in args.workloads.iter().enumerate() {
            match run_child(w, args.seed + run as u64, args) {
                Ok(v) => {
                    eprintln!("run {run} {}: {v:?}", w.name());
                    for (mi, x) in v.into_iter().enumerate() {
                        values[wi][mi].push(x);
                    }
                }
                Err(e) => {
                    eprintln!("run {run} failed: {e}");
                    return 1;
                }
            }
        }
    }
    println!(
        "| workload | metric | unit | n | min | median | max | (max-min)/median | IQR/median |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for (wi, w) in args.workloads.iter().enumerate() {
        for (mi, (name, unit)) in END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let (q1, q2, q3) = quartiles_exclusive(v);
            println!(
                "| {} | {name} | {unit} | {} | {lo:.4} | {:.4} | {hi:.4} | {:.1}% | {:.1}% |",
                w.name(),
                v.len(),
                median(v),
                100.0 * spread(v),
                if q2 > 0.0 {
                    100.0 * (q3 - q1) / q2
                } else {
                    0.0
                },
            );
        }
    }
    0
}

/// The `perf` binary's entry point; returns the exit code.
pub fn main(argv: &[String]) -> i32 {
    let args = match parse(argv) {
        Ok(a) => a,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("perf: {why}");
            }
            eprintln!("{USAGE}");
            return 2;
        }
    };
    if let Some(n) = args.repeat {
        return noise(&args, n);
    }
    eprintln!(
        "available_parallelism {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // Before any thread exists, so every later thread inherits the mask.
    match crate::sys::pin_to_highest_cpu() {
        Some(cpu) => eprintln!("pinned_cpu {cpu}"),
        None => eprintln!("warning: could not pin to one CPU; running un-pinned (noisier)"),
    }
    let out_dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perf: cannot create {}: {e}", out_dir.display());
        return 2;
    }
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        out_dir,
    };
    let mut all_correct = true;
    for &w in &args.workloads {
        let report = run_workload(w, &opts);
        print_human(&report);
        println!("{}", json_line(&report, !args.single));
        all_correct &= report.correct();
    }
    if all_correct {
        0
    } else {
        1
    }
}
