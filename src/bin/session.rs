//! Command-line front end for the seeded session scenarios in
//! [`iluvatar::session`].
//!
//! ```text
//! session --list
//! session --scenario <name> [--seed N] [--invocations N] [--kill-at N]
//!         [--verify-determinism] [--mutate]
//! ```
//!
//! Stdout carries exactly one line: the scenario's hex digest (identical
//! seeds must print identical digests), or `mutation-smoke: caught/total`
//! under `--mutate` (conformance only). The human-readable summary goes to
//! stderr. `--verify-determinism` runs the scenario twice, each in a fresh
//! process, and fails unless both print the same digest. A scenario that
//! finds its contract broken panics, so the exit status is non-zero.

use iluvatar::session::{self, Args};
use std::process::{exit, Command, Stdio};

fn usage(problem: &str) -> ! {
    eprintln!("session: {problem}");
    eprintln!(
        "usage: session --list | --scenario <name> [--seed N] [--invocations N] [--kill-at N] \
         [--verify-determinism] [--mutate]"
    );
    exit(2);
}

/// The digest a fresh `session` process prints for `argv`.
fn digest_of_fresh_process(argv: &[String]) -> String {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(argv)
        .stderr(Stdio::inherit())
        .output()
        .expect("re-exec session");
    if !out.status.success() {
        eprintln!("session: child run failed ({})", out.status);
        exit(1);
    }
    String::from_utf8_lossy(&out.stdout).trim().to_string()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args::default();
    let mut scenario = None;
    let (mut list, mut verify, mut mutate) = (false, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut number = || -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage(&format!("{flag} takes a non-negative integer")))
        };
        match flag.as_str() {
            "--list" => list = true,
            "--verify-determinism" => verify = true,
            "--mutate" => mutate = true,
            "--seed" => args.seed = number(),
            "--invocations" => args.invocations = Some(number()),
            "--kill-at" => args.kill_at = Some(number()),
            "--scenario" => scenario = it.next().cloned(),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if list {
        for (name, _) in session::SCENARIOS {
            println!("{name}");
        }
        return;
    }
    let name = scenario.unwrap_or_else(|| usage("--scenario <name> or --list is required"));
    let run = session::find(&name).unwrap_or_else(|| usage(&format!("unknown scenario {name:?}")));

    if mutate {
        if name != "conformance" {
            usage("--mutate applies to the conformance scenario only");
        }
        let (caught, total) = session::conformance::mutate(&args);
        println!("mutation-smoke: {caught}/{total} caught");
        exit(if caught == total { 0 } else { 1 });
    }
    if verify {
        let child_argv: Vec<String> = argv
            .iter()
            .filter(|a| *a != "--verify-determinism")
            .cloned()
            .collect();
        let first = digest_of_fresh_process(&child_argv);
        let second = digest_of_fresh_process(&child_argv);
        if first != second {
            eprintln!(
                "session: {name} digests diverged for seed {}: {first} vs {second}",
                args.seed
            );
            exit(1);
        }
        eprintln!("session: {name} digest stable");
        println!("{first}");
        return;
    }
    println!("{:016x}", run(&args));
}
