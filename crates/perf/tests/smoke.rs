//! End-to-end smoke of the `perf` binary in `--quick` mode (0.5 s phases):
//! all four workloads pass their self-check, the result lines have the
//! contract's shape, and the names agree with `/BENCHMARK.json`.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::Command;

#[derive(Deserialize)]
struct ResultLine {
    #[serde(default)]
    workload: Option<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[derive(Deserialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
    #[serde(default)]
    unit: Option<String>,
}

fn benchmark_json() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
}

fn perf(args: &[&str]) -> Vec<ResultLine> {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("run perf");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perf {args:?} exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad result line {l}: {e}")))
        .collect()
}

fn units(line: &ResultLine) -> Vec<(String, String)> {
    line.metrics
        .iter()
        .map(|(n, m)| (n.clone(), m.unit.clone()))
        .collect()
}

fn declared(list: &[Named]) -> Vec<(String, String)> {
    let mut v: Vec<_> = list
        .iter()
        .map(|n| (n.name.clone(), n.unit.clone().expect("unit")))
        .collect();
    v.sort();
    v
}

#[test]
fn quick_run_passes_the_self_check_on_all_four_workloads() {
    let bench = benchmark_json();
    let lines = perf(&["--quick", "--seed", "11"]);
    let ran: Vec<_> = lines.iter().map(|l| l.workload.clone().unwrap()).collect();
    let listed: Vec<_> = bench.workloads.iter().map(|w| w.name.clone()).collect();
    assert_eq!(ran, listed, "workloads run vs BENCHMARK.json");
    for line in &lines {
        assert!(line.correct, "{:?} failed its self-check", line.workload);
        assert_eq!(line.failed, 0);
        assert!(line.attempted > 0);
        assert_eq!(units(line), declared(&bench.end_to_end));
        for (name, m) in &line.metrics {
            assert!(m.value > 0.0, "{name} must never be 0, got {}", m.value);
        }
    }
}

#[test]
fn quick_traced_run_prints_every_per_layer_metric_and_splits_the_layers() {
    let bench = benchmark_json();
    // The driver's exact argument shape: one workload, no `workload` key.
    let run = |w: &str| {
        let mut lines = perf(&[
            "--workload",
            w,
            "--seed",
            "5",
            "--seconds",
            "2",
            "--trace",
            "1",
            "--quick",
        ]);
        assert_eq!(lines.len(), 1);
        let line = lines.remove(0);
        assert!(line.workload.is_none() && line.correct);
        assert_eq!(units(&line), declared(&bench.per_layer));
        line.metrics
    };
    let value = |m: &BTreeMap<String, MetricValue>, name: &str| m[name].value;

    // Each layer does the work in one workload and none in another.
    let durable = run("worker_durable");
    let pull = run("cluster_pull");
    for name in [
        "core.wal_appends_per_inv",
        "core.wal_bytes_per_inv",
        "core.wal_fsyncs_per_inv",
        "core.wal_fsync_us",
    ] {
        assert!(value(&durable, name) > 0.0, "{name} on worker_durable");
        assert_eq!(value(&pull, name), 0.0, "{name} on cluster_pull");
    }
    for name in [
        "dispatch.http_pull_us",
        "dispatch.http_complete_us",
        "dispatch.exec_us",
        "dispatch.useful_pull_ratio",
    ] {
        assert!(value(&pull, name) > 0.0, "{name} on cluster_pull");
        assert_eq!(value(&durable, name), 0.0, "{name} on worker_durable");
    }
    assert!(value(&durable, "core.sync_invoke_us") > 0.0);
    assert_eq!(value(&durable, "lb.http_invoke_us"), 0.0);
    assert!(value(&pull, "lb.http_invoke_us") > 0.0);
    assert!(value(&pull, "containers.invokes_per_inv") > 0.9);
    for file in ["trace-worker_durable.jsonl", "trace-cluster_pull.jsonl"] {
        let path = format!("{}/out/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("span file");
        assert!(text.lines().count() > 10, "{path} is nearly empty");
        assert!(text.lines().all(|l| l.starts_with("{\"name\":\"")));
    }
}
