//! The figure analogue of `tests/sessions.rs`: `results/<name>.txt` is what
//! the code prints. The nine virtual-time figures are byte-deterministic,
//! so they are run in-process and compared with the committed files; the
//! rest of the table is held to the `bench` command-line contract.

use iluvatar_bench::cli;
use iluvatar_bench::figures::{Figure, FIGURES};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Figures whose stdout depends on nothing but the code.
const DETERMINISTIC: [&str; 9] = [
    "tab2_trace_details",
    "tab3_workloads",
    "fig4_exec_increase",
    "fig5_cold_ratio",
    "fig8_dynamic",
    "figs_trace_timeseries",
    "abl_autoscale",
    "abl_dispatch",
    "abl_load_balancer",
];

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// `bench` over `table`, in-process: (exit code, stdout, stderr).
fn bench(table: &[(&str, Figure)], argv: &[&str]) -> (u8, String, String) {
    let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = cli(table, &argv, &mut out, &mut err);
    (
        code,
        String::from_utf8(out).expect("utf-8 stdout"),
        String::from_utf8(err).expect("utf-8 stderr"),
    )
}

#[test]
fn deterministic_figures_match_committed_results() {
    for name in DETERMINISTIC {
        let (code, printed, _) = bench(FIGURES, &["--figure", name]);
        assert_eq!(code, 0, "{name}: gate failed or figure unknown");
        let path = results_dir().join(format!("{name}.txt"));
        let committed = std::fs::read_to_string(&path).expect("committed result");
        assert!(
            printed == committed,
            "{name}: output differs from {}; if the change is intended, regenerate it with \
             scripts/run_experiments.sh and explain the diff\n--- printed ---\n{printed}",
            path.display()
        );
    }
}

#[test]
fn figure_names_are_unique_and_match_list_and_results() {
    let names: BTreeSet<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");

    let (code, listed, _) = bench(FIGURES, &["--list"]);
    assert_eq!(code, 0);
    let table_order: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    assert_eq!(listed.lines().collect::<Vec<_>>(), table_order);

    let stems: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
        .collect();
    assert_eq!(
        stems,
        names.iter().map(|n| n.to_string()).collect(),
        "results/*.txt and FIGURES disagree"
    );
}

#[test]
fn unknown_figure_is_a_usage_error_listing_the_valid_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--figure", "nope"])
        .output()
        .expect("run bench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for (name, _) in FIGURES {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}

#[test]
fn a_failed_gate_is_a_non_zero_exit() {
    let table: &[(&str, Figure)] = &[
        ("holds", |out, _| writeln!(out, "table").map(|()| true)),
        ("fails", |out, _| writeln!(out, "table").map(|()| false)),
    ];
    assert_eq!(
        bench(table, &["--figure", "holds"]),
        (0, "table\n".into(), String::new())
    );
    let (code, out, err) = bench(table, &["--figure", "fails"]);
    assert_eq!(
        (code, out.as_str()),
        (1, "table\n"),
        "the table still prints"
    );
    assert!(err.contains("fails") && err.contains("gate"), "{err}");
}
