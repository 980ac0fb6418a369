//! Every table, figure and ablation the repo regenerates, by name.
//!
//! A figure is a plain function: it writes its table to `out` (progress
//! goes to stderr), takes `full` for the paper-scale variant where it has
//! one, and returns whether its gate held — `true` for figures that gate
//! nothing. Its parameters are named constants next to their use. The
//! `bench` binary, `scripts/run_experiments.sh` and the tests in
//! `tests/figures.rs` all walk [`FIGURES`]; `results/` holds one
//! `<name>.txt` per entry.

mod abl_autoscale;
mod abl_cache;
mod abl_concurrency;
mod abl_dispatch;
mod abl_load_balancer;
mod abl_overhead_budget;
mod abl_queue_policies;
mod cache_sweep;
mod fig1_overhead_scaling;
mod fig8_dynamic;
mod figs_trace_timeseries;
mod litmus;
mod micro;
mod tab1_latency_breakdown;
mod tab2_trace_details;
mod tab3_workloads;

use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
use iluvatar_core::{Worker, WorkerConfig};
use iluvatar_sync::SystemClock;
use iluvatar_trace::samples::base_population_config;
use iluvatar_trace::SyntheticAzureTrace;
use std::io::{self, Write};
use std::sync::Arc;

pub type Figure = fn(out: &mut dyn Write, full: bool) -> io::Result<bool>;

/// In the order `run_experiments.sh` regenerates them: the paper's tables
/// and figures, then the ablations, then the micro table.
pub const FIGURES: &[(&str, Figure)] = &[
    ("tab1_latency_breakdown", tab1_latency_breakdown::run),
    ("tab2_trace_details", tab2_trace_details::run),
    ("tab3_workloads", tab3_workloads::run),
    ("fig1_overhead_scaling", fig1_overhead_scaling::run),
    ("fig4_exec_increase", cache_sweep::fig4),
    ("fig5_cold_ratio", cache_sweep::fig5),
    ("fig6_litmus", litmus::fig6),
    ("fig7_faasbench", litmus::fig7),
    ("fig8_dynamic", fig8_dynamic::run),
    ("figs_trace_timeseries", figs_trace_timeseries::run),
    ("abl_autoscale", abl_autoscale::run),
    ("abl_cache", abl_cache::run),
    ("abl_concurrency", abl_concurrency::run),
    ("abl_dispatch", abl_dispatch::run),
    ("abl_load_balancer", abl_load_balancer::run),
    ("abl_overhead_budget", abl_overhead_budget::run),
    ("abl_queue_policies", abl_queue_policies::run),
    ("micro", micro::run),
];

/// The synthetic Azure population the trace-driven figures sample from:
/// paper scale under `--full`, otherwise 400 apps over `quick_hours`.
fn base_population(full: bool, quick_hours: u64) -> SyntheticAzureTrace {
    let mut cfg = base_population_config(0xA22E);
    if !full {
        cfg.apps = 400;
        cfg.duration_ms = quick_hours * 3600 * 1000;
    }
    eprintln!(
        "generating base population ({} apps, {}h)...",
        cfg.apps,
        cfg.duration_ms / 3_600_000
    );
    SyntheticAzureTrace::generate(&cfg)
}

/// A wall-clock worker over its own simulated backend, whose modelled
/// service times run at `time_scale` of nominal.
fn sim_worker(cfg: WorkerConfig, time_scale: f64) -> Worker {
    let clock = SystemClock::shared();
    let backend = SimBackend::new(
        Arc::clone(&clock),
        SimBackendConfig {
            time_scale,
            ..Default::default()
        },
    );
    Worker::new(cfg, Arc::new(backend), clock)
}
