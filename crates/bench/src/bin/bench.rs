//! `bench --list | --figure <name> [--full]`: regenerate one table, figure
//! or ablation of [`iluvatar_bench::figures::FIGURES`]. Stdout is the
//! table, progress goes to stderr, and the exit status is non-zero when
//! the figure's gate fails.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(iluvatar_bench::cli(
        iluvatar_bench::figures::FIGURES,
        &argv,
        &mut std::io::stdout(),
        &mut std::io::stderr(),
    ))
}
