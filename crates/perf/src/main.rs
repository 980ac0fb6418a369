//! `perf` — see `iluvatar_perf::cli` for the flags.

/// Counts every allocation of the process for `process.allocs_per_inv`.
#[global_allocator]
static ALLOC: iluvatar_perf::sys::CountingAlloc = iluvatar_perf::sys::CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(iluvatar_perf::cli::main(&argv));
}
