//! Table 3 — the FunctionBench applications driving the OpenWhisk-vs-
//! FaasCache litmus experiments, with their memory, run, and init times.

use crate::print_table;
use iluvatar_trace::functionbench::FbApp;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write, _full: bool) -> io::Result<bool> {
    let mut rows = Vec::new();
    for app in FbApp::all() {
        let (mem, run, init) = app.table3();
        rows.push(vec![
            app.name().to_string(),
            format!("{mem} MB"),
            format!("{:.1} s", run as f64 / 1000.0),
            format!("{:.1} s", init as f64 / 1000.0),
            format!("{:.1} s", (run - init) as f64 / 1000.0),
        ]);
    }
    print_table(
        out,
        "Table 3: FunctionBench application characteristics",
        &[
            "Application",
            "Mem size",
            "Run time",
            "Init time",
            "Warm time",
        ],
        &rows,
    )?;
    writeln!(out, "\n(The seven Table 3 rows match the paper; pyaes is the additional Figure 1 microbenchmark function.)")?;
    Ok(true)
}
