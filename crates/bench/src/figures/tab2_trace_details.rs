//! Table 2 — size and inter-arrival-time details of the three Azure-derived
//! workload samples (Representative / Rare / Random).

use super::base_population;
use crate::print_table;
use iluvatar_trace::{SampleKind, TraceSample};
use std::io::{self, Write};

pub fn run(out: &mut dyn Write, full: bool) -> io::Result<bool> {
    let base = base_population(full, 6);

    let mut rows = Vec::new();
    for kind in SampleKind::all() {
        let sample = TraceSample::draw(kind, &base, 7);
        let st = sample.stats();
        rows.push(vec![
            kind.name().to_string(),
            st.functions.to_string(),
            st.invocations.to_string(),
            format!("{:.1} /s", st.reqs_per_sec),
            format!("{:.1} ms", st.avg_iat_ms),
        ]);
    }
    print_table(
        out,
        "Table 2: Azure-derived workload samples",
        &[
            "Trace",
            "Functions",
            "Num Invocations",
            "Reqs per sec",
            "Avg IAT",
        ],
        &rows,
    )?;
    writeln!(
        out,
        "\nPaper's values (their 24h sample of the real trace): Representative 392 fns / 1,348,162 invocations; Rare 1000 fns / 202,121; Random 200 fns / 4,291,250."
    )?;
    writeln!(out, "Shape to hold: Representative ≫ Rare in per-function rate; Rare has the lowest aggregate rate.")?;
    Ok(true)
}
