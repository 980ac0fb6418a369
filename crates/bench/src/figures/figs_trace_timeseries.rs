//! Appendix figures — invocations/second timeseries for the full synthetic
//! Azure trace and the three samples (the diurnal wave of the full trace
//! should be visible in the Representative sample too).

use super::base_population;
use iluvatar_trace::{SampleKind, SyntheticAzureTrace, TraceSample};
use std::io::{self, Write};

fn sparkline(series: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = series.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
    series
        .iter()
        .map(|&v| BARS[((v / max) * 7.0).round().clamp(0.0, 7.0) as usize])
        .collect()
}

fn downsample(series: &[f64], points: usize) -> Vec<f64> {
    if series.len() <= points {
        return series.to_vec();
    }
    let chunk = series.len() / points;
    series
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

fn print_series(out: &mut dyn Write, name: &str, trace: &SyntheticAzureTrace) -> io::Result<()> {
    let per_min = trace.rate_timeseries(60_000);
    let ds = downsample(&per_min, 72);
    let mean = per_min.iter().sum::<f64>() / per_min.len() as f64;
    let peak = per_min.iter().cloned().fold(0.0f64, f64::max);
    writeln!(
        out,
        "\n{name}: mean {mean:.1}/s, peak {peak:.1}/s, {} invocations",
        trace.events.len()
    )?;
    writeln!(out, "  {}", sparkline(&ds))
}

pub fn run(out: &mut dyn Write, full: bool) -> io::Result<bool> {
    // The quick run keeps a full day: diurnality is the point.
    let base = base_population(full, 24);
    writeln!(out, "== Appendix: invocation-rate timeseries (one day) ==")?;
    print_series(out, "Full trace", &base)?;
    for kind in SampleKind::all() {
        let s = TraceSample::draw(kind, &base, 7);
        print_series(out, kind.name(), &s.trace)?;
    }
    writeln!(out, "\nExpected shape: a diurnal wave in the full trace, echoed by the Representative sample; Rare is sparse and flat by comparison.")?;
    Ok(true)
}
