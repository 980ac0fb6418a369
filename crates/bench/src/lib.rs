//! The experiment harness: every table, figure and ablation is one entry
//! of [`figures::FIGURES`], and [`cli`] is the `bench` command line over
//! such a table. The helpers here cover output formatting.

pub mod figures;

use figures::Figure;
use std::io::{self, Write};

/// `bench --list | --figure <name> [--full]` over `table`; returns the
/// process exit code. The figure's table goes to `out`; usage errors, a
/// failed gate and write errors are reported on `err` with a non-zero code.
pub fn cli(
    table: &[(&str, Figure)],
    argv: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> u8 {
    let (mut list, mut full, mut name) = (false, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--list" => list = true,
            "--full" => full = true,
            "--figure" => name = it.next(),
            other => return usage(table, err, &format!("unknown argument {other:?}")),
        }
    }
    if list {
        let listed = table.iter().try_for_each(|(n, _)| writeln!(out, "{n}"));
        return u8::from(listed.is_err());
    }
    let Some(name) = name else {
        return usage(table, err, "--figure <name> or --list is required");
    };
    let Some((_, run)) = table.iter().find(|(n, _)| n == name) else {
        return usage(table, err, &format!("unknown figure {name:?}"));
    };
    match run(out, full) {
        Ok(true) => 0,
        Ok(false) => {
            let _ = writeln!(err, "bench: {name}: gate FAILED");
            1
        }
        Err(e) => {
            let _ = writeln!(err, "bench: {name}: {e}");
            1
        }
    }
}

fn usage(table: &[(&str, Figure)], err: &mut dyn Write, problem: &str) -> u8 {
    let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
    let _ = writeln!(
        err,
        "bench: {problem}\nusage: bench --list | --figure <name> [--full]\nfigures: {}",
        names.join(" ")
    );
    2
}

/// Percentile over unsorted samples.
pub fn pctl(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    iluvatar_sync::stats::percentile(xs, q)
}

/// Print a header row followed by aligned numeric rows.
pub fn print_table(
    out: &mut dyn Write,
    title: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    writeln!(out, "\n== {title} ==")?;
    // In chars, as `{:>width$}` pads: headers carry `µ`.
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    writeln!(
        out,
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    )?;
    rows.iter()
        .try_for_each(|row| writeln!(out, "{}", fmt_row(row)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printer_right_aligns_columns() {
        let mut out = Vec::new();
        print_table(
            &mut out,
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        )
        .unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "\n== demo ==\n  a  b\n  1  2\n333  4\n"
        );
    }
}
