//! Order statistics and the window aggregation.
//!
//! A run's value is not the mean over the phase. A phase is cut into short
//! windows; [`quietest`] keeps the ones the sandbox left alone, going by two
//! signals that do not depend on the program, and [`quiet_quartile`] then
//! takes the upper quartile of per-window throughput and the lower quartile
//! of per-window latency / CPU cost, because whatever interference is left
//! only ever slows a window down.

/// Linear-interpolated quantile of a sample; 0 for an empty one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Which side of the window distribution is the quiet one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The quiet quartile of per-window values: Q3 when higher is better
/// (throughput), Q1 when lower is better (latency, CPU cost).
pub fn quiet_quartile(per_window: &[f64], better: Better) -> f64 {
    match better {
        Better::Higher => quantile(per_window, 0.75),
        Better::Lower => quantile(per_window, 0.25),
    }
}

/// A window counts as undisturbed if the speed probe ran at least this
/// share of the reference speed in it. Per-window speeds are bimodal: slow
/// stretches read 0.5–0.6 of the best window, fast ones 0.85–1.0, windows
/// that straddle a flip in between.
const FAST_ENOUGH: f64 = 0.85;

/// Which windows of a phase to trust, from two disturbance signals that do
/// not depend on the program: the CPU time the hypervisor took from each
/// window (`steal_ticks`) and the speed the probe ran at in it (`speed`,
/// higher is faster), against `reference`, the best speed seen in the run.
///
/// Kept: the windows with the least steal that also ran at [`FAST_ENOUGH`]
/// of the reference. If fewer than two qualify, the quarter of the windows
/// that comes first by (steal, speed) is kept instead, so a run that was
/// disturbed throughout still reports — its least disturbed stretch.
/// Returns ascending indices.
pub fn quietest(steal_ticks: &[u64], speed: &[f64], reference: f64) -> Vec<usize> {
    let n = steal_ticks.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        steal_ticks[a]
            .cmp(&steal_ticks[b])
            .then(speed[b].total_cmp(&speed[a]))
    });
    let Some(&best) = order.first() else {
        return order;
    };
    let clean = order
        .iter()
        .take_while(|&&i| {
            steal_ticks[i] == steal_ticks[best] && speed[i] >= FAST_ENOUGH * reference
        })
        .count();
    order.truncate(if clean >= 2 { clean } else { n.div_ceil(4) });
    order.sort_unstable();
    order
}

/// (max − min) / median — the run-to-run and window-to-window spread.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (hi - lo) / m
}

/// Q1, median, Q3 as Python's `statistics.quantiles(values, n=4)` gives
/// them (exclusive method) — what the benchmark driver gates on.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.5), 15.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quietest_keeps_fast_windows_without_steal() {
        // Windows 1 and 4 lost CPU to the hypervisor; window 6 ran in the
        // slow state. The other five are kept.
        let steal = [0, 3, 0, 0, 17, 0, 0, 0];
        let speed = [2.0, 2.0, 1.98, 2.02, 2.0, 1.75, 1.1, 2.01];
        assert_eq!(quietest(&steal, &speed, 2.02), vec![0, 2, 3, 5, 7]);
        // A quiet machine keeps everything.
        let all = quietest(&[0; 4], &[2.0, 1.99, 2.01, 2.0], 2.01);
        assert_eq!(all, vec![0, 1, 2, 3]);
        // Two fast windows are enough to ignore all the others.
        let speed = [1.1, 2.0, 1.2, 1.1, 1.3, 1.99, 1.2, 1.1];
        assert_eq!(quietest(&[0; 8], &speed, 2.0), vec![1, 5]);
    }

    #[test]
    fn quietest_falls_back_to_the_least_disturbed_quarter() {
        // The reference speed was seen elsewhere in the run; here only one
        // window reached it, so the best quarter by (steal, speed) is kept.
        let steal = [5, 0, 9, 0, 0, 3, 0, 0];
        let speed = [2.0, 2.0, 2.0, 1.2, 1.0, 2.0, 1.1, 1.3];
        assert_eq!(quietest(&steal, &speed, 2.0), vec![1, 7]);
        // Sixteen windows, none alike: a quarter of them.
        let steal: Vec<u64> = (0..16).rev().collect();
        assert_eq!(quietest(&steal, &[1.0; 16], 2.0), vec![12, 13, 14, 15]);
        // Degenerate phases.
        assert_eq!(quietest(&[7], &[0.5], 2.0), vec![0]);
        assert!(quietest(&[], &[], 2.0).is_empty());
    }

    #[test]
    fn quiet_quartile_ignores_the_disturbed_side() {
        // Seven quiet windows and one disturbed one: the disturbed window
        // moves neither the throughput (Q3) nor the latency (Q1) aggregate.
        let tput = [100.0, 101.0, 99.0, 100.0, 40.0, 100.0, 101.0, 99.0];
        let quiet = quiet_quartile(&tput, Better::Higher);
        assert!((quiet - 100.25).abs() < 1e-9, "{quiet}");
        let lat = [50.0, 51.0, 49.0, 50.0, 400.0, 50.0, 51.0, 49.0];
        let quiet = quiet_quartile(&lat, Better::Lower);
        assert!((quiet - 49.75).abs() < 1e-9, "{quiet}");
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(spread(&[]), 0.0);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(
            quartiles_exclusive(&[5.0, 1.0, 4.0, 2.0, 3.0]),
            (1.5, 3.0, 4.5)
        );
    }
}
