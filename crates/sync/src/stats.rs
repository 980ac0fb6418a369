//! Online statistics used for data-driven policies.
//!
//! * [`Welford`] — numerically stable online mean/variance; the HIST
//!   keep-alive policy computes each function's coefficient of variation of
//!   inter-arrival times "using Welford's online algorithm" (§6.1).
//! * [`MovingWindow`] — fixed-capacity window over recent samples; queue
//!   policies use "(moving window) warm time" as the execution estimate
//!   (§4.2).
//! * [`Histogram`] — fixed-width bucket histogram; the HIST policy records
//!   IATs "in minute granularity buckets, tracking up to four hours".
//! * [`percentile`] — exact percentile over a sample set, for the p50/p99
//!   overheads of Figure 1.

/// Welford's online mean and variance.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance; 0 for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (stddev / mean); 0 when the mean is 0.
    pub fn cov(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.stddev() / self.mean
        }
    }
}

/// A fixed-capacity ring buffer of recent samples with O(window) summary
/// queries. Window sizes in the control plane are small (tens of samples),
/// so scans beat maintaining auxiliary structures.
#[derive(Debug, Clone)]
pub struct MovingWindow {
    buf: Vec<f64>,
    capacity: usize,
    next: usize,
    total_pushed: u64,
}

impl MovingWindow {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            total_pushed: 0,
        }
    }

    pub fn push(&mut self, x: f64) {
        if self.buf.len() < self.capacity {
            self.buf.push(x);
        } else {
            self.buf[self.next] = x;
        }
        self.next = (self.next + 1) % self.capacity;
        self.total_pushed += 1;
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples ever pushed, including evicted ones.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    pub fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.buf.iter().sum::<f64>() / self.buf.len() as f64
        }
    }

    pub fn min(&self) -> f64 {
        self.buf.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.buf.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Most recent sample, if any.
    pub fn last(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else if self.buf.len() < self.capacity {
            self.buf.last().copied()
        } else {
            let idx = (self.next + self.capacity - 1) % self.capacity;
            Some(self.buf[idx])
        }
    }

    /// Exact percentile (`q` in [0,1]) of the windowed samples.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        let mut sorted = self.buf.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        percentile_of_sorted(&sorted, q)
    }
}

/// Fixed-width bucket histogram over `[0, bucket_width * buckets)`, with an
/// overflow bucket for larger samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    pub fn new(bucket_width: f64, buckets: usize) -> Self {
        assert!(bucket_width > 0.0 && buckets > 0);
        Self {
            bucket_width,
            counts: vec![0; buckets],
            overflow: 0,
            total: 0,
        }
    }

    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < 0.0 {
            self.counts[0] += 1;
            return;
        }
        let idx = (x / self.bucket_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Fraction of samples that landed beyond the tracked range.
    pub fn overflow_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.overflow as f64 / self.total as f64
        }
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Lower edge of the first non-empty bucket at or after cumulative
    /// fraction `q` (a bucketed quantile). Returns the overflow edge if `q`
    /// lands in overflow.
    pub fn quantile_lower_edge(&self, q: f64) -> f64 {
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return i as f64 * self.bucket_width;
            }
        }
        self.counts.len() as f64 * self.bucket_width
    }
}

/// Exact percentile over already-sorted data, using linear interpolation
/// between closest ranks.
pub fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Sorts a copy of `xs` and returns the `q`-percentile.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty());
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    percentile_of_sorted(&sorted, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.stddev() - 2.0).abs() < 1e-12);
        assert!((w.cov() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn welford_degenerate() {
        let mut w = Welford::new();
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.cov(), 0.0);
        w.push(3.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.mean(), 3.0);
    }

    #[test]
    fn moving_window_evicts_oldest() {
        let mut mw = MovingWindow::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            mw.push(x);
        }
        assert_eq!(mw.len(), 3);
        assert_eq!(mw.mean(), 3.0); // 2,3,4
        assert_eq!(mw.min(), 2.0);
        assert_eq!(mw.max(), 4.0);
        assert_eq!(mw.last(), Some(4.0));
        assert_eq!(mw.total_pushed(), 4);
    }

    #[test]
    fn moving_window_last_before_wrap() {
        let mut mw = MovingWindow::new(4);
        mw.push(9.0);
        mw.push(7.0);
        assert_eq!(mw.last(), Some(7.0));
    }

    #[test]
    fn moving_window_percentile() {
        let mut mw = MovingWindow::new(100);
        for i in 0..100 {
            mw.push(i as f64);
        }
        assert!((mw.percentile(0.5) - 49.5).abs() < 1e-9);
        assert_eq!(mw.percentile(1.0), 99.0);
        assert_eq!(mw.percentile(0.0), 0.0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(1.0, 4); // [0,4) + overflow
        for x in [0.5, 1.5, 1.7, 3.9, 4.0, 100.0] {
            h.record(x);
        }
        assert_eq!(h.counts(), &[1, 2, 0, 1]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
        assert!((h.overflow_fraction() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(10.0, 10);
        for _ in 0..90 {
            h.record(5.0);
        }
        for _ in 0..10 {
            h.record(55.0);
        }
        assert_eq!(h.quantile_lower_edge(0.5), 0.0);
        assert_eq!(h.quantile_lower_edge(0.95), 50.0);
    }

    #[test]
    fn histogram_negative_clamps_to_first() {
        let mut h = Histogram::new(1.0, 2);
        h.record(-5.0);
        assert_eq!(h.counts(), &[1, 0]);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile(&xs, 0.5) - 25.0).abs() < 1e-12);
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 1.0), 40.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
