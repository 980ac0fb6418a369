//! Mergeable log-linear histogram (HDR-style).
//!
//! §5 exports per-component latency distributions; aggregating them across
//! workers needs a sketch that (a) records in constant time on the hot
//! path, (b) bounds relative error so exported percentiles are trustworthy,
//! and (c) merges losslessly so a load balancer can combine per-worker
//! histograms into one cluster view. A log-linear bucket layout gives all
//! three: each power-of-two range is split into [`SUB`] linear sub-buckets,
//! so the bucket width at value `v` is at most `v / SUB` and the midpoint
//! representative is within [`LogHistogram::REL_ERROR`] of any sample in
//! the bucket.
//!
//! Values are unitless `u64`s; the control plane records microseconds.

use std::collections::BTreeMap;

/// log2 of the sub-bucket count per octave.
const SUB_BITS: u32 = 6;
/// Linear sub-buckets per power-of-two range.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: an exact linear region `[0, 2*SUB)` plus `SUB`
/// buckets for each octave up to `u64::MAX`.
const NBUCKETS: usize = ((64 - SUB_BITS as usize) * SUB as usize) + SUB as usize;

/// Bucket index for `v`. Exact for `v < 2*SUB`; log-linear above.
#[inline]
fn index_of(v: u64) -> usize {
    if v < 2 * SUB {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // floor(log2 v) >= SUB_BITS + 1
        let shift = exp - SUB_BITS;
        let sub = (v >> shift) as usize; // in [SUB, 2*SUB)
        (shift as usize) * SUB as usize + sub
    }
}

/// Inclusive lower edge and exclusive upper edge of bucket `idx`.
#[inline]
fn bounds_of(idx: usize) -> (u64, u64) {
    if idx < (2 * SUB) as usize {
        (idx as u64, idx as u64 + 1)
    } else {
        let shift = (idx as u64 / SUB) - 1;
        let sub = idx as u64 - shift * SUB; // in [SUB, 2*SUB)
        let lower = sub << shift;
        // The topmost bucket's upper edge would exceed u64::MAX; clamp it.
        (lower, lower.saturating_add(1u64 << shift))
    }
}

/// Midpoint representative of bucket `idx`.
#[inline]
fn rep_of(idx: usize) -> f64 {
    let (lo, hi) = bounds_of(idx);
    if hi - lo == 1 {
        lo as f64
    } else {
        (lo as f64 + hi as f64) / 2.0
    }
}

/// A mergeable log-linear histogram over `u64` samples.
///
/// Constant-time [`record`](LogHistogram::record), lossless
/// [`merge`](LogHistogram::merge), and percentile queries whose relative
/// error is bounded by [`LogHistogram::REL_ERROR`].
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for LogHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.counts == other.counts
    }
}

impl LogHistogram {
    /// Worst-case relative error of a percentile estimate (vs. the exact
    /// sample at the same rank): half a bucket width over the bucket's
    /// lower edge, `2^-(SUB_BITS+1)`.
    pub const REL_ERROR: f64 = 1.0 / (2 * SUB) as f64;

    pub fn new() -> Self {
        Self {
            counts: vec![0; NBUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. Constant time: an index computation from the
    /// bit-length of `v` plus one array increment.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[index_of(v)] += n;
        self.total += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded sample; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-percentile (`q` in `[0,1]`) by nearest rank, returned as the
    /// midpoint of the bucket holding that rank — within
    /// [`LogHistogram::REL_ERROR`] of the exact sample at the same rank.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return rep_of(i);
            }
        }
        self.max as f64
    }

    /// Samples whose bucket lies at or below the bucket of `v` — the `le`
    /// cumulative count for exposition, exact up to bucket granularity.
    pub fn count_le(&self, v: u64) -> u64 {
        let idx = index_of(v);
        self.counts[..=idx].iter().sum()
    }

    /// Add all of `other`'s samples into `self`. Lossless: recording the
    /// union of two sample sets yields an identical histogram.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Sparse wire form: only non-empty buckets travel. This is what crosses
/// the worker → load-balancer scrape hop.
#[derive(serde::Serialize, serde::Deserialize)]
struct SparseHist {
    bins: BTreeMap<usize, u64>,
    sum: u64,
    min: u64,
    max: u64,
}

impl From<&LogHistogram> for SparseHist {
    fn from(h: &LogHistogram) -> Self {
        Self {
            bins: h
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect(),
            sum: h.sum,
            min: h.min,
            max: h.max,
        }
    }
}

impl From<SparseHist> for LogHistogram {
    fn from(s: SparseHist) -> Self {
        let mut h = LogHistogram::new();
        for (i, c) in s.bins {
            if i < NBUCKETS {
                h.counts[i] = c;
                h.total += c;
            }
        }
        h.sum = s.sum;
        h.min = s.min;
        h.max = s.max;
        h
    }
}

impl serde::Serialize for LogHistogram {
    fn serialize(&self) -> serde::Value {
        serde::Serialize::serialize(&SparseHist::from(self))
    }
}

impl serde::Deserialize for LogHistogram {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        SparseHist::deserialize(v).map(LogHistogram::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 7, 100, 127] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 127);
        // Values below 2*SUB land in width-1 buckets: percentiles exact.
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(1.0), 127.0);
        assert_eq!(h.percentile(0.5), 2.0);
    }

    #[test]
    fn index_bounds_roundtrip() {
        // Every representable value maps into a bucket whose bounds
        // contain it, and bucket edges tile the line without gaps.
        for v in (0u64..4096).chain([1 << 20, (1 << 20) + 123, u64::MAX / 2, u64::MAX]) {
            let idx = index_of(v);
            let (lo, hi) = bounds_of(idx);
            assert!(lo <= v, "v={v} idx={idx} lo={lo}");
            // The topmost bucket's upper edge is clamped to u64::MAX, so it
            // is inclusive there.
            assert!(
                v < hi || (hi == u64::MAX && v == u64::MAX),
                "v={v} idx={idx} hi={hi}"
            );
        }
        for idx in 0..NBUCKETS - 1 {
            let (_, hi) = bounds_of(idx);
            let (lo_next, _) = bounds_of(idx + 1);
            assert_eq!(hi, lo_next, "buckets must tile at idx {idx}");
        }
    }

    #[test]
    fn relative_error_bound_holds() {
        let mut h = LogHistogram::new();
        let v = 1_000_003u64;
        h.record(v);
        let p = h.percentile(0.5);
        let rel = (p - v as f64).abs() / v as f64;
        assert!(rel <= LogHistogram::REL_ERROR, "rel error {rel}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut u = LogHistogram::new();
        for i in 0..1000u64 {
            let v = i * i + 17;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a, u);
        assert_eq!(a.count(), 1000);
    }

    fn hist_of(samples: impl IntoIterator<Item = u64>) -> LogHistogram {
        let mut h = LogHistogram::new();
        for v in samples {
            h.record(v);
        }
        h
    }

    #[test]
    fn merge_is_commutative() {
        let a = hist_of((0..300u64).map(|i| i * 7 + 3));
        let b = hist_of((0..200u64).map(|i| i * i));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.percentile(0.99), ba.percentile(0.99));
    }

    #[test]
    fn merge_is_associative() {
        let a = hist_of([1u64, 50, 900, 12_345]);
        let b = hist_of((0..100u64).map(|i| i * 1000));
        let c = hist_of([u64::MAX, 0, 7]);
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_identity_is_the_empty_histogram() {
        let a = hist_of((0..50u64).map(|i| i * 31));
        let mut merged = a.clone();
        merged.merge(&LogHistogram::new());
        assert_eq!(merged, a);
        let mut empty = LogHistogram::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn count_le_is_monotone_and_complete() {
        let mut h = LogHistogram::new();
        for v in [5u64, 50, 500, 5_000, 50_000] {
            h.record(v);
        }
        assert_eq!(h.count_le(u64::MAX), h.count());
        assert_eq!(h.count_le(4), 0);
        assert_eq!(h.count_le(5), 1);
        let mut prev = 0;
        for edge in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            let c = h.count_le(edge);
            assert!(c >= prev, "count_le must be monotone");
            prev = c;
        }
    }

    #[test]
    fn serde_roundtrip_is_lossless() {
        let mut h = LogHistogram::new();
        for i in 0..500u64 {
            h.record(i * 37 + 11);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
        // Sparse form stays small relative to the 3k+ dense buckets.
        assert!(
            json.len() < 20_000,
            "sparse encoding ballooned: {}",
            json.len()
        );
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record_n(999, 5);
        for _ in 0..5 {
            b.record(999);
        }
        assert_eq!(a, b);
        a.record_n(1, 0);
        assert_eq!(a.count(), 5);
    }
}
