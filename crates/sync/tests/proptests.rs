//! Property-based tests for the concurrency substrates.

use iluvatar_sync::aimd::AimdConfig;
use iluvatar_sync::stats::{percentile, Histogram, MovingWindow, Welford};
use iluvatar_sync::{
    Aimd, Backoff, BackoffConfig, LogHistogram, ManualClock, ShardedMap, TokenBucket,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

proptest! {
    /// ShardedMap must agree with a reference HashMap under any sequence of
    /// insert/remove/update operations.
    #[test]
    fn shardmap_matches_hashmap(ops in proptest::collection::vec((0u8..4, 0u16..64, any::<u32>()), 1..200)) {
        let sm: ShardedMap<u16, u32> = ShardedMap::new();
        let mut hm: HashMap<u16, u32> = HashMap::new();
        for (op, k, v) in ops {
            match op {
                0 => {
                    prop_assert_eq!(sm.insert(k, v), hm.insert(k, v));
                }
                1 => {
                    prop_assert_eq!(sm.remove(&k), hm.remove(&k));
                }
                2 => {
                    prop_assert_eq!(sm.get(&k), hm.get(&k).copied());
                }
                _ => {
                    let a = sm.update(&k, |x| { *x = x.wrapping_add(1); *x });
                    let b = hm.get_mut(&k).map(|x| { *x = x.wrapping_add(1); *x });
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(sm.len(), hm.len());
        }
        let mut snap = sm.snapshot();
        snap.sort_unstable();
        let mut expect: Vec<_> = hm.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(snap, expect);
    }

    /// Welford mean/variance must match the two-pass closed form.
    #[test]
    fn welford_matches_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((w.variance() - var).abs() < 1e-4 * var.abs().max(1.0));
    }

    /// Percentiles are monotone in q and bounded by min/max.
    #[test]
    fn percentile_monotone(xs in proptest::collection::vec(-1e9f64..1e9, 1..100),
                           q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = percentile(&xs, lo);
        let p_hi = percentile(&xs, hi);
        prop_assert!(p_lo <= p_hi + 1e-9);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p_lo >= min - 1e-9 && p_hi <= max + 1e-9);
    }

    /// MovingWindow statistics are always over the last `cap` samples.
    #[test]
    fn moving_window_is_suffix(cap in 1usize..20, xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let mut mw = MovingWindow::new(cap);
        for &x in &xs {
            mw.push(x);
        }
        let suffix: Vec<f64> = xs.iter().rev().take(cap).copied().collect();
        let mean = suffix.iter().sum::<f64>() / suffix.len() as f64;
        prop_assert!((mw.mean() - mean).abs() < 1e-9);
        prop_assert_eq!(mw.last(), Some(*xs.last().unwrap()));
        prop_assert_eq!(mw.len(), xs.len().min(cap));
    }

    /// AIMD limit always stays within [min, max] clamps.
    #[test]
    fn aimd_respects_clamps(signals in proptest::collection::vec(any::<bool>(), 1..500),
                            init in 1.0f64..100.0) {
        let cfg = AimdConfig { increase: 1.0, decrease: 0.5, min: 2.0, max: 48.0 };
        let mut a = Aimd::new(init, cfg);
        for s in signals {
            let lim = a.observe(s);
            prop_assert!((2..=48).contains(&lim), "limit {lim} out of clamp");
        }
    }

    /// A token bucket never grants more than burst + rate * elapsed tokens.
    #[test]
    fn token_bucket_conserves(advances in proptest::collection::vec(0u64..500, 1..60)) {
        let clock = Arc::new(ManualClock::new());
        let rate = 100.0; // per second
        let burst = 10.0;
        let tb = TokenBucket::new(rate, burst, clock.clone());
        let mut granted = 0u64;
        let mut elapsed = 0u64;
        for adv in advances {
            clock.advance(adv);
            elapsed += adv;
            while tb.try_take() {
                granted += 1;
            }
        }
        let budget = burst + rate * elapsed as f64 / 1000.0;
        prop_assert!((granted as f64) <= budget + 1e-6,
            "granted {granted} > budget {budget}");
    }

    /// Advancing the clock never *decreases* a token bucket's balance
    /// (refill monotonicity), and the balance is always capped at burst —
    /// the determinism contract the admission controller's per-tenant rate
    /// limits rely on under a virtual clock.
    #[test]
    fn token_bucket_refill_monotone(
        rate in 0.1f64..1_000.0,
        burst in 1.0f64..100.0,
        steps in proptest::collection::vec((0u64..2_000, any::<bool>()), 1..80),
    ) {
        let clock = Arc::new(ManualClock::new());
        let tb = TokenBucket::new(rate, burst, clock.clone());
        prop_assert!((tb.tokens() - burst).abs() < 1e-9, "starts full");
        for (adv, take) in steps {
            let before = tb.tokens();
            clock.advance(adv);
            let after = tb.tokens();
            prop_assert!(after >= before - 1e-9,
                "refill went backwards: {before} -> {after} after +{adv}ms");
            prop_assert!(after <= burst + 1e-9, "balance {after} above burst {burst}");
            if take {
                let had = tb.tokens();
                let got = tb.try_take();
                prop_assert_eq!(got, had >= 1.0 - 1e-9, "grant iff a whole token is present");
                if got {
                    prop_assert!((had - tb.tokens() - 1.0).abs() < 1e-9, "take removes one token");
                }
            }
        }
        // A fresh bucket at any starting offset is still full: refill
        // depends only on virtual-time deltas, not absolute time.
        let tb2 = TokenBucket::new(rate, burst, Arc::new(ManualClock::starting_at(123_456)));
        prop_assert!((tb2.tokens() - burst).abs() < 1e-9);
    }

    /// `wait_hint_ms` is honest: advancing by the hint always makes the
    /// next `try_take` succeed, and a zero hint means tokens are available
    /// right now.
    #[test]
    fn token_bucket_wait_hint_is_sufficient(
        rate in 0.1f64..1_000.0,
        burst in 1.0f64..50.0,
        drain in 0u32..200,
    ) {
        let clock = Arc::new(ManualClock::new());
        let tb = TokenBucket::new(rate, burst, clock.clone());
        for _ in 0..drain {
            tb.try_take();
        }
        let hint = tb.wait_hint_ms(1.0);
        if hint == 0 {
            prop_assert!(tb.try_take(), "zero hint must mean a token is ready");
        } else {
            clock.advance(hint);
            prop_assert!(tb.try_take(),
                "advancing by the hint ({hint}ms) must yield a token");
        }
    }

    /// Histogram total equals the number of recorded samples and the
    /// bucketed quantile is monotone.
    #[test]
    fn histogram_invariants(xs in proptest::collection::vec(0.0f64..500.0, 1..300)) {
        let mut h = Histogram::new(10.0, 20);
        for &x in &xs {
            h.record(x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
        let in_buckets: u64 = h.counts().iter().sum();
        prop_assert_eq!(in_buckets + h.overflow(), h.total());
        prop_assert!(h.quantile_lower_edge(0.25) <= h.quantile_lower_edge(0.75));
    }

    /// LogHistogram percentiles stay within the advertised relative-error
    /// bound of the exact nearest-rank sample, at every quantile.
    #[test]
    fn loghist_percentile_error_bounded(
        xs in proptest::collection::vec(0u64..1_000_000_000_000, 1..500),
        q in 0.0f64..1.0,
    ) {
        let mut h = LogHistogram::new();
        for &x in &xs {
            h.record(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
        let exact = sorted[rank] as f64;
        let est = h.percentile(q);
        let tol = exact * LogHistogram::REL_ERROR + 1e-9;
        prop_assert!((est - exact).abs() <= tol,
            "q={} exact={} est={} tol={}", q, exact, est, tol);
        prop_assert_eq!(h.count(), xs.len() as u64);
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
    }

    /// Merging two LogHistograms is exactly equivalent to recording the
    /// union of their samples into one, and survives a serde round trip.
    #[test]
    fn loghist_merge_equals_union(
        xs in proptest::collection::vec(0u64..1_000_000_000, 0..200),
        ys in proptest::collection::vec(0u64..1_000_000_000, 0..200),
    ) {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut union = LogHistogram::new();
        for &x in &xs {
            a.record(x);
            union.record(x);
        }
        for &y in &ys {
            b.record(y);
            union.record(y);
        }
        a.merge(&b);
        prop_assert_eq!(&a, &union);
        let wire = serde_json::to_string(&a).unwrap();
        let back: LogHistogram = serde_json::from_str(&wire).unwrap();
        prop_assert_eq!(&back, &union);
    }

    /// Nominal (jitter-free) backoff delays are monotone non-decreasing in
    /// the attempt number and saturate at the cap.
    #[test]
    fn backoff_nominal_monotone_and_capped(
        base in 1u64..1_000,
        cap in 1u64..100_000,
        seed in any::<u64>(),
    ) {
        let cfg = BackoffConfig { base_ms: base, cap_ms: cap, jitter: 0.0 };
        let b = Backoff::new(cfg, seed);
        let mut prev = 0u64;
        for attempt in 0..64u32 {
            let d = b.nominal_ms(attempt);
            prop_assert!(d >= prev, "attempt {attempt}: {d} < {prev}");
            prop_assert!(d <= cap.max(base.min(cap)), "attempt {attempt}: {d} > cap {cap}");
            prev = d;
        }
        // With zero jitter the realized delay equals the nominal one.
        prop_assert_eq!(b.delay_ms(5), b.nominal_ms(5));
    }

    /// Jitter only ever shrinks a delay, and never below `(1 - jitter)` of
    /// nominal — so every realized delay is bounded by the cap.
    #[test]
    fn backoff_jitter_bounded_by_cap(
        base in 1u64..1_000,
        cap in 1u64..100_000,
        jitter in 0.0f64..1.0,
        seed in any::<u64>(),
        attempt in 0u32..64,
    ) {
        let cfg = BackoffConfig { base_ms: base, cap_ms: cap, jitter };
        let b = Backoff::new(cfg.clone(), seed);
        let nominal = b.nominal_ms(attempt);
        let d = b.delay_ms(attempt);
        prop_assert!(d <= nominal, "jitter must not inflate: {d} > {nominal}");
        prop_assert!(d <= cap, "delay {d} above cap {cap}");
        let floor = (nominal as f64 * (1.0 - jitter)).floor() as u64;
        prop_assert!(d + 1 >= floor, "delay {d} below jitter floor {floor}");
        // Same seed and attempt always produce the same delay.
        prop_assert_eq!(d, Backoff::new(cfg.clone(), seed).delay_ms(attempt));
    }
}
