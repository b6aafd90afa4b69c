//! Medians and percentiles, from exact samples and from the serve
//! histogram's buckets.
//!
//! `ServeOutcome::latency()` answers with a bucket's *lower edge* — up
//! to 6 % below the truth at 16 sub-buckets per octave, too coarse for
//! a 10 % bound. [`quantile_buckets`] instead walks
//! `Histogram::nonzero_buckets()` and places the rank proportionally
//! inside the bucket it lands in.

/// Samples a percentile needs beyond it before it is worth reporting.
pub const TAIL_SAMPLES: f64 = 10.0;

/// Does a `q`-quantile of `n` samples have at least [`TAIL_SAMPLES`]
/// samples beyond it? (p90 needs 100 samples, p99 needs 1000.)
pub fn tail_supported(n: u64, q: f64) -> bool {
    // Round before comparing: 100 × (1 − 0.9) is 9.999… in binary.
    (n as f64 * (1.0 - q) * 1e9).round() / 1e9 >= TAIL_SAMPLES
}

/// Median of `v` (sorts it). 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile_sorted(v, 0.5)
}

/// The `q`-quantile of ascending `sorted` samples, interpolating
/// linearly between the two ranks it falls between. 0 when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let hi = sorted.get(lo + 1).copied().unwrap_or(last);
    sorted[lo] + frac * (hi - sorted[lo])
}

/// The `q`-quantile of a bucketed distribution: `buckets` are
/// ascending `(lower, upper, count)` rows with half-open `[lower,
/// upper)` edges. The rank `q × total` is located in its bucket and the
/// value placed proportionally between the bucket's edges, then clamped
/// to the recorded `[min, max]` (the extreme buckets are only partly
/// occupied). 0 when empty.
pub fn quantile_buckets(buckets: &[(u64, u64, u64)], min: u64, max: u64, q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.2).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for &(lo, hi, n) in buckets {
        let n = n as f64;
        if seen + n >= rank {
            let frac = (rank - seen) / n;
            let v = lo as f64 + frac * (hi as f64 - lo as f64);
            return v.clamp(min as f64, max as f64);
        }
        seen += n;
    }
    max as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::Histogram;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(tail_supported(100, 0.90));
        assert!(!tail_supported(99, 0.90));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(20, 0.50));
        assert!(!tail_supported(19, 0.50));
        assert!(!tail_supported(0, 0.50));
    }

    #[test]
    fn sorted_quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 51.0);
        assert_eq!(quantile_sorted(&v, 0.9), 91.0);
        assert_eq!(quantile_sorted(&v, 1.0), 101.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn bucket_quantiles_beat_the_lower_edge() {
        // A uniform ramp 1 µs..1 ms in ns: the true q-quantile is q ms.
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        for q in [0.5, 0.9] {
            let want = q * 1e6;
            let got = quantile_buckets(&h.nonzero_buckets(), h.min(), h.max(), q);
            assert!((got - want).abs() / want < 0.005, "q={q}: {got} vs {want}");
            let edge = h.quantile(q) as f64;
            assert!(
                (got - want).abs() <= (edge - want).abs(),
                "q={q}: interpolation {got} is no closer than the edge {edge}"
            );
        }
    }

    #[test]
    fn bucket_quantiles_clamp_to_the_recorded_range() {
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.record(1_000_003); // one bucket, one value
        }
        let b = h.nonzero_buckets();
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(quantile_buckets(&b, h.min(), h.max(), q), 1_000_003.0);
        }
        assert_eq!(quantile_buckets(&[], 0, 0, 0.5), 0.0);
    }
}
