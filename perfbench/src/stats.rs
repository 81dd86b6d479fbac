//! Small statistics helpers: medians, and quantiles read back from the
//! simulator's log-bucketed latency histograms.

use snapbpf_sim::Histogram;

/// Median of `values` (the mean of the middle pair for an even
/// count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Value of sample `rank` (1-based, in sorted order) as the histogram
/// reports it: its bucket's representative, clamped to the recorded
/// range.
fn value_at_rank(h: &Histogram, rank: u64) -> u64 {
    // `percentile(p)` looks up rank `ceil(p / 100 × count)`; asking for
    // `rank - 0.5` keeps the ceiling exactly on `rank`.
    let p = 100.0 * (rank as f64 - 0.5) / h.count() as f64;
    h.percentile(p.clamp(0.0, 100.0))
        .expect("rank lookups only run on non-empty histograms")
}

/// Bounds `[lo, lo + width)` of the histogram bucket holding `v`:
/// values below 4 have exact buckets, larger ones four sub-buckets per
/// power of two.
fn bucket_bounds(v: u64) -> (u64, u64) {
    if v < 4 {
        return (v, 1);
    }
    let shift = 63 - v.leading_zeros() - 2;
    ((v >> shift) << shift, 1 << shift)
}

/// The `q`-quantile (0–1) of histogram `h`, interpolated linearly
/// inside the bucket that holds it; `None` when `h` is empty.
///
/// The histogram keeps only bucket counts, so its own percentiles
/// step from bucket midpoint to bucket midpoint and read the same for
/// runs whose distributions differ slightly. Spreading each bucket's
/// samples evenly over its width gives a value that moves continuously
/// with the distribution, while staying inside the same bucket the
/// histogram's own percentile names.
pub fn hist_quantile(h: &Histogram, q: f64) -> Option<f64> {
    let count = h.count();
    if count == 0 {
        return None;
    }
    let x = q.clamp(0.0, 1.0) * count as f64;
    let rank = (x.ceil() as u64).clamp(1, count);
    let v = value_at_rank(h, rank);
    // First and last rank sharing `v`'s bucket, by binary search over
    // the monotone rank -> value map.
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if value_at_rank(h, mid) < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, count);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if value_at_rank(h, mid) > v {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let (base, width) = bucket_bounds(v);
    let min = h.min().unwrap_or(base) as f64;
    let max = h.max().unwrap_or(base) as f64;
    let start = (base as f64).max(min);
    let end = ((base + width) as f64).min(max + 1.0).max(start);
    let k = (last - first + 1) as f64;
    let within = ((x - (first - 1) as f64) / k).clamp(0.0, 1.0);
    Some(start + within * (end - start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_stays_inside_the_histograms_bucket() {
        let mut h = Histogram::new();
        for v in 1_000..=2_000u64 {
            h.record(v * 1_000);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let interp = hist_quantile(&h, q).unwrap();
            let step = h.percentile(q * 100.0).unwrap();
            let (base, width) = bucket_bounds(step);
            assert!(
                interp >= base as f64 && interp <= (base + width) as f64,
                "q{q}: {interp} outside bucket of {step}"
            );
        }
        // Uniform data: the interpolated median lands near the true one.
        let p50 = hist_quantile(&h, 0.5).unwrap();
        assert!((p50 / 1.5e6 - 1.0).abs() < 0.05, "p50 {p50}");
    }

    #[test]
    fn quantile_moves_with_the_distribution_inside_a_bucket() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100u64 {
            a.record(1_100_000 + v);
            b.record(1_100_000 + v);
        }
        b.record(1_200_000);
        b.record(1_210_000);
        let bucket = |h: &Histogram| bucket_bounds(h.percentile(50.0).unwrap());
        assert_eq!(bucket(&a), bucket(&b), "same bucket");
        assert_ne!(hist_quantile(&a, 0.5), hist_quantile(&b, 0.5));
    }

    #[test]
    fn empty_histograms_have_no_quantile() {
        assert_eq!(hist_quantile(&Histogram::new(), 0.5), None);
    }
}
