//! Statistics collection: percentile histograms used by every layer
//! of the simulation.

use std::collections::BTreeMap;

use crate::time::SimDuration;

/// The standard quantile points reported across the workspace
/// (p50 / p90 / p99 / p99.9).
///
/// [`Histogram::quantile`] accepts these, so every layer shares one
/// tail-latency vocabulary.
///
/// # Examples
///
/// ```
/// use snapbpf_sim::Quantile;
///
/// assert_eq!(Quantile::P999.percent(), 99.9);
/// assert_eq!(Quantile::P90.label(), "p90");
/// assert_eq!(Quantile::ALL.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantile {
    /// The median.
    P50,
    /// The 90th percentile.
    P90,
    /// The 99th percentile.
    P99,
    /// The 99.9th percentile.
    P999,
}

impl Quantile {
    /// Every quantile point, in ascending order.
    pub const ALL: [Quantile; 4] = [Quantile::P50, Quantile::P90, Quantile::P99, Quantile::P999];

    /// Percentile rank in `0..=100` (`P999` → `99.9`).
    pub const fn percent(self) -> f64 {
        match self {
            Quantile::P50 => 50.0,
            Quantile::P90 => 90.0,
            Quantile::P99 => 99.0,
            Quantile::P999 => 99.9,
        }
    }

    /// Short display label (`"p50"` … `"p99.9"`).
    pub const fn label(self) -> &'static str {
        match self {
            Quantile::P50 => "p50",
            Quantile::P90 => "p90",
            Quantile::P99 => "p99",
            Quantile::P999 => "p99.9",
        }
    }
}

/// A log-bucketed histogram for latency-like values.
///
/// Buckets are powers of two of nanoseconds with 4 sub-buckets each,
/// giving ~19% worst-case relative error on percentile queries — more
/// than enough for "who wins and by what factor" comparisons.
///
/// # Examples
///
/// ```
/// use snapbpf_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0).unwrap();
/// assert!((400..=600).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u64, u64>,
    count: u64,
    total: u128,
    max: u64,
    min: u64,
}

const SUB_BUCKET_BITS: u32 = 2; // 4 sub-buckets per power of two

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: BTreeMap::new(),
            count: 0,
            total: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    fn bucket_key(value: u64) -> u64 {
        if value < (1 << SUB_BUCKET_BITS) {
            return value;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BUCKET_BITS;
        // Key encodes (exponent, top sub-bucket bits): monotone in value.
        (value >> shift) + ((shift as u64) << (SUB_BUCKET_BITS + 1))
    }

    fn bucket_representative(value: u64) -> u64 {
        // Midpoint of the bucket containing `value`.
        if value < (1 << SUB_BUCKET_BITS) {
            return value;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BUCKET_BITS;
        let base = (value >> shift) << shift;
        base + (1u64 << shift) / 2
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        *self.buckets.entry(Self::bucket_key(value)).or_insert(0) += 1;
        self.count += 1;
        self.total += value as u128;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Records a duration, in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Exact maximum recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact minimum recorded value, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Approximate value at percentile `p` (0–100), or `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        let mut result = self.min;
        for (&key, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // Reconstruct a representative value for this key by
                // scanning: key encoding is monotone so we invert it
                // approximately via the recorded min/max clamp below.
                result = Self::invert_key(key);
                break;
            }
        }
        Some(result.clamp(self.min, self.max))
    }

    fn invert_key(key: u64) -> u64 {
        if key < (1 << SUB_BUCKET_BITS) {
            return key;
        }
        let shift = key >> (SUB_BUCKET_BITS + 1);
        let mantissa = key & ((1 << (SUB_BUCKET_BITS + 1)) - 1);
        let base = mantissa << shift;
        Self::bucket_representative(base)
    }

    /// Approximate value at quantile `q`, or `None` when empty.
    /// Shares [`Histogram::percentile`]'s ~19% worst-case relative
    /// error.
    pub fn quantile(&self, q: Quantile) -> Option<u64> {
        self.percentile(q.percent())
    }

    /// The `p`-th percentile of a *nanosecond-valued* histogram,
    /// converted to seconds (0.0 when empty) — the common shape the
    /// figure generators report.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub fn percentile_secs(&self, p: f64) -> f64 {
        self.percentile(p).map(|ns| ns as f64 / 1e9).unwrap_or(0.0)
    }

    /// Mean of a *nanosecond-valued* histogram, in seconds (0.0 when
    /// empty).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.mean() / 1e9
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&k, &n) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += n;
        }
        self.count += other.count;
        self.total += other.total;
        if other.count > 0 {
            self.max = self.max.max(other.max);
            self.min = self.min.min(other.min);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_monotone() {
        let mut h = Histogram::new();
        let mut rng = crate::rng::SplitMix64::new(42);
        for _ in 0..10_000 {
            h.record(rng.next_range(1, 1_000_000));
        }
        let p50 = h.percentile(50.0).unwrap();
        let p90 = h.percentile(90.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        assert!(p50 <= p90 && p90 <= p99);
        assert!(h.min().unwrap() <= p50);
        assert!(p99 <= h.max().unwrap());
    }

    #[test]
    fn histogram_relative_error_is_bounded() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(100_000);
        }
        let p50 = h.percentile(50.0).unwrap() as f64;
        let err = (p50 - 100_000.0).abs() / 100_000.0;
        assert!(err < 0.20, "relative error {err} too large");
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0), Some(0));
        assert_eq!(h.percentile(100.0), Some(3));
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_merge_sums_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1_000_000));
    }

    #[test]
    fn histogram_quantiles_match_uniform_distribution() {
        // Uniform on [1, 1_000_000]: the q-th quantile is q * max.
        let mut h = Histogram::new();
        let mut rng = crate::rng::SplitMix64::new(7);
        for _ in 0..50_000 {
            h.record(rng.next_range(1, 1_000_000));
        }
        for q in Quantile::ALL {
            let expect = q.percent() / 100.0 * 1_000_000.0;
            let got = h.quantile(q).unwrap() as f64;
            // Bucketing error (~19%) plus sampling noise.
            let err = (got - expect).abs() / expect;
            assert!(err < 0.25, "{}: got {got}, expected {expect}", q.label());
        }
        assert_eq!(h.quantile(Quantile::P50), h.percentile(50.0));
        assert_eq!(h.quantile(Quantile::P999), h.percentile(99.9));
    }

    #[test]
    fn histogram_secs_helpers() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile_secs(99.0), 0.0);
        assert_eq!(h.mean_secs(), 0.0);
        h.record_duration(SimDuration::from_secs(2));
        assert!((h.percentile_secs(50.0) - 2.0).abs() < 0.5);
        assert!((h.mean_secs() - 2.0).abs() < 1e-12);
    }
}
