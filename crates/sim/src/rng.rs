//! A small, fast, deterministic pseudo-random number generator.
//!
//! The simulation substrate deliberately carries its own RNG
//! (SplitMix64, Steele et al., OOPSLA '14) instead of pulling `rand`
//! into every crate: the generator's exact output sequence is part of
//! the reproducibility contract, so it must not change underneath us
//! with a dependency upgrade.

/// SplitMix64 pseudo-random number generator.
///
/// Passes BigCrush when used as a 64-bit generator and is more than
/// adequate for driving simulated device latency jitter and workload
/// layout. Never use it for anything security-sensitive.
///
/// # Examples
///
/// ```
/// use snapbpf_sim::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Identical seeds yield
    /// identical sequences.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        // Lemire 2019: unbiased bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_range requires lo <= hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// A value drawn from an approximately normal distribution with
    /// the given mean and standard deviation (Irwin–Hall sum of 12
    /// uniforms; plenty for latency jitter).
    pub fn next_gaussian(&mut self, mean: f64, stddev: f64) -> f64 {
        let sum: f64 = (0..12).map(|_| self.next_f64()).sum();
        mean + (sum - 6.0) * stddev
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

impl Default for SplitMix64 {
    /// Seeds with a fixed constant; equivalent to `SplitMix64::new(0)`.
    fn default() -> Self {
        SplitMix64::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_vector() {
        // Reference values from the canonical SplitMix64 with seed 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn bounded_values_in_range() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..10_000 {
            let v = rng.next_below(37);
            assert!(v < 37);
            let r = rng.next_range(10, 20);
            assert!((10..=20).contains(&r));
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn zero_bound_panics() {
        SplitMix64::new(1).next_below(0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SplitMix64::new(5);
        assert!(!rng.next_bool(0.0));
        assert!(rng.next_bool(1.0));
        // Out-of-range p is clamped rather than panicking.
        assert!(rng.next_bool(7.5));
    }

    #[test]
    fn gaussian_is_roughly_centered() {
        let mut rng = SplitMix64::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_gaussian(5.0, 2.0)).sum::<f64>() / n as f64;
        assert!(
            (mean - 5.0).abs() < 0.1,
            "sample mean {mean} too far from 5.0"
        );
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(21);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 elements should not be identity");
    }

    #[test]
    fn full_range_does_not_loop_forever() {
        let mut rng = SplitMix64::new(2);
        let _ = rng.next_range(0, u64::MAX);
    }
}
