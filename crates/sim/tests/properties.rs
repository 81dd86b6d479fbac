//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use snapbpf_sim::{Histogram, SimDuration, SimTime, SplitMix64};

proptest! {
    /// Bounded RNG output respects its bounds for arbitrary seeds.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..64 {
            prop_assert!(rng.next_below(bound) < bound);
            let f = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&f));
        }
    }

    /// Identical seeds yield identical streams; different seeds
    /// (almost surely) diverge within a few outputs.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(seed);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(seed);
            (0..16).map(|_| r.next_u64()).collect()
        };
        prop_assert_eq!(a, b);
    }

    /// Shuffling preserves the multiset of elements.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), mut v in prop::collection::vec(any::<u32>(), 0..100)) {
        let mut sorted_before = v.clone();
        sorted_before.sort_unstable();
        SplitMix64::new(seed).shuffle(&mut v);
        v.sort_unstable();
        prop_assert_eq!(v, sorted_before);
    }

    /// Histogram percentile queries are monotone in the percentile
    /// and bracketed by min/max.
    #[test]
    fn histogram_percentiles(values in prop::collection::vec(0u64..1_000_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut prev = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p).unwrap();
            prop_assert!(v >= prev, "p{p}: {v} < {prev}");
            prop_assert!(v >= h.min().unwrap());
            prop_assert!(v <= h.max().unwrap());
            prev = v;
        }
        prop_assert_eq!(h.count(), values.len() as u64);
    }

    /// Duration arithmetic saturates instead of overflowing.
    #[test]
    fn duration_arithmetic_never_panics(a in any::<u64>(), b in any::<u64>(), k in any::<u64>()) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        let _ = da + db;
        let _ = da.saturating_sub(db);
        let _ = da * k;
        let _ = da.mul_f64(1.5);
        let _ = SimTime::from_nanos(a) + db;
        let _ = SimTime::from_nanos(a).saturating_since(SimTime::from_nanos(b));
    }
}
