//! # proptest (offline shim)
//!
//! A small, in-tree stand-in for the [`proptest`] crate so the
//! workspace's property tests build and run in fully offline
//! environments (no registry access). It implements the API surface
//! the tests actually use — `proptest!`, `prop_assert*`,
//! `prop_oneof!`, `Just`, `any`, numeric-range and tuple strategies,
//! `prop_map`, and `prop::collection::{vec, btree_set}` — with
//! deterministic seeded generation.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case, whether a `prop_assert*`
//!   failed or the body panicked, reports the exact generated inputs
//!   (they are always `Debug`) but does not minimize them.
//! * **Fixed seeding.** Cases derive from a fixed seed and the case
//!   index, so failures reproduce bit-identically on every run —
//!   matching the repository's determinism contract (DESIGN.md §5).
//! * Default case count is 64 (set per-test with
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` or
//!   globally with the `PROPTEST_CASES` environment variable).
//!
//! [`proptest`]: https://docs.rs/proptest

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Range;

/// Test-runner plumbing: errors and the RNG handed to strategies.
pub mod test_runner {
    use std::fmt;

    /// Why a single generated case failed.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        msg: String,
    }

    impl TestCaseError {
        /// A failed property with an explanation.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError { msg: msg.into() }
        }

        /// A case whose body panicked, from the panic's payload.
        pub fn panicked(payload: &(dyn std::any::Any + Send)) -> Self {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("(non-string payload)");
            TestCaseError::fail(format!("panicked: {msg}"))
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", self.msg)
        }
    }

    /// Deterministic RNG handed to strategies (SplitMix64 — same
    /// generator family as the simulation substrate, reimplemented
    /// here so the shim stays dependency-free).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates an RNG from a seed.
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Next raw 64-bit output.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value below `bound` (`bound` must be nonzero).
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Multiply-shift rejection-free mapping is fine here; the
            // slight modulo bias of the tail is irrelevant for tests.
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Per-test configuration.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            Config { cases }
        }
    }
}

pub use test_runner::Config as ProptestConfig;
use test_runner::TestRng;

/// A value generator. The sole requirement is deterministic output
/// given the RNG state.
pub trait Strategy {
    /// The type of generated values.
    type Value: fmt::Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: fmt::Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Filters generated values, retrying until `f` accepts one
    /// (up to an attempt cap, then the last candidate is returned).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        _whence: &'static str,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, f }
    }

    /// Chains a dependent strategy.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V: fmt::Debug> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: fmt::Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Clone)]
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        let mut last = self.inner.generate(rng);
        for _ in 0..1000 {
            if (self.f)(&last) {
                break;
            }
            last = self.inner.generate(rng);
        }
        last
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between type-erased alternatives (built by
/// `prop_oneof!`).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V: fmt::Debug> Union<V> {
    /// Builds a union from its arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V: fmt::Debug> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = if span > u64::MAX as u128 {
                    // Only reachable for 128-bit-wide u64/i64 spans:
                    // combine two draws.
                    ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span
                } else {
                    rng.below(span as u64) as u128
                };
                (self.start as i128 + off as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + rng.unit_f64() as f32 * (self.end - self.start)
    }
}

/// Upstream treats string literals as regexes to generate matching
/// strings. The shim does not carry a regex engine; a literal
/// generates arbitrary strings (length 0..64, mixing ASCII,
/// whitespace, and multi-byte code points), which over-approximates
/// the `"\PC*"`-style "any text" patterns the workspace uses on
/// totality tests.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let len = rng.below(64) as usize;
        (0..len)
            .map(|_| match rng.below(8) {
                0 => char::from_u32(0x20 + rng.below(0x5F) as u32).unwrap_or(' '),
                1 => ['\n', '\t', ' '][rng.below(3) as usize],
                2 => char::from_u32(0xA1 + rng.below(0x100) as u32).unwrap_or('¡'),
                3 => char::from_u32(0x4E00 + rng.below(0x100) as u32).unwrap_or('一'),
                _ => char::from_u32(b'a' as u32 + rng.below(26) as u32).unwrap_or('a'),
            })
            .collect()
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident / $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6)
}

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: fmt::Debug + Sized {
    /// Generates an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, well-spread doubles (property tests here never
        // need NaN/Inf).
        (rng.next_u64() as i64 as f64) * (1.0 + rng.unit_f64())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f64::arbitrary(rng) as f32
    }
}

/// The canonical strategy for `T` (`any::<u64>()` etc.).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Returns the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Strategy combinators namespace (`prop::collection::vec`, ...).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::collections::BTreeSet;
        use std::fmt;
        use std::ops::Range;

        /// Length specification for collection strategies.
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> SizeRange {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> SizeRange {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        impl SizeRange {
            fn pick(&self, rng: &mut TestRng) -> usize {
                self.lo + rng.below((self.hi - self.lo) as u64) as usize
            }
        }

        /// Generates `Vec`s of values from `element`.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.size.pick(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// A `Vec` strategy with lengths drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// Generates `BTreeSet`s of values from `element`.
        pub struct BTreeSetStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for BTreeSetStrategy<S>
        where
            S::Value: Ord + fmt::Debug,
        {
            type Value = BTreeSet<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
                let want = self.size.pick(rng);
                let mut set = BTreeSet::new();
                // Retry cap so small domains cannot loop forever; a
                // slightly small set is fine for property tests.
                for _ in 0..want.saturating_mul(8).max(16) {
                    if set.len() >= want {
                        break;
                    }
                    set.insert(self.element.generate(rng));
                }
                set
            }
        }

        /// A `BTreeSet` strategy with target sizes drawn from `size`.
        pub fn btree_set<S: Strategy>(
            element: S,
            size: impl Into<SizeRange>,
        ) -> BTreeSetStrategy<S> {
            BTreeSetStrategy {
                element,
                size: size.into(),
            }
        }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside `proptest!`, reporting the generated
/// inputs on failure instead of panicking mid-case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Defines property tests. Each `#[test] fn name(pat in strategy,
/// ...) { body }` item becomes a normal test that runs the body over
/// generated inputs; `prop_assert*` failures report the inputs.
///
/// (The `#[test]` attribute is captured together with doc comments
/// in the meta repetition and re-emitted verbatim.)
#[macro_export]
macro_rules! proptest {
    // With a leading config attribute.
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@items ($config) $($rest)*);
    };
    (@items ($config:expr)) => {};
    (
        @items ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            // Fixed per-test seed: the test's name hashed at runtime
            // is stable across runs and processes (FNV-1a).
            let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
            for b in stringify!($name).bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
            }
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::new(
                    seed.wrapping_add((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                let values = ($($crate::Strategy::generate(&$strategy, &mut rng),)+);
                let repr = format!("{:?}", values);
                // A panicking body is reported like a failing one,
                // with the case and its inputs.
                let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(||
                    -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    let ($($pat,)+) = values;
                    $body
                    ::core::result::Result::Ok(())
                }))
                .unwrap_or_else(|payload| {
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::panicked(
                        payload.as_ref(),
                    ))
                });
                if let ::core::result::Result::Err(e) = result {
                    panic!(
                        "proptest case {}/{} failed: {}\n  inputs: {}",
                        case + 1,
                        config.cases,
                        e,
                        repr
                    );
                }
            }
        }
        $crate::proptest!(@items ($config) $($rest)*);
    };
    // No leading config attribute: run with the default config.
    (
        $($rest:tt)*
    ) => {
        $crate::proptest!(
            @items (<$crate::ProptestConfig as ::core::default::Default>::default())
            $($rest)*
        );
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::new(7);
        for _ in 0..1000 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
            let i = (-5i16..5).generate(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn oneof_uses_all_arms() {
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = crate::test_runner::TestRng::new(11);
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    #[test]
    fn generation_is_deterministic() {
        let s = prop::collection::vec(any::<u64>(), 0..20);
        let a: Vec<Vec<u64>> = (0..10)
            .map(|i| s.generate(&mut crate::test_runner::TestRng::new(i)))
            .collect();
        let b: Vec<Vec<u64>> = (0..10)
            .map(|i| s.generate(&mut crate::test_runner::TestRng::new(i)))
            .collect();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The macro wires patterns, strategies, and asserts.
        #[test]
        fn macro_end_to_end(mut v in prop::collection::vec(0u32..100, 0..50), k in any::<bool>()) {
            if k {
                v.push(1);
            }
            prop_assert!(v.len() <= 50);
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(v.len(), v.len() + 1);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in 0u8..10) {
            prop_assert!(x < 10);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        /// Panics on its first case (`x + v[0]` is always 10; the
        /// condition keeps the body's end reachable). Run by the test
        /// below.
        fn panics_on_every_case(x in 3u8..4, v in prop::collection::vec(7u8..8, 2)) {
            if x + v[0] == 10 {
                panic!("boom at {x}");
            }
        }
    }

    #[test]
    fn a_panicking_case_reports_its_inputs() {
        let payload = std::panic::catch_unwind(panics_on_every_case).unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("formatted report");
        assert_eq!(
            msg,
            "proptest case 1/4 failed: panicked: boom at 3\n  inputs: (3, [7, 7])"
        );
    }
}
