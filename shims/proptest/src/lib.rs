//! Offline stand-in for the subset of the `proptest` API this workspace
//! uses.
//!
//! The build container cannot fetch crates, so the real `proptest` is
//! unavailable. This shim implements random-input property testing with
//! the same source syntax: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map` / `prop_flat_map`, range and tuple strategies,
//! `prop::collection::vec`, and the `prop_assert!` / `prop_assert_eq!` /
//! `prop_assume!` macros. It does **not** implement shrinking: a failing
//! case reports the seed and case index instead of a minimized input.
//! Case generation is deterministic per test (seeded from the test name,
//! overridable with `CATAPULT_PROPTEST_SEED`).

use rand::rngs::StdRng;
use rand::{Rng, SampleRange, SampleUniform, SeedableRng};

/// Why a single generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` filtered the input; try another case.
    Reject(String),
    /// An assertion failed; the test fails.
    Fail(String),
}

/// Runner configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic RNG handed to strategies by the [`proptest!`] runner.
#[derive(Debug)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeded from the test name (FNV-1a), or `CATAPULT_PROPTEST_SEED`.
    pub fn deterministic(test_name: &str) -> Self {
        let seed = std::env::var("CATAPULT_PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or_else(|| fnv1a(test_name.as_bytes()));
        TestRng(StdRng::seed_from_u64(seed))
    }

    /// Uniform sample from a range (delegates to the `rand` shim).
    pub fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        self.0.gen_range(range)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A generator of random values (no shrinking in this shim).
pub trait Strategy {
    /// Type of generated values.
    type Value;

    /// Generate one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` returns.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
#[derive(Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

impl<T: SampleUniform> Strategy for std::ops::Range<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T: SampleUniform> Strategy for std::ops::RangeInclusive<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.clone())
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec`]: an exact `usize` or a range.
    pub trait IntoSizeRange {
        /// Inclusive (lo, hi) bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end.saturating_sub(1))
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy for vectors of `element` with length in `size`.
    #[derive(Debug)]
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    /// Vector of values from `element`, length drawn from `size`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, size: L) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        VecStrategy { element, lo, hi }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.gen_range(self.lo..=self.hi);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a `proptest!` test file needs, mirroring
/// `proptest::prelude::*` (including the `prop` module alias).
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Assert inside a `proptest!` body; failure fails the current case with
/// location info rather than panicking immediately.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} ({}) at {}:{}",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}) at {}:{}",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {} ({}) at {}:{}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    }};
}

/// Discard the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Define property tests:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn my_prop(x in 0u32..100, v in prop::collection::vec(0..10u32, 1..8)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ($cfg:expr; $(
        #[test]
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            let mut accepted: u32 = 0;
            let mut rejected: u32 = 0;
            let mut case: u64 = 0;
            while accepted < config.cases {
                case += 1;
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                let outcome = (move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject(what)) => {
                        rejected += 1;
                        assert!(
                            rejected <= config.cases.saturating_mul(256),
                            "proptest '{}': too many prop_assume! rejections (last: {})",
                            stringify!($name),
                            what,
                        );
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest '{}' failed on case #{case} (after {accepted} ok): {msg}",
                            stringify!($name),
                        );
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_vecs(x in 1usize..10, v in prop::collection::vec(0u32..5, 2..6)) {
            prop_assert!((1..10).contains(&x));
            prop_assert!(v.len() >= 2 && v.len() < 6);
            for &e in &v {
                prop_assert!(e < 5, "element {} out of range", e);
            }
        }

        #[test]
        fn flat_map_and_map(pair in (2usize..6).prop_flat_map(|n| {
            (Just(n), prop::collection::vec(0u64..100, n))
        }).prop_map(|(n, v)| (n, v))) {
            prop_assert_eq!(pair.0, pair.1.len());
        }

        #[test]
        fn assume_filters(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn prop_assert_reports_failure_as_err() {
        fn check(x: u32) -> Result<(), TestCaseError> {
            prop_assert!(x > 100, "x was {}", x);
            Ok(())
        }
        assert!(matches!(check(5), Err(TestCaseError::Fail(_))));
        assert!(check(101).is_ok());
    }
}
