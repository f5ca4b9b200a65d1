//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of `proptest` its property tests use: the
//! [`Strategy`] trait over ranges, tuples, mapped strategies and
//! [`collection::vec`], the `proptest!` test macro with
//! `#![proptest_config(...)]`, and the `prop_assert*` macros.
//!
//! Semantics deliberately kept simple: cases are generated from a fixed
//! deterministic seed per test (reproducible CI), failures panic
//! immediately (no shrinking). That preserves the *checking* power of the
//! original tests while dropping the counterexample-minimization comfort.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// Deterministic 64-bit generator driving value generation (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// The next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy producing one constant value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + r) as $t
            }
        }
    )*};
}

impl_range_strategy_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty strategy range");
        let unit = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
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

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Something usable as a collection-size specification: a fixed
    /// length or a half-open range of lengths.
    pub trait SizeRange {
        /// Picks a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.clone().generate(rng)
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Generates a `Vec` of values from `element`, with `len` elements.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-test configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy,
    };
}

/// Skips the current case when its precondition does not hold.
///
/// Works because each generated case runs inside a `|| -> ()` closure,
/// so `return` abandons only that case, not the whole test.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !$cond {
            return;
        }
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests.
///
/// Supports the subset of the upstream grammar this workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     /// Optional docs.
///     #[test]
///     fn my_property(x in 0u64..10, v in collection::vec(0u8..8, 10)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    // With a leading config attribute.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!(($cfg) $($rest)*);
    };
    // Without one: default config.
    ($($rest:tt)*) => {
        $crate::__proptest_tests!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Internal muncher: one test function at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            // A fixed per-test seed keeps runs reproducible while varying
            // the stream between tests.
            let seed = {
                let name = stringify!($name);
                let mut h: u64 = 0xcbf29ce484222325;
                for b in name.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100000001b3);
                }
                h
            };
            let mut rng = $crate::TestRng::new(seed);
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let run = || -> () { $body };
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                if let Err(e) = result {
                    eprintln!(
                        "proptest: {} failed at case {}/{}",
                        stringify!($name), case + 1, config.cases
                    );
                    std::panic::resume_unwind(e);
                }
            }
        }
        $crate::__proptest_tests!(($cfg) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Range strategies stay in bounds; vec lengths are respected.
        #[test]
        fn bounds_hold(n in 2usize..10, v in collection::vec(0u8..8, 10), x in 0.05f64..1.0) {
            prop_assert!((2..10).contains(&n));
            prop_assert_eq!(v.len(), 10);
            prop_assert!(v.iter().all(|&b| b < 8));
            prop_assert!((0.05..1.0).contains(&x));
        }

        #[test]
        fn tuples_and_map(p in (1u32..5, 10u32..20).prop_map(|(a, b)| a + b)) {
            prop_assert!((11..25).contains(&p));
            prop_assert_ne!(p, 0);
        }
    }
}
