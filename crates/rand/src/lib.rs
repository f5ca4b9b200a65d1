//! Offline drop-in subset of the `rand` 0.9 API.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the tiny slice of `rand` it actually uses: [`SeedableRng`],
//! the [`Rng::random_range`] method over integer and float ranges, and
//! [`rngs::SmallRng`] (implemented as SplitMix64 — deterministic, fast,
//! and statistically fine for workload generation; no compatibility with
//! upstream `rand` streams is promised or required).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// Seedable random number generators.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type that can be sampled uniformly from a `Range`.
pub trait SampleUniform: Copy {
    /// Samples uniformly from `lo..hi` given a raw 64-bit draw source.
    fn sample(range: &Range<Self>, draw: &mut dyn FnMut() -> u64) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(range: &Range<Self>, draw: &mut dyn FnMut() -> u64) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Multiply-shift rejection-free mapping: bias is bounded by
                // span/2^64, negligible for the small spans used here.
                let r = ((draw() as u128 * span) >> 64) as i128;
                (range.start as i128 + r) as $t
            }
        }
    )*};
}

impl_sample_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl SampleUniform for f64 {
    fn sample(range: &Range<Self>, draw: &mut dyn FnMut() -> u64) -> Self {
        assert!(range.start < range.end, "empty range");
        let unit = (draw() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + unit * (range.end - range.start)
    }
}

impl SampleUniform for f32 {
    fn sample(range: &Range<Self>, draw: &mut dyn FnMut() -> u64) -> Self {
        assert!(range.start < range.end, "empty range");
        let unit = (draw() >> 40) as f32 / (1u64 << 24) as f32;
        range.start + unit * (range.end - range.start)
    }
}

/// The user-facing sampling interface.
pub trait Rng {
    /// The next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Samples uniformly from `range`.
    fn random_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        let mut draw = || self.next_u64_dyn();
        T::sample(&range, &mut draw)
    }

    /// Object-safe forwarding helper for `random_range`.
    #[doc(hidden)]
    fn next_u64_dyn(&mut self) -> u64 {
        self.next_u64()
    }

    /// A uniformly random boolean.
    fn random_bool(&mut self, p: f64) -> bool {
        self.random_range(0.0..1.0) < p
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// A small, fast, non-cryptographic generator (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        state: u64,
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            SmallRng { state: seed }
        }
    }

    impl Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let i = r.random_range(-8i64..8);
            assert!((-8..8).contains(&i));
            let u = r.random_range(0usize..3);
            assert!(u < 3);
            let f = r.random_range(0.3f64..0.7);
            assert!((0.3..0.7).contains(&f));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }
}
