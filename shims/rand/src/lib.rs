//! Offline stand-in for the subset of the `rand` 0.8 API this workspace
//! uses.
//!
//! The build container has no network access and no vendored registry, so
//! the real `rand` crate cannot be fetched. This shim re-implements the
//! exact surface the workspace consumes — [`Rng::gen_range`],
//! [`Rng::gen_bool`], [`Rng::gen`], [`SeedableRng::seed_from_u64`],
//! [`rngs::StdRng`], and [`seq::SliceRandom`] — on top of a SplitMix64 /
//! xoshiro256++ generator. Streams are deterministic per seed but are
//! *not* bit-compatible with the real `rand::rngs::StdRng` (ChaCha12);
//! tests in this workspace assert structural properties, not exact
//! sampled values, so only determinism matters.

/// Low-level source of randomness: everything derives from `next_u64`.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (upper half of [`Self::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generators (the workspace only uses [`SeedableRng::seed_from_u64`]).
pub trait SeedableRng: Sized {
    /// Construct a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types sampleable from the "standard" distribution via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value from the standard distribution for this type.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw a uniform sample from the range. Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Primitive types with uniform range sampling.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from the half-open range `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform draw from the closed range `[lo, hi]`.
    fn sample_closed<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u128;
                let off = (rng.next_u64() as u128) % span;
                ((lo as $wide as u128).wrapping_add(off)) as $t
            }
            fn sample_closed<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range {lo}..={hi}");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                ((lo as $wide as u128).wrapping_add(off)) as $t
            }
        }
    )*};
}

impl_uniform_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

macro_rules! impl_uniform_float {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
                let frac = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                lo + frac * (hi - lo)
            }
            fn sample_closed<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range {lo}..={hi}");
                let frac = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                lo + frac * (hi - lo)
            }
        }
    )*};
}

impl_uniform_float!(f32, f64);

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_closed(*self.start(), *self.end(), rng)
    }
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        S: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} out of [0, 1]");
        f64::sample_standard(self) < p
    }

    /// Draw from the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic 64-bit generator (xoshiro256++ seeded via SplitMix64).
    ///
    /// Named `StdRng` for drop-in source compatibility with `rand` 0.8.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            StdRng { s }
        }
    }

    impl StdRng {
        /// Snapshot the raw xoshiro256++ state.
        ///
        /// Together with [`StdRng::from_state`] this lets a checkpointing
        /// pipeline persist its generator mid-run and resume the exact
        /// stream later — the whole-pipeline determinism guarantee extends
        /// across process restarts only because the state round-trips
        /// losslessly.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuild a generator from a [`StdRng::state`] snapshot. The
        /// restored generator continues the original stream bit-for-bit.
        pub fn from_state(s: [u64; 4]) -> Self {
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ step.
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence helpers (`shuffle`, `choose`).
pub mod seq {
    use super::{Rng, RngCore};

    /// Random operations on slices, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Element type of the slice.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// Uniformly random element, or `None` if empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(5u32..=9);
            assert!((5..=9).contains(&y));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let s: f64 = rng.gen();
            assert!((0.0..1.0).contains(&s));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn state_roundtrip_continues_stream() {
        let mut a = StdRng::seed_from_u64(41);
        // Burn part of the stream, snapshot, and check the restored
        // generator replays the remainder exactly.
        for _ in 0..17 {
            let _: u64 = a.gen();
        }
        let snap = a.state();
        let mut b = StdRng::from_state(snap);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!([0usize; 0].choose(&mut rng).is_none());
        assert!([1, 2, 3].choose(&mut rng).is_some());
    }
}
