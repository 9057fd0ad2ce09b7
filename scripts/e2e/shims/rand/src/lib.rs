//! The slice of rand 0.8 the generators use (`SmallRng::seed_from_u64`,
//! `gen`, `gen_range`, `gen_bool`) over xoshiro256++ seeded by SplitMix64.
//! Streams differ from crates.io rand, so generated ecosystems differ from
//! a crates.io build; they are stable for a seed.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits: uniform in [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Types `Rng::gen_range` can draw uniformly from a range of.
pub trait SampleUniform: Sized {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low < high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u128;
                // multiply-shift maps 64 random bits onto [0, span)
                let offset = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (low as i128 + offset) as $t
            }

            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low <= high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u128 + 1;
                let offset = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (low as i128 + offset) as $t
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: f64, high: f64) -> f64 {
        assert!(low < high, "gen_range: empty range");
        low + (high - low) * f64::sample(rng)
    }

    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: f64, high: f64) -> f64 {
        assert!(low <= high, "gen_range: empty range");
        low + (high - low) * f64::sample(rng)
    }
}

/// Range shapes `Rng::gen_range` accepts. One generic impl per shape (not
/// one per integer type) so an unsuffixed literal range infers its type
/// from the call site, as it does with crates.io rand.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(rng, low, high)
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p outside [0, 1]");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna), state filled by SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = x ^ (x >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}
