//! The workspace's one pseudo-random generator: xoshiro256++ (Blackman &
//! Vigna) seeded through SplitMix64.
//!
//! The generators in this crate, `profiling`'s expression data, `bench`'s
//! fixtures and (through `testkit`, which includes this file by `#[path]`)
//! every seeded test sweep draw from it. The streams are those of the
//! `rand` stand-in gmbench was first measured with, so a seed names the same
//! dumps it always did; `tests/dump_identity.rs` pins that.

use std::ops::{Bound, RangeBounds};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = x ^ (x >> 31);
        }
        Prng { s }
    }

    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)`: 53 random mantissa bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p outside [0, 1]");
        self.gen_f64() < p
    }

    /// Uniform over an integer range (`a..b` or `a..=b`): multiply-shift
    /// maps 64 random bits onto the span.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: Copy + TryInto<i128> + TryFrom<i128>,
        R: RangeBounds<T>,
    {
        let wide = |v: T| {
            v.try_into()
                .unwrap_or_else(|_| unreachable!("integers fit i128"))
        };
        let low = match range.start_bound() {
            Bound::Included(&v) => wide(v),
            _ => panic!("gen_range: range must start at a value"),
        };
        let high = match range.end_bound() {
            Bound::Included(&v) => wide(v) + 1,
            Bound::Excluded(&v) => wide(v),
            Bound::Unbounded => panic!("gen_range: range must end at a value"),
        };
        assert!(low < high, "gen_range: empty range");
        let offset = (u128::from(self.next_u64()) * (high - low) as u128) >> 64;
        T::try_from(low + offset as i128).unwrap_or_else(|_| unreachable!("inside the range"))
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.gen_range(0..n)
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}
