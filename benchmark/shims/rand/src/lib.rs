//! Offline stand-in for the `rand` crate: `StdRng::seed_from_u64` with
//! `gen`, `gen_range` and `gen_bool`. The generator is xoshiro256** seeded
//! through splitmix64, **not** the real crate's ChaCha12, so a seed gives a
//! different (but equally repeatable) stream than it would with crates.io's
//! `rand`.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// A type `Rng::gen_range` can draw uniformly.
pub trait SampleUniform: Sized {
    /// Uniform in `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform in `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// A range `Rng::gen_range` can sample from. One generic impl per range
/// kind, as in the real crate, so an untyped literal range takes its type
/// from where the result is used.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(lo, hi, rng)
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} outside [0, 1]");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Uniform draw from `[0, span)` by widening multiply with rejection.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        let wide = (v as u128) * (span as u128);
        if (wide as u64) <= zone {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! int_impls {
    ($($ty:ty => $wide:ty),*) => {$(
        impl Standard for $ty {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $ty
            }
        }
        impl SampleUniform for $ty {
            fn sample_half_open<R: RngCore + ?Sized>(lo: $ty, hi: $ty, rng: &mut R) -> $ty {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                (lo as $wide).wrapping_add(below(rng, span) as $wide) as $ty
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $ty, hi: $ty, rng: &mut R) -> $ty {
                assert!(lo <= hi, "gen_range: empty range");
                let span = ((hi as $wide).wrapping_sub(lo as $wide) as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $ty;
                }
                (lo as $wide).wrapping_add(below(rng, span) as $wide) as $ty
            }
        }
    )*};
}

int_impls!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
           i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** (Blackman & Vigna), state filled by splitmix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}
