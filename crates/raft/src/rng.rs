//! The repository's one seeded random generator: xoshiro256** (Blackman &
//! Vigna) with its state filled by splitmix64. Election jitter, the Raft
//! harness's fault injection, the simulator's workloads and the chaos
//! schedules all draw from it, so a seed names one exact run: the stream is
//! pinned by `golden_stream` below and every chaos digest depends on it.

use std::ops::{Bound, RangeBounds};

/// A deterministic generator; the same seed always gives the same stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededRng {
    s: [u64; 4],
}

/// An integer type [`SeededRng::gen_range`] can draw.
pub trait UniformInt: Copy + PartialOrd {
    /// The least value.
    const MIN: Self;
    /// The greatest value.
    const MAX: Self;
    /// Conversion that keeps differences: `b.to_u64() - a.to_u64()`,
    /// wrapping, is the distance from `a` up to `b`.
    fn to_u64(self) -> u64;
    /// Truncating conversion back; inverse of `to_u64` on its image.
    fn from_u64(v: u64) -> Self;
}

macro_rules! uniform_int {
    ($($ty:ty),*) => {$(
        impl UniformInt for $ty {
            const MIN: Self = <$ty>::MIN;
            const MAX: Self = <$ty>::MAX;
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $ty
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i32);

/// The least value of `range` and how many values it holds, 0 standing for
/// all 2^64. An open end is the type's own bound. Panics on an empty range.
pub(crate) fn span_of<T: UniformInt>(range: impl RangeBounds<T>) -> (T, u64) {
    let lo = match range.start_bound() {
        Bound::Included(&lo) => lo,
        Bound::Unbounded => T::MIN,
        Bound::Excluded(_) => panic!("gen_range: range needs an inclusive lower bound"),
    };
    let distance = |hi: T| hi.to_u64().wrapping_sub(lo.to_u64());
    let span = match range.end_bound() {
        Bound::Excluded(&hi) if lo < hi => distance(hi),
        Bound::Included(&hi) if lo <= hi => distance(hi).wrapping_add(1),
        Bound::Unbounded => distance(T::MAX).wrapping_add(1),
        _ => panic!("gen_range: empty range"),
    };
    (lo, span)
}

impl SeededRng {
    /// The generator for `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SeededRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform draw from `[0, span)` by widening multiply with rejection;
    /// `span == 0` stands for all 2^64 values.
    pub(crate) fn below(&mut self, span: u64) -> u64 {
        if span == 0 {
            return self.next_u64();
        }
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(span);
            if (wide as u64) <= zone {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform draw from `lo..hi`, `lo..=hi` or, for the whole type, `..`.
    /// Panics on an empty range.
    pub fn gen_range<T: UniformInt>(&mut self, range: impl RangeBounds<T>) -> T {
        let (lo, span) = span_of(range);
        T::from_u64(lo.to_u64().wrapping_add(self.below(span)))
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} outside [0, 1]");
        ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorded under the `rand` stand-in every chaos digest and Figure-4
    /// CSV was produced with; a change here changes all of them.
    #[test]
    fn golden_stream() {
        let mut r = SeededRng::seed_from_u64(7);
        let first: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xb358_faf7_4ef9_765a,
                0x475c_3d96_4f48_2cd2,
                0xd6f1_d349_952c_7996,
                0xfb29_3873_1e80_7240,
                0xfda9_04ec_7e54_0318,
                0xdf6e_1ce3_b621_8c49,
                0x0f8d_72c2_95ec_5854,
                0x1abc_4dcb_546f_61dc,
            ]
        );
        assert_eq!(r.gen_range(0..0x00FF_FFFFu32), 6_773_071);
        assert_eq!(r.gen_range(1..=5u64), 1);
        assert_eq!(r.gen_range(0..5usize), 2);
        assert_eq!(r.gen_range(0..=u64::MAX), 13_500_401_043_614_375_896);
        let bools: Vec<bool> = (0..4).map(|_| r.gen_bool(0.6)).collect();
        assert_eq!(bools, [false, false, true, true]);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SeededRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!((3..9u32).contains(&r.gen_range(3..9u32)));
            assert!((1..=3u64).contains(&r.gen_range(1..=3u64)));
        }
    }
}
