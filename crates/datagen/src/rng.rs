//! Self-contained seeded PRNG for the dataset generators.
//!
//! The generators only need reproducible, statistically reasonable
//! sampling — not cryptographic quality — so a splitmix64 core keeps the
//! crate dependency-free (the build must work without network access to a
//! package registry). The API mirrors the small slice of `rand` the
//! generators used, so the call sites read the same.

use std::ops::{Range, RangeInclusive};

/// Seeded splitmix64 generator, drop-in for the generators' sampling.
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl StdRng {
    /// Seed deterministically: the same seed always yields the same
    /// stream (dataset reproducibility across runs and platforms).
    pub fn seed_from_u64(seed: u64) -> Self {
        // Pre-mix so small consecutive seeds diverge immediately.
        let mut rng = StdRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        };
        rng.next_u64();
        rng
    }

    /// splitmix64: passes BigCrush, one add + three xor-shifts.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in the range (half-open or inclusive; integer or
    /// float element types).
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Sample a uniform value of `T` over its natural domain
    /// (`f64`: `[0, 1)`).
    pub fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }
}

/// Run `property` once per seed, case `i` on `StdRng::seed_from_u64(i)`.
///
/// The randomized test suites are loops over this function. If a case
/// panics, `failing seed N` is printed after the panic message, and
/// `cases(N..N + 1, …)` in the failing test replays that case alone.
pub fn cases(seeds: Range<u64>, mut property: impl FnMut(&mut StdRng)) {
    /// Names the seed of the case in flight if the test panics inside it.
    struct Case(u64);

    impl Drop for Case {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("failing seed {}", self.0);
            }
        }
    }

    for seed in seeds {
        let _case = Case(seed);
        property(&mut StdRng::seed_from_u64(seed));
    }
}

/// Types with a natural uniform distribution for [`StdRng::gen`].
pub trait Standard {
    fn sample(rng: &mut StdRng) -> Self;
}

impl Standard for f64 {
    fn sample(rng: &mut StdRng) -> Self {
        // 53 mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Element types [`StdRng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample from the half-open range `[lo, hi)`.
    fn sample_half_open(lo: Self, hi: Self, rng: &mut StdRng) -> Self;
    /// Uniform sample from the closed range `[lo, hi]`.
    fn sample_inclusive(lo: Self, hi: Self, rng: &mut StdRng) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open(lo: Self, hi: Self, rng: &mut StdRng) -> Self {
                assert!(lo < hi, "gen_range on empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                // Multiply-shift bounded sampling (Lemire); the bias for
                // the generators' tiny spans is far below observability.
                let off = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (lo as u64).wrapping_add(off) as $t
            }
            fn sample_inclusive(lo: Self, hi: Self, rng: &mut StdRng) -> Self {
                assert!(lo <= hi, "gen_range on empty range");
                if lo == <$t>::MIN && hi == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                Self::sample_half_open(lo, hi + 1, rng)
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i32, i64);

impl SampleUniform for f64 {
    fn sample_half_open(lo: Self, hi: Self, rng: &mut StdRng) -> Self {
        assert!(lo < hi, "gen_range on empty range");
        lo + rng.gen::<f64>() * (hi - lo)
    }
    fn sample_inclusive(lo: Self, hi: Self, rng: &mut StdRng) -> Self {
        Self::sample_half_open(lo, hi, rng)
    }
}

/// Ranges [`StdRng::gen_range`] can sample from. The single blanket impl
/// per range shape keeps integer-literal inference working at call sites
/// (`gen_range(0..20)` defaults to `i32` exactly as with `rand`).
pub trait SampleRange<T> {
    fn sample(self, rng: &mut StdRng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut StdRng) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut StdRng) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..9);
            assert!((3..9).contains(&v));
            let w: usize = rng.gen_range(0..5);
            assert!(w < 5);
            let x = rng.gen_range(1..=4u64);
            assert!((1..=4).contains(&x));
        }
    }

    #[test]
    fn int_ranges_hit_every_value() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let v = rng.gen_range(1.0..25.0);
            assert!((1.0..25.0).contains(&v));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(13);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.8)).count();
        assert!((7_500..8_500).contains(&hits), "hits={hits}");
    }
}
