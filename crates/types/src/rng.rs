//! Deterministic random numbers.
//!
//! All stochastic choices in the platform (synthetic workload shapes, graph
//! generation, allocation size draws) come from [`DeterministicRng`], a PCG64
//! generator with a documented, version-stable stream. Experiments are
//! therefore pure functions of their configuration and seed.
//!
//! The generator is implemented in-tree (no external crates) as PCG
//! XSL-RR 128/64 — the algorithm known as `Pcg64` in the Rust `rand_pcg`
//! crate and as `pcg64` in the reference PCG library. Seeding, stream
//! derivation, bounded sampling and float conversion reproduce the exact
//! bit streams the platform produced when it still depended on
//! `rand` 0.8 + `rand_pcg` 0.3, so all experiment results are stable
//! across the dependency removal.

/// The 128-bit LCG multiplier of the reference PCG implementation.
const PCG128_MULT: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

/// PCG XSL-RR 128/64: a 128-bit linear congruential generator whose state
/// is mixed down to 64 output bits with an xor-shift-low + random rotate.
///
/// The period is 2¹²⁸ per stream; odd `increment` values select among 2¹²⁷
/// distinct streams.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pcg64 {
    state: u128,
    increment: u128,
}

impl Pcg64 {
    /// Constructs the generator from a state/stream pair, as
    /// `Lcg128Xsl64::new` does: `increment = (stream << 1) | 1`.
    ///
    /// Only the reference-vector test exercises this entry point; the
    /// platform itself always seeds through [`Pcg64::seed_from_u64`].
    #[cfg_attr(not(test), allow(dead_code))]
    fn new(state: u128, stream: u128) -> Self {
        Self::from_state_incr(state, (stream << 1) | 1)
    }

    /// Constructs from a 32-byte seed laid out as four little-endian `u64`
    /// words: the low two words form the initial state, the high two the
    /// stream increment (forced odd).
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut w = [0u64; 4];
        for (i, word) in w.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&seed[i * 8..i * 8 + 8]);
            *word = u64::from_le_bytes(b);
        }
        let state = w[0] as u128 | ((w[1] as u128) << 64);
        let incr = w[2] as u128 | ((w[3] as u128) << 64);
        Self::from_state_incr(state, incr | 1)
    }

    fn from_state_incr(state: u128, increment: u128) -> Self {
        let mut pcg = Pcg64 {
            state: state.wrapping_add(increment),
            increment,
        };
        pcg.step();
        pcg
    }

    /// Expands a 64-bit seed into a 32-byte seed with the PCG32-based
    /// key-stretching routine `rand_core` 0.6 uses for `seed_from_u64`, so
    /// seeded streams match the historical ones bit for bit.
    fn seed_from_u64(seed: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut state = seed;
        let mut bytes = [0u8; 32];
        for chunk in bytes.chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            chunk.copy_from_slice(&xorshifted.rotate_right(rot).to_le_bytes());
        }
        Self::from_seed(bytes)
    }

    #[inline]
    fn step(&mut self) {
        self.state = self
            .state
            .wrapping_mul(PCG128_MULT)
            .wrapping_add(self.increment);
    }

    /// Advances the LCG and mixes the new state down to 64 bits
    /// (xor-shift-low, random rotate).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.step();
        let rot = (self.state >> 122) as u32;
        let xsl = ((self.state >> 64) as u64) ^ (self.state as u64);
        xsl.rotate_right(rot)
    }
}

/// A seeded, reproducible random number generator.
///
/// Thin wrapper around PCG64 that hides the concrete generator from the
/// public API (C-NEWTYPE-HIDE) and offers the handful of draw shapes the
/// platform needs.
///
/// # Examples
///
/// ```
/// use hemu_types::DeterministicRng;
/// let mut a = DeterministicRng::seeded(42);
/// let mut b = DeterministicRng::seeded(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    inner: Pcg64,
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        DeterministicRng {
            inner: Pcg64::seed_from_u64(seed),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// Uses the widening-multiply rejection method (`rand` 0.8's
    /// single-sample path), so draws match the historical streams.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Reject values that fall past the largest multiple of `bound`,
        // leaving a bias-free uniform sample.
        let zone = (bound << bound.leading_zeros()).wrapping_sub(1);
        loop {
            let v = self.next_u64();
            let wide = (v as u128) * (bound as u128);
            let (hi, lo) = ((wide >> 64) as u64, wide as u64);
            if lo <= zone {
                return hi;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo.wrapping_add(self.below(hi - lo))
    }

    /// Uniform float in `[0, 1)`, from the top 53 bits of one draw.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// A draw from a truncated geometric-like distribution over `[min, max]`,
    /// skewed toward `min`. Used for object-size distributions where most
    /// objects are small and a few are large.
    pub fn skewed(&mut self, min: u64, max: u64) -> u64 {
        assert!(min <= max, "skewed: min must be <= max");
        if min == max {
            return min;
        }
        // Sample an exponent uniformly, giving a log-uniform distribution.
        let lo = (min as f64).ln();
        let hi = (max as f64 + 1.0).ln();
        let x = (lo + self.unit_f64() * (hi - lo)).exp();
        (x as u64).clamp(min, max)
    }

    /// A Zipf-like draw in `[0, n)` with exponent `theta` (0 = uniform,
    /// larger = more skew). Used for power-law vertex popularity.
    pub fn zipf(&mut self, n: u64, theta: f64) -> u64 {
        assert!(n > 0, "zipf: n must be positive");
        if theta <= f64::EPSILON {
            return self.below(n);
        }
        // Inverse-CDF approximation of a bounded Pareto.
        let u = self.unit_f64();
        let x = ((n as f64).powf(1.0 - theta) * u + (1.0 - u)).powf(1.0 / (1.0 - theta));
        (x as u64 - 1).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference PCG demo program's first outputs for
    /// `pcg64(42, 54)` — the canonical cross-implementation check for
    /// XSL-RR 128/64 with `increment = (stream << 1) | 1`.
    #[test]
    fn matches_the_reference_pcg64_vector() {
        let mut g = Pcg64::new(42, 54);
        let expected: [u64; 6] = [
            0x86b1_da1d_7206_2b68,
            0x1304_aa46_c985_3d39,
            0xa367_0e9e_0dd5_0358,
            0xf909_0e52_9a7d_ae00,
            0xc85b_9fd8_3799_6f2c,
            0x6061_21f8_e391_9196,
        ];
        for e in expected {
            assert_eq!(g.next_u64(), e, "reference stream diverged");
        }
    }

    /// Golden values pinning the seeded stream for seed 42: any change to
    /// seeding or output mixing silently alters every experiment, so the
    /// first draws are frozen here.
    #[test]
    fn seed_42_stream_is_pinned() {
        let mut r = DeterministicRng::seeded(42);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                0x39fc_b970_a300_1809,
                0x3d36_1897_2c55_d911,
                0xc2c5_fa78_9a8b_6a2d,
                0x8720_7ff1_e296_60ec,
            ],
            "seeded(42) stream diverged from the pinned golden values"
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::seeded(7);
        let mut b = DeterministicRng::seeded(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DeterministicRng::seeded(1);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn below_covers_small_ranges_uniformly() {
        let mut r = DeterministicRng::seeded(9);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[r.below(4) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!((800..1200).contains(c), "bucket {i} got {c} of 4000 draws");
        }
    }

    #[test]
    fn unit_f64_is_a_half_open_unit_draw() {
        let mut r = DeterministicRng::seeded(11);
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn skewed_stays_in_range_and_prefers_small() {
        let mut r = DeterministicRng::seeded(2);
        let mut small = 0;
        for _ in 0..2000 {
            let v = r.skewed(16, 4096);
            assert!((16..=4096).contains(&v));
            if v < 256 {
                small += 1;
            }
        }
        // Log-uniform over [16, 4096]: [16,256) covers half the log range.
        assert!(
            small > 700,
            "distribution should be skewed small, got {small}"
        );
    }

    #[test]
    fn zipf_in_bounds_and_skewed() {
        let mut r = DeterministicRng::seeded(3);
        let mut head = 0;
        for _ in 0..2000 {
            let v = r.zipf(1000, 0.8);
            assert!(v < 1000);
            if v < 100 {
                head += 1;
            }
        }
        assert!(head > 800, "zipf head should dominate, got {head}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = DeterministicRng::seeded(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
