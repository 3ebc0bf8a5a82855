//! The PCM lifetime model of §VI.G.
//!
//! Lifetime in years before failure, assuming wear-levelling:
//!
//! ```text
//! Y = (S × E) / (B × 2²⁵)
//! ```
//!
//! with `S` the PCM capacity in bytes, `E` the cell endurance in writes,
//! `B` the application write rate in bytes/second, and 2²⁵ ≈ seconds per
//! year. Perfect wear-levelling is unrealistic; the paper assumes hardware
//! wear-levelling within 50 % of the theoretical maximum (Start-Gap), so
//! the default model halves the ideal lifetime.

use hemu_types::ByteSize;

/// The three PCM endurance prototypes of Table III (writes per cell).
pub const ENDURANCE_PROTOTYPES: [u64; 3] = [10_000_000, 30_000_000, 50_000_000];

/// Parameters of the lifetime estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeModel {
    /// PCM main-memory capacity (32 GB in the paper).
    pub capacity: ByteSize,
    /// Cell endurance in writes.
    pub endurance: u64,
    /// Wear-levelling efficiency in `(0, 1]` (0.5 in the paper).
    pub wear_levelling_efficiency: f64,
}

impl LifetimeModel {
    /// The paper's configuration for one endurance prototype.
    pub fn paper(endurance: u64) -> Self {
        LifetimeModel {
            capacity: ByteSize::from_gib(32),
            endurance,
            wear_levelling_efficiency: 0.5,
        }
    }

    /// Lifetime in years at the given write rate (bytes per second).
    ///
    /// Returns infinity for a zero write rate.
    pub fn years(&self, write_rate_bytes_per_sec: f64) -> f64 {
        lifetime_years(
            self.capacity,
            self.endurance,
            write_rate_bytes_per_sec,
            self.wear_levelling_efficiency,
        )
    }
}

/// Equation 1: `Y = S × E / (B × 2²⁵)`, scaled by the wear-levelling
/// efficiency.
///
/// # Panics
///
/// Panics if `wear_levelling_efficiency` is outside `(0, 1]`.
pub(crate) fn lifetime_years(
    capacity: ByteSize,
    endurance_writes_per_cell: u64,
    write_rate_bytes_per_sec: f64,
    wear_levelling_efficiency: f64,
) -> f64 {
    assert!(
        wear_levelling_efficiency > 0.0 && wear_levelling_efficiency <= 1.0,
        "wear-levelling efficiency must be in (0, 1]"
    );
    if write_rate_bytes_per_sec <= 0.0 {
        return f64::INFINITY;
    }
    let ideal = capacity.bytes() as f64 * endurance_writes_per_cell as f64
        / (write_rate_bytes_per_sec * 2f64.powi(25));
    ideal * wear_levelling_efficiency
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_papers_order_of_magnitude() {
        // A 160 MB/s worst-case write rate with 10 M endurance and 50 %
        // wear levelling gives a ~30-year ideal halved to ~15; the paper's
        // Table III single-program worst case is 10 years at a somewhat
        // higher rate.
        let y = lifetime_years(ByteSize::from_gib(32), 10_000_000, 160e6, 0.5);
        assert!((y - 32.0).abs() < 3.0, "y = {y}");
    }

    #[test]
    fn lifetime_scales_linearly_with_endurance_and_inverse_with_rate() {
        let base = lifetime_years(ByteSize::from_gib(32), 10_000_000, 100e6, 0.5);
        let tripled = lifetime_years(ByteSize::from_gib(32), 30_000_000, 100e6, 0.5);
        let faster = lifetime_years(ByteSize::from_gib(32), 10_000_000, 200e6, 0.5);
        assert!((tripled / base - 3.0).abs() < 1e-9);
        assert!((faster / base - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_never_wears_out() {
        assert!(lifetime_years(ByteSize::from_gib(32), 10_000_000, 0.0, 0.5).is_infinite());
    }

    #[test]
    fn perfect_wear_levelling_doubles_the_paper_model() {
        let paper = LifetimeModel::paper(10_000_000).years(140e6);
        let perfect = lifetime_years(ByteSize::from_gib(32), 10_000_000, 140e6, 1.0);
        assert!((perfect / paper - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn efficiency_must_be_positive() {
        let _ = lifetime_years(ByteSize::from_gib(32), 1, 1.0, 0.0);
    }
}
