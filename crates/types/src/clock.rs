//! Virtual time: cycle counts and the per-context virtual clock.
//!
//! The emulator derives write *rates* (MB/s) from virtual time rather than
//! wall-clock time, so results are deterministic. Virtual time advances by a
//! cycle cost per instruction and per memory-hierarchy event, converted to
//! seconds through the core frequency.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// A number of core clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// Returns the raw cycle count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Converts to seconds at the given core frequency (Hz).
    pub fn as_seconds(self, freq_hz: u64) -> f64 {
        self.0 as f64 / freq_hz as f64
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// A monotonically advancing virtual clock for one emulated hardware context.
///
/// # Examples
///
/// ```
/// use hemu_types::{Cycles, VirtualClock};
/// let mut clk = VirtualClock::new(2_000_000_000);
/// clk.advance(Cycles::new(4_000_000_000));
/// assert_eq!(clk.now(), Cycles::new(4_000_000_000));
/// assert!((clk.now().as_seconds(2_000_000_000) - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualClock {
    now: Cycles,
    freq_hz: u64,
}

impl VirtualClock {
    /// Creates a clock at time zero ticking at `freq_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is zero.
    pub fn new(freq_hz: u64) -> Self {
        assert!(freq_hz > 0, "clock frequency must be positive");
        VirtualClock {
            now: Cycles::ZERO,
            freq_hz,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Advances the clock. The clock never goes backwards.
    pub fn advance(&mut self, by: Cycles) {
        self.now += by;
    }

    /// Fast-forwards to `to` if it is later than the current time (used when
    /// synchronizing contexts at a barrier).
    pub fn sync_to(&mut self, to: Cycles) {
        if to > self.now {
            self.now = to;
        }
    }

    /// Resets the clock to zero (start of a measured iteration).
    pub fn reset(&mut self) {
        self.now = Cycles::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = VirtualClock::new(1_000);
        c.advance(Cycles::new(10));
        c.advance(Cycles::new(5));
        assert_eq!(c.now(), Cycles::new(15));
    }

    #[test]
    fn sync_to_never_rewinds() {
        let mut c = VirtualClock::new(1_000);
        c.advance(Cycles::new(100));
        c.sync_to(Cycles::new(50));
        assert_eq!(c.now(), Cycles::new(100));
        c.sync_to(Cycles::new(200));
        assert_eq!(c.now(), Cycles::new(200));
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut c = VirtualClock::new(1_000);
        c.advance(Cycles::new(100));
        c.reset();
        assert_eq!(c.now(), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_rejected() {
        let _ = VirtualClock::new(0);
    }

    #[test]
    fn cycles_sum() {
        let total: Cycles = [Cycles::new(1), Cycles::new(2)].into_iter().sum();
        assert_eq!(total, Cycles::new(3));
    }
}
