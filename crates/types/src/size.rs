//! Byte-size constants and the [`ByteSize`] quantity type.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// One kibibyte.
pub(crate) const KIB: usize = 1024;
/// One mebibyte.
pub const MIB: usize = 1024 * KIB;
/// One gibibyte.
pub(crate) const GIB: usize = 1024 * MIB;
/// Cache line size in bytes. All caches and memory controllers in the
/// emulated machine move data in units of this size.
pub const CACHE_LINE: usize = 64;
/// Virtual-memory page size in bytes (4 KiB, as on the paper's platform).
pub const PAGE_SIZE: usize = 4 * KIB;
/// Heap chunk size: the minimum unit of virtual memory handed to a space,
/// 4 MiB as in Jikes RVM (paper §III.A).
pub const CHUNK_SIZE: usize = 4 * MIB;
/// Machine word size in bytes (the emulated JVM is 32-bit in the paper, but
/// we model a 64-bit word as modern runtimes do; object-size accounting only).
pub const WORD: usize = 8;

/// A quantity of bytes with human-readable formatting.
///
/// # Examples
///
/// ```
/// use hemu_types::ByteSize;
/// let s = ByteSize::from_mib(4);
/// assert_eq!(s.bytes(), 4 * 1024 * 1024);
/// assert_eq!(format!("{s}"), "4.00 MiB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a quantity from a raw byte count.
    pub const fn new(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a quantity of `n` kibibytes.
    pub const fn from_kib(n: u64) -> Self {
        ByteSize(n * KIB as u64)
    }

    /// Creates a quantity of `n` mebibytes.
    pub const fn from_mib(n: u64) -> Self {
        ByteSize(n * MIB as u64)
    }

    /// Creates a quantity of `n` gibibytes.
    pub const fn from_gib(n: u64) -> Self {
        ByteSize(n * GIB as u64)
    }

    /// Returns the raw byte count.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Returns the number of whole cache lines covered by this size.
    ///
    /// Rounds up: any partial trailing line counts as a full line, because
    /// the memory system always moves whole lines.
    pub const fn lines(self) -> u64 {
        self.0.div_ceil(CACHE_LINE as u64)
    }

    /// Returns the number of whole pages covered, rounding up.
    pub const fn pages(self) -> u64 {
        self.0.div_ceil(PAGE_SIZE as u64)
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

impl From<u64> for ByteSize {
    fn from(bytes: u64) -> Self {
        ByteSize(bytes)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 >= GIB as u64 {
            write!(f, "{:.2} GiB", b / GIB as f64)
        } else if self.0 >= MIB as u64 {
            write!(f, "{:.2} MiB", b / MIB as f64)
        } else if self.0 >= KIB as u64 {
            write!(f, "{:.2} KiB", b / KIB as f64)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(ByteSize::from_kib(2).bytes(), 2048);
        assert_eq!(ByteSize::from_mib(1).bytes(), MIB as u64);
        assert_eq!(ByteSize::from_gib(1).bytes(), GIB as u64);
    }

    #[test]
    fn lines_round_up() {
        assert_eq!(ByteSize::new(1).lines(), 1);
        assert_eq!(ByteSize::new(64).lines(), 1);
        assert_eq!(ByteSize::new(65).lines(), 2);
        assert_eq!(ByteSize::ZERO.lines(), 0);
    }

    #[test]
    fn pages_round_up() {
        assert_eq!(ByteSize::new(4097).pages(), 2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", ByteSize::new(512)), "512 B");
        assert_eq!(format!("{}", ByteSize::from_kib(4)), "4.00 KiB");
        assert_eq!(format!("{}", ByteSize::from_gib(2)), "2.00 GiB");
    }

    #[test]
    fn arithmetic_and_sum() {
        let total: ByteSize = [ByteSize::new(10), ByteSize::new(20)].into_iter().sum();
        assert_eq!(total.bytes(), 30);
        assert_eq!((total - ByteSize::new(5)).bytes(), 25);
        assert_eq!(
            ByteSize::new(5).saturating_sub(ByteSize::new(9)),
            ByteSize::ZERO
        );
    }
}
