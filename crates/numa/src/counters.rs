//! Memory-controller traffic counters.

use hemu_obs::json::{JsonObject, ToJson};
use hemu_types::{AccessKind, ByteSize, CACHE_LINE};
use std::fmt;

/// Read/write traffic counters for one socket's memory controller.
///
/// This is the simulated equivalent of the uncore counters that Intel's
/// `pcm-memory` utility samples on the paper's platform: every cache line
/// that reaches the controller is counted, reads and writes separately.
///
/// # Examples
///
/// ```
/// use hemu_numa::MemoryCounters;
/// use hemu_types::AccessKind;
///
/// let mut c = MemoryCounters::default();
/// c.record(AccessKind::Write);
/// c.record(AccessKind::Read);
/// assert_eq!(c.write_lines(), 1);
/// assert_eq!(c.written().bytes(), 64);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryCounters {
    read_lines: u64,
    write_lines: u64,
}

impl MemoryCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cache-line transfer of the given kind.
    pub fn record(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.read_lines += 1,
            AccessKind::Write => self.write_lines += 1,
        }
    }

    /// Number of cache lines read from this controller.
    pub fn read_lines(&self) -> u64 {
        self.read_lines
    }

    /// Number of cache lines written to this controller.
    ///
    /// For the PCM socket this is the paper's headline metric: PCM lifetime
    /// is inversely proportional to this count per unit time.
    pub fn write_lines(&self) -> u64 {
        self.write_lines
    }

    /// Total bytes read.
    pub fn read(&self) -> ByteSize {
        ByteSize::new(self.read_lines * CACHE_LINE as u64)
    }

    /// Total bytes written.
    pub fn written(&self) -> ByteSize {
        ByteSize::new(self.write_lines * CACHE_LINE as u64)
    }

    /// Resets both counters to zero (start of a measured iteration).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Returns a snapshot difference `self - earlier`, for interval sampling
    /// by the write-rate monitor, or `None` if `earlier` has larger counts
    /// than `self` (counters are monotonic between resets).
    pub fn since(&self, earlier: &MemoryCounters) -> Option<MemoryCounters> {
        Some(MemoryCounters {
            read_lines: self.read_lines.checked_sub(earlier.read_lines)?,
            write_lines: self.write_lines.checked_sub(earlier.write_lines)?,
        })
    }
}

impl ToJson for MemoryCounters {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("read_lines", &self.read_lines)
            .field("write_lines", &self.write_lines)
            .field("read_bytes", &self.read())
            .field("written_bytes", &self.written());
        obj.finish();
    }
}

impl fmt::Display for MemoryCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads: {} ({}), writes: {} ({})",
            self.read_lines,
            self.read(),
            self.write_lines,
            self.written()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_separates_reads_and_writes() {
        let mut c = MemoryCounters::new();
        c.record(AccessKind::Read);
        c.record(AccessKind::Read);
        c.record(AccessKind::Write);
        assert_eq!(c.read_lines(), 2);
        assert_eq!(c.write_lines(), 1);
    }

    #[test]
    fn bytes_are_lines_times_64() {
        let mut c = MemoryCounters::new();
        for _ in 0..10 {
            c.record(AccessKind::Write);
        }
        assert_eq!(c.written().bytes(), 640);
    }

    #[test]
    fn since_returns_interval_delta() {
        let mut c = MemoryCounters::new();
        c.record(AccessKind::Write);
        let snap = c;
        c.record(AccessKind::Write);
        c.record(AccessKind::Read);
        let d = c.since(&snap).unwrap();
        assert_eq!(d.write_lines(), 1);
        assert_eq!(d.read_lines(), 1);
    }

    #[test]
    fn reset_zeroes() {
        let mut c = MemoryCounters::new();
        c.record(AccessKind::Write);
        c.reset();
        assert_eq!(c.write_lines(), 0);
    }

    #[test]
    fn since_is_none_on_reversed_snapshots() {
        let mut c = MemoryCounters::new();
        c.record(AccessKind::Write);
        let later = c;
        assert_eq!(MemoryCounters::new().since(&later), None);
    }
}
