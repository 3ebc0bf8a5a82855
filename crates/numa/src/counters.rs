//! Memory-controller traffic counters and per-page access sampling.

use hemu_obs::json::{JsonObject, ToJson};
use hemu_types::{AccessKind, ByteSize, PageNum, CACHE_LINE};
use std::collections::BTreeMap;
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

/// Read/write heat of one physical page: cumulative counts over the whole
/// run plus the deltas of the current sampling epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageHeat {
    /// Lines read from this page since tracking began.
    pub reads: u64,
    /// Lines written to this page since tracking began.
    pub writes: u64,
    /// Lines read during the current epoch.
    pub epoch_reads: u64,
    /// Lines written during the current epoch.
    pub epoch_writes: u64,
}

/// Per-page access sampling for OS-level placement decisions.
///
/// This is the emulated analog of the access-bit / PEBS sampling an OS
/// hot-page migrator relies on: every line access that reaches a memory
/// controller is attributed to its physical frame, separately for reads
/// and writes, with both cumulative totals and per-epoch deltas. Pages
/// are keyed in a `BTreeMap` so iteration order — and therefore every
/// migration decision derived from it — is deterministic.
///
/// # Examples
///
/// ```
/// use hemu_numa::PageHeatTracker;
/// use hemu_types::{AccessKind, PageNum};
///
/// let mut t = PageHeatTracker::new();
/// t.record(PageNum::new(7), AccessKind::Write);
/// t.record(PageNum::new(7), AccessKind::Read);
/// let h = t.heat(PageNum::new(7));
/// assert_eq!((h.writes, h.epoch_writes, h.reads), (1, 1, 1));
/// t.epoch_reset();
/// let h = t.heat(PageNum::new(7));
/// assert_eq!((h.writes, h.epoch_writes), (1, 0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageHeatTracker {
    pages: BTreeMap<u64, PageHeat>,
}

impl PageHeatTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attributes one line transfer to the frame it landed on.
    pub fn record(&mut self, frame: PageNum, kind: AccessKind) {
        let h = self.pages.entry(frame.raw()).or_default();
        match kind {
            AccessKind::Read => {
                h.reads += 1;
                h.epoch_reads += 1;
            }
            AccessKind::Write => {
                h.writes += 1;
                h.epoch_writes += 1;
            }
        }
    }

    /// The heat of one frame (zeroes if it was never touched).
    pub fn heat(&self, frame: PageNum) -> PageHeat {
        self.pages.get(&frame.raw()).copied().unwrap_or_default()
    }

    /// Iterates every tracked page in ascending frame order — the
    /// deterministic sampling order migration policies must rely on.
    pub fn iter(&self) -> impl Iterator<Item = (PageNum, &PageHeat)> {
        self.pages.iter().map(|(f, h)| (PageNum::new(*f), h))
    }

    /// Number of distinct frames touched so far.
    pub fn tracked_pages(&self) -> usize {
        self.pages.len()
    }

    /// Closes the sampling epoch: every page's epoch deltas restart at
    /// zero while cumulative totals are untouched.
    pub fn epoch_reset(&mut self) {
        for h in self.pages.values_mut() {
            h.epoch_reads = 0;
            h.epoch_writes = 0;
        }
    }

    /// Follows a physical remap `old → new` (page migration or wear-out
    /// retirement): the page keeps its cumulative totals under the new
    /// frame, but its epoch deltas restart at zero — the copy traffic of
    /// the move itself must not make the freshly placed page look hot.
    pub fn on_remap(&mut self, old: PageNum, new: PageNum) {
        if let Some(mut h) = self.pages.remove(&old.raw()) {
            h.epoch_reads = 0;
            h.epoch_writes = 0;
            self.pages.insert(new.raw(), h);
        }
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

    #[test]
    fn heat_tracks_cumulative_and_epoch_counts() {
        let mut t = PageHeatTracker::new();
        for _ in 0..3 {
            t.record(PageNum::new(4), AccessKind::Write);
        }
        t.record(PageNum::new(4), AccessKind::Read);
        t.record(PageNum::new(9), AccessKind::Read);
        let h = t.heat(PageNum::new(4));
        assert_eq!((h.writes, h.reads), (3, 1));
        assert_eq!((h.epoch_writes, h.epoch_reads), (3, 1));
        t.epoch_reset();
        t.record(PageNum::new(4), AccessKind::Write);
        let h = t.heat(PageNum::new(4));
        assert_eq!((h.writes, h.epoch_writes), (4, 1));
        assert_eq!(t.tracked_pages(), 2);
        assert_eq!(t.heat(PageNum::new(1234)), PageHeat::default());
    }

    #[test]
    fn iteration_is_in_ascending_frame_order() {
        let mut t = PageHeatTracker::new();
        for f in [9u64, 2, 5] {
            t.record(PageNum::new(f), AccessKind::Write);
        }
        let order: Vec<u64> = t.iter().map(|(f, _)| f.raw()).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    #[test]
    fn remap_moves_totals_and_restarts_epoch_deltas() {
        let mut t = PageHeatTracker::new();
        for _ in 0..5 {
            t.record(PageNum::new(3), AccessKind::Write);
        }
        t.record(PageNum::new(3), AccessKind::Read);
        t.on_remap(PageNum::new(3), PageNum::new(8));
        assert_eq!(t.heat(PageNum::new(3)), PageHeat::default(), "vacated");
        let h = t.heat(PageNum::new(8));
        assert_eq!((h.writes, h.reads), (5, 1), "cumulative totals follow");
        assert_eq!((h.epoch_writes, h.epoch_reads), (0, 0), "epoch restarts");
        // Remapping an untracked frame is a no-op.
        t.on_remap(PageNum::new(77), PageNum::new(78));
        assert_eq!(t.tracked_pages(), 1);
    }
}
