//! One record per physical frame: page heat, owning tenant, retirement,
//! free-list membership and line wear.
//!
//! Every per-frame observer of the controller accounting point
//! (`NumaMemory::record_line_access`) keeps its state in one `FrameTable`
//! per socket, indexed by frame number minus the socket's first frame, and
//! `NumaMemory::copy_page` is the one place that state follows a remap.
//! Records are allocated in chunks of `CHUNK` frames on first touch, and a
//! frame's 64 line-wear counters on its first PCM write, so memory grows
//! with the frames a run touches rather than with the socket's capacity.

use hemu_types::{AccessKind, LineAddr, PageNum, CACHE_LINE, PAGE_SIZE};
use std::iter::zip;

/// Cache lines per frame.
pub(crate) const LINES: usize = PAGE_SIZE / CACHE_LINE;
/// Frames per chunk of records.
const CHUNK: u64 = 256;

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

impl PageHeat {
    /// A frame is sampled once any line of it reached a controller.
    pub(crate) fn sampled(&self) -> bool {
        self.reads + self.writes > 0
    }

    pub(crate) fn record(&mut self, kind: AccessKind) {
        let (total, epoch) = match kind {
            AccessKind::Read => (&mut self.reads, &mut self.epoch_reads),
            AccessKind::Write => (&mut self.writes, &mut self.epoch_writes),
        };
        *total += 1;
        *epoch += 1;
    }
}

/// The state one physical frame carries.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Frame {
    pub(crate) heat: PageHeat,
    /// The owning tenant's id plus one; 0 when no tenant owns the frame.
    owner: u16,
    pub(crate) retired: bool,
    /// On the socket's free list.
    pub(crate) free: bool,
    /// One plus the index of the frame's block in `FrameTable::wear`; 0
    /// before the frame's first PCM write.
    wear: u32,
}

impl Frame {
    pub(crate) fn owner(&self) -> Option<u16> {
        self.owner.checked_sub(1)
    }

    pub(crate) fn set_owner(&mut self, tenant: Option<u16>) {
        self.owner = tenant.map_or(0, |t| t + 1);
    }
}

/// One socket's frame records and line-wear blocks.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameTable {
    first: u64,
    chunks: Vec<Option<Box<[Frame]>>>,
    wear: Vec<[u64; LINES]>,
    /// Number of retired frames.
    pub(crate) retired: u64,
}

impl FrameTable {
    /// An empty table for the socket whose frames start at `first`.
    pub(crate) fn new(first: u64) -> Self {
        FrameTable {
            first,
            ..Self::default()
        }
    }

    /// `frame`'s record, or `None` if its chunk was never touched.
    pub(crate) fn get(&self, frame: PageNum) -> Option<&Frame> {
        let i = frame.raw() - self.first;
        let chunk = self.chunks.get((i / CHUNK) as usize)?.as_deref()?;
        Some(&chunk[(i % CHUNK) as usize])
    }

    /// `frame`'s record, allocating its chunk on first touch.
    pub(crate) fn get_mut(&mut self, frame: PageNum) -> &mut Frame {
        let i = frame.raw() - self.first;
        let c = (i / CHUNK) as usize;
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk =
            self.chunks[c].get_or_insert_with(|| vec![Frame::default(); CHUNK as usize].into());
        &mut chunk[(i % CHUNK) as usize]
    }

    /// Every allocated record in ascending frame order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PageNum, &Frame)> {
        let bases = (self.first..).step_by(CHUNK as usize);
        let chunks = self.chunks.iter().zip(bases);
        chunks.flat_map(|(c, b)| zip((b..).map(PageNum::new), c.as_deref().unwrap_or_default()))
    }

    /// Restarts every frame's epoch deltas at zero.
    pub(crate) fn reset_epoch(&mut self) {
        for f in self.chunks.iter_mut().flatten().flat_map(|c| c.iter_mut()) {
            f.heat.epoch_reads = 0;
            f.heat.epoch_writes = 0;
        }
    }

    pub(crate) fn is_retired(&self, frame: PageNum) -> bool {
        self.get(frame).is_some_and(|f| f.retired)
    }

    /// Takes `frame` out of service. Returns `true` if it was not already.
    pub(crate) fn retire(&mut self, frame: PageNum) -> bool {
        let newly = !std::mem::replace(&mut self.get_mut(frame).retired, true);
        self.retired += u64::from(newly);
        newly
    }

    /// Counts one write to `line` and returns the line's new write count.
    pub(crate) fn wear_line(&mut self, line: LineAddr) -> u64 {
        let next = self.wear.len() as u32 + 1;
        let f = self.get_mut(line.frame());
        if f.wear == 0 {
            f.wear = next;
        }
        let block = f.wear as usize - 1;
        if block == self.wear.len() {
            self.wear.push([0; LINES]);
        }
        let count = &mut self.wear[block][line.raw() as usize % LINES];
        *count += 1;
        *count
    }
}

/// The PCM socket's per-line write counts, from the opt-in wear tracking.
///
/// The paper's lifetime model (Equation 1) assumes perfect wear-levelling,
/// then discounts to 50 % of the theoretical maximum, citing Start-Gap's
/// measured efficiency. Wear tracking measures the unevenness of the write
/// stream instead, and [`Wear::levelling_efficiency`] reports how close a
/// *rotation based* wear leveller could get to ideal for it.
#[derive(Debug, Clone, Copy)]
pub struct Wear<'a>(pub(crate) &'a FrameTable);

impl<'a> Wear<'a> {
    /// Every worn frame's per-line write counts, in ascending frame order.
    pub fn pages(&self) -> impl Iterator<Item = (PageNum, &'a [u64; LINES])> {
        let table: &'a FrameTable = self.0;
        let worn = table.iter().filter(|(_, f)| f.wear > 0);
        worn.map(move |(p, f)| (p, &table.wear[f.wear as usize - 1]))
    }

    fn lines(&self) -> impl Iterator<Item = u64> + 'a {
        let table: &'a FrameTable = self.0;
        table.wear.iter().flatten().copied()
    }

    /// Number of distinct lines ever written.
    pub fn lines_touched(&self) -> u64 {
        self.lines().filter(|&c| c > 0).count() as u64
    }

    /// The hottest line's write count.
    pub fn max_line_writes(&self) -> u64 {
        self.lines().max().unwrap_or(0)
    }

    /// Wear-levelling efficiency for this write stream over a memory of
    /// `capacity_lines` lines, in `(0, 1]`.
    ///
    /// 1.0 means the stream is already perfectly even (every line of the
    /// device absorbs `total / capacity` writes); lower values mean a
    /// leveller must migrate hot lines. The estimate is the ratio of the
    /// ideal per-line wear to the observed maximum after an idealised
    /// rotation (each line's surplus over the mean spreads across the
    /// device): `mean / max(mean, hottest_line_excess_spread)` — a
    /// deliberately simple bound, not a Start-Gap simulation.
    ///
    /// Returns 1.0 if nothing was written.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero.
    pub fn levelling_efficiency(&self, capacity_lines: u64) -> f64 {
        assert!(capacity_lines > 0, "capacity must be positive");
        let total: u64 = self.lines().sum();
        if total == 0 {
            return 1.0;
        }
        let ideal = total as f64 / capacity_lines as f64;
        // A rotation leveller bounded by remap granularity leaves each
        // line with at most its fair share plus a residue of the hottest
        // line's rate spread over the rotation period. Use the observed
        // concentration (hottest line's share of all writes) as the
        // residue fraction.
        let hottest = self.max_line_writes() as f64;
        let concentration = hottest / total as f64;
        let achieved_max = ideal * (1.0 + concentration * capacity_lines as f64).max(1.0);
        (total as f64 / capacity_lines as f64 / achieved_max).clamp(0.0, 1.0)
    }
}
