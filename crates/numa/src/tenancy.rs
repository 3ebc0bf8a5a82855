//! Per-tenant write attribution for consolidated (multi-tenant) runs.
//!
//! Every physical frame is owned by at most one tenant — the tenant whose
//! demand fault allocated it, following the page through wear remaps and
//! OS migrations (`NumaMemory::copy_page`). The owner is a field of the
//! frame's record (`frames.rs`). Controller line writes are charged to the
//! owning tenant at the single accounting point
//! (`NumaMemory::record_line_access`), so per-tenant counts sum exactly to
//! the global controller counters: every write lands either in one
//! tenant's bucket or in the `unattributed` bucket, never both, never
//! neither.

use hemu_types::SocketId;

/// Per-tenant controller write counters.
#[derive(Debug, Clone)]
pub struct TenancyTracker {
    /// `[DRAM, PCM]` controller line writes charged to each tenant, then
    /// one last row for writes to frames with no owner. That row should
    /// stay 0 in a well-formed consolidation run; the CI smoke greps for
    /// exactly that.
    lines: Vec<[u64; 2]>,
}

impl TenancyTracker {
    /// Creates a tracker for `tenants` tenants (ids `0..tenants`, at most
    /// `u16::MAX` of them).
    pub(crate) fn new(tenants: usize) -> Self {
        TenancyTracker {
            lines: vec![[0; 2]; tenants.min(u16::MAX as usize) + 1],
        }
    }

    /// Number of tenants this tracker attributes to.
    pub(crate) fn tenants(&self) -> usize {
        self.lines.len() - 1
    }

    /// Charges one controller line write at `socket` to the frame's
    /// `owner` (or the unattributed row).
    #[inline]
    pub(crate) fn record_write(&mut self, owner: Option<u16>, socket: SocketId) {
        let row = owner.map_or(self.tenants(), usize::from);
        self.lines[row][usize::from(socket == SocketId::PCM)] += 1;
    }

    fn tenant(&self, tenant: usize) -> [u64; 2] {
        self.lines[..self.tenants()]
            .get(tenant)
            .copied()
            .unwrap_or_default()
    }

    /// PCM line writes charged to `tenant` since the last reset.
    pub fn pcm_lines(&self, tenant: usize) -> u64 {
        self.tenant(tenant)[1]
    }

    /// DRAM line writes charged to `tenant` since the last reset.
    pub fn dram_lines(&self, tenant: usize) -> u64 {
        self.tenant(tenant)[0]
    }

    /// PCM line writes that hit a frame with no owner.
    pub fn unattributed_pcm(&self) -> u64 {
        self.lines[self.tenants()][1]
    }

    /// DRAM line writes that hit a frame with no owner.
    pub fn unattributed_dram(&self) -> u64 {
        self.lines[self.tenants()][0]
    }

    /// Zeroes every write counter (frame ownership is kept) — the
    /// measured-iteration reset: the tenants keep their memory, the
    /// measurement interval restarts.
    pub(crate) fn reset_counts(&mut self) {
        self.lines.fill([0; 2]);
    }
}
