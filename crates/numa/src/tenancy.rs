//! Per-tenant write attribution for consolidated (multi-tenant) runs.
//!
//! Every physical frame is owned by at most one tenant — the tenant whose
//! demand fault allocated it, following the frame through wear remaps and
//! OS migrations. Controller line writes are then charged to the owning
//! tenant at the single accounting point
//! (`NumaMemory::record_line_access`), so per-tenant counts sum exactly to
//! the global controller counters: every write lands either in one
//! tenant's bucket or in the `unattributed` bucket, never both, never
//! neither.

use hemu_types::{PageNum, SocketId};
use std::collections::HashMap;

/// Frame-ownership map plus per-tenant controller write counters.
///
/// The map is only ever *looked up* (never iterated), so the hash-map
/// ordering cannot leak into any exported artifact; counts are plain
/// order-insensitive sums.
#[derive(Debug, Clone)]
pub struct TenancyTracker {
    /// Physical frame → owning tenant.
    owner: HashMap<u64, u16>,
    /// PCM controller line writes charged to each tenant.
    pcm_write_lines: Vec<u64>,
    /// DRAM controller line writes charged to each tenant.
    dram_write_lines: Vec<u64>,
    /// PCM line writes to frames with no owner (should stay 0 in a
    /// well-formed consolidation run; the CI smoke greps for exactly that).
    unattributed_pcm: u64,
    /// DRAM line writes to frames with no owner.
    unattributed_dram: u64,
}

impl TenancyTracker {
    /// Creates a tracker for `tenants` tenants (ids `0..tenants`).
    pub fn new(tenants: usize) -> Self {
        TenancyTracker {
            owner: HashMap::new(),
            pcm_write_lines: vec![0; tenants],
            dram_write_lines: vec![0; tenants],
            unattributed_pcm: 0,
            unattributed_dram: 0,
        }
    }

    /// Number of tenants this tracker attributes to.
    pub fn tenants(&self) -> usize {
        self.pcm_write_lines.len()
    }

    /// Records `frame` as owned by `tenant` (the demand fault that
    /// allocated it). Out-of-range tenant ids are ignored.
    pub fn assign(&mut self, frame: PageNum, tenant: u16) {
        if (tenant as usize) < self.pcm_write_lines.len() {
            self.owner.insert(frame.raw(), tenant);
        }
    }

    /// Clears `frame`'s ownership (the frame was freed).
    pub fn clear(&mut self, frame: PageNum) {
        self.owner.remove(&frame.raw());
    }

    /// Follows a physical remap `old → new`: the owner moves with the
    /// page, so migration/retirement copy writes to the replacement frame
    /// are charged to the owning tenant. Call *before* the copy traffic is
    /// recorded.
    pub fn on_remap(&mut self, old: PageNum, new: PageNum) {
        if let Some(t) = self.owner.remove(&old.raw()) {
            self.owner.insert(new.raw(), t);
        }
    }

    /// Charges one controller line write at `socket` within `frame` to its
    /// owning tenant (or the unattributed bucket).
    #[inline]
    pub fn record_write(&mut self, frame: PageNum, socket: SocketId) {
        let pcm = socket == SocketId::PCM;
        match self.owner.get(&frame.raw()) {
            Some(&t) if pcm => self.pcm_write_lines[t as usize] += 1,
            Some(&t) => self.dram_write_lines[t as usize] += 1,
            None if pcm => self.unattributed_pcm += 1,
            None => self.unattributed_dram += 1,
        }
    }

    /// PCM line writes charged to `tenant` since the last reset.
    pub fn pcm_lines(&self, tenant: usize) -> u64 {
        self.pcm_write_lines.get(tenant).copied().unwrap_or(0)
    }

    /// DRAM line writes charged to `tenant` since the last reset.
    pub fn dram_lines(&self, tenant: usize) -> u64 {
        self.dram_write_lines.get(tenant).copied().unwrap_or(0)
    }

    /// PCM line writes that hit a frame with no owner.
    pub fn unattributed_pcm(&self) -> u64 {
        self.unattributed_pcm
    }

    /// DRAM line writes that hit a frame with no owner.
    pub fn unattributed_dram(&self) -> u64 {
        self.unattributed_dram
    }

    /// Zeroes every write counter while keeping frame ownership — the
    /// measured-iteration reset: the tenants keep their memory, the
    /// measurement interval restarts.
    pub fn reset_counts(&mut self) {
        self.pcm_write_lines.iter_mut().for_each(|c| *c = 0);
        self.dram_write_lines.iter_mut().for_each(|c| *c = 0);
        self.unattributed_pcm = 0;
        self.unattributed_dram = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_are_charged_to_the_owning_tenant() {
        let mut t = TenancyTracker::new(2);
        let f = PageNum::new(7);
        t.assign(f, 1);
        t.record_write(f, SocketId::PCM);
        t.record_write(f, SocketId::PCM);
        t.record_write(f, SocketId::DRAM);
        assert_eq!(t.pcm_lines(1), 2);
        assert_eq!(t.dram_lines(1), 1);
        assert_eq!(t.pcm_lines(0), 0);
        assert_eq!(t.unattributed_pcm() + t.unattributed_dram(), 0);
    }

    #[test]
    fn unowned_frames_fall_into_the_unattributed_bucket() {
        let mut t = TenancyTracker::new(1);
        t.record_write(PageNum::new(3), SocketId::PCM);
        t.record_write(PageNum::new(3), SocketId::DRAM);
        assert_eq!(t.unattributed_pcm(), 1);
        assert_eq!(t.unattributed_dram(), 1);
    }

    #[test]
    fn remap_moves_ownership_and_clear_drops_it() {
        let mut t = TenancyTracker::new(1);
        let (old, new) = (PageNum::new(1), PageNum::new(2));
        t.assign(old, 0);
        t.on_remap(old, new);
        t.record_write(new, SocketId::PCM);
        t.record_write(old, SocketId::PCM);
        assert_eq!(t.pcm_lines(0), 1, "the replacement frame is owned");
        assert_eq!(t.unattributed_pcm(), 1, "the dead frame is not");
        t.clear(new);
        t.record_write(new, SocketId::PCM);
        assert_eq!(t.pcm_lines(0), 1);
    }

    #[test]
    fn reset_zeroes_counts_but_keeps_ownership() {
        let mut t = TenancyTracker::new(1);
        let f = PageNum::new(9);
        t.assign(f, 0);
        t.record_write(f, SocketId::PCM);
        t.reset_counts();
        assert_eq!(t.pcm_lines(0), 0);
        t.record_write(f, SocketId::PCM);
        assert_eq!(t.pcm_lines(0), 1, "ownership survived the reset");
    }

    #[test]
    fn out_of_range_tenant_ids_are_ignored() {
        let mut t = TenancyTracker::new(1);
        let f = PageNum::new(4);
        t.assign(f, 5);
        t.record_write(f, SocketId::PCM);
        assert_eq!(t.unattributed_pcm(), 1);
    }
}
