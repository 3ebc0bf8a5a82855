//! Write provenance: controller line writes counted by cause and heap
//! space at the single accounting point (`NumaMemory::record_line_access`),
//! so each split of a socket sums exactly to its controller's write lines.

use hemu_types::{SocketId, SpaceTag, WriteCause, WriteTag};

/// Per-cause / per-space controller write counts, in cache *lines*,
/// indexed by [`WriteCause`] and [`SpaceTag`] discriminant.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteProvenance {
    /// PCM-socket write lines by cause.
    pub pcm_by_cause: [u64; WriteCause::ALL.len()],
    /// PCM-socket write lines by heap space.
    pub pcm_by_space: [u64; SpaceTag::ALL.len()],
    /// DRAM-socket write lines by cause.
    pub dram_by_cause: [u64; WriteCause::ALL.len()],
    /// DRAM-socket write lines by heap space.
    pub dram_by_space: [u64; SpaceTag::ALL.len()],
}

impl WriteProvenance {
    /// Attributes one line write arriving at `socket` to the raw tag `tag`.
    #[inline]
    pub(crate) fn record(&mut self, socket: SocketId, tag: u8) {
        let t = WriteTag::from_raw(tag);
        let (c, s) = (t.cause() as usize, t.space() as usize);
        if socket == SocketId::PCM {
            self.pcm_by_cause[c] += 1;
            self.pcm_by_space[s] += 1;
        } else {
            self.dram_by_cause[c] += 1;
            self.dram_by_space[s] += 1;
        }
    }
}
