//! The virtual-memory layout of the managed heap.
//!
//! Mirrors Figure 1 of the paper: the user heap starts at `PCM_START`; the
//! range up to `PCM_END` is the PCM-backed portion, followed by the
//! DRAM-backed portion up to `DRAM_END`. The nursery (and the observer
//! space next to it) live at one end of virtual memory so the generational
//! boundary write barrier is a single address compare.

use hemu_types::{Addr, ByteSize, MIB};

/// Start of the boot space (boot image runner + VM image files).
pub(crate) const BOOT_START: Addr = Addr::new(0x1000_0000);
/// Size reserved for the boot space.
pub(crate) const BOOT_SIZE: ByteSize = ByteSize::new(16 * MIB as u64);

/// `PCM_START`: beginning of the user heap and of its PCM-backed portion.
pub(crate) const PCM_START: Addr = Addr::new(0x2000_0000);
/// `PCM_END`: end of the PCM-backed portion, start of the DRAM-backed one.
pub(crate) const PCM_END: Addr = Addr::new(0x8000_0000);
/// `DRAM_END`: end of the DRAM-backed chunk portion.
pub(crate) const DRAM_END: Addr = Addr::new(0xB000_0000);

/// Start of the region reserved for the observer space.
pub(crate) const OBSERVER_START: Addr = Addr::new(0xB000_0000);
/// Maximum observer reservation.
pub(crate) const OBSERVER_MAX: ByteSize = ByteSize::new(256 * MIB as u64);

/// Start of the nursery reservation. The observer region directly below
/// extends the young side of virtual memory for KG-W.
pub(crate) const NURSERY_START: Addr = Addr::new(0xC000_0000);
/// Maximum nursery reservation.
pub(crate) const NURSERY_MAX: ByteSize = ByteSize::new(256 * MIB as u64);

/// Small DRAM region used as the remembered-set buffer the write barrier
/// appends to.
pub(crate) const REMSET_BUFFER: Addr = Addr::new(0xD000_0000);
/// Size of the remembered-set buffer (entries wrap around).
pub(crate) const REMSET_BUFFER_SIZE: ByteSize = ByteSize::new(4 * MIB as u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_ordered_and_disjoint() {
        assert!(BOOT_START.raw() + BOOT_SIZE.bytes() <= PCM_START.raw());
        assert!(PCM_START < PCM_END);
        assert!(PCM_END < DRAM_END);
        assert!(DRAM_END.raw() <= OBSERVER_START.raw());
        assert!(OBSERVER_START.raw() + OBSERVER_MAX.bytes() <= NURSERY_START.raw());
        assert!(NURSERY_START.raw() + NURSERY_MAX.bytes() <= REMSET_BUFFER.raw());
    }

    #[test]
    fn pcm_portion_is_larger_than_dram_portion() {
        // PCM is the capacity tier: 1.5 GiB PCM vs 0.75 GiB DRAM chunks.
        let pcm = PCM_END.raw() - PCM_START.raw();
        let dram = DRAM_END.raw() - PCM_END.raw();
        assert!(pcm == 2 * dram);
    }
}
