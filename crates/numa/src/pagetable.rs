//! Per-process virtual address spaces: page tables plus `mbind` policy.

use crate::memory::NumaMemory;
use hemu_types::{Addr, ByteSize, HemuError, PageNum, PhysAddr, Result, SocketId, PAGE_SIZE};
use std::collections::BTreeMap;

/// Virtual pages per page-table leaf: one leaf maps 2 MiB.
const LEAF_PAGES: u64 = 512;

/// Faults at or past this virtual address are rejected. Every layout lies
/// below 4 GiB; the bound keeps the leaf directory under 2^19 slots.
const VA_LIMIT: u64 = 1 << 40;

/// A binding-policy range: pages `[start, end)` must be faulted in on
/// `socket`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PolicyRange {
    end: u64,
    socket: SocketId,
}

/// One emulated process's virtual address space.
///
/// Combines a page table (virtual page → physical frame) with an
/// `mbind`-style policy map (virtual range → socket). Pages are faulted in
/// lazily on first touch, on the socket the policy names — mirroring how the
/// paper's runtime calls `mbind()` after each `mmap()` and lets first touch
/// allocate physical memory on the bound socket.
///
/// The page table has two levels: a directory of leaves, each mapping
/// 512 consecutive virtual pages (2 MiB) and allocated on the first
/// fault inside it. A translation is two indexed loads, and there is no
/// translation cache to keep coherent when a mapping changes.
///
/// # Examples
///
/// ```
/// use hemu_numa::{AddressSpace, NumaConfig, NumaMemory};
/// use hemu_types::{Addr, ByteSize, SocketId};
///
/// let mut mem = NumaMemory::new(NumaConfig::default());
/// let mut asp = AddressSpace::new();
/// asp.mbind(Addr::new(0x4000_0000), ByteSize::from_mib(4), SocketId::PCM);
/// let pa = asp.translate(Addr::new(0x4000_0123), &mut mem)?;
/// assert_eq!(mem.socket_of_frame(pa.frame()), SocketId::PCM);
/// # Ok::<(), hemu_types::HemuError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    /// Leaf `vpage / LEAF_PAGES` holds, at `vpage % LEAF_PAGES`, the
    /// page's frame plus one; 0 means unmapped.
    leaves: Vec<Option<Box<[u64; LEAF_PAGES as usize]>>>,
    policy: BTreeMap<u64, PolicyRange>,
    default_socket: SocketId,
    /// When set, the OS owns placement: faults allocate on the primary
    /// socket and spill to the secondary once it is exhausted, ignoring
    /// the `mbind` policy map entirely (the runtime's hints are advisory
    /// under an OS-managed memory configuration).
    os_placement: Option<(SocketId, Option<SocketId>)>,
    faults: u64,
    unmapped_pages: u64,
    remapped_pages: u64,
    /// The tenant this process belongs to in a consolidated run. Frames
    /// demand-faulted by this space are recorded as owned by that tenant
    /// (when the memory system has tenancy tracking enabled).
    tenant: Option<u16>,
}

impl AddressSpace {
    /// Creates an empty address space whose unbound pages fault onto the
    /// local (DRAM) socket, like Linux's default local-allocation policy for
    /// threads pinned to socket 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an address space with a different default socket, used when
    /// emulating a PCM-Only system with threads bound to socket 1.
    pub fn with_default_socket(socket: SocketId) -> Self {
        AddressSpace {
            default_socket: socket,
            ..Self::default()
        }
    }

    /// Hands page placement to the OS: subsequent faults allocate on
    /// `primary` first and fall back to `spill` once it is full, ignoring
    /// any `mbind` bindings. Already-mapped pages keep their frames.
    pub fn set_os_placement(&mut self, primary: SocketId, spill: Option<SocketId>) {
        self.os_placement = Some((primary, spill));
    }

    /// The OS placement override, if one is installed.
    pub fn os_placement(&self) -> Option<(SocketId, Option<SocketId>)> {
        self.os_placement
    }

    /// Marks this process as belonging to `tenant`: subsequent demand
    /// faults record the allocated frame as tenant-owned. Set before the
    /// first touch, or earlier frames stay unattributed.
    pub fn set_tenant(&mut self, tenant: u16) {
        self.tenant = Some(tenant);
    }

    /// The tenant this process belongs to, if any.
    pub fn tenant(&self) -> Option<u16> {
        self.tenant
    }

    /// Sets the binding policy for the virtual range `[start, start + len)`.
    ///
    /// Only affects pages faulted in afterwards; already-mapped pages keep
    /// their current frames (as with `mbind` without `MPOL_MF_MOVE`).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn mbind(&mut self, start: Addr, len: ByteSize, socket: SocketId) {
        assert!(len.bytes() > 0, "mbind of empty range");
        let p0 = start.page().raw();
        let p1 = start.offset(len.bytes() - 1).page().raw() + 1;

        // Collect every existing range overlapping [p0, p1).
        let overlapping: Vec<(u64, PolicyRange)> = self
            .policy
            .range(..p1)
            .rev()
            .take_while(|(_, r)| r.end > p0)
            .filter(|(s, _)| **s < p1)
            .map(|(s, r)| (*s, *r))
            .collect();
        for (s, r) in overlapping {
            self.policy.remove(&s);
            if s < p0 {
                self.policy.insert(
                    s,
                    PolicyRange {
                        end: p0,
                        socket: r.socket,
                    },
                );
            }
            if r.end > p1 {
                self.policy.insert(
                    p1,
                    PolicyRange {
                        end: r.end,
                        socket: r.socket,
                    },
                );
            }
        }
        self.policy.insert(p0, PolicyRange { end: p1, socket });
    }

    /// The socket a fault at `addr` would allocate on.
    pub fn socket_of(&self, addr: Addr) -> SocketId {
        let page = addr.page().raw();
        self.policy
            .range(..=page)
            .next_back()
            .filter(|(_, r)| r.end > page)
            .map(|(_, r)| r.socket)
            .unwrap_or(self.default_socket)
    }

    /// Translates a virtual address, faulting the page in if needed.
    ///
    /// # Errors
    ///
    /// As [`AddressSpace::frame_of`].
    pub fn translate(&mut self, addr: Addr, mem: &mut NumaMemory) -> Result<PhysAddr> {
        let frame = self.frame_of(addr, mem)?;
        Ok(frame.phys_base().offset(addr.raw() % PAGE_SIZE as u64))
    }

    /// The physical frame backing `addr`'s page, faulting it in if needed.
    ///
    /// This is the page-granular translation primitive: the machine's
    /// access path calls it once per *page* of an access stream and
    /// derives the 64 line addresses inside the page arithmetically,
    /// instead of paying a page-table lookup per line.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::OutOfPhysicalMemory`] if the policy socket has
    /// no free frames, and [`HemuError::InvalidConfig`] for a fault at or
    /// past the 1 TiB virtual-address bound.
    #[inline]
    pub fn frame_of(&mut self, addr: Addr, mem: &mut NumaMemory) -> Result<PageNum> {
        let mapped = self.lookup(addr.page().raw());
        mapped.map_or_else(|| self.fault(addr, mem), Ok)
    }

    /// The frame `vpage` is mapped to, if any.
    #[inline]
    fn lookup(&self, vpage: u64) -> Option<PageNum> {
        let leaf = self.leaves.get((vpage / LEAF_PAGES) as usize)?.as_deref()?;
        let entry = leaf[(vpage % LEAF_PAGES) as usize];
        entry.checked_sub(1).map(PageNum::new)
    }

    /// Maps `addr`'s unmapped page to a frame on the socket placement
    /// names, allocating its leaf on the first fault inside it.
    fn fault(&mut self, addr: Addr, mem: &mut NumaMemory) -> Result<PageNum> {
        if addr.raw() >= VA_LIMIT {
            let bound = format!("virtual address {addr} lies past the {VA_LIMIT:#x} bound");
            return Err(HemuError::InvalidConfig(bound));
        }
        let f = match self.os_placement {
            // OS-managed: first touch on the primary socket, spill only on
            // genuine exhaustion (injected transient faults must
            // propagate, not silently change placement).
            Some((primary, spill)) => match (mem.allocate_frame(primary), spill) {
                (Ok(f), _) => f,
                (Err(HemuError::OutOfPhysicalMemory { .. }), Some(spill)) => {
                    mem.allocate_frame(spill)?
                }
                (Err(e), _) => return Err(e),
            },
            None => mem.allocate_frame(self.socket_of(addr))?,
        };
        if let Some(t) = self.tenant {
            mem.tenancy_assign(f, t);
        }
        let vpage = addr.page().raw();
        let dir = (vpage / LEAF_PAGES) as usize;
        if dir >= self.leaves.len() {
            self.leaves.resize_with(dir + 1, || None);
        }
        let leaf = self.leaves[dir].get_or_insert_with(|| Box::new([0; LEAF_PAGES as usize]));
        leaf[(vpage % LEAF_PAGES) as usize] = f.raw() + 1;
        self.faults += 1;
        Ok(f)
    }

    /// Translates without faulting; `None` if the page is not mapped.
    pub fn translate_existing(&self, addr: Addr) -> Option<PhysAddr> {
        let frame = self.lookup(addr.page().raw())?;
        Some(frame.phys_base().offset(addr.raw() % PAGE_SIZE as u64))
    }

    /// Unmaps the virtual range, returning its frames to their sockets.
    ///
    /// Used only by the monolithic-free-list ablation: the paper's two-list
    /// design deliberately *never* unmaps recycled chunks (§III.A).
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::InvalidConfig`](hemu_types::HemuError) if a
    /// mapped frame lies outside physical memory or is already free (an
    /// internal invariant violation).
    pub fn unmap(&mut self, start: Addr, len: ByteSize, mem: &mut NumaMemory) -> Result<()> {
        if len.bytes() == 0 {
            return Ok(());
        }
        let p0 = start.page().raw();
        let p1 = start.offset(len.bytes() - 1).page().raw() + 1;
        for vpage in p0..p1.min(self.leaves.len() as u64 * LEAF_PAGES) {
            let Some(leaf) = self.leaves[(vpage / LEAF_PAGES) as usize].as_deref_mut() else {
                continue;
            };
            let entry = std::mem::take(&mut leaf[(vpage % LEAF_PAGES) as usize]);
            if entry != 0 {
                self.unmapped_pages += 1;
                mem.free_frame(PageNum::new(entry - 1))?;
            }
        }
        Ok(())
    }

    /// Rewrites the mapping of physical frame `old` to point at `new`,
    /// returning how many page-table entries changed: 0 or 1, since frames
    /// are never shared between virtual pages.
    ///
    /// This is the page-move primitive: after a frame wears out or the OS
    /// migrates its page, the machine copies the content to another frame
    /// and calls this so the application keeps its virtual addresses — the
    /// move is transparent.
    pub fn remap_frame(&mut self, old: PageNum, new: PageNum) -> u64 {
        let mut entries = self.leaves.iter_mut().flatten().flat_map(|l| l.iter_mut());
        let Some(e) = entries.find(|e| **e == old.raw() + 1) else {
            return 0;
        };
        *e = new.raw() + 1;
        self.remapped_pages += 1;
        1
    }

    /// Number of pages currently mapped.
    pub fn mapped_pages(&self) -> usize {
        (self.faults - self.unmapped_pages) as usize
    }

    /// Number of page faults taken (pages lazily mapped) so far.
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Number of pages explicitly unmapped so far (ablation metric).
    pub fn unmap_count(&self) -> u64 {
        self.unmapped_pages
    }

    /// Number of pages transparently remapped after frame retirement.
    pub fn remap_count(&self) -> u64 {
        self.remapped_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::NumaConfig;
    use hemu_types::WriteCause;

    fn mem() -> NumaMemory {
        NumaMemory::new(NumaConfig {
            sockets: 2,
            capacity_per_socket: ByteSize::from_mib(64),
        })
    }

    #[test]
    fn unbound_pages_fault_on_default_socket() {
        let mut m = mem();
        let mut asp = AddressSpace::new();
        let pa = asp.translate(Addr::new(0x1234), &mut m).unwrap();
        assert_eq!(m.socket_of_frame(pa.frame()), SocketId::DRAM);

        let mut asp2 = AddressSpace::with_default_socket(SocketId::PCM);
        let pa2 = asp2.translate(Addr::new(0x1234), &mut m).unwrap();
        assert_eq!(m.socket_of_frame(pa2.frame()), SocketId::PCM);
    }

    #[test]
    fn mbind_directs_faults() {
        let mut m = mem();
        let mut asp = AddressSpace::new();
        asp.mbind(Addr::new(0x10000), ByteSize::from_kib(8), SocketId::PCM);
        let inside = asp.translate(Addr::new(0x10fff), &mut m).unwrap();
        let outside = asp.translate(Addr::new(0x20000), &mut m).unwrap();
        assert_eq!(m.socket_of_frame(inside.frame()), SocketId::PCM);
        assert_eq!(m.socket_of_frame(outside.frame()), SocketId::DRAM);
    }

    #[test]
    fn mbind_end_is_exclusive_of_following_page() {
        let mut asp = AddressSpace::new();
        asp.mbind(Addr::new(0), ByteSize::from_kib(4), SocketId::PCM);
        assert_eq!(asp.socket_of(Addr::new(4095)), SocketId::PCM);
        assert_eq!(asp.socket_of(Addr::new(4096)), SocketId::DRAM);
    }

    #[test]
    fn rebinding_splits_existing_range() {
        let mut asp = AddressSpace::new();
        // Bind 4 pages to PCM, then re-bind the middle two to DRAM.
        asp.mbind(Addr::new(0), ByteSize::from_kib(16), SocketId::PCM);
        asp.mbind(Addr::new(4096), ByteSize::from_kib(8), SocketId::DRAM);
        assert_eq!(asp.socket_of(Addr::new(0)), SocketId::PCM);
        assert_eq!(asp.socket_of(Addr::new(4096)), SocketId::DRAM);
        assert_eq!(asp.socket_of(Addr::new(8192)), SocketId::DRAM);
        assert_eq!(asp.socket_of(Addr::new(12288)), SocketId::PCM);
    }

    #[test]
    fn translation_is_stable_across_calls() {
        let mut m = mem();
        let mut asp = AddressSpace::new();
        let a = asp.translate(Addr::new(0x5000), &mut m).unwrap();
        let b = asp.translate(Addr::new(0x5008), &mut m).unwrap();
        assert_eq!(a.frame(), b.frame());
        assert_eq!(b.raw() - a.raw(), 8);
        assert_eq!(asp.fault_count(), 1);
    }

    #[test]
    fn mbind_after_fault_does_not_move_page() {
        let mut m = mem();
        let mut asp = AddressSpace::new();
        let before = asp.translate(Addr::new(0x9000), &mut m).unwrap();
        asp.mbind(Addr::new(0x9000), ByteSize::from_kib(4), SocketId::PCM);
        let after = asp.translate(Addr::new(0x9000), &mut m).unwrap();
        assert_eq!(before, after, "already-mapped page must keep its frame");
    }

    #[test]
    fn unmap_frees_frames_for_reuse() {
        let mut m = mem();
        let mut asp = AddressSpace::new();
        let pa = asp.translate(Addr::new(0x3000), &mut m).unwrap();
        asp.unmap(Addr::new(0x3000), ByteSize::from_kib(4), &mut m)
            .unwrap();
        assert_eq!(asp.mapped_pages(), 0);
        assert_eq!(asp.unmap_count(), 1);
        // The frame is recycled by the next fault on the same socket.
        let pa2 = asp.translate(Addr::new(0x7000), &mut m).unwrap();
        assert_eq!(pa.frame(), pa2.frame());
    }

    #[test]
    fn remap_frame_preserves_translation_shape() {
        let mut m = mem();
        let mut asp = AddressSpace::new();
        let before = asp.translate(Addr::new(0x5123), &mut m).unwrap();
        let replacement = m.allocate_frame(SocketId::DRAM).unwrap();
        assert_eq!(asp.remap_frame(before.frame(), replacement), 1);
        assert_eq!(asp.remap_count(), 1);
        let after = asp.translate(Addr::new(0x5123), &mut m).unwrap();
        assert_eq!(after.frame(), replacement);
        // Same page offset, no new page fault.
        assert_eq!(after.raw() % 4096, before.raw() % 4096);
        assert_eq!(asp.fault_count(), 1);
        // Remapping an unknown frame is a no-op.
        assert_eq!(asp.remap_frame(PageNum::new(999_999), replacement), 0);
    }

    #[test]
    fn os_placement_overrides_mbind_and_spills_on_exhaustion() {
        // 4-frame sockets: DRAM fills after 4 faults, then spills to PCM.
        let mut m = NumaMemory::new(NumaConfig {
            sockets: 2,
            capacity_per_socket: ByteSize::from_kib(16),
        });
        let mut asp = AddressSpace::new();
        // The runtime's mbind says PCM, but the OS owns placement.
        asp.mbind(Addr::new(0), ByteSize::from_mib(1), SocketId::PCM);
        asp.set_os_placement(SocketId::DRAM, Some(SocketId::PCM));
        for i in 0..4u64 {
            let pa = asp.translate(Addr::new(i * 4096), &mut m).unwrap();
            assert_eq!(m.socket_of_frame(pa.frame()), SocketId::DRAM);
        }
        for i in 4..6u64 {
            let pa = asp.translate(Addr::new(i * 4096), &mut m).unwrap();
            assert_eq!(m.socket_of_frame(pa.frame()), SocketId::PCM, "spilled");
        }
    }

    #[test]
    fn os_placement_without_spill_propagates_exhaustion() {
        let mut m = NumaMemory::new(NumaConfig {
            sockets: 2,
            capacity_per_socket: ByteSize::from_kib(8), // 2 frames
        });
        let mut asp = AddressSpace::new();
        asp.set_os_placement(SocketId::PCM, None);
        asp.translate(Addr::new(0), &mut m).unwrap();
        asp.translate(Addr::new(4096), &mut m).unwrap();
        assert!(matches!(
            asp.translate(Addr::new(8192), &mut m),
            Err(HemuError::OutOfPhysicalMemory { socket, .. }) if socket == SocketId::PCM
        ));
    }

    /// Per-page counter sampling + reset is exact across a page-table
    /// remap: the migrated page keeps its cumulative totals under the new
    /// frame and its epoch deltas restart at zero, while the vacated frame
    /// reads as cold.
    #[test]
    fn page_heat_is_exact_across_a_remap() {
        use hemu_types::AccessKind;
        let mut m = mem();
        m.enable_page_heat();
        let mut asp = AddressSpace::new();
        let pa = asp.translate(Addr::new(0x5000), &mut m).unwrap();
        let old = pa.frame();
        for _ in 0..6 {
            m.record_line_access(pa.line(), AccessKind::Write, 0);
        }
        m.record_line_access(pa.line(), AccessKind::Read, 0);

        // Migrate the page to a new frame, mirroring what the machine's
        // migration engine does: remap the table, then copy the page.
        let new = m.allocate_frame(SocketId::PCM).unwrap();
        assert_eq!(asp.remap_frame(old, new), 1);
        m.copy_page(old, new, WriteCause::Other);

        let migrated = m.heat(new);
        // The totals include the copy's 64 reads of the old frame.
        assert_eq!(
            (migrated.writes, migrated.reads),
            (6, 1 + 64),
            "totals follow"
        );
        assert_eq!(
            (migrated.epoch_writes, migrated.epoch_reads),
            (0, 0),
            "epoch deltas restart at zero on migration"
        );
        assert_eq!(m.heat(old).writes, 0, "vacated frame is cold");

        // Post-migration accesses land on the new frame and epoch deltas
        // resume exactly from zero.
        let pa2 = asp.translate(Addr::new(0x5000), &mut m).unwrap();
        assert_eq!(pa2.frame(), new);
        m.record_line_access(pa2.line(), AccessKind::Write, 0);
        let h = m.heat(new);
        assert_eq!((h.writes, h.epoch_writes), (7, 1));
        // And an epoch reset zeroes deltas without touching totals.
        m.reset_page_heat_epoch();
        let h = m.heat(new);
        assert_eq!((h.writes, h.epoch_writes), (7, 0));
    }

    #[test]
    fn faults_past_the_address_bound_are_invalid_config() {
        let mut m = mem();
        let mut asp = AddressSpace::new();
        let err = asp.translate(Addr::new(VA_LIMIT), &mut m).unwrap_err();
        assert!(matches!(err, HemuError::InvalidConfig(_)), "{err}");
        assert_eq!(
            m.socket(SocketId::DRAM).frames_in_use(),
            0,
            "no frame taken"
        );
        assert_eq!((asp.fault_count(), asp.mapped_pages()), (0, 0));
        assert!(asp.leaves.is_empty());
        let below = asp.translate(Addr::new(VA_LIMIT - 1), &mut m).unwrap();
        assert_eq!(asp.translate_existing(Addr::new(VA_LIMIT - 1)), Some(below));
    }

    #[test]
    fn unmap_over_untouched_pages_allocates_no_leaf() {
        let mut m = mem();
        let mut asp = AddressSpace::new();
        asp.translate(Addr::new(0x1000), &mut m).unwrap();
        asp.unmap(Addr::new(4 << 20), ByteSize::from_gib(2), &mut m)
            .unwrap();
        asp.unmap(Addr::new(VA_LIMIT), ByteSize::from_mib(4), &mut m)
            .unwrap();
        assert_eq!(asp.leaves.len(), 1);
        assert_eq!((asp.mapped_pages(), asp.unmap_count()), (1, 0));
        // A range spanning a leaf boundary unmaps exactly its pages.
        let edge = Addr::new(LEAF_PAGES * PAGE_SIZE as u64 - PAGE_SIZE as u64);
        asp.translate(edge, &mut m).unwrap();
        asp.translate(edge.offset(PAGE_SIZE as u64), &mut m)
            .unwrap();
        asp.unmap(edge, ByteSize::from_kib(8), &mut m).unwrap();
        assert_eq!((asp.mapped_pages(), asp.unmap_count()), (1, 2));
        assert!(asp.translate_existing(Addr::new(0x1000)).is_some());
    }

    #[test]
    fn distinct_address_spaces_do_not_collide() {
        let mut m = mem();
        let mut a = AddressSpace::new();
        let mut b = AddressSpace::new();
        let pa = a.translate(Addr::new(0x1000), &mut m).unwrap();
        let pb = b.translate(Addr::new(0x1000), &mut m).unwrap();
        assert_ne!(
            pa.frame(),
            pb.frame(),
            "same VA in two processes gets different frames"
        );
    }
}
