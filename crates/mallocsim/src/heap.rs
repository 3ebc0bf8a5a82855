//! The native heap: size-class free lists over a flat region.

use hemu_machine::{CtxId, Machine, ProcId};
use hemu_types::{Addr, ByteSize, HemuError, MemoryAccess, Result, SocketId, PAGE_SIZE};

/// Start of the native heap region.
const NATIVE_START: Addr = Addr::new(0x2000_0000);
/// Maximum native heap reservation (1.5 GiB, like the managed layout).
const NATIVE_MAX: u64 = 0x6000_0000;
/// Allocator header before each object (size + bin bookkeeping).
const MALLOC_HEADER: u32 = 16;
/// Requests at or above this size are served page-aligned from the large
/// path.
const LARGE_REQUEST: u32 = 8 * 1024;

/// The size classes of the small path (bytes, including header).
const SIZE_CLASSES: [u32; 14] = [
    32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048, 4096, 6144, 8192,
];

fn class_for(total: u32) -> Option<usize> {
    SIZE_CLASSES.iter().position(|&c| c >= total)
}

/// Handle to a natively allocated object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NativeObject(u32);

impl NativeObject {
    /// Raw index, for diagnostics.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs a handle from [`NativeObject::raw`]. The value must
    /// have come from this heap.
    pub fn from_raw(raw: u32) -> Self {
        NativeObject(raw)
    }
}

#[derive(Debug, Clone)]
struct Slot {
    addr: Addr,
    /// Requested payload size.
    size: u32,
    /// The path `alloc` served the block from, which `free` returns it to.
    block: Block,
    alive: bool,
}

/// Where a native block came from.
#[derive(Debug, Clone, Copy)]
enum Block {
    /// A small-path block of size class `SIZE_CLASSES[class]`.
    Small(usize),
    /// A page-aligned large-path run of this many pages.
    Large(u64),
}

hemu_obs::record! {
    /// Allocation statistics, comparable to what the paper measures with
    /// Valgrind's memcheck (total allocation) and massif (peak heap).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct NativeStats {
        /// Total bytes requested over the run.
        pub allocated_bytes: u64,
        /// Objects allocated.
        pub allocated_objects: u64,
        /// Bytes freed.
        pub freed_bytes: u64,
        /// Current bytes in use (payload).
        pub in_use: u64,
        /// Peak bytes in use.
        pub peak: u64,
    }
}

/// A manually managed heap bound to one process and hardware context.
///
/// # Examples
///
/// ```
/// use hemu_malloc::NativeHeap;
/// use hemu_machine::{CtxId, Machine, MachineProfile};
/// use hemu_types::SocketId;
///
/// let mut m = Machine::new(MachineProfile::emulation());
/// let proc = m.add_process(SocketId::PCM);
/// let mut heap = NativeHeap::new(&mut m, proc, CtxId(0), SocketId::PCM);
/// let o = heap.alloc(&mut m, 100)?;
/// heap.write(&mut m, o, 0, 100)?;
/// heap.free(o);
/// # Ok::<(), hemu_types::HemuError>(())
/// ```
#[derive(Debug)]
pub struct NativeHeap {
    proc: ProcId,
    ctx: CtxId,
    slots: Vec<Slot>,
    free_ids: Vec<u32>,
    /// Per-size-class free lists of block addresses (LIFO).
    bins: Vec<Vec<Addr>>,
    /// Free page runs for the large path: (base, pages).
    large_free: Vec<(Addr, u64)>,
    wilderness: Addr,
    stats: NativeStats,
}

impl NativeHeap {
    /// Creates a native heap whose entire region is bound to `socket`
    /// (the C++ comparison runs are PCM-Only, i.e. socket 1).
    pub fn new(machine: &mut Machine, proc: ProcId, ctx: CtxId, socket: SocketId) -> Self {
        machine.mbind(proc, NATIVE_START, ByteSize::new(NATIVE_MAX), socket);
        NativeHeap {
            proc,
            ctx,
            slots: Vec::new(),
            free_ids: Vec::new(),
            bins: vec![Vec::new(); SIZE_CLASSES.len()],
            large_free: Vec::new(),
            wilderness: NATIVE_START,
            stats: NativeStats::default(),
        }
    }

    /// Allocation statistics.
    pub fn stats(&self) -> &NativeStats {
        &self.stats
    }

    /// The hardware context this heap's owner runs on.
    pub fn ctx(&self) -> CtxId {
        self.ctx
    }

    fn bump(&mut self, bytes: u64, align: u64) -> Result<Addr> {
        let base = self.wilderness.align_up(align);
        if base.raw() + bytes > NATIVE_START.raw() + NATIVE_MAX {
            return Err(HemuError::OutOfNativeMemory {
                requested: ByteSize::new(bytes),
            });
        }
        self.wilderness = base.offset(bytes);
        Ok(base)
    }

    /// Allocates `size` bytes. The storage is *not* zeroed: the only write
    /// is the allocator's own header/bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::OutOfNativeMemory`] when the region is
    /// exhausted.
    pub fn alloc(&mut self, machine: &mut Machine, size: u32) -> Result<NativeObject> {
        let total = size + MALLOC_HEADER;
        // Every request below `LARGE_REQUEST` fits the largest size class.
        let small = class_for(total).filter(|_| total < LARGE_REQUEST);
        let (addr, block) = if let Some(class) = small {
            let a = match self.bins[class].pop() {
                Some(a) => a,
                None => self.bump(SIZE_CLASSES[class] as u64, 16)?,
            };
            (a, Block::Small(class))
        } else {
            let pages = ByteSize::new(total as u64).pages();
            let found = self
                .large_free
                .iter()
                .enumerate()
                .filter(|(_, &(_, n))| n >= pages)
                .min_by_key(|(_, &(base, _))| base)
                .map(|(i, _)| i);
            let base = if let Some(i) = found {
                let (base, n) = self.large_free[i];
                if n == pages {
                    self.large_free.swap_remove(i);
                } else {
                    self.large_free[i] = (base.offset(pages * PAGE_SIZE as u64), n - pages);
                }
                base
            } else {
                self.bump(pages * PAGE_SIZE as u64, PAGE_SIZE as u64)?
            };
            (base, Block::Large(pages))
        };

        // malloc writes its boundary tag; the payload stays untouched.
        machine.access(
            self.ctx,
            self.proc,
            MemoryAccess::write(addr, MALLOC_HEADER),
        )?;

        self.stats.allocated_bytes += size as u64;
        self.stats.allocated_objects += 1;
        self.stats.in_use += size as u64;
        self.stats.peak = self.stats.peak.max(self.stats.in_use);

        let slot = Slot {
            addr,
            size,
            block,
            alive: true,
        };
        let id = if let Some(i) = self.free_ids.pop() {
            self.slots[i as usize] = slot;
            i
        } else {
            self.slots.push(slot);
            self.slots.len() as u32 - 1
        };
        Ok(NativeObject(id))
    }

    /// Frees an object, returning its block to the matching free list.
    ///
    /// # Panics
    ///
    /// Panics on double free.
    pub fn free(&mut self, obj: NativeObject) {
        let slot = &mut self.slots[obj.0 as usize];
        assert!(slot.alive, "double free of native object {}", obj.0);
        slot.alive = false;
        self.stats.freed_bytes += slot.size as u64;
        self.stats.in_use -= slot.size as u64;
        match slot.block {
            Block::Small(class) => self.bins[class].push(slot.addr),
            Block::Large(pages) => self.large_free.push((slot.addr, pages)),
        }
        self.free_ids.push(obj.0);
    }

    fn payload(&self, obj: NativeObject, offset: u32, len: u32) -> Addr {
        let slot = &self.slots[obj.0 as usize];
        debug_assert!(slot.alive, "use after free of native object {}", obj.0);
        assert!(offset + len <= slot.size, "access beyond object payload");
        slot.addr.offset(MALLOC_HEADER as u64 + offset as u64)
    }

    /// Writes `len` bytes at `offset` inside the object.
    ///
    /// # Errors
    ///
    /// Propagates machine memory exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the payload, or on use-after-free in
    /// debug builds.
    pub fn write(
        &mut self,
        machine: &mut Machine,
        obj: NativeObject,
        offset: u32,
        len: u32,
    ) -> Result<()> {
        let addr = self.payload(obj, offset, len);
        machine.access(self.ctx, self.proc, MemoryAccess::write(addr, len))
    }

    /// Reads `len` bytes at `offset` inside the object.
    ///
    /// # Errors
    ///
    /// Propagates machine memory exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the payload, or on use-after-free in
    /// debug builds.
    pub fn read(
        &mut self,
        machine: &mut Machine,
        obj: NativeObject,
        offset: u32,
        len: u32,
    ) -> Result<()> {
        let addr = self.payload(obj, offset, len);
        machine.access(self.ctx, self.proc, MemoryAccess::read(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemu_machine::MachineProfile;

    fn setup() -> (Machine, NativeHeap) {
        let mut m = Machine::new(MachineProfile::emulation());
        let p = m.add_process(SocketId::PCM);
        let h = NativeHeap::new(&mut m, p, CtxId(0), SocketId::PCM);
        (m, h)
    }

    #[test]
    fn allocation_does_not_zero_payload() {
        let (mut m, mut h) = setup();
        let before = m.socket_writes(SocketId::PCM);
        let _o = h.alloc(&mut m, 4096).unwrap();
        m.flush_caches().unwrap();
        let after = m.socket_writes(SocketId::PCM);
        // Only the 16-byte header (one line) was written, not 4 KiB.
        assert!(after.bytes() - before.bytes() <= 64, "no zeroing in malloc");
    }

    #[test]
    fn free_recycles_same_block_lifo() {
        let (mut m, mut h) = setup();
        let a = h.alloc(&mut m, 100).unwrap();
        let addr_probe = h.payload(a, 0, 1);
        h.free(a);
        let b = h.alloc(&mut m, 100).unwrap();
        assert_eq!(h.payload(b, 0, 1), addr_probe, "LIFO free-list reuse");
    }

    #[test]
    fn different_size_classes_do_not_mix() {
        let (mut m, mut h) = setup();
        let a = h.alloc(&mut m, 100).unwrap(); // class 128
                                               // Probe before freeing: the free slot id gets recycled by the next
                                               // allocation, so `a` must not be dereferenced afterwards.
        let addr_probe = h.payload(a, 0, 1);
        h.free(a);
        let b = h.alloc(&mut m, 400).unwrap(); // class 512
        assert_ne!(
            h.payload(b, 0, 1),
            addr_probe,
            "freed 128-class block must not serve a 512-class request"
        );
    }

    #[test]
    fn large_allocations_are_page_aligned_and_recycled() {
        let (mut m, mut h) = setup();
        let a = h.alloc(&mut m, 100_000).unwrap();
        let pa = h.payload(a, 0, 1).offset(0);
        assert!(pa.raw() % PAGE_SIZE as u64 == MALLOC_HEADER as u64);
        h.free(a);
        let b = h.alloc(&mut m, 90_000).unwrap();
        assert_eq!(h.payload(b, 0, 1), pa, "freed large run is reused first");
    }

    #[test]
    fn freed_top_class_block_returns_to_its_bin() {
        // 7000 + header lands in the 8192-byte small class.
        let (mut m, mut h) = setup();
        let a = h.alloc(&mut m, 7000).unwrap();
        let pa = h.payload(a, 0, 1);
        h.free(a);
        let b = h.alloc(&mut m, 7000).unwrap();
        assert_eq!(
            h.payload(b, 0, 1),
            pa,
            "same-class request reuses the block"
        );
    }

    #[test]
    fn a_freed_small_block_never_serves_the_large_path() {
        let (mut m, mut h) = setup();
        // Push the wilderness off page alignment first.
        let _pad = h.alloc(&mut m, 100).unwrap();
        let a = h.alloc(&mut m, 7000).unwrap();
        h.free(a);
        // 8176 + header is exactly two pages: a large-path request.
        let b = h.alloc(&mut m, 8176).unwrap();
        let base = h.payload(b, 0, 1).raw() - MALLOC_HEADER as u64;
        assert_eq!(base % PAGE_SIZE as u64, 0, "large blocks are page-aligned");
    }

    #[test]
    fn stats_track_peak_and_in_use() {
        let (mut m, mut h) = setup();
        let a = h.alloc(&mut m, 1000).unwrap();
        let b = h.alloc(&mut m, 2000).unwrap();
        assert_eq!(h.stats().in_use, 3000);
        assert_eq!(h.stats().peak, 3000);
        h.free(a);
        assert_eq!(h.stats().in_use, 2000);
        let _c = h.alloc(&mut m, 500).unwrap();
        assert_eq!(h.stats().peak, 3000, "peak is sticky");
        let _ = b;
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let (mut m, mut h) = setup();
        let a = h.alloc(&mut m, 64).unwrap();
        h.free(a);
        h.free(a);
    }

    #[test]
    fn writes_land_on_the_bound_socket() {
        let (mut m, mut h) = setup();
        let o = h.alloc(&mut m, 1 << 20).unwrap();
        h.write(&mut m, o, 0, 1 << 20).unwrap();
        m.flush_caches().unwrap();
        assert!(m.socket_writes(SocketId::PCM).bytes() >= 1 << 20);
        assert_eq!(m.socket_writes(SocketId::DRAM).bytes(), 0);
    }

    #[test]
    fn footprint_grows_with_wilderness_only() {
        let (mut m, mut h) = setup();
        let a = h.alloc(&mut m, 100).unwrap();
        let wilderness = h.wilderness;
        h.free(a);
        let _b = h.alloc(&mut m, 100).unwrap();
        assert_eq!(
            h.wilderness, wilderness,
            "recycling does not grow the footprint"
        );
    }
}
