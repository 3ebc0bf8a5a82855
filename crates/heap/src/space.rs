//! The heap spaces: copying bump spaces (nursery, observer), mark-region
//! Immix-style mature spaces, large object spaces, and the metadata
//! allocator.
//!
//! A space is a coarse-grained heap partition whose objects share a common
//! property (§III.A). Spaces acquire virtual memory from the chunk manager
//! — the nursery and observer from fixed reservations at the top of virtual
//! memory, the rest from the two free lists.

use crate::chunks::{ChunkManager, Side};
use hemu_machine::Machine;
use hemu_types::{Addr, ByteSize, Result, PAGE_SIZE};
use std::collections::HashMap;

/// Immix block size: 32 KiB.
pub const BLOCK_SIZE: usize = 32 * 1024;
/// Immix line size: 256 B.
pub const LINE_SIZE: usize = 256;
/// Lines per block.
pub const LINES_PER_BLOCK: usize = BLOCK_SIZE / LINE_SIZE;
/// Blocks per 4 MiB chunk.
pub const BLOCKS_PER_CHUNK: usize = hemu_types::CHUNK_SIZE / BLOCK_SIZE;

/// A contiguous bump-allocated space with a fixed reservation: the nursery
/// and the observer space.
///
/// Allocation is a pointer bump; a minor collection evacuates survivors and
/// resets the cursor to the start.
#[derive(Debug, Clone)]
pub struct BumpSpace {
    name: &'static str,
    start: Addr,
    capacity: ByteSize,
    cursor: Addr,
}

impl BumpSpace {
    /// Creates a bump space over `[start, start + capacity)`.
    pub fn new(name: &'static str, start: Addr, capacity: ByteSize) -> Self {
        BumpSpace {
            name,
            start,
            capacity,
            cursor: start,
        }
    }

    /// The space's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// First address of the reservation.
    pub fn start(&self) -> Addr {
        self.start
    }

    /// Capacity of the reservation.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> ByteSize {
        ByteSize::new(self.cursor.raw() - self.start.raw())
    }

    /// Bytes still available.
    pub fn available(&self) -> ByteSize {
        self.capacity.saturating_sub(self.used())
    }

    /// Bump-allocates `size` bytes, or `None` if the space is full.
    pub fn alloc(&mut self, size: u32) -> Option<Addr> {
        if self.used().bytes() + size as u64 > self.capacity.bytes() {
            None
        } else {
            let a = self.cursor;
            self.cursor = self.cursor.offset(size as u64);
            Some(a)
        }
    }

    /// Resets the cursor after an evacuating collection.
    pub fn reset(&mut self) {
        self.cursor = self.start;
    }

    /// Returns `true` if `addr` lies inside this space's reservation.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.start && addr.raw() < self.start.raw() + self.capacity.bytes()
    }
}

/// One 32 KiB Immix block: a bitmap of used lines.
#[derive(Debug, Clone)]
struct Block {
    base: Addr,
    /// Bit `i` set ⇒ line `i` is occupied by (part of) a live object.
    used: u128,
}

impl Block {
    /// First line of the lowest run of `lines` free lines, if any.
    ///
    /// Starts from the free-line mask and ANDs it with itself shifted down,
    /// doubling the checked run length each step, until bit `i` is set only
    /// if lines `i .. i + lines` are all free: O(log lines) word operations
    /// instead of a loop over 128 bits. Shifts bring in zeros from the top,
    /// so no run reaches past the end of the block.
    fn free_run(&self, lines: u32) -> Option<u32> {
        debug_assert!((1..=LINES_PER_BLOCK as u32).contains(&lines));
        let mut starts = !self.used;
        let mut covered = 1;
        while covered < lines {
            let step = covered.min(lines - covered);
            starts &= starts >> step;
            covered += step;
        }
        (starts != 0).then(|| starts.trailing_zeros())
    }

    fn mark_lines(&mut self, first: u32, lines: u32) {
        for i in first..first + lines {
            self.used |= 1u128 << i;
        }
    }
}

/// A mark-region (Immix-style) mature space.
///
/// Allocation bump-fills free line runs inside partially used blocks;
/// a full-heap collection rebuilds the line maps from the live set, making
/// the lines of dead objects reusable (mark-region reclamation at line
/// granularity, without moving mature objects).
#[derive(Debug)]
pub struct ImmixSpace {
    name: &'static str,
    side: Side,
    blocks: Vec<Block>,
    /// Maps chunk base address → index of its first block.
    chunk_index: HashMap<u64, usize>,
    /// Allocation cursor: index of the block to try first.
    cursor: usize,
    used_lines: u64,
}

impl ImmixSpace {
    /// Creates an empty mature space that will request chunks from `side`.
    pub fn new(name: &'static str, side: Side) -> Self {
        ImmixSpace {
            name,
            side,
            blocks: Vec::new(),
            chunk_index: HashMap::new(),
            cursor: 0,
            used_lines: 0,
        }
    }

    /// The space's name (also its chunk-owner tag).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Bytes of lines currently occupied.
    pub fn used(&self) -> ByteSize {
        ByteSize::new(self.used_lines * LINE_SIZE as u64)
    }

    /// Total bytes of acquired chunks.
    pub fn reserved(&self) -> ByteSize {
        ByteSize::new(self.blocks.len() as u64 * BLOCK_SIZE as u64)
    }

    /// Allocates `size` bytes (≤ one block), acquiring a new chunk from the
    /// chunk manager if no block has a large enough free line run.
    ///
    /// # Errors
    ///
    /// Propagates chunk-manager exhaustion, and rejects objects larger
    /// than a block (they belong in the large object space).
    pub fn alloc(
        &mut self,
        machine: &mut Machine,
        chunks: &mut ChunkManager,
        size: u32,
    ) -> Result<Addr> {
        if size as usize > BLOCK_SIZE {
            return Err(hemu_types::HemuError::InvalidConfig(format!(
                "object of {size} B too large for mature space {}; belongs in LOS",
                self.name
            )));
        }
        let lines = size.div_ceil(LINE_SIZE as u32);
        // First-fit from the cursor; most allocations hit the current block.
        for pass in 0..2 {
            let range: Box<dyn Iterator<Item = usize>> = if pass == 0 {
                Box::new(self.cursor..self.blocks.len())
            } else {
                Box::new(0..self.cursor)
            };
            for bi in range {
                if let Some(first) = self.blocks[bi].free_run(lines) {
                    self.blocks[bi].mark_lines(first, lines);
                    self.used_lines += lines as u64;
                    self.cursor = bi;
                    return Ok(self.blocks[bi].base.offset(first as u64 * LINE_SIZE as u64));
                }
            }
        }
        // No room: grow by one chunk.
        let chunk = chunks.acquire(machine, self.side, self.name)?;
        let first_new = self.blocks.len();
        self.chunk_index.insert(chunk.raw(), first_new);
        for b in 0..BLOCKS_PER_CHUNK {
            self.blocks.push(Block {
                base: chunk.offset((b * BLOCK_SIZE) as u64),
                used: 0,
            });
        }
        self.cursor = first_new;
        self.blocks[first_new].mark_lines(0, lines);
        self.used_lines += lines as u64;
        Ok(self.blocks[first_new].base)
    }

    /// Begins a sweep: clears every line map. Live objects must be re-marked
    /// with [`ImmixSpace::mark_object`] before allocation resumes.
    pub fn begin_sweep(&mut self) {
        for b in &mut self.blocks {
            b.used = 0;
        }
        self.used_lines = 0;
        self.cursor = 0;
    }

    /// Re-marks the lines covered by a live object at `addr` of `size`
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`hemu_types::HemuError::InvalidConfig`] if `addr` does not
    /// lie in this space's blocks (a collector bookkeeping bug).
    pub fn mark_object(&mut self, addr: Addr, size: u32) -> Result<()> {
        let chunk_base = addr.raw() & !(hemu_types::CHUNK_SIZE as u64 - 1);
        let first_block = *self.chunk_index.get(&chunk_base).ok_or_else(|| {
            hemu_types::HemuError::InvalidConfig(format!(
                "{}: address {addr} not in this space",
                self.name
            ))
        })?;
        let offset_in_chunk = addr.raw() - chunk_base;
        let bi = first_block + (offset_in_chunk / BLOCK_SIZE as u64) as usize;
        let line0 = (offset_in_chunk % BLOCK_SIZE as u64 / LINE_SIZE as u64) as u32;
        let lines = size.div_ceil(LINE_SIZE as u32);
        self.blocks[bi].mark_lines(line0, lines);
        self.used_lines += lines as u64;
        Ok(())
    }
}

/// A non-moving, page-granular large object space.
#[derive(Debug)]
pub struct LargeObjectSpace {
    name: &'static str,
    side: Side,
    /// Free page runs: (base, page count).
    free_runs: Vec<(Addr, u64)>,
    used_bytes: u64,
    reserved_bytes: u64,
}

impl LargeObjectSpace {
    /// Creates an empty large object space on `side`.
    pub fn new(name: &'static str, side: Side) -> Self {
        LargeObjectSpace {
            name,
            side,
            free_runs: Vec::new(),
            used_bytes: 0,
            reserved_bytes: 0,
        }
    }

    /// The space's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Bytes occupied by live large objects (page-rounded).
    pub fn used(&self) -> ByteSize {
        ByteSize::new(self.used_bytes)
    }

    /// Total bytes of acquired chunks.
    pub fn reserved(&self) -> ByteSize {
        ByteSize::new(self.reserved_bytes)
    }

    /// Allocates `size` bytes, page aligned and page granular.
    ///
    /// # Errors
    ///
    /// Propagates chunk-manager exhaustion.
    pub fn alloc(
        &mut self,
        machine: &mut Machine,
        chunks: &mut ChunkManager,
        size: u32,
    ) -> Result<Addr> {
        let pages = ByteSize::new(size as u64).pages();
        // Address-ordered first fit: the lowest-address run that is big
        // enough, so freed holes are reused before fresh tail space.
        if let Some(i) = self
            .free_runs
            .iter()
            .enumerate()
            .filter(|(_, &(_, n))| n >= pages)
            .min_by_key(|(_, &(base, _))| base)
            .map(|(i, _)| i)
        {
            let (base, n) = self.free_runs[i];
            if n == pages {
                self.free_runs.swap_remove(i);
            } else {
                self.free_runs[i] = (base.offset(pages * PAGE_SIZE as u64), n - pages);
            }
            self.used_bytes += pages * PAGE_SIZE as u64;
            return Ok(base);
        }
        // Need more chunks: acquire enough contiguous-by-construction
        // chunks to hold the object (chunks from one fresh acquisition are
        // contiguous only if the region cursor is fresh; for simplicity
        // every LOS object ≤ one chunk uses one chunk, larger objects
        // acquire consecutive chunks and require them contiguous).
        let chunk_bytes = hemu_types::CHUNK_SIZE as u64;
        let need_chunks = (pages * PAGE_SIZE as u64).div_ceil(chunk_bytes);
        let first = chunks.acquire(machine, self.side, self.name)?;
        let mut prev = first;
        for _ in 1..need_chunks {
            let next = chunks.acquire(machine, self.side, self.name)?;
            assert_eq!(
                next.raw(),
                prev.raw() + chunk_bytes,
                "LOS multi-chunk object needs contiguous chunks"
            );
            prev = next;
        }
        self.reserved_bytes += need_chunks * chunk_bytes;
        let total_pages = need_chunks * chunk_bytes / PAGE_SIZE as u64;
        if total_pages > pages {
            self.free_runs
                .push((first.offset(pages * PAGE_SIZE as u64), total_pages - pages));
        }
        self.used_bytes += pages * PAGE_SIZE as u64;
        Ok(first)
    }

    /// Frees the large object at `addr` of `size` bytes.
    pub fn free(&mut self, addr: Addr, size: u32) {
        let pages = ByteSize::new(size as u64).pages();
        self.used_bytes -= pages * PAGE_SIZE as u64;
        self.free_runs.push((addr, pages));
    }
}

/// Allocates metadata slots (GC mark bytes) in a dedicated region.
///
/// One byte per object, packed densely, so marking writes from a mature
/// collection concentrate in few cache lines — and end up on whichever
/// socket this allocator's chunks are bound to. The MetaData Optimization
/// (MDO) is exactly the choice of `side` for the allocator that serves
/// PCM-space objects.
#[derive(Debug)]
pub struct MetaAllocator {
    name: &'static str,
    side: Side,
    current: Option<Addr>,
    offset: u64,
    reserved: u64,
}

impl MetaAllocator {
    /// Creates an empty metadata allocator on `side`.
    pub fn new(name: &'static str, side: Side) -> Self {
        MetaAllocator {
            name,
            side,
            current: None,
            offset: 0,
            reserved: 0,
        }
    }

    /// The allocator's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Which side (socket) metadata lives on.
    pub fn side(&self) -> Side {
        self.side
    }

    /// Total reserved metadata bytes.
    pub fn reserved(&self) -> ByteSize {
        ByteSize::new(self.reserved)
    }

    /// Assigns the address of a fresh one-byte metadata slot.
    ///
    /// # Errors
    ///
    /// Propagates chunk-manager exhaustion.
    pub fn alloc_slot(&mut self, machine: &mut Machine, chunks: &mut ChunkManager) -> Result<Addr> {
        let chunk_bytes = hemu_types::CHUNK_SIZE as u64;
        let base = match self.current {
            Some(base) if self.offset < chunk_bytes => base,
            _ => {
                let base = chunks.acquire(machine, self.side, self.name)?;
                self.current = Some(base);
                self.offset = 0;
                self.reserved += chunk_bytes;
                base
            }
        };
        let a = base.offset(self.offset);
        self.offset += 1;
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::{ChunkPolicy, SideSockets};
    use hemu_machine::MachineProfile;
    use hemu_types::SocketId;

    fn setup() -> (Machine, ChunkManager) {
        let mut m = Machine::new(MachineProfile::emulation());
        let p = m.add_process(SocketId::DRAM);
        (
            m,
            ChunkManager::new(ChunkPolicy::TwoLists, SideSockets::hybrid(), p),
        )
    }

    #[test]
    fn bump_space_allocates_contiguously_until_full() {
        let mut s = BumpSpace::new("nursery", Addr::new(0x1000), ByteSize::new(256));
        let a = s.alloc(100).unwrap();
        let b = s.alloc(100).unwrap();
        assert_eq!(b.raw() - a.raw(), 100);
        assert!(s.alloc(100).is_none(), "only 56 bytes left");
        assert_eq!(s.used().bytes(), 200);
        s.reset();
        assert_eq!(s.used(), ByteSize::ZERO);
        assert_eq!(s.alloc(100).unwrap(), a);
    }

    #[test]
    fn bump_space_contains_only_its_reservation() {
        let s = BumpSpace::new("n", Addr::new(0x1000), ByteSize::new(256));
        assert!(s.contains(Addr::new(0x1000)));
        assert!(s.contains(Addr::new(0x10ff)));
        assert!(!s.contains(Addr::new(0x1100)));
        assert!(!s.contains(Addr::new(0xfff)));
    }

    /// First fit one bit per iteration: the reference `free_run` must match.
    fn free_run_bit_loop(used: u128, lines: u32) -> Option<u32> {
        if used == 0 {
            return Some(0);
        }
        let mut run = 0u32;
        for i in 0..LINES_PER_BLOCK as u32 {
            if used >> i & 1 == 0 {
                run += 1;
                if run == lines {
                    return Some(i + 1 - lines);
                }
            } else {
                run = 0;
            }
        }
        None
    }

    #[test]
    fn free_run_matches_the_bit_loop() {
        let mut rng = hemu_types::DeterministicRng::seeded(0x1e1e);
        let mut found = 0;
        for case in 0..20_000 {
            // Line maps from nearly empty to nearly full: AND-ing draws
            // thins the used bits, OR-ing thickens them.
            let draw = |rng: &mut hemu_types::DeterministicRng| {
                (rng.next_u64() as u128) << 64 | rng.next_u64() as u128
            };
            let mut used = draw(&mut rng);
            for _ in 0..case % 5 {
                used &= draw(&mut rng);
            }
            if case % 7 == 0 {
                used |= draw(&mut rng);
            }
            if case % 11 == 0 {
                used = 0;
            }
            let lines = if case % 3 == 0 {
                rng.range(1, 129) as u32
            } else {
                rng.range(1, 9) as u32
            };
            let block = Block {
                base: Addr::new(0),
                used,
            };
            let want = free_run_bit_loop(used, lines);
            found += want.is_some() as u32;
            assert_eq!(
                block.free_run(lines),
                want,
                "used {used:#034x}, lines {lines}"
            );
        }
        assert!(found > 5_000, "the cases exercise successful fits");
    }

    #[test]
    fn immix_allocates_line_aligned_runs() {
        let (mut m, mut cm) = setup();
        let mut s = ImmixSpace::new("mature-pcm", Side::Pcm);
        let a = s.alloc(&mut m, &mut cm, 300).unwrap(); // 2 lines
        let b = s.alloc(&mut m, &mut cm, 100).unwrap(); // 1 line
        assert_eq!(b.raw() - a.raw(), 2 * LINE_SIZE as u64);
        assert_eq!(s.used().bytes(), 3 * LINE_SIZE as u64);
    }

    #[test]
    fn immix_sweep_reclaims_dead_lines() {
        let (mut m, mut cm) = setup();
        let mut s = ImmixSpace::new("mature-pcm", Side::Pcm);
        let a = s.alloc(&mut m, &mut cm, 256).unwrap();
        let b = s.alloc(&mut m, &mut cm, 256).unwrap();
        s.begin_sweep();
        s.mark_object(b, 256).unwrap(); // only b survives
        assert_eq!(s.used().bytes(), 256);
        // New allocation reuses a's line.
        let c = s.alloc(&mut m, &mut cm, 256).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn immix_grows_by_chunks_when_full() {
        let (mut m, mut cm) = setup();
        let mut s = ImmixSpace::new("mature-pcm", Side::Pcm);
        let before = cm.stats().fresh;
        // Fill slightly more than one chunk of lines.
        let per_obj = BLOCK_SIZE as u32; // whole block each
        for _ in 0..BLOCKS_PER_CHUNK + 1 {
            s.alloc(&mut m, &mut cm, per_obj).unwrap();
        }
        assert_eq!(cm.stats().fresh, before + 2);
    }

    #[test]
    fn immix_object_never_spans_blocks() {
        let (mut m, mut cm) = setup();
        let mut s = ImmixSpace::new("mature-pcm", Side::Pcm);
        // Fill most of a block, then allocate something that does not fit
        // in the remainder: it must start at a fresh block boundary.
        let a = s
            .alloc(&mut m, &mut cm, (BLOCK_SIZE - LINE_SIZE) as u32)
            .unwrap();
        let b = s.alloc(&mut m, &mut cm, 2 * LINE_SIZE as u32).unwrap();
        assert_eq!((b.raw() - a.raw()) % BLOCK_SIZE as u64, 0);
    }

    #[test]
    fn los_is_page_granular_and_reuses_freed_runs() {
        let (mut m, mut cm) = setup();
        let mut s = LargeObjectSpace::new("los-pcm", Side::Pcm);
        let a = s.alloc(&mut m, &mut cm, 10_000).unwrap(); // 3 pages
        assert!(a.is_aligned(PAGE_SIZE as u64));
        assert_eq!(s.used().bytes(), 3 * PAGE_SIZE as u64);
        s.free(a, 10_000);
        assert_eq!(s.used(), ByteSize::ZERO);
        let b = s.alloc(&mut m, &mut cm, 8_192).unwrap(); // 2 pages, fits the freed run
        assert_eq!(b, a);
    }

    #[test]
    fn los_handles_multi_chunk_objects() {
        let (mut m, mut cm) = setup();
        let mut s = LargeObjectSpace::new("los-pcm", Side::Pcm);
        let a = s.alloc(&mut m, &mut cm, 6 * 1024 * 1024).unwrap(); // 1.5 chunks
        assert!(a.is_aligned(PAGE_SIZE as u64));
        assert_eq!(s.reserved().bytes(), 8 * 1024 * 1024);
    }

    #[test]
    fn meta_allocator_hands_out_dense_slots() {
        let (mut m, mut cm) = setup();
        let mut meta = MetaAllocator::new("meta-dram", Side::Dram);
        let a = meta.alloc_slot(&mut m, &mut cm).unwrap();
        let b = meta.alloc_slot(&mut m, &mut cm).unwrap();
        assert_eq!(b.raw() - a.raw(), 1, "mark bytes are packed");
        // Slots land on the DRAM side of virtual memory.
        assert!(a >= crate::layout::PCM_END);
    }
}
