//! A single set-associative, write-back, write-allocate cache.
//!
//! # Set-block layout
//!
//! All per-set state lives in one contiguous, 64-byte-aligned **set
//! block**, sized so the paper's L2 geometry (8-way) is exactly one host
//! cache line and the LLC geometry (20-way) exactly two:
//!
//! ```text
//! word 0        valid mask (low 32) | dirty mask (high 32)
//! words 1-2     packed recency ranks: 6 bits per way (u128)
//! words 3..P    presence bytes, one per way (kept by the hierarchy)
//! words P..     tags, two u32 per word
//! ```
//!
//! A probe therefore touches one or two host cache lines (and one TLB
//! entry) instead of walking three parallel arrays, and the LRU victim is
//! found by scanning a register, not memory. The ranks are an exact LRU
//! encoding: rank 0 is the most recently touched way, rank `assoc - 1`
//! the least; a touch increments every rank younger than the touched
//! way's in one SWAR step, so the ranks always form a permutation and
//! replacement decisions are bit-identical to stamp-based LRU.
//!
//! Tags store `line >> log2(sets)` (the set index is implied), packed as
//! `u32` — enough for any physical memory this simulator can represent;
//! the store path asserts it.

use crate::stats::CacheStats;
use hemu_types::{AccessKind, ByteSize, HemuError, LineAddr, Result, CACHE_LINE};

/// Geometry and identity of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name for reports ("L2", "LLC").
    pub name: &'static str,
    /// Total capacity.
    pub size: ByteSize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics on any geometry [`CacheConfig::try_new`] rejects.
    pub fn new(name: &'static str, size: ByteSize, assoc: usize) -> Self {
        match Self::try_new(name, size, assoc) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a config after checking its geometry: 1..=21 ways (per-set
    /// recency ranks are packed six bits per way into a `u128`), a
    /// capacity that is a whole number of `assoc`-way sets, and a
    /// power-of-two set count (the set index is computed by masking).
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::InvalidConfig`] naming the cache and the rule
    /// its geometry breaks.
    pub fn try_new(name: &'static str, size: ByteSize, assoc: usize) -> Result<Self> {
        let set_bytes = (assoc * CACHE_LINE) as u64;
        let why = if !(1..=21).contains(&assoc) {
            format!("{assoc} ways is outside 1..=21")
        } else if !size.bytes().is_multiple_of(set_bytes) {
            format!("capacity {size} does not divide into {assoc}-way sets")
        } else if !(size.bytes() / set_bytes).is_power_of_two() {
            format!(
                "set count {} must be a power of two",
                size.bytes() / set_bytes
            )
        } else {
            return Ok(CacheConfig { name, size, assoc });
        };
        Err(HemuError::InvalidConfig(format!("{name} geometry: {why}")))
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> usize {
        self.size.bytes() as usize / CACHE_LINE / self.assoc
    }

    /// Total number of lines.
    pub(crate) fn lines(&self) -> usize {
        self.size.bytes() as usize / CACHE_LINE
    }
}

/// A line pushed out of the cache by an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The physical line that was evicted.
    pub line: LineAddr,
    /// Whether it was dirty (must be written back to the next level).
    pub dirty: bool,
    /// Provenance tag of the last write to the line (raw
    /// [`hemu_types::WriteTag`] byte); 0 unless tag tracking is enabled.
    /// Meaningful only when `dirty`.
    pub tag: u8,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was already resident.
    pub hit: bool,
    /// The way the accessed line occupies after the access (its slot index
    /// is `set * assoc + way`); lets callers maintain per-slot side tables
    /// without re-probing.
    pub way: u8,
    /// On a miss that displaced a valid line, that line.
    pub victim: Option<Victim>,
}

/// One 64-byte-aligned slab of eight set-block words; blocks are a whole
/// number of slabs so every set starts on a host cache line.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy)]
struct SetSlab([u64; 8]);

/// Word offset of the valid/dirty masks inside a set block.
const VD: usize = 0;
/// Word offset of the low half of the packed recency ranks.
const ORDER_LO: usize = 1;
/// Word offset of the high half of the packed recency ranks.
const ORDER_HI: usize = 2;
/// Word offset of the first presence byte: the LLC's inclusion
/// directory, or an L2 slot's link to its LLC way.
const PRES: usize = 3;
/// Bits per packed recency-rank field.
const RANK_BITS: u32 = 6;
/// Mask of one recency-rank field.
const RANK_MASK: u128 = 0x3F;

/// SSE2 vectors (four `u32` tags each) one probe of an `assoc`-way set
/// compares: 1 to 6 for the 1..=21 ways `CacheConfig` accepts.
#[cfg(any(target_arch = "x86_64", test))]
const fn probe_vectors(assoc: usize) -> usize {
    assoc.div_ceil(4)
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// Tag arrays only — the simulator never stores data, it tracks which
/// physical lines are resident and dirty, which is all that is needed to
/// decide which stores become memory writes. See the module docs for the
/// packed set-block layout the fast path runs against.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Cached geometry: `sets - 1`, for mask-based set indexing.
    set_mask: u64,
    /// Cached geometry: ways per set.
    assoc: usize,
    /// Cached geometry: `(1 << assoc) - 1`, the all-ways-valid mask.
    full_mask: u32,
    /// Cached geometry: `log2(sets)`, for tag extraction.
    set_bits: u32,
    /// Words per set block (a multiple of 8, so blocks are slab-aligned).
    stride: usize,
    /// Word offset of the packed tags inside a block.
    tags_off: usize,
    /// SWAR broadcast constant: a 1 in every way's rank field.
    rank_ones: u128,
    /// SWAR borrow guard: the high bit of every way's rank field.
    rank_high: u128,
    /// `(assoc - 1) * rank_ones`: the LRU rank broadcast to every field.
    rank_target: u128,
    /// `r * rank_ones` for every rank `r`, so the touch path broadcasts a
    /// rank with one load instead of a 128-bit multiply.
    rank_bcast: [u128; 22],
    /// `sets * stride / 8` slabs of packed per-set state.
    arena: Vec<SetSlab>,
    /// Optional per-slot provenance tags (raw [`hemu_types::WriteTag`]
    /// bytes): the cause/space of the last write to each resident line,
    /// carried with the line until its write-back. `None` (the default)
    /// costs nothing on the access path beyond one branch.
    prov: Option<Vec<u8>>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let assoc = config.assoc;
        let tags_off = PRES + assoc.div_ceil(8);
        let stride = (tags_off + assoc.div_ceil(2)).next_multiple_of(8);
        let mut rank_ones = 0u128;
        for w in 0..assoc {
            rank_ones |= 1 << (RANK_BITS * w as u32);
        }
        let mut rank_bcast = [0u128; 22];
        for (r, b) in rank_bcast.iter_mut().enumerate() {
            *b = r as u128 * rank_ones;
        }
        let mut cache = Cache {
            config,
            set_mask: (sets - 1) as u64,
            assoc,
            full_mask: (1u32 << assoc) - 1,
            set_bits: sets.trailing_zeros(),
            stride,
            tags_off,
            rank_ones,
            rank_high: rank_ones << (RANK_BITS - 1),
            rank_target: (assoc - 1) as u128 * rank_ones,
            rank_bcast,
            arena: vec![SetSlab([0; 8]); sets * stride / 8],
            prov: None,
            stats: CacheStats::default(),
        };
        // Ranks must always form a permutation of 0..assoc; start each set
        // with way w at rank w (the first fills touch ways in index order,
        // which keeps the permutation consistent from the first access).
        let mut init = 0u128;
        for w in 0..assoc {
            init |= (w as u128) << (RANK_BITS * w as u32);
        }
        for set in 0..sets {
            cache.set_order(set * stride, init);
        }
        cache
    }

    /// The set-block words, viewed flat.
    #[inline]
    fn words(&self) -> &[u64] {
        // Safety: `SetSlab` is a `repr(C)` eight-u64 array with stronger
        // alignment, so the slab vector is exactly `len * 8` contiguous
        // initialized words.
        unsafe {
            std::slice::from_raw_parts(self.arena.as_ptr().cast::<u64>(), self.arena.len() * 8)
        }
    }

    /// The set-block words, viewed flat, mutably.
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        // Safety: as in `words`; the borrow of `self` is exclusive.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.arena.as_mut_ptr().cast::<u64>(),
                self.arena.len() * 8,
            )
        }
    }

    /// Enables per-line provenance tag tracking (one byte per slot). Tags
    /// recorded by tagged writes from then on travel with dirty lines and
    /// surface in [`Victim::tag`] and the flush sink. Idempotent.
    pub(crate) fn enable_tags(&mut self) {
        if self.prov.is_none() {
            self.prov = Some(vec![0; self.config.lines()]);
        }
    }

    #[inline]
    fn store_tag(&mut self, slot: usize, tag: u8) {
        if let Some(p) = &mut self.prov {
            p[slot] = tag;
        }
    }

    #[inline]
    fn prov_at(&self, slot: usize) -> u8 {
        self.prov.as_ref().map_or(0, |p| p[slot])
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (not contents).
    pub(crate) fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Set index of a line (mask, no division — the mask is cached at
    /// construction).
    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() & self.set_mask) as usize
    }

    /// First word of `set`'s block.
    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.stride
    }

    /// One block word. Callers pass `base + offset` indices that are in
    /// bounds by construction (`base = set * stride` with `set < sets`,
    /// `offset < stride`), so the check is elided.
    #[inline]
    fn word(&self, i: usize) -> u64 {
        debug_assert!(i < self.arena.len() * 8);
        // Safety: see above; every caller's index is `set * stride + off`
        // with `set` masked to the set count and `off < stride`.
        unsafe { *self.words().get_unchecked(i) }
    }

    /// Mutable access to one block word (same bounds argument as `word`).
    #[inline]
    fn word_mut(&mut self, i: usize) -> &mut u64 {
        debug_assert!(i < self.arena.len() * 8);
        // Safety: as in `word`.
        unsafe { self.words_mut().get_unchecked_mut(i) }
    }

    /// The packed recency ranks of the block at `base`.
    #[inline]
    fn order_at(&self, base: usize) -> u128 {
        u128::from(self.word(base + ORDER_LO)) | u128::from(self.word(base + ORDER_HI)) << 64
    }

    #[inline]
    fn set_order(&mut self, base: usize, order: u128) {
        *self.word_mut(base + ORDER_LO) = order as u64;
        *self.word_mut(base + ORDER_HI) = (order >> 64) as u64;
    }

    /// The stored tag of way `w` in the block at `base`.
    #[inline]
    fn tag_at(&self, base: usize, w: usize) -> u32 {
        (self.word(base + self.tags_off + w / 2) >> ((w & 1) * 32)) as u32
    }

    #[inline]
    fn set_tag(&mut self, base: usize, w: usize, tag: u32) {
        let off = self.tags_off;
        let word = self.word_mut(base + off + w / 2);
        let shift = (w & 1) * 32;
        *word = (*word & !(0xFFFF_FFFFu64 << shift)) | u64::from(tag) << shift;
    }

    /// Reconstructs the full line number of way `w` in `set`.
    #[inline]
    fn line_of(&self, base: usize, set: usize, w: usize) -> LineAddr {
        LineAddr::new(u64::from(self.tag_at(base, w)) << self.set_bits | set as u64)
    }

    /// Marks way `w` most recently used: one SWAR step increments every
    /// rank younger than `w`'s and zeroes `w`'s, preserving the
    /// permutation — bit-identical ordering to stamp-based LRU.
    #[inline]
    fn touch(&mut self, base: usize, w: usize) {
        let o = self.order_at(base);
        let r = (o >> (RANK_BITS * w as u32) & RANK_MASK) as usize;
        // Per-field `f < r` via the borrow trick: fields are 6 bits but
        // values stay below 32, so the top bit of each field is spare. The
        // rank broadcast comes from a tiny table instead of a 128-bit
        // multiply.
        let diff = (o | self.rank_high).wrapping_sub(self.rank_bcast[r]);
        let inc = (!diff & self.rank_high) >> (RANK_BITS - 1);
        self.set_order(base, (o + inc) & !(RANK_MASK << (RANK_BITS * w as u32)));
    }

    /// `touch` specialized for filling the just-evicted LRU way: its rank
    /// is `assoc - 1`, so every other field is younger and the whole step
    /// collapses to one add (no field can carry: ranks stay below 21 and
    /// the victim's incremented field is masked to zero).
    #[inline]
    fn touch_evicted(&mut self, base: usize, w: usize) {
        let o = self.order_at(base);
        self.set_order(
            base,
            (o + self.rank_ones) & !(RANK_MASK << (RANK_BITS * w as u32)),
        );
    }

    /// The way with rank `assoc - 1` (least recently used), found
    /// branchlessly: XOR against the broadcast target zeroes exactly the
    /// matching field, SWAR zero-detection flags it, `trailing_zeros`
    /// names it. Only meaningful when the set is full, which is the only
    /// time it is consulted.
    #[inline]
    fn oldest_way(&self, base: usize) -> usize {
        let x = self.order_at(base) ^ self.rank_target;
        // Fields are < 32 (assoc <= 21), so XOR never sets a field's top
        // bit and the borrow trick detects the zero field exactly.
        let zero = !(x | self.rank_high).wrapping_sub(self.rank_ones) & self.rank_high;
        debug_assert!(zero != 0, "ranks must form a permutation of 0..assoc");
        zero.trailing_zeros() as usize / RANK_BITS as usize
    }

    /// Branchless probe of the block at `base`: compares every way's
    /// packed tag and returns the match bits. The caller masks the result
    /// with the valid bits, which drops stale tags in invalid ways and, on
    /// x86_64, the lanes past `assoc`.
    ///
    /// On x86_64 the packed-`u32` tag array is compared four ways per
    /// SSE2 vector, `⌈assoc/4⌉` vectors per probe; one `match` picks the
    /// compile-time width, so every probe is a fixed, unrolled sequence.
    #[inline(always)]
    fn probe_mask(&self, base: usize, tag: u32) -> u32 {
        #[cfg(target_arch = "x86_64")]
        {
            match probe_vectors(self.assoc) {
                1 => self.probe_sse2::<1>(base, tag),
                2 => self.probe_sse2::<2>(base, tag),
                3 => self.probe_sse2::<3>(base, tag),
                4 => self.probe_sse2::<4>(base, tag),
                5 => self.probe_sse2::<5>(base, tag),
                6 => self.probe_sse2::<6>(base, tag),
                v => unreachable!("{v} probe vectors: CacheConfig caps assoc at 21"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let words = self.assoc.div_ceil(2);
            let mut m = 0u32;
            let pairs = &self.words()[base + self.tags_off..][..words];
            for (i, &pair) in pairs.iter().enumerate() {
                m |= u32::from(pair as u32 == tag) << (2 * i);
                m |= u32::from((pair >> 32) as u32 == tag) << (2 * i + 1);
            }
            m
        }
    }

    /// The tag compare of `probe_mask` at `V` SSE2 vectors: lane `4v + i`
    /// of the result is way `4v + i`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn probe_sse2<const V: usize>(&self, base: usize, tag: u32) -> u32 {
        use core::arch::x86_64::{
            _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_loadu_si128, _mm_movemask_ps, _mm_set1_epi32,
        };
        debug_assert!(self.tags_off + 2 * V <= self.stride);
        let mut m = 0u32;
        // Safety: SSE2 is part of the x86_64 baseline; the loads read the
        // `2 * V` words from `base + tags_off`, which end inside this set's
        // block (`tags_off + 2 * V <= stride` for every associativity
        // `CacheConfig` accepts; a unit test checks each).
        unsafe {
            let p = self.words().as_ptr().add(base + self.tags_off);
            let needle = _mm_set1_epi32(tag as i32);
            for v in 0..V {
                let eq = _mm_cmpeq_epi32(_mm_loadu_si128(p.add(v * 2).cast()), needle);
                m |= (_mm_movemask_ps(_mm_castsi128_ps(eq)) as u32) << (4 * v);
            }
        }
        m
    }

    /// Splits a line into its (set, block base, packed tag) triple.
    ///
    /// # Panics
    ///
    /// Panics if the tag overflows the packed 32-bit storage — only
    /// possible for physical memories beyond anything this simulator
    /// models (e.g. 2^46 lines through the paper's LLC geometry).
    #[inline]
    fn locate(&self, line: LineAddr) -> (usize, usize, u32) {
        let set = self.set_of(line);
        let tag = line.raw() >> self.set_bits;
        assert!(
            tag <= u64::from(u32::MAX),
            "line {:#x}: tag overflows packed u32 tag storage",
            line.raw()
        );
        (set, self.base(set), tag as u32)
    }

    /// The way holding `line`, if resident.
    #[inline]
    fn find_way(&self, line: LineAddr) -> Option<usize> {
        let (_, base, tag) = self.locate(line);
        let valid = self.word(base + VD) as u32;
        let m = self.probe_mask(base, tag) & valid;
        (m != 0).then(|| m.trailing_zeros() as usize)
    }

    /// Accesses `line`; on a write the resident line is marked dirty.
    ///
    /// Untagged convenience for `Cache::access_tagged` (tag 0).
    pub fn access(&mut self, line: LineAddr, kind: AccessKind) -> AccessResult {
        self.access_tagged(line, kind, 0)
    }

    /// Accesses `line`; on a write the resident line is marked dirty and
    /// stamped with the provenance `wtag` (ignored unless
    /// [`Cache::enable_tags`] was called).
    ///
    /// On a miss the line is allocated (write-allocate for both reads and
    /// writes) and the displaced valid line, if any, is returned — with
    /// the tag of its last write — so the caller can propagate the
    /// write-back.
    ///
    /// Always inlined, so both the L2 and the LLC access compile into the
    /// hierarchy walk instead of being called out of line.
    #[inline(always)]
    pub(crate) fn access_tagged(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        wtag: u8,
    ) -> AccessResult {
        let (set, base, tag) = self.locate(line);
        let vd = self.word(base + VD);
        let (valid, dirty) = (vd as u32, (vd >> 32) as u32);

        let hit_mask = self.probe_mask(base, tag) & valid;
        if hit_mask != 0 {
            let w = hit_mask.trailing_zeros() as usize;
            self.stats.hits += 1;
            self.touch(base, w);
            if kind.is_write() {
                *self.word_mut(base + VD) = vd | 1u64 << (32 + w);
                self.store_tag(set * self.assoc + w, wtag);
            }
            return AccessResult {
                hit: true,
                way: w as u8,
                victim: None,
            };
        }

        // Miss: pick a way (first invalid way, else LRU), evict + allocate.
        self.stats.misses += 1;
        let (way, victim) = if valid != self.full_mask {
            let w = (!valid & self.full_mask).trailing_zeros() as usize;
            self.touch(base, w);
            (w, None)
        } else {
            let w = self.oldest_way(base);
            let was_dirty = dirty >> w & 1 == 1;
            self.stats.evictions += 1;
            if was_dirty {
                self.stats.writebacks += 1;
            }
            // The evicted way's rank is by definition the maximum, so the
            // recency update collapses to the cheap fused form.
            self.touch_evicted(base, w);
            (
                w,
                Some(Victim {
                    line: self.line_of(base, set, w),
                    dirty: was_dirty,
                    tag: self.prov_at(set * self.assoc + w),
                }),
            )
        };
        let new_valid = valid | 1 << way;
        let new_dirty = if kind.is_write() {
            dirty | 1 << way
        } else {
            dirty & !(1 << way)
        };
        *self.word_mut(base + VD) = u64::from(new_valid) | u64::from(new_dirty) << 32;
        if kind.is_write() {
            self.store_tag(set * self.assoc + way, wtag);
        }
        self.set_tag(base, way, tag);
        AccessResult {
            hit: false,
            way: way as u8,
            victim,
        }
    }

    /// The presence byte of way `way` in the set `line` maps to: the
    /// per-slot byte the hierarchy maintains (in the LLC, which private
    /// caches may hold the slot's line; in an L2, the line's LLC way).
    #[inline]
    pub(crate) fn pres_at(&self, line: LineAddr, way: usize) -> u8 {
        let base = self.base(self.set_of(line));
        (self.word(base + PRES + way / 8) >> ((way & 7) * 8)) as u8
    }

    /// ORs `bits` into the presence byte of (`line`'s set, `way`).
    #[inline]
    pub(crate) fn pres_or(&mut self, line: LineAddr, way: usize, bits: u8) {
        let base = self.base(self.set_of(line));
        *self.word_mut(base + PRES + way / 8) |= u64::from(bits) << ((way & 7) * 8);
    }

    /// Replaces the presence byte of (`line`'s set, `way`) with `bits`,
    /// returning the previous value (the displaced line's presence).
    #[inline]
    pub(crate) fn pres_replace(&mut self, line: LineAddr, way: usize, bits: u8) -> u8 {
        let base = self.base(self.set_of(line));
        let word = self.word_mut(base + PRES + way / 8);
        let shift = (way & 7) * 8;
        let old = (*word >> shift) as u8;
        *word = (*word & !(0xFFu64 << shift)) | u64::from(bits) << shift;
        old
    }

    /// Returns `true` if `line` is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find_way(line).is_some()
    }

    /// Returns the dirty bit of `line` if resident.
    pub fn is_dirty(&self, line: LineAddr) -> Option<bool> {
        let base = self.base(self.set_of(line));
        self.find_way(line)
            .map(|w| (self.word(base + VD) >> 32) as u32 >> w & 1 == 1)
    }

    /// Marks a resident line dirty and stamps it with the provenance
    /// `wtag`, without touching LRU state.
    ///
    /// Returns `false` if the line was not resident.
    pub(crate) fn mark_dirty_tagged(&mut self, line: LineAddr, wtag: u8) -> bool {
        let set = self.set_of(line);
        match self.find_way(line) {
            Some(w) => {
                let base = self.base(set);
                *self.word_mut(base + VD) |= 1u64 << (32 + w);
                self.store_tag(set * self.assoc + w, wtag);
                true
            }
            None => false,
        }
    }

    /// Marks the line in way `way` of `line`'s set dirty and stamps it with
    /// `wtag`, without a probe and without touching LRU state: the caller
    /// already knows where the line lives (the hierarchy's L2-to-LLC link).
    #[inline]
    pub(crate) fn mark_dirty_at(&mut self, line: LineAddr, way: usize, wtag: u8) {
        let set = self.set_of(line);
        let base = self.base(set);
        debug_assert!(
            self.word(base + VD) >> way & 1 == 1
                && u64::from(self.tag_at(base, way)) == line.raw() >> self.set_bits,
            "line {:#x} is not in way {way}",
            line.raw()
        );
        *self.word_mut(base + VD) |= 1u64 << (32 + way);
        self.store_tag(set * self.assoc + way, wtag);
    }

    /// Removes `line` if resident, returning its dirtiness and the
    /// provenance tag of its last write.
    pub(crate) fn invalidate_tagged(&mut self, line: LineAddr) -> Option<(bool, u8)> {
        let set = self.set_of(line);
        let w = self.find_way(line)?;
        let wtag = self.prov_at(set * self.assoc + w);
        let base = self.base(set);
        let vd = self.word(base + VD);
        let was_dirty = (vd >> 32) as u32 >> w & 1 == 1;
        *self.word_mut(base + VD) = vd & !(1u64 << w) & !(1u64 << (32 + w));
        Some((was_dirty, wtag))
    }

    /// Iterates over the resident lines and their dirty bits (O(capacity);
    /// for invariant checking and debugging).
    pub fn iter_resident(&self) -> impl Iterator<Item = (LineAddr, bool)> + '_ {
        (0..self.config.sets()).flat_map(move |set| {
            let base = self.base(set);
            let vd = self.words()[base + VD];
            (0..self.assoc).filter_map(move |w| {
                if vd as u32 >> w & 1 == 1 {
                    Some((self.line_of(base, set, w), (vd >> 32) as u32 >> w & 1 == 1))
                } else {
                    None
                }
            })
        })
    }

    /// Writes back and drops every dirty line, invoking `sink` with each
    /// line and the provenance tag of its last write (used at iteration
    /// barriers to flush residual dirty data).
    ///
    /// Sets with no dirty line are skipped with one mask test each.
    pub(crate) fn flush_dirty_tagged<F: FnMut(LineAddr, u8)>(&mut self, mut sink: F) {
        for set in 0..self.config.sets() {
            let base = self.base(set);
            let vd = self.words()[base + VD];
            let mut rem = (vd >> 32) as u32;
            if rem == 0 {
                continue;
            }
            while rem != 0 {
                let w = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                let wtag = self.prov_at(set * self.assoc + w);
                sink(self.line_of(base, set, w), wtag);
            }
            self.words_mut()[base + VD] = vd & 0xFFFF_FFFF;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways = 4 lines of 64 B = 256 B.
        Cache::new(CacheConfig::new("T", ByteSize::new(256), 2))
    }

    /// Lines mapping to set 0 of the tiny cache (even line numbers).
    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(l(0), AccessKind::Read).hit);
        assert!(c.access(l(0), AccessKind::Read).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn write_sets_dirty_read_does_not() {
        let mut c = tiny();
        c.access(l(0), AccessKind::Read);
        assert_eq!(c.is_dirty(l(0)), Some(false));
        c.access(l(0), AccessKind::Write);
        assert_eq!(c.is_dirty(l(0)), Some(true));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds even lines; fill its two ways.
        c.access(l(0), AccessKind::Read);
        c.access(l(2), AccessKind::Read);
        c.access(l(0), AccessKind::Read); // 2 is now LRU
        let r = c.access(l(4), AccessKind::Read);
        assert_eq!(
            r.victim,
            Some(Victim {
                line: l(2),
                dirty: false,
                tag: 0
            })
        );
        assert!(c.contains(l(0)));
        assert!(!c.contains(l(2)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(l(0), AccessKind::Write);
        c.access(l(2), AccessKind::Read);
        let r = c.access(l(4), AccessKind::Read); // evicts line 0 (LRU, dirty)
        assert_eq!(
            r.victim,
            Some(Victim {
                line: l(0),
                dirty: true,
                tag: 0
            })
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn tags_travel_with_dirty_lines() {
        let mut c = tiny();
        c.enable_tags();
        c.access_tagged(l(0), AccessKind::Write, 7);
        c.access(l(2), AccessKind::Read);
        // Eviction surfaces the dirty victim's tag.
        let r = c.access(l(4), AccessKind::Read);
        assert_eq!(
            r.victim,
            Some(Victim {
                line: l(0),
                dirty: true,
                tag: 7
            })
        );
        // A later write overwrites the tag; flush reports the latest one.
        c.access_tagged(l(2), AccessKind::Write, 3);
        c.access_tagged(l(2), AccessKind::Write, 5);
        let mut flushed = Vec::new();
        c.flush_dirty_tagged(|line, tag| flushed.push((line, tag)));
        assert_eq!(flushed, vec![(l(2), 5)]);
        // mark_dirty_tagged and invalidate_tagged round-trip the tag.
        c.access(l(1), AccessKind::Read);
        assert!(c.mark_dirty_tagged(l(1), 9));
        assert_eq!(c.invalidate_tagged(l(1)), Some((true, 9)));
        // mark_dirty_at does the same at a known way, without a probe.
        let way = c.access(l(3), AccessKind::Read).way as usize;
        c.mark_dirty_at(l(3), way, 4);
        assert_eq!(c.invalidate_tagged(l(3)), Some((true, 4)));
    }

    #[test]
    fn tags_are_zero_when_disabled() {
        let mut c = tiny();
        c.access_tagged(l(0), AccessKind::Write, 7);
        c.access(l(2), AccessKind::Read);
        let r = c.access(l(4), AccessKind::Read);
        assert_eq!(r.victim.map(|v| v.tag), Some(0), "no storage when off");
        assert!(c.prov.is_none());
    }

    #[test]
    fn repeated_writes_to_cached_line_never_evict() {
        // The LLC-absorption effect in miniature: overwriting a resident
        // line generates no memory traffic at all.
        let mut c = tiny();
        c.access(l(0), AccessKind::Write);
        for _ in 0..100 {
            let r = c.access(l(0), AccessKind::Write);
            assert!(r.hit);
            assert!(r.victim.is_none());
        }
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        c.access(l(0), AccessKind::Read); // set 0
        c.access(l(1), AccessKind::Read); // set 1
        c.access(l(3), AccessKind::Read); // set 1
        c.access(l(5), AccessKind::Read); // set 1: evicts 1 or 3, not 0
        assert!(c.contains(l(0)));
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = tiny();
        c.access(l(0), AccessKind::Write);
        assert_eq!(
            c.invalidate_tagged(l(0)).map(|(dirty, _)| dirty),
            Some(true)
        );
        assert_eq!(c.invalidate_tagged(l(0)).map(|(dirty, _)| dirty), None);
        assert!(!c.contains(l(0)));
    }

    #[test]
    fn mark_dirty_requires_residency() {
        let mut c = tiny();
        assert!(!c.mark_dirty_tagged(l(0), 0));
        c.access(l(0), AccessKind::Read);
        assert!(c.mark_dirty_tagged(l(0), 0));
        assert_eq!(c.is_dirty(l(0)), Some(true));
    }

    #[test]
    fn flush_dirty_visits_each_dirty_line_once() {
        let mut c = tiny();
        c.access(l(0), AccessKind::Write);
        c.access(l(1), AccessKind::Read);
        c.access(l(2), AccessKind::Write);
        let mut flushed = Vec::new();
        c.flush_dirty_tagged(|line, _| flushed.push(line));
        flushed.sort_by_key(|x| x.raw());
        assert_eq!(flushed, vec![l(0), l(2)]);
        // Second flush finds nothing.
        let mut again = Vec::new();
        c.flush_dirty_tagged(|line, _| again.push(line));
        assert!(again.is_empty());
    }

    #[test]
    fn invalidated_way_is_refilled_consistently() {
        // Invalidate a way mid-stream and keep going: ranks must stay a
        // valid permutation and LRU decisions must match the stamp model.
        let mut c = tiny();
        c.access(l(0), AccessKind::Read);
        c.access(l(2), AccessKind::Read);
        assert_eq!(
            c.invalidate_tagged(l(0)).map(|(dirty, _)| dirty),
            Some(false)
        );
        c.access(l(4), AccessKind::Read); // refills the invalid way
        assert!(c.contains(l(2)));
        assert!(c.contains(l(4)));
        // 2 is older than 4 now; a new line must evict 2.
        let r = c.access(l(6), AccessKind::Read);
        assert_eq!(r.victim.map(|v| v.line), Some(l(2)));
    }

    #[test]
    fn presence_bytes_round_trip() {
        let mut c = tiny();
        assert_eq!(c.pres_at(l(0), 1), 0);
        c.pres_or(l(0), 1, 0b101);
        assert_eq!(c.pres_at(l(0), 1), 0b101);
        assert_eq!(c.pres_replace(l(0), 1, 0b10), 0b101);
        assert_eq!(c.pres_at(l(0), 1), 0b10);
        // Other slots are untouched.
        assert_eq!(c.pres_at(l(0), 0), 0);
        assert_eq!(c.pres_at(l(1), 1), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheConfig::new("bad", ByteSize::new(192), 1);
    }

    #[test]
    fn probe_loads_stay_inside_the_set_block() {
        for assoc in 1..=21 {
            // One set: the smallest geometry `CacheConfig` accepts.
            let size = ByteSize::new((assoc * CACHE_LINE) as u64);
            let c = Cache::new(CacheConfig::new("P", size, assoc));
            let v = probe_vectors(assoc);
            assert!((1..=6).contains(&v), "{assoc} ways: {v} vectors");
            assert!(4 * v >= assoc, "{assoc} ways: {v} vectors miss a way");
            assert!(
                c.tags_off + 2 * v <= c.stride,
                "{assoc} ways: the last vector ends at word {} of a {}-word block",
                c.tags_off + 2 * v,
                c.stride
            );
        }
    }

    #[test]
    fn geometry_of_paper_llc() {
        let cfg = CacheConfig::new("LLC", ByteSize::from_mib(20), 20);
        assert_eq!(cfg.sets(), 16384);
        assert_eq!(cfg.lines(), 327_680);
    }
}
