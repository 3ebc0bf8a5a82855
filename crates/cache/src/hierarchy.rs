//! The multi-core hierarchy: private L2 per hardware context, one shared
//! inclusive LLC.

use crate::cache::{Cache, CacheConfig};
use hemu_types::{AccessKind, ByteSize, LineAddr};

/// Which level satisfied an access (drives the timing model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// Private L2 hit.
    L2,
    /// Shared LLC hit.
    Llc,
    /// Missed everywhere; line filled from memory.
    Memory,
}

/// Everything the memory system must know about one access: where it hit,
/// which line (if any) was read from memory, and which dirty lines were
/// pushed out to memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Level that satisfied the access.
    pub level: HitLevel,
    /// Line fetched from memory (always the accessed line, on LLC miss).
    pub memory_fill: Option<LineAddr>,
    /// Dirty lines written back to memory by this access (at most 1: the
    /// LLC victim).
    pub memory_writebacks: Vec<LineAddr>,
}

/// Most hardware contexts a [`Hierarchy`] supports: it keeps the contexts
/// that have run in one 64-bit set.
pub const MAX_CONTEXTS: usize = 64;

/// Geometry of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of hardware contexts, each with a private L2 (1 to
    /// [`MAX_CONTEXTS`]).
    pub contexts: usize,
    /// Private L2 capacity (256 KiB on the paper's platform).
    pub l2_size: ByteSize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Shared LLC capacity (20 MiB on the paper's platform).
    pub llc_size: ByteSize,
    /// LLC associativity.
    pub llc_assoc: usize,
}

impl HierarchyConfig {
    /// The paper's emulation platform: per-context 256 KiB 8-way L2s and a
    /// shared 20 MiB 20-way LLC.
    pub fn e5_2650l(contexts: usize) -> Self {
        HierarchyConfig {
            contexts,
            l2_size: ByteSize::from_kib(256),
            l2_assoc: 8,
            llc_size: ByteSize::from_mib(20),
            llc_assoc: 20,
        }
    }
}

/// Private L2s plus one shared, inclusive LLC.
///
/// Inclusion is enforced: when the LLC evicts a line, every L2 copy is
/// back-invalidated and any L2 dirtiness is merged into the write-back, so
/// no store is ever lost and every line in an L2 is also in the LLC.
///
/// Two per-slot bytes, kept inside the caches' set blocks, keep an L2 miss
/// from probing caches that cannot hold a line:
/// - **L2 link.** Each L2 slot records the LLC way of its line. A line
///   cannot move within the LLC, and it leaves the LLC only by an eviction
///   that also removes it from every L2, so the link stays valid while the
///   line sits in the L2. A dirty L2 victim is merged into the LLC through
///   its link, with no probe.
/// - **LLC presence.** Each LLC slot has a presence byte, bit `c & 7` set
///   when context `c`'s L2 *may* hold the slot's line. The bits are set on
///   every L2 fill and cleared only when the slot is reallocated, so they
///   are a superset of true residency. An LLC eviction probes only the
///   contexts that have filled their L2 at least once and whose presence
///   bit is set, in ascending context order; with more than 8 contexts
///   the bit of `c` is shared by `c + 8`, `c + 16`, …, and only those of
///   them that ever ran are probed.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l2s: Vec<Cache>,
    llc: Cache,
    /// Bit `c` is set once context `c` has filled its L2.
    active: u64,
}

impl Hierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `config.contexts` is zero or above [`MAX_CONTEXTS`], or a
    /// cache geometry is invalid.
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(config.contexts > 0, "need at least one hardware context");
        assert!(
            config.contexts <= MAX_CONTEXTS,
            "at most {MAX_CONTEXTS} hardware contexts"
        );
        let l2cfg = CacheConfig::new("L2", config.l2_size, config.l2_assoc);
        let llc_cfg = CacheConfig::new("LLC", config.llc_size, config.llc_assoc);
        Hierarchy {
            l2s: (0..config.contexts).map(|_| Cache::new(l2cfg)).collect(),
            llc: Cache::new(llc_cfg),
            active: 0,
        }
    }

    /// Number of hardware contexts.
    pub fn contexts(&self) -> usize {
        self.l2s.len()
    }

    /// The shared LLC (for stats inspection).
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// One context's private L2 (for stats inspection).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn l2(&self, ctx: usize) -> &Cache {
        &self.l2s[ctx]
    }

    /// Enables provenance-tag tracking on every cache in the hierarchy:
    /// tags passed to [`Hierarchy::access_into`] then travel with dirty
    /// lines through L2 eviction, LLC merging, and back-invalidation until
    /// the line reaches memory. Idempotent.
    pub fn enable_tags(&mut self) {
        for l2 in &mut self.l2s {
            l2.enable_tags();
        }
        self.llc.enable_tags();
    }

    /// Issues one line access from hardware context `ctx`.
    ///
    /// Convenience wrapper over [`Hierarchy::access_into`] that allocates
    /// a fresh write-back vector per call; the machine's hot path uses
    /// `access_into` with a reusable scratch buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn access(&mut self, ctx: usize, line: LineAddr, kind: AccessKind) -> HierarchyOutcome {
        let mut writebacks = Vec::new();
        let (level, memory_fill) = self.access_into(ctx, line, kind, 0, &mut writebacks);
        HierarchyOutcome {
            level,
            memory_fill,
            memory_writebacks: writebacks.into_iter().map(|(line, _)| line).collect(),
        }
    }

    /// Prefetches the L2 and LLC set metadata `line` maps to into the
    /// host's cache (performance hint only; see [`Cache::prefetch_set`]).
    #[inline]
    pub(crate) fn prefetch(&self, ctx: usize, line: LineAddr) {
        self.l2s[ctx].prefetch_set(line);
        self.llc.prefetch_set(line);
    }

    /// Issues one line access from hardware context `ctx`, appending any
    /// memory write-backs — each with the provenance tag of the store that
    /// dirtied it — to `writebacks` (cleared first) instead of allocating
    /// a vector: the allocation-free form the machine's access fast path
    /// uses, passing the same scratch buffer every call. `wtag` is the
    /// provenance of this access when it is a write (ignored unless
    /// [`Hierarchy::enable_tags`] was called; pass 0 when untracked).
    ///
    /// Returns the level that satisfied the access and the line filled
    /// from memory, if any.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn access_into(
        &mut self,
        ctx: usize,
        line: LineAddr,
        kind: AccessKind,
        wtag: u8,
        writebacks: &mut Vec<(LineAddr, u8)>,
    ) -> (HitLevel, Option<LineAddr>) {
        writebacks.clear();

        // L2 probe.
        let l2 = &mut self.l2s[ctx];
        let l2r = l2.access_tagged(line, kind, wtag);
        if l2r.hit {
            return (HitLevel::L2, None);
        }
        let l2_way = l2r.way as usize;

        // The L2 displaced a line; a dirty one merges into its LLC copy
        // through the slot's link, carrying the tag of its most recent
        // store.
        if let Some(v) = l2r.victim {
            if v.dirty {
                let link = l2.pres_at(line, l2_way);
                self.llc.mark_dirty_at(v.line, link as usize, v.tag);
            }
        }
        self.active |= 1 << ctx;

        // LLC probe. The L2 will hold the written line dirty, so the LLC
        // access itself is a read-for-fill; dirtiness reaches the LLC later
        // via the L2 write-back path above.
        let llcr = self.llc.access(line, AccessKind::Read);
        self.l2s[ctx].pres_replace(line, l2_way, llcr.way);
        let ctx_bit = 1u8 << (ctx & 7);
        if llcr.hit {
            // The accessed line just filled into ctx's L2; record it.
            self.llc.pres_or(line, llcr.way as usize, ctx_bit);
            return (HitLevel::Llc, None);
        }

        // The slot was reallocated: its presence byte describes the victim
        // (if any), then starts over with just the filling context.
        let present = self.llc.pres_replace(line, llcr.way as usize, ctx_bit);
        if let Some(v) = llcr.victim {
            // Inclusive LLC: evicting a line expels it from every L2. An
            // L2 copy holds newer data than the LLC's, so its tag (the
            // most recent store) wins, the highest context's among several.
            // Only active contexts whose presence bit is set can hold the
            // line; the bit of `c` repeats every 8 contexts in `spread`.
            let spread = u64::from(present) * 0x0101_0101_0101_0101;
            let mut dirty = v.dirty;
            let mut tag = v.tag;
            let mut rem = self.active & spread;
            while rem != 0 {
                let c = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                if let Some((l2_dirty, l2_tag)) = self.l2s[c].invalidate_tagged(v.line) {
                    if l2_dirty {
                        dirty = true;
                        tag = l2_tag;
                    }
                }
            }
            if dirty {
                writebacks.push((v.line, tag));
            }
        }

        (HitLevel::Memory, Some(line))
    }

    /// Flushes every dirty line in the whole hierarchy to memory, calling
    /// `sink` once per line with the provenance tag of its last store (0
    /// when tag tracking is off). Used at measurement barriers so that
    /// stores still buffered in caches are attributed to the iteration
    /// that made them.
    pub fn flush<F: FnMut(LineAddr, u8)>(&mut self, mut sink: F) {
        // Inclusion holds, so every dirty L2 line merges into its LLC copy.
        for l2 in &mut self.l2s {
            let llc = &mut self.llc;
            l2.flush_dirty_tagged(|line, tag| {
                let merged = llc.mark_dirty_tagged(line, tag);
                debug_assert!(merged, "L2 line {:#x} is not in the LLC", line.raw());
            });
        }
        self.llc.flush_dirty_tagged(&mut sink);
    }

    /// Resets statistics on every cache (contents are preserved).
    pub fn reset_stats(&mut self) {
        for l2 in &mut self.l2s {
            l2.reset_stats();
        }
        self.llc.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(contexts: usize) -> Hierarchy {
        // L2: 2 sets x 2 ways; LLC: 4 sets x 4 ways.
        Hierarchy::new(HierarchyConfig {
            contexts,
            l2_size: ByteSize::new(256),
            l2_assoc: 2,
            llc_size: ByteSize::new(1024),
            llc_assoc: 4,
        })
    }

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn first_access_misses_to_memory() {
        let mut h = tiny(1);
        let o = h.access(0, l(0), AccessKind::Read);
        assert_eq!(o.level, HitLevel::Memory);
        assert_eq!(o.memory_fill, Some(l(0)));
        assert!(o.memory_writebacks.is_empty());
    }

    #[test]
    fn second_access_hits_l2() {
        let mut h = tiny(1);
        h.access(0, l(0), AccessKind::Read);
        let o = h.access(0, l(0), AccessKind::Write);
        assert_eq!(o.level, HitLevel::L2);
    }

    #[test]
    fn sibling_context_hits_llc() {
        let mut h = tiny(2);
        h.access(0, l(0), AccessKind::Read);
        let o = h.access(1, l(0), AccessKind::Read);
        assert_eq!(
            o.level,
            HitLevel::Llc,
            "fill left the line in the shared LLC"
        );
    }

    #[test]
    fn dirty_l2_eviction_merges_into_llc_not_memory() {
        let mut h = tiny(1);
        h.access(0, l(0), AccessKind::Write);
        // Evict line 0 from the (2-way) L2 set 0 with lines 2 and 4.
        h.access(0, l(2), AccessKind::Read);
        let o = h.access(0, l(4), AccessKind::Read);
        assert!(
            o.memory_writebacks.is_empty(),
            "dirty data is still buffered in the LLC"
        );
        assert_eq!(h.llc().is_dirty(l(0)), Some(true));
    }

    #[test]
    fn llc_eviction_of_dirty_line_writes_memory() {
        let mut h = tiny(1);
        h.access(0, l(0), AccessKind::Write);
        // LLC set 0 holds multiples of 4: fill ways with 0,4,8,12 then touch 16.
        for n in [4u64, 8, 12] {
            h.access(0, l(n), AccessKind::Read);
        }
        let o = h.access(0, l(16), AccessKind::Read);
        // Line 0's dirtiness lives in the L2 (never evicted from L2 yet);
        // inclusion back-invalidates it and must carry the dirty data out.
        assert_eq!(o.memory_writebacks, vec![l(0)]);
        assert!(
            !h.l2(0).contains(l(0)),
            "back-invalidation removed the L2 copy"
        );
    }

    #[test]
    fn clean_llc_eviction_is_silent() {
        let mut h = tiny(1);
        for n in [0u64, 4, 8, 12] {
            h.access(0, l(n), AccessKind::Read);
        }
        let o = h.access(0, l(16), AccessKind::Read);
        assert!(o.memory_writebacks.is_empty());
    }

    #[test]
    fn flush_emits_each_dirty_line_exactly_once() {
        let mut h = tiny(2);
        h.access(0, l(0), AccessKind::Write);
        h.access(1, l(1), AccessKind::Write);
        h.access(0, l(2), AccessKind::Read);
        let mut out = Vec::new();
        h.flush(|line, _| out.push(line));
        out.sort_by_key(|x| x.raw());
        assert_eq!(out, vec![l(0), l(1)]);
        let mut again = Vec::new();
        h.flush(|line, _| again.push(line));
        assert!(again.is_empty());
    }

    #[test]
    fn tags_flow_through_hierarchy_to_memory() {
        let mut h = tiny(1);
        h.enable_tags();
        let mut wbs = Vec::new();
        // Write line 0 with tag 7; the dirty line is back-invalidated out
        // of the L2 when LLC set 0 overflows, and the write-back must still
        // carry tag 7.
        h.access_into(0, l(0), AccessKind::Write, 7, &mut wbs);
        for n in [4u64, 8, 12] {
            h.access_into(0, l(n), AccessKind::Read, 0, &mut wbs);
        }
        h.access_into(0, l(16), AccessKind::Read, 0, &mut wbs);
        assert_eq!(wbs, vec![(l(0), 7)]);
        // Flush also reports tags: write line 20 with tag 3 and flush.
        h.access_into(0, l(20), AccessKind::Write, 3, &mut wbs);
        let mut flushed = Vec::new();
        h.flush(|line, tag| flushed.push((line, tag)));
        assert!(flushed.contains(&(l(20), 3)), "flush lost the tag");
    }

    #[test]
    fn repeated_writes_in_cache_produce_no_memory_traffic() {
        // The mechanism behind the paper's Finding 1: a nursery that fits in
        // the LLC absorbs nearly all its writes.
        let mut h = tiny(1);
        let mut mem_writes = 0;
        for _ in 0..50 {
            for n in 0..4u64 {
                let o = h.access(0, l(n), AccessKind::Write);
                mem_writes += o.memory_writebacks.len();
            }
        }
        assert_eq!(mem_writes, 0);
    }

    #[test]
    fn llc_contention_between_contexts_causes_writebacks() {
        // Two contexts each writing a working set that alone fits the LLC
        // but together overflows it: the multiprogramming mechanism of
        // Fig. 4 in miniature.
        let mut h = tiny(2);
        let mut mem_writes = 0;
        for round in 0..20 {
            for n in 0..10u64 {
                let o0 = h.access(0, l(n), AccessKind::Write);
                let o1 = h.access(1, l(n + 100), AccessKind::Write);
                if round > 0 {
                    mem_writes += o0.memory_writebacks.len() + o1.memory_writebacks.len();
                }
            }
        }
        assert!(mem_writes > 0, "combined working set must overflow the LLC");
    }
}
