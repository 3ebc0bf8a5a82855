//! The set-sharded hierarchy: a batch resolution engine over the same
//! cache model as [`Hierarchy`].
//!
//! The machine does not use it: every access walks one monolithic
//! [`Hierarchy`]. It stays public, and tested against the monolithic
//! hierarchy, only because the host-speed benchmark's cache probe
//! (`benchmark/src/kernel.rs`) replays its line stream through it; it goes
//! when that probe does.
//!
//! # Why sharding by low line bits is exact
//!
//! Both cache levels index sets with the *low* bits of the physical line
//! number (`line & (sets - 1)`), and the L2 set count divides the LLC set
//! count. Pick `NS = 2^k` with `k <= log2(l2_sets)`: every line whose low
//! `k` bits equal `s` — and, crucially, every side-effect line any access
//! to it can produce (its L2 victim, its LLC victim, the dirty-merge
//! target, the back-invalidation targets) — shares those same low bits,
//! because victims come from the same cache set as the accessed line.
//! Partitioning lines by `line & (NS - 1)` therefore splits the hierarchy
//! into `NS` fully independent sub-hierarchies that never exchange state.
//!
//! Each shard holds a [`Hierarchy`] with `1/NS`-th of each cache's
//! capacity and operates on `line >> k` (a bijection within the shard;
//! the full set index is `shard | sub_set << k`). LRU comparisons only
//! ever happen within one set, and a set lives in exactly one shard, so
//! per-set tick ordering — and with it every hit, victim, and write-back —
//! is bit-identical to the monolithic hierarchy. The reference-model suite
//! (`crates/cache/tests/reference_model.rs`) locks this in.
//!
//! # Batches
//!
//! One shard's tag/LRU arrays are `1/NS`-th of the monolithic ones (~100
//! KiB at the default `NS = 64` for the paper's geometry), so draining a
//! batch queue shard by shard keeps each shard's metadata resident in the
//! host's cache. Because shards share no state, a batch can also be
//! resolved by any number of worker threads with the same outcome.
//! Outcomes are reported as order-insensitive aggregates (per-context hit
//! counts, the memory-fill list, the write-backs); callers that observe
//! per-line order issue lines one at a time through
//! [`ShardedHierarchy::access_into`].

use crate::cache::Cache;
use crate::hierarchy::{Hierarchy, HierarchyConfig, HitLevel};
use crate::stats::CacheStats;
use hemu_types::{AccessKind, ByteSize, LineAddr};

/// Default shard-count exponent: `2^6 = 64` shards.
pub const DEFAULT_SHARD_BITS: u32 = 6;

/// Queues below this many total lines resolve inline even when worker
/// threads are requested; spawning a scope costs more than it saves.
const PARALLEL_MIN_LINES: usize = 8192;

/// How many queue entries ahead the resolver prefetches cache metadata.
/// Far enough to cover a host memory round-trip at a few dozen cycles per
/// resolved line, near enough that prefetched lines survive until use.
const PREFETCH_AHEAD: usize = 12;

/// One queued line access, packed struct-of-arrays style: the original
/// (unshifted) line plus a meta word holding context, kind, and tag.
#[derive(Debug, Clone, Copy)]
struct QueuedLine {
    line: u64,
    /// `ctx << 16 | wtag << 8 | is_write`.
    meta: u32,
}

/// One shard: a private sub-hierarchy plus its batch queue and aggregate
/// outcome buffers.
#[derive(Debug)]
struct Shard {
    hier: Hierarchy,
    /// The shard's own low line bits, OR-ed back into shifted victims.
    low: u64,
    queue: Vec<QueuedLine>,
    /// Unshifted write-backs of the whole queue, in access order.
    wbs: Vec<(LineAddr, u8)>,
    /// Per-context hit counts, `contexts * 3` wide, indexed
    /// `ctx * 3 + level_code`.
    counts: Vec<u64>,
    /// Memory fills `(ctx, unshifted line)`, in access order.
    fills: Vec<(u32, u64)>,
    scratch: Vec<(LineAddr, u8)>,
}

impl Shard {
    /// Resolves the whole queue against this shard's sub-hierarchy in one
    /// pass, accumulating per-context hit counts, the memory-fill list and
    /// the write-backs.
    fn run_queue(&mut self, ns_bits: u32) {
        let Shard {
            hier,
            queue,
            wbs,
            counts,
            fills,
            scratch,
            low,
        } = self;
        wbs.clear();
        fills.clear();
        counts.clear();
        counts.resize(hier.contexts() * 3, 0);
        for (i, q) in queue.iter().enumerate() {
            // The queue is known upfront, so hide the host-memory latency
            // of the tag/LRU probes by prefetching a fixed distance ahead.
            if let Some(next) = queue.get(i + PREFETCH_AHEAD) {
                hier.prefetch(
                    (next.meta >> 16) as usize,
                    LineAddr::new(next.line >> ns_bits),
                );
            }
            let ctx = (q.meta >> 16) as usize;
            let wtag = (q.meta >> 8) as u8;
            let kind = if q.meta & 1 == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let shifted = LineAddr::new(q.line >> ns_bits);
            let (level, _fill) = hier.access_into(ctx, shifted, kind, wtag, scratch);
            debug_assert!(scratch.len() <= 2, "at most an LLC and an L2 victim");
            counts[ctx * 3 + level_code(level) as usize] += 1;
            if level == HitLevel::Memory {
                fills.push((ctx as u32, q.line));
            }
            wbs.extend(
                scratch
                    .iter()
                    .map(|&(l, t)| (LineAddr::new(l.raw() << ns_bits | *low), t)),
            );
        }
    }
}

#[inline]
const fn level_code(level: HitLevel) -> u8 {
    match level {
        HitLevel::L2 => 0,
        HitLevel::Llc => 1,
        HitLevel::Memory => 2,
    }
}

#[inline]
const fn code_level(code: u8) -> HitLevel {
    match code & 0b11 {
        0 => HitLevel::L2,
        1 => HitLevel::Llc,
        _ => HitLevel::Memory,
    }
}

/// The hierarchy partitioned into independent set shards, with a batch
/// queue per shard. Drop-in semantic replacement for [`Hierarchy`] (see
/// the module docs for the equivalence argument), plus the batch API:
/// [`ShardedHierarchy::begin_batch`] / [`ShardedHierarchy::enqueue`] /
/// [`ShardedHierarchy::resolve_aggregate`], then the `drain_*` methods.
#[derive(Debug)]
pub struct ShardedHierarchy {
    ns_bits: u32,
    shard_mask: u64,
    shards: Vec<Shard>,
    contexts: usize,
    queued: usize,
}

impl ShardedHierarchy {
    /// Builds the sharded hierarchy. `ns_bits` is clamped so the shard
    /// count never exceeds the smaller cache's set count (each shard must
    /// own at least one full set of each level).
    ///
    /// # Panics
    ///
    /// Panics if `config.contexts` is zero or a cache geometry is invalid
    /// (same contract as [`Hierarchy::new`]).
    pub fn new(config: HierarchyConfig, ns_bits: u32) -> Self {
        let l2_sets = (config.l2_size.bytes() as usize / 64 / config.l2_assoc).max(1);
        let llc_sets = (config.llc_size.bytes() as usize / 64 / config.llc_assoc).max(1);
        let ns_bits = ns_bits
            .min(l2_sets.trailing_zeros())
            .min(llc_sets.trailing_zeros());
        let ns = 1usize << ns_bits;
        let sub = HierarchyConfig {
            contexts: config.contexts,
            l2_size: ByteSize::new(config.l2_size.bytes() >> ns_bits),
            l2_assoc: config.l2_assoc,
            llc_size: ByteSize::new(config.llc_size.bytes() >> ns_bits),
            llc_assoc: config.llc_assoc,
        };
        ShardedHierarchy {
            ns_bits,
            shard_mask: (ns - 1) as u64,
            shards: (0..ns)
                .map(|s| Shard {
                    hier: Hierarchy::new(sub),
                    low: s as u64,
                    queue: Vec::new(),
                    wbs: Vec::new(),
                    counts: Vec::new(),
                    fills: Vec::new(),
                    scratch: Vec::with_capacity(4),
                })
                .collect(),
            contexts: config.contexts,
            queued: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Enables provenance-tag tracking on every shard. Idempotent.
    pub fn enable_tags(&mut self) {
        for s in &mut self.shards {
            s.hier.enable_tags();
        }
    }

    /// Issues one line access immediately (no batching), with
    /// [`Hierarchy::access_into`]'s exact contract: the entry point for
    /// callers that observe per-line order.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    #[inline]
    pub fn access_into(
        &mut self,
        ctx: usize,
        line: LineAddr,
        kind: AccessKind,
        wtag: u8,
        writebacks: &mut Vec<(LineAddr, u8)>,
    ) -> (HitLevel, Option<LineAddr>) {
        let ns_bits = self.ns_bits;
        let shard = &mut self.shards[(line.raw() & self.shard_mask) as usize];
        let shifted = LineAddr::new(line.raw() >> ns_bits);
        let (level, fill) = shard.hier.access_into(ctx, shifted, kind, wtag, writebacks);
        for wb in writebacks.iter_mut() {
            wb.0 = LineAddr::new(wb.0.raw() << ns_bits | shard.low);
        }
        (level, fill.map(|_| line))
    }

    /// Starts a new batch: clears every shard's queue and outcomes.
    pub fn begin_batch(&mut self) {
        for s in &mut self.shards {
            s.queue.clear();
            s.wbs.clear();
            s.counts.clear();
            s.fills.clear();
        }
        self.queued = 0;
    }

    /// Queues one line access for the current batch.
    #[inline]
    pub fn enqueue(&mut self, ctx: usize, line: LineAddr, kind: AccessKind, wtag: u8) {
        debug_assert!(ctx < self.contexts);
        let meta = (ctx as u32) << 16 | (wtag as u32) << 8 | kind.is_write() as u32;
        self.shards[(line.raw() & self.shard_mask) as usize]
            .queue
            .push(QueuedLine {
                line: line.raw(),
                meta,
            });
        self.queued += 1;
    }

    /// Resolves every queued access against its shard, accumulating the
    /// batch's aggregate outcomes. With `threads > 1` (and a queue large
    /// enough to amortize spawning) shards are split across a scoped
    /// worker pool; each shard is still processed sequentially in enqueue
    /// order, so the outcome of every access is identical at any thread
    /// count. Consume with [`ShardedHierarchy::drain_counts`] /
    /// [`ShardedHierarchy::drain_fills`] /
    /// [`ShardedHierarchy::drain_writebacks`].
    pub fn resolve_aggregate(&mut self, threads: usize) {
        let ns_bits = self.ns_bits;
        let threads = threads.clamp(1, self.shards.len());
        if threads == 1 || self.queued < PARALLEL_MIN_LINES {
            for s in &mut self.shards {
                s.run_queue(ns_bits);
            }
            return;
        }
        let per = self.shards.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for chunk in self.shards.chunks_mut(per) {
                scope.spawn(move || {
                    for s in chunk {
                        s.run_queue(ns_bits);
                    }
                });
            }
        });
    }

    /// Consumes the per-context hit-level counts of an aggregate-resolved
    /// batch: `visit(ctx, level, n)` once per (context, level) pair with a
    /// non-zero count, shard-major. The companion of
    /// [`ShardedHierarchy::resolve_aggregate`].
    pub fn drain_counts<F: FnMut(usize, HitLevel, u64)>(&mut self, mut visit: F) {
        for s in &mut self.shards {
            for (i, &n) in s.counts.iter().enumerate() {
                if n != 0 {
                    visit(i / 3, code_level((i % 3) as u8), n);
                }
            }
        }
    }

    /// Consumes the memory fills of an aggregate-resolved batch:
    /// `visit(ctx, line)` per fill, shard-major in per-shard access order.
    pub fn drain_fills<F: FnMut(usize, LineAddr)>(&mut self, mut visit: F) {
        for s in &mut self.shards {
            for &(ctx, line) in &s.fills {
                visit(ctx as usize, LineAddr::new(line));
            }
        }
    }

    /// Consumes every write-back of the current batch shard-major, with its
    /// provenance tag.
    pub fn drain_writebacks<F: FnMut(LineAddr, u8)>(&mut self, mut visit: F) {
        for s in &mut self.shards {
            for &(wb, tag) in &s.wbs {
                visit(wb, tag);
            }
        }
    }

    /// Aggregate LLC statistics (field-wise sum over shards).
    pub fn llc_stats(&self) -> CacheStats {
        self.shards
            .iter()
            .map(|s| *s.hier.llc().stats())
            .fold(CacheStats::default(), |mut a, b| {
                a.hits += b.hits;
                a.misses += b.misses;
                a.evictions += b.evictions;
                a.writebacks += b.writebacks;
                a
            })
    }

    /// Aggregate statistics of one context's (sharded) private L2.
    pub fn l2_stats(&self, ctx: usize) -> CacheStats {
        self.shards.iter().map(|s| *s.hier.l2(ctx).stats()).fold(
            CacheStats::default(),
            |mut a, b| {
                a.hits += b.hits;
                a.misses += b.misses;
                a.evictions += b.evictions;
                a.writebacks += b.writebacks;
                a
            },
        )
    }

    /// Whether `line` is resident in the (sharded) LLC — test helper.
    pub fn llc_contains(&self, line: LineAddr) -> bool {
        self.shard_cache(line, |h| h.llc())
            .contains(self.shift(line))
    }

    /// The LLC dirty bit of `line`, if resident — test helper.
    pub fn llc_is_dirty(&self, line: LineAddr) -> Option<bool> {
        self.shard_cache(line, |h| h.llc())
            .is_dirty(self.shift(line))
    }

    /// Whether `line` is resident in `ctx`'s (sharded) L2 — test helper.
    pub fn l2_contains(&self, ctx: usize, line: LineAddr) -> bool {
        self.shard_cache(line, |h| h.l2(ctx))
            .contains(self.shift(line))
    }

    /// The L2 dirty bit of `line` in `ctx`'s cache, if resident — test
    /// helper.
    pub fn l2_is_dirty(&self, ctx: usize, line: LineAddr) -> Option<bool> {
        self.shard_cache(line, |h| h.l2(ctx))
            .is_dirty(self.shift(line))
    }

    #[inline]
    fn shift(&self, line: LineAddr) -> LineAddr {
        LineAddr::new(line.raw() >> self.ns_bits)
    }

    #[inline]
    fn shard_cache<'a, F: FnOnce(&'a Hierarchy) -> &'a Cache>(
        &'a self,
        line: LineAddr,
        pick: F,
    ) -> &'a Cache {
        pick(&self.shards[(line.raw() & self.shard_mask) as usize].hier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> HierarchyConfig {
        // L2: 8 sets x 2 ways; LLC: 16 sets x 4 ways.
        HierarchyConfig {
            contexts: 2,
            l2_size: ByteSize::new(8 * 2 * 64),
            l2_assoc: 2,
            llc_size: ByteSize::new(16 * 4 * 64),
            llc_assoc: 4,
        }
    }

    #[test]
    fn ns_bits_clamps_to_smallest_level() {
        let s = ShardedHierarchy::new(config(), 10);
        assert_eq!(s.shard_count(), 8, "clamped to the 8-set L2");
        let s = ShardedHierarchy::new(config(), 2);
        assert_eq!(s.shard_count(), 4);
        let s = ShardedHierarchy::new(config(), 0);
        assert_eq!(s.shard_count(), 1);
    }

    #[test]
    fn per_line_access_matches_monolithic_hierarchy() {
        let mut mono = Hierarchy::new(config());
        let mut sharded = ShardedHierarchy::new(config(), 2);
        let mut wb_a = Vec::new();
        let mut wb_b = Vec::new();
        let mut state = 7u64;
        for i in 0..5000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let line = LineAddr::new((state >> 20) % 256);
            let kind = if state & 1 == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let ctx = (i % 2) as usize;
            let a = mono.access_into(ctx, line, kind, 0, &mut wb_a);
            let b = sharded.access_into(ctx, line, kind, 0, &mut wb_b);
            assert_eq!(a, b, "op {i}: level/fill diverged");
            assert_eq!(wb_a, wb_b, "op {i}: write-backs diverged");
        }
        assert_eq!(*mono.llc().stats(), sharded.llc_stats());
    }

    /// Aggregate resolution (inline and across workers, whose threshold
    /// the 9000-line batches exceed) reports exactly the sums of the
    /// per-line outcomes of the same stream, and leaves the same caches.
    #[test]
    fn aggregate_outcomes_sum_the_per_line_outcomes() {
        let mut stream = Vec::new();
        let mut state = 11u64;
        for i in 0..27_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let kind = if state & 1 == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            stream.push(((i % 2) as usize, LineAddr::new((state >> 20) % 256), kind));
        }
        for threads in [1, 3] {
            let mut per_line = ShardedHierarchy::new(config(), 2);
            let mut agg = ShardedHierarchy::new(config(), 2);
            type Sums = std::collections::BTreeMap<(usize, u64, u8), u64>;
            let (mut levels_a, mut levels_b) = ([[0u64; 3]; 2], [[0u64; 3]; 2]);
            let (mut fills_a, mut fills_b) = (Sums::new(), Sums::new());
            let (mut wbs_a, mut wbs_b) = (Sums::new(), Sums::new());
            let mut wb = Vec::new();
            for chunk in stream.chunks(9000) {
                agg.begin_batch();
                for &(ctx, line, kind) in chunk {
                    let (lv, fill) = per_line.access_into(ctx, line, kind, 3, &mut wb);
                    levels_a[ctx][level_code(lv) as usize] += 1;
                    if let Some(f) = fill {
                        *fills_a.entry((ctx, f.raw(), 0)).or_insert(0) += 1;
                    }
                    for &(l, tag) in &wb {
                        *wbs_a.entry((0, l.raw(), tag)).or_insert(0) += 1;
                    }
                    agg.enqueue(ctx, line, kind, 3);
                }
                agg.resolve_aggregate(threads);
                agg.drain_counts(|ctx, lv, n| levels_b[ctx][level_code(lv) as usize] += n);
                agg.drain_fills(|ctx, f| *fills_b.entry((ctx, f.raw(), 0)).or_insert(0) += 1);
                agg.drain_writebacks(|l, tag| *wbs_b.entry((0, l.raw(), tag)).or_insert(0) += 1);
            }
            assert_eq!(levels_a, levels_b, "threads {threads}");
            assert_eq!(fills_a, fills_b, "threads {threads}");
            assert_eq!(wbs_a, wbs_b, "threads {threads}");
            assert_eq!(per_line.llc_stats(), agg.llc_stats());
            assert_eq!(per_line.l2_stats(0), agg.l2_stats(0));
        }
    }
}
