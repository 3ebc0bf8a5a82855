//! The packed-metadata cache against a naive reference model.
//!
//! `Cache` packs per-set valid/dirty state into `u32` bitmasks and probes
//! via `trailing_zeros`; this suite drives it with long seeded
//! pseudo-random access streams and checks, access by access, that it
//! behaves exactly like the obvious scattered-per-way implementation —
//! same hits, same victims, same victim dirtiness, same final statistics.
//! Packing changed the representation, never the replacement policy.
//!
//! The same file holds the hierarchy-level oracles: the hierarchy against
//! a naive inclusive model that shares no code with it, the set-sharded
//! hierarchy against the monolithic one, line by line, and its aggregate
//! batch resolution against the per-line outcomes summed.
//!
//! Dependency-free (seeded LCG, no proptest) so it runs in the hermetic
//! tier-1 build.

use hemu_cache::{Cache, CacheConfig, Hierarchy, HierarchyConfig, HitLevel, ShardedHierarchy};
use hemu_types::{AccessKind, ByteSize, LineAddr, CACHE_LINE};
use std::collections::BTreeMap;

/// Naive set-associative LRU model: per way, `Option<(tag, dirty, tick)>`.
struct NaiveCache {
    sets: usize,
    assoc: usize,
    ways: Vec<Option<(u64, bool, u64)>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    writebacks: u64,
}

impl NaiveCache {
    fn new(sets: usize, assoc: usize) -> Self {
        NaiveCache {
            sets,
            assoc,
            ways: vec![None; sets * assoc],
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            writebacks: 0,
        }
    }

    /// Returns `(hit, victim)` with the victim as `(line, dirty)`.
    fn access(&mut self, line: u64, is_write: bool) -> (bool, Option<(u64, bool)>) {
        self.tick += 1;
        let base = (line as usize % self.sets) * self.assoc;
        let set = &mut self.ways[base..base + self.assoc];

        if let Some(w) = set.iter().position(|s| s.map(|(t, _, _)| t) == Some(line)) {
            self.hits += 1;
            let (t, d, _) = set[w].expect("hit way is occupied");
            set[w] = Some((t, d || is_write, self.tick));
            return (true, None);
        }

        self.misses += 1;
        // First invalid way, else the stalest stamp (lowest way index
        // breaks ties — the strict `<` scan).
        let way = set.iter().position(|s| s.is_none()).unwrap_or_else(|| {
            let mut best = 0;
            for w in 1..set.len() {
                let stamp = |i: usize| set[i].map(|(_, _, s)| s).unwrap_or(0);
                if stamp(w) < stamp(best) {
                    best = w;
                }
            }
            best
        });
        let victim = set[way].map(|(t, d, _)| (t, d));
        if let Some((_, d)) = victim {
            self.evictions += 1;
            if d {
                self.writebacks += 1;
            }
        }
        set[way] = Some((line, is_write, self.tick));
        (false, victim)
    }
}

/// Drives both implementations with the same seeded stream and compares
/// every observable.
fn compare(seed: u64, sets: usize, assoc: usize, line_range: u64, ops: usize) {
    let size = ByteSize::new((sets * assoc * CACHE_LINE) as u64);
    let mut packed = Cache::new(CacheConfig::new("ref", size, assoc));
    let mut naive = NaiveCache::new(sets, assoc);

    let mut state = seed;
    for i in 0..ops {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let line = (state >> 24) % line_range;
        let is_write = state & 1 == 1;
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };

        let got = packed.access(LineAddr::new(line), kind);
        let (want_hit, want_victim) = naive.access(line, is_write);

        assert_eq!(
            got.hit, want_hit,
            "op {i} (line {line}, write={is_write}): hit status diverged"
        );
        assert_eq!(
            got.victim.map(|v| (v.line.raw(), v.dirty)),
            want_victim,
            "op {i} (line {line}, write={is_write}): victim diverged"
        );
    }

    let s = packed.stats();
    assert_eq!(s.hits, naive.hits, "hit totals diverged");
    assert_eq!(s.misses, naive.misses, "miss totals diverged");
    assert_eq!(s.evictions, naive.evictions, "eviction totals diverged");
    assert_eq!(s.writebacks, naive.writebacks, "writeback totals diverged");
}

#[test]
fn packed_matches_naive_small_hot_set() {
    // Heavy reuse: mostly hits, occasional conflict evictions.
    compare(42, 4, 4, 24, 20_000);
}

#[test]
fn packed_matches_naive_thrashing() {
    // Working set far beyond capacity: constant eviction pressure.
    compare(7, 8, 2, 4096, 20_000);
}

#[test]
fn packed_matches_naive_max_assoc() {
    // 21 ways is the cap (6-bit recency ranks pack into a u128); an odd
    // associativity also exercises the half-filled final tag word.
    compare(1234, 2, 21, 256, 20_000);
}

#[test]
fn packed_matches_naive_direct_mapped() {
    compare(99, 16, 1, 64, 20_000);
}

/// Small enough that streams thrash both levels, large enough that
/// back-invalidation and dirty-merge paths fire, and with 64 L2 sets so
/// every shard count up to 2^6 is exact. L2: 64 sets x 2 ways; LLC: 128
/// sets x 4 ways; 3 contexts exercise cross-context aliasing.
const CONFIG: HierarchyConfig = HierarchyConfig {
    contexts: 3,
    l2_size: ByteSize::new(64 * 2 * 64),
    l2_assoc: 2,
    llc_size: ByteSize::new(128 * 4 * 64),
    llc_assoc: 4,
};
const LINE_RANGE: u64 = 2048;

/// A seeded stream of `(ctx, line, kind, provenance tag)` accesses.
fn stream(seed: u64, len: u64) -> Vec<(usize, LineAddr, AccessKind, u8)> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let kind = if state & 1 == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let line = LineAddr::new((state >> 24) % LINE_RANGE);
            ((i % 3) as usize, line, kind, (state >> 8) as u8)
        })
        .collect()
}

/// Statistics plus the valid/dirty state of every line a stream can
/// touch, as one comparable vector. `llc` and `l2` return a line's
/// residency and dirty bit (`None` when not resident).
fn final_state(
    stats: [hemu_cache::CacheStats; 4],
    llc: impl Fn(LineAddr) -> (bool, Option<bool>),
    l2: impl Fn(usize, LineAddr) -> (bool, Option<bool>),
) -> Vec<u64> {
    let mut state: Vec<u64> = stats
        .iter()
        .flat_map(|s| [s.hits, s.misses, s.evictions, s.writebacks])
        .collect();
    // The dirty tri-state folds into 2 bits so the whole line is one word.
    let bits = |(resident, dirty): (bool, Option<bool>)| {
        resident as u64 | dirty.map_or(0u64, |b| 1 + b as u64) << 1
    };
    for raw in 0..LINE_RANGE {
        let line = LineAddr::new(raw);
        let mut word = bits(llc(line));
        for ctx in 0..3 {
            word |= bits(l2(ctx, line)) << (3 + 3 * ctx);
        }
        state.push(word);
    }
    state
}

fn hierarchy_state(h: &Hierarchy) -> Vec<u64> {
    final_state(
        [
            *h.llc().stats(),
            *h.l2(0).stats(),
            *h.l2(1).stats(),
            *h.l2(2).stats(),
        ],
        |l| (h.llc().contains(l), h.llc().is_dirty(l)),
        |c, l| (h.l2(c).contains(l), h.l2(c).is_dirty(l)),
    )
}

fn sharded_state(h: &ShardedHierarchy) -> Vec<u64> {
    final_state(
        [h.llc_stats(), h.l2_stats(0), h.l2_stats(1), h.l2_stats(2)],
        |l| (h.llc_contains(l), h.llc_is_dirty(l)),
        |c, l| (h.l2_contains(c, l), h.l2_is_dirty(c, l)),
    )
}

/// Shard exactness per line: the monolithic hierarchy (the executable
/// specification) and the sharded one's per-line entry point see the same
/// seeded stream, and every observable is bit-identical access by access —
/// hit level, fill, write-back lines with their provenance tags — and at
/// the end, statistics plus the valid/dirty state of every line.
fn compare_per_line(seed: u64, shard_bits: u32) {
    let mut mono = Hierarchy::new(CONFIG);
    let mut sharded = ShardedHierarchy::new(CONFIG, shard_bits);
    assert_eq!(sharded.shard_count(), 1 << shard_bits);
    mono.enable_tags();
    sharded.enable_tags();
    let (mut wb_m, mut wb_s) = (Vec::new(), Vec::new());
    for (i, &(ctx, line, kind, tag)) in stream(seed, 30_000).iter().enumerate() {
        let m = mono.access_into(ctx, line, kind, tag, &mut wb_m);
        let s = sharded.access_into(ctx, line, kind, tag, &mut wb_s);
        assert_eq!(m, s, "op {i}: hit level / fill diverged");
        assert_eq!(wb_m, wb_s, "op {i}: write-backs diverged");
        assert_eq!(
            m.1.is_some(),
            m.0 == HitLevel::Memory,
            "fills come exactly from memory-level misses"
        );
    }
    assert_eq!(hierarchy_state(&mono), sharded_state(&sharded));
}

#[test]
fn sharded_matches_monolithic_per_line_single_shard() {
    // One shard degenerates to the monolithic layout internally.
    compare_per_line(77, 0);
}

#[test]
fn sharded_matches_monolithic_per_line_8_shards() {
    compare_per_line(0xDEAD_BEEF, 3);
}

#[test]
fn sharded_matches_monolithic_per_line_64_shards() {
    // One L2 set and two LLC sets per shard.
    compare_per_line(0xDEAD_BEEF, 6);
}

/// Order-insensitive totals of a resolved stream: per-context hit-level
/// counts and the multisets of fills `(ctx, line)` and write-backs
/// `(line, tag)`.
#[derive(Debug, Default, PartialEq, Eq)]
struct Sums {
    levels: [[u64; 3]; 3],
    fills: BTreeMap<(usize, u64), u64>,
    wbs: BTreeMap<(u64, u8), u64>,
}

impl Sums {
    fn level(&mut self, ctx: usize, level: HitLevel, n: u64) {
        let code = match level {
            HitLevel::L2 => 0,
            HitLevel::Llc => 1,
            HitLevel::Memory => 2,
        };
        self.levels[ctx][code] += n;
    }

    fn drain(&mut self, h: &mut ShardedHierarchy) {
        h.drain_counts(|ctx, level, n| self.level(ctx, level, n));
        h.drain_fills(|ctx, line| *self.fills.entry((ctx, line.raw())).or_insert(0) += 1);
        h.drain_writebacks(|line, tag| *self.wbs.entry((line.raw(), tag)).or_insert(0) += 1);
    }
}

/// Resolves `stream` through a fresh sharded hierarchy with
/// `shard_bits`, cut into batches by the cycle of `chunks`, each resolved
/// aggregate with `threads` workers; returns the drained sums and the
/// final state.
fn run_aggregate(
    stream: &[(usize, LineAddr, AccessKind, u8)],
    shard_bits: u32,
    chunks: &[usize],
    threads: usize,
) -> (Sums, Vec<u64>) {
    let mut h = ShardedHierarchy::new(CONFIG, shard_bits);
    h.enable_tags();
    let mut sums = Sums::default();
    let mut rest = stream;
    for &take in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(take.min(rest.len()));
        rest = tail;
        h.begin_batch();
        for &(ctx, line, kind, tag) in chunk {
            h.enqueue(ctx, line, kind, tag);
        }
        h.resolve_aggregate(threads);
        sums.drain(&mut h);
    }
    (sums, sharded_state(&h))
}

/// Aggregate exactness: the drained sums of batches resolved with
/// `threads` workers equal the per-line outcomes of the monolithic
/// hierarchy on the same stream, summed, and the caches end identical.
/// Batches of 10 000 lines pass the threshold above which the resolver
/// actually spawns workers.
fn compare_aggregate(seed: u64, shard_bits: u32, threads: usize) {
    let stream = stream(seed, 30_000);
    let mut mono = Hierarchy::new(CONFIG);
    mono.enable_tags();
    let mut want = Sums::default();
    let mut wb = Vec::new();
    for &(ctx, line, kind, tag) in &stream {
        let (level, fill) = mono.access_into(ctx, line, kind, tag, &mut wb);
        want.level(ctx, level, 1);
        if let Some(f) = fill {
            *want.fills.entry((ctx, f.raw())).or_insert(0) += 1;
        }
        for &(l, t) in &wb {
            *want.wbs.entry((l.raw(), t)).or_insert(0) += 1;
        }
    }
    let (got, state) = run_aggregate(&stream, shard_bits, &[10_000], threads);
    assert_eq!(want, got, "aggregate sums diverged at {threads} threads");
    assert_eq!(hierarchy_state(&mono), state, "final state diverged");
}

#[test]
fn aggregate_matches_per_line_sums_sequential() {
    compare_aggregate(0xDEAD_BEEF, 3, 1);
}

#[test]
fn aggregate_matches_per_line_sums_parallel() {
    compare_aggregate(0xDEAD_BEEF, 3, 4);
}

/// Flush-boundary invariance: where a stream is cut into batches is
/// invisible — drained sums, aggregate statistics, and the final
/// valid/dirty state of every line are identical whether the stream
/// arrives as one giant batch, as single-access batches, or cut at
/// arbitrary seeded boundaries. This is the cache-layer half of the
/// buffered-submission guarantee: the machine's submission buffer may
/// flush at any semantic boundary without perturbing a single observable.
#[test]
fn batch_boundaries_are_invisible() {
    let stream = stream(0xFEED_F00D, 30_000);
    let whole = run_aggregate(&stream, 3, &[stream.len()], 2);
    let singles = run_aggregate(&stream, 3, &[1], 2);
    assert_eq!(whole, singles, "diverged at batch size 1");
    // Irregular seeded boundaries, including primes around the shard
    // queue/prefetch depths.
    let ragged = run_aggregate(&stream, 3, &[1, 13, 4096, 257, 2, 8191, 31], 2);
    assert_eq!(whole, ragged, "diverged at ragged boundaries");
}

/// One resident line of the naive inclusive model: `(line, dirty, tag)`,
/// where the tag is the provenance of the store that last dirtied it.
type Entry = (u64, bool, u8);

/// Naive per-set LRU cache for the inclusive-hierarchy model: each set is
/// a `Vec` ordered most recently used first, so a fill into a full set
/// evicts the last entry.
struct LruCache {
    sets: Vec<Vec<Entry>>,
    assoc: usize,
    stats: hemu_cache::CacheStats,
}

impl LruCache {
    fn new(size: ByteSize, assoc: usize) -> Self {
        let sets = size.bytes() as usize / CACHE_LINE / assoc;
        LruCache {
            sets: vec![Vec::new(); sets],
            assoc,
            stats: hemu_cache::CacheStats::default(),
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<Entry> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn position(&mut self, line: u64) -> Option<usize> {
        self.set(line).iter().position(|e| e.0 == line)
    }

    /// Touches `line`, filling it on a miss; returns whether it hit and
    /// the displaced entry, if any.
    fn access(&mut self, line: u64, write: bool, tag: u8) -> (bool, Option<Entry>) {
        let assoc = self.assoc;
        if let Some(i) = self.position(line) {
            self.stats.hits += 1;
            let set = self.set(line);
            let mut e = set.remove(i);
            if write {
                e = (line, true, tag);
            }
            set.insert(0, e);
            return (true, None);
        }
        self.stats.misses += 1;
        let set = self.set(line);
        let victim = (set.len() == assoc).then(|| set.pop().expect("a full set"));
        set.insert(0, (line, write, if write { tag } else { 0 }));
        if let Some((_, dirty, _)) = victim {
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(dirty);
        }
        (false, victim)
    }

    /// Marks a resident line dirty with `tag` without touching recency;
    /// returns whether it was resident.
    fn mark_dirty(&mut self, line: u64, tag: u8) -> bool {
        match self.position(line) {
            Some(i) => {
                self.set(line)[i] = (line, true, tag);
                true
            }
            None => false,
        }
    }

    /// Removes `line` if resident, returning its entry.
    fn invalidate(&mut self, line: u64) -> Option<Entry> {
        let i = self.position(line)?;
        Some(self.set(line).remove(i))
    }

    /// Every resident line with its dirty bit, sorted.
    fn resident(&self) -> Vec<(u64, bool)> {
        let mut all: Vec<_> = self.sets.iter().flatten().map(|e| (e.0, e.1)).collect();
        all.sort_unstable();
        all
    }
}

/// Coverage counters of the naive model, so a stream that never reaches
/// the paths under test fails loudly instead of passing vacuously.
#[derive(Debug, Default)]
struct Coverage {
    /// Dirty L2 victims merged into the LLC.
    dirty_merges: u64,
    /// LLC evictions that found the line in two or more L2s.
    shared_back_invalidations: u64,
    /// LLC evictions that found the line dirty in two or more L2s.
    multi_dirty_back_invalidations: u64,
    /// LLC evictions that found the line in the L2s of both `c` and
    /// `c + 8` (contexts whose presence bits alias in an 8-bit byte).
    aliased_back_invalidations: u64,
}

/// An inclusive two-level hierarchy written the obvious way and sharing
/// no code with [`Hierarchy`]: per-set LRU `Vec`s, a dirty L2 victim
/// merged into the LLC by search, and back-invalidation that probes every
/// L2 in ascending context order, so a later dirty copy's tag wins.
struct NaiveHierarchy {
    l2s: Vec<LruCache>,
    llc: LruCache,
    cov: Coverage,
}

impl NaiveHierarchy {
    fn new(config: HierarchyConfig) -> Self {
        NaiveHierarchy {
            l2s: (0..config.contexts)
                .map(|_| LruCache::new(config.l2_size, config.l2_assoc))
                .collect(),
            llc: LruCache::new(config.llc_size, config.llc_assoc),
            cov: Coverage::default(),
        }
    }

    /// One access: the hit level, the line filled from memory, and the
    /// memory write-backs with their tags.
    fn access(
        &mut self,
        ctx: usize,
        line: u64,
        write: bool,
        tag: u8,
    ) -> (HitLevel, Option<u64>, Vec<(u64, u8)>) {
        let (hit, l2_victim) = self.l2s[ctx].access(line, write, tag);
        if hit {
            return (HitLevel::L2, None, Vec::new());
        }
        if let Some((v, true, vtag)) = l2_victim {
            assert!(
                self.llc.mark_dirty(v, vtag),
                "inclusion: dirty L2 victim {v} is resident in the LLC"
            );
            self.cov.dirty_merges += 1;
        }
        let (hit, llc_victim) = self.llc.access(line, false, 0);
        if hit {
            return (HitLevel::Llc, None, Vec::new());
        }
        let mut wbs = Vec::new();
        if let Some((v, mut dirty, mut vtag)) = llc_victim {
            let (mut holders, mut dirty_holders) = (Vec::new(), 0);
            for (c, l2) in self.l2s.iter_mut().enumerate() {
                if let Some((_, l2_dirty, l2_tag)) = l2.invalidate(v) {
                    holders.push(c);
                    if l2_dirty {
                        dirty_holders += 1;
                        dirty = true;
                        vtag = l2_tag;
                    }
                }
            }
            self.cov.shared_back_invalidations += u64::from(holders.len() >= 2);
            self.cov.multi_dirty_back_invalidations += u64::from(dirty_holders >= 2);
            self.cov.aliased_back_invalidations +=
                u64::from(holders.iter().any(|c| holders.contains(&(c + 8))));
            if dirty {
                wbs.push((v, vtag));
            }
        }
        (HitLevel::Memory, Some(line), wbs)
    }

    /// Merges every dirty L2 line into the LLC (contexts in ascending
    /// order), then drains the LLC's dirty lines; returns them sorted.
    fn flush(&mut self) -> Vec<(u64, u8)> {
        for l2 in &mut self.l2s {
            for e in l2.sets.iter_mut().flatten().filter(|e| e.1) {
                assert!(
                    self.llc.mark_dirty(e.0, e.2),
                    "inclusion: dirty L2 line {} is resident in the LLC",
                    e.0
                );
                e.1 = false;
            }
        }
        let mut out = Vec::new();
        for e in self.llc.sets.iter_mut().flatten().filter(|e| e.1) {
            out.push((e.0, e.2));
            e.1 = false;
        }
        out.sort_unstable();
        out
    }
}

/// Every cache's resident lines with dirty bits, then every cache's
/// statistics (LLC first, then the L2s in context order).
fn full_state(h: &Hierarchy) -> (Vec<Vec<(u64, bool)>>, Vec<hemu_cache::CacheStats>) {
    let sorted = |c: &Cache| {
        let mut v: Vec<_> = c.iter_resident().map(|(l, d)| (l.raw(), d)).collect();
        v.sort_unstable();
        v
    };
    let caches: Vec<&Cache> = std::iter::once(h.llc())
        .chain((0..h.contexts()).map(|c| h.l2(c)))
        .collect();
    (
        caches.iter().map(|c| sorted(c)).collect(),
        caches.iter().map(|c| *c.stats()).collect(),
    )
}

fn naive_state(n: &NaiveHierarchy) -> (Vec<Vec<(u64, bool)>>, Vec<hemu_cache::CacheStats>) {
    let caches: Vec<&LruCache> = std::iter::once(&n.llc).chain(&n.l2s).collect();
    (
        caches.iter().map(|c| c.resident()).collect(),
        caches.iter().map(|c| c.stats).collect(),
    )
}

/// Runs `stream` through [`Hierarchy`] (tags on) and the naive inclusive
/// model, comparing every access's hit level, fill and tagged write-backs,
/// then the final residency, dirtiness and statistics of every cache, and
/// the tagged lines a flush drains. Returns the model's coverage.
fn compare_with_naive(
    config: HierarchyConfig,
    stream: &[(usize, LineAddr, AccessKind, u8)],
) -> Coverage {
    let mut h = Hierarchy::new(config);
    h.enable_tags();
    let mut naive = NaiveHierarchy::new(config);
    let mut wbs = Vec::new();
    for (i, &(ctx, line, kind, tag)) in stream.iter().enumerate() {
        let (level, fill) = h.access_into(ctx, line, kind, tag, &mut wbs);
        let got_wbs: Vec<_> = wbs.iter().map(|&(l, t)| (l.raw(), t)).collect();
        let want = naive.access(ctx, line.raw(), kind.is_write(), tag);
        assert_eq!(
            (level, fill.map(|l| l.raw()), got_wbs),
            want,
            "op {i} (ctx {ctx}, line {}, {kind:?}): outcome diverged",
            line.raw()
        );
    }
    assert_eq!(full_state(&h), naive_state(&naive), "final state diverged");
    let mut flushed = Vec::new();
    h.flush(|line, tag| flushed.push((line.raw(), tag)));
    flushed.sort_unstable();
    assert_eq!(flushed, naive.flush(), "flushed lines or tags diverged");
    assert_eq!(full_state(&h), naive_state(&naive), "post-flush state");
    naive.cov
}

#[test]
fn hierarchy_matches_naive_inclusive_model() {
    let cov = compare_with_naive(CONFIG, &stream(0x5EED, 60_000));
    assert!(cov.dirty_merges > 0, "{cov:?}");
    assert!(cov.shared_back_invalidations > 0, "{cov:?}");
}

/// Twelve contexts against 8-bit presence bytes: contexts `c` and `c + 8`
/// share a presence bit.
const ALIASED: HierarchyConfig = HierarchyConfig {
    contexts: 12,
    ..CONFIG
};

/// A stream for [`ALIASED`]: every context draws half its lines from a
/// 192-line hot range all of them read and write, so lines sit in several
/// L2s at once (aliased pairs included) and are dirty in more than one.
fn shared_stream(seed: u64, len: u64) -> Vec<(usize, LineAddr, AccessKind, u8)> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let kind = if state & 1 == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let range = if state >> 63 == 1 { 192 } else { LINE_RANGE };
            let line = LineAddr::new((state >> 24) % range);
            let ctx = ((state >> 40) % 12) as usize;
            (ctx, line, kind, (state >> 8) as u8)
        })
        .collect()
}

#[test]
fn hierarchy_matches_naive_inclusive_model_with_aliased_contexts() {
    let cov = compare_with_naive(ALIASED, &shared_stream(0xA11A5, 120_000));
    assert!(cov.dirty_merges > 0, "{cov:?}");
    assert!(cov.multi_dirty_back_invalidations > 0, "{cov:?}");
    assert!(cov.aliased_back_invalidations > 0, "{cov:?}");
}
