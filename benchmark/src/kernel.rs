//! The access kernel and the cache probe.
//!
//! The kernel drives a seeded stream of 256-byte accesses (3 reads : 1
//! write, four contexts) over a 32 MiB region — larger than the 20 MiB LLC
//! — through [`Machine::access_batch`] on a fresh bare machine, so it
//! exercises `machine` staging, translation and merge plus `cache` resolve
//! and nothing of the runtime. The cache probe replays the same line
//! stream, untranslated, through a bare [`ShardedHierarchy`], which isolates
//! the `cache` layer's share of the kernel's time per line.

use crate::digest::{digest, kernel_fields};
use crate::trace::Tracer;
use hemu_cache::{HitLevel, ShardedHierarchy, DEFAULT_SHARD_BITS};
use hemu_machine::{CtxId, Machine, MachineProfile, MachineStats, ProcId};
use hemu_types::{AccessKind, Addr, LineAddr, MemoryAccess, SocketId, CACHE_LINE};

/// Accesses per `access_batch` call.
pub const OPS_PER_BATCH: usize = 4096;

/// Batches per repetition: 4 Mi accesses, about 21 M line accesses, so the
/// cold fill of the empty caches is under 2% of the lines, and 1024
/// per-batch samples leave ten above their 99th percentile.
pub const BATCHES: usize = 1024;

const REGION: u64 = 32 << 20;
const ACCESS_BYTES: u32 = 256;
const CONTEXTS: u64 = 4;

/// The seeded access stream.
#[derive(Debug, Clone)]
pub struct Stream {
    state: u64,
    issued: u64,
}

/// One access of the stream: (context, virtual address, is a write).
type Op = (usize, u64, bool);

impl Stream {
    pub fn new(seed: u64) -> Self {
        // SplitMix64 finaliser, so neighbouring seeds give unrelated streams.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Stream {
            state: z ^ (z >> 31),
            issued: 0,
        }
    }

    fn op(&mut self) -> Op {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = self.issued;
        self.issued += 1;
        let addr = (self.state >> 16) % (REGION - u64::from(ACCESS_BYTES));
        ((i % CONTEXTS) as usize, addr, i.is_multiple_of(4))
    }

    /// Replaces `out` with the next batch and returns its line count.
    pub fn batch(&mut self, proc: ProcId, out: &mut Vec<(CtxId, ProcId, MemoryAccess)>) -> u64 {
        out.clear();
        let mut lines = 0;
        for _ in 0..OPS_PER_BATCH {
            let (ctx, addr, write) = self.op();
            lines += lines_of(addr).count() as u64;
            let access = if write {
                MemoryAccess::write(Addr::new(addr), ACCESS_BYTES)
            } else {
                MemoryAccess::read(Addr::new(addr), ACCESS_BYTES)
            };
            out.push((CtxId(ctx), proc, access));
        }
        lines
    }

    /// Replaces `out` with the line accesses of the next batch.
    pub fn batch_lines(&mut self, out: &mut Vec<(usize, LineAddr, AccessKind)>) {
        out.clear();
        for _ in 0..OPS_PER_BATCH {
            let (ctx, addr, write) = self.op();
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            out.extend(lines_of(addr).map(|l| (ctx, LineAddr::new(l), kind)));
        }
    }
}

fn lines_of(addr: u64) -> std::ops::RangeInclusive<u64> {
    let line = CACHE_LINE as u64;
    addr / line..=(addr + u64::from(ACCESS_BYTES) - 1) / line
}

/// One kernel repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Host seconds inside `access_batch`.
    pub seconds: f64,
    /// Line accesses issued (checked against the machine's own count).
    pub lines: u64,
    pub stats: MachineStats,
    pub digest: u64,
}

/// Runs `batches` batches of the `seed` stream on a fresh machine with
/// empty caches, timing only the `access_batch` calls.
///
/// # Errors
///
/// A machine error, or a line count that disagrees with the stream's.
pub fn rep(seed: u64, batches: usize, tracer: &mut Tracer, run: usize) -> Result<Rep, String> {
    let mut m = Machine::new(MachineProfile::emulation());
    let proc = m.add_process(SocketId::DRAM);
    let mut stream = Stream::new(seed);
    let mut batch = Vec::with_capacity(OPS_PER_BATCH);
    let (mut seconds, mut lines) = (0.0, 0);
    let outer = tracer.open("kernel.rep", run, None);
    for _ in 0..batches {
        lines += stream.batch(proc, &mut batch);
        let span = tracer.open("machine.access_batch", run, outer.id());
        let result = m.access_batch(&batch);
        seconds += tracer.close(span);
        result.map_err(|e| format!("access_batch: {e}"))?;
    }
    let _ = tracer.close(outer);
    let stats = *m.stats();
    if stats.line_accesses != lines {
        return Err(format!(
            "machine counted {} line accesses, the stream issued {lines}",
            stats.line_accesses
        ));
    }
    Ok(Rep {
        seconds,
        lines,
        stats,
        digest: digest(&kernel_fields(&stats, &m.llc_stats())),
    })
}

/// Outcome counts of the cache probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCounts {
    pub lines: u64,
    pub llc_hits: u64,
    pub memory: u64,
    pub fills: u64,
}

/// Replays `batches` batches of the `seed` line stream through a bare
/// sharded hierarchy with the emulation profile's geometry: enqueue,
/// aggregate resolve and drain, each under its own span.
pub fn cache_probe(seed: u64, batches: usize, tracer: &mut Tracer, run: usize) -> ProbeCounts {
    let config = MachineProfile::emulation().hierarchy_config();
    let mut h = ShardedHierarchy::new(config, DEFAULT_SHARD_BITS);
    let mut stream = Stream::new(seed);
    let mut lines = Vec::new();
    let mut c = ProbeCounts::default();
    for _ in 0..batches {
        stream.batch_lines(&mut lines);
        c.lines += lines.len() as u64;
        let span = tracer.open("cache.enqueue", run, None);
        h.begin_batch();
        for &(ctx, line, kind) in &lines {
            h.enqueue(ctx, line, kind, 0);
        }
        let _ = tracer.close(span);
        let span = tracer.open("cache.resolve", run, None);
        h.resolve_aggregate(1);
        let _ = tracer.close(span);
        let span = tracer.open("cache.drain", run, None);
        h.drain_counts(|_, level, n| match level {
            HitLevel::Llc => c.llc_hits += n,
            HitLevel::Memory => c.memory += n,
            HitLevel::L2 => {}
        });
        h.drain_fills(|_, _| c.fills += 1);
        h.drain_writebacks(|_, _| {});
        let _ = tracer.close(span);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64, n: usize) -> Vec<Op> {
        let mut s = Stream::new(seed);
        (0..n).map(|_| s.op()).collect()
    }

    #[test]
    fn stream_repeats_for_a_seed_and_differs_across_seeds() {
        assert_eq!(ops(42, 10_000), ops(42, 10_000));
        assert_ne!(ops(42, 10_000), ops(43, 10_000));
        assert_ne!(ops(0, 100), ops(1, 100));
        let sample = ops(7, 100_000);
        let writes = sample.iter().filter(|o| o.2).count();
        assert_eq!(writes, 25_000, "3 reads : 1 write");
        assert!(sample
            .iter()
            .all(|&(ctx, a, _)| ctx < 4 && a + u64::from(ACCESS_BYTES) <= REGION));
    }

    #[test]
    fn batch_and_line_views_agree() {
        let mut ops = Stream::new(9);
        let mut lines = ops.clone();
        let mut batch = Vec::new();
        let mut expanded = Vec::new();
        let n = ops.batch(ProcId(0), &mut batch);
        lines.batch_lines(&mut expanded);
        assert_eq!(batch.len(), OPS_PER_BATCH);
        assert_eq!(n, expanded.len() as u64);
        // A 256-byte access spans four lines, or five when unaligned.
        assert!(n >= 4 * OPS_PER_BATCH as u64 && n <= 5 * OPS_PER_BATCH as u64);
    }
}
