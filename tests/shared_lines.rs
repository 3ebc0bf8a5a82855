//! Lines held in several private L2s at once, on the production machine.
//!
//! Every `Experiment` gives each tenant its own process, so no physical
//! line is ever in two L2s there. This test drives a bare emulation
//! machine instead: four contexts of one process issue a seeded stream of
//! 256-byte accesses (3 reads to 1 write), half of them to a small shared
//! window and half over a region larger than the LLC, so lines are shared,
//! dirtied by several contexts, and back-invalidated from several L2s.
//! Contexts 0/8 and 5/13 also share a presence bit of the LLC's 8-bit
//! inclusion directory. The machine counters, the LLC statistics and both
//! sockets' traffic (after a final cache flush) hash to a golden FNV-1a
//! digest.

use hemu::machine::{CtxId, Machine, MachineProfile};
use hemu::obs::fnv1a64;
use hemu::types::{Addr, ByteSize, MemoryAccess, SocketId};

/// 64 MiB: about three times the 20 MiB LLC, so it evicts steadily.
const REGION: u64 = 64 << 20;
/// Half the accesses go to a 16 KiB window at the region's start. Every
/// context keeps hitting its lines in its own L2, so they age in the LLC
/// (an L2 hit does not touch LLC recency) and are evicted from it while
/// all four L2s hold them, often dirty.
const HOT: u64 = 16 << 10;
const ACCESS_BYTES: u32 = 256;
/// About 1 M line accesses.
const ACCESSES: u64 = 220_000;
const CONTEXTS: [usize; 4] = [0, 5, 8, 13];

/// FNV-1a of the pinned counters. Re-record only for a change that is
/// meant to move simulated results.
const GOLDEN_DIGEST: u64 = 0xd900_cfd9_fbee_418b;

#[test]
fn shared_lines_across_l2s_keep_their_counts() {
    let mut m = Machine::new(MachineProfile::emulation());
    let proc = m.add_process(SocketId::DRAM);
    // The upper half of the region lives on the PCM socket.
    m.mbind(
        proc,
        Addr::new(REGION / 2),
        ByteSize::new(REGION / 2),
        SocketId::PCM,
    );
    let mut state = 0x5EED_u64;
    let mut batch = Vec::new();
    for i in 0..ACCESSES {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let span = if state >> 63 == 1 { HOT } else { REGION };
        let addr = Addr::new((state >> 16) % (span - u64::from(ACCESS_BYTES)));
        let access = if i % 4 == 0 {
            MemoryAccess::write(addr, ACCESS_BYTES)
        } else {
            MemoryAccess::read(addr, ACCESS_BYTES)
        };
        batch.push((CtxId(CONTEXTS[(i % 4) as usize]), proc, access));
    }
    m.access_batch(&batch).expect("the region fits in memory");

    let s = *m.stats();
    let llc = m.llc_stats();
    assert!(s.line_accesses > 1_000_000, "{s:?}");
    assert!(llc.evictions > 0 && llc.writebacks > 0, "{llc:?}");
    let mut fields = vec![
        s.line_accesses,
        s.local_fills,
        s.remote_fills,
        llc.hits,
        llc.misses,
        llc.evictions,
        llc.writebacks,
    ];
    m.flush_caches().expect("flush");
    for socket in [SocketId::DRAM, SocketId::PCM] {
        fields.push(m.socket_reads(socket).bytes());
        fields.push(m.socket_writes(socket).bytes());
    }
    let bytes: Vec<u8> = fields.iter().flat_map(|f| f.to_le_bytes()).collect();
    assert_eq!(
        format!("{:#018x}", fnv1a64(&bytes)),
        format!("{GOLDEN_DIGEST:#018x}"),
        "shared-line digest moved: {fields:?}"
    );
}
