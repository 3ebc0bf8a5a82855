//! Chunk management: the two chunk regions of Figure 1.
//!
//! A chunk is 4 MiB of virtual memory, the minimum unit handed to a space.
//! Heap virtual memory is split into a PCM-backed region (the paper's
//! **FreeList-Lo**) and a DRAM-backed region (**FreeList-Hi**). A chunk is
//! carved from its side's region and bound (`mbind`) to that side's socket
//! exactly once, and is never returned or unmapped: the spaces reuse the
//! chunks they own, so a chunk keeps its physical pages and its socket
//! binding for the life of the heap (§III.A).

use hemu_machine::{Machine, ProcId};
use hemu_obs::TraceEvent;
use hemu_types::{Addr, ByteSize, Result, SocketId, CHUNK_SIZE};

use crate::layout::{DRAM_END, PCM_END, PCM_START};

/// Which portion of heap virtual memory a chunk request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Side {
    /// The PCM-backed region (`FreeList-Lo`).
    Pcm,
    /// The DRAM-backed region (`FreeList-Hi`).
    Dram,
}

/// Physical sockets backing the two sides. A hybrid plan uses
/// (`PCM` = socket 1, `DRAM` = socket 0); the PCM-Only reference setup
/// binds both sides to socket 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SideSockets {
    /// Socket backing the PCM side.
    pub pcm: SocketId,
    /// Socket backing the DRAM side.
    pub dram: SocketId,
}

impl SideSockets {
    /// Hybrid memory: socket 0 is DRAM, socket 1 is PCM.
    pub(crate) fn hybrid() -> Self {
        SideSockets {
            pcm: SocketId::PCM,
            dram: SocketId::DRAM,
        }
    }

    /// PCM-Only reference system: every space is physically on socket 1.
    pub(crate) fn pcm_only() -> Self {
        SideSockets {
            pcm: SocketId::PCM,
            dram: SocketId::PCM,
        }
    }

    /// The socket for one side.
    pub(crate) fn socket(&self, side: Side) -> SocketId {
        match side {
            Side::Pcm => self.pcm,
            Side::Dram => self.dram,
        }
    }
}

/// The carve-only chunk allocator: one bump cursor per side's region.
#[derive(Debug)]
pub(crate) struct ChunkManager {
    sockets: SideSockets,
    proc: ProcId,
    next_pcm: Addr,
    next_dram: Addr,
}

impl ChunkManager {
    /// Creates the manager for one process.
    pub(crate) fn new(sockets: SideSockets, proc: ProcId) -> Self {
        ChunkManager {
            sockets,
            proc,
            next_pcm: PCM_START,
            next_dram: PCM_END,
        }
    }

    /// Carves the next 4 MiB chunk of `side`'s region for `owner` and binds
    /// it to that side's socket.
    ///
    /// # Errors
    ///
    /// Returns [`hemu_types::HemuError::OutOfHeapMemory`] when the side's
    /// virtual region is exhausted.
    pub(crate) fn acquire(
        &mut self,
        machine: &mut Machine,
        side: Side,
        owner: &'static str,
    ) -> Result<Addr> {
        let (cursor, limit) = match side {
            Side::Pcm => (&mut self.next_pcm, PCM_END),
            Side::Dram => (&mut self.next_dram, DRAM_END),
        };
        if cursor.raw() + CHUNK_SIZE as u64 > limit.raw() {
            return Err(hemu_types::HemuError::OutOfHeapMemory {
                requested: ByteSize::new(CHUNK_SIZE as u64),
                space: owner,
            });
        }
        let addr = *cursor;
        *cursor = cursor.offset(CHUNK_SIZE as u64);
        let socket = self.sockets.socket(side);
        machine.mbind(self.proc, addr, ByteSize::new(CHUNK_SIZE as u64), socket);
        let t = machine.elapsed();
        machine
            .tracer_mut()
            .record(t, TraceEvent::ChunkMap { addr, socket });
        Ok(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectorKind, ManagedHeap};
    use hemu_machine::{CtxId, MachineProfile};
    use hemu_obs::Tracer;
    use std::collections::HashSet;

    fn setup() -> (Machine, ChunkManager) {
        let mut m = Machine::new(MachineProfile::emulation());
        let p = m.add_process(SocketId::DRAM);
        (m, ChunkManager::new(SideSockets::hybrid(), p))
    }

    #[test]
    fn fresh_chunks_come_from_their_regions() {
        let (mut m, mut cm) = setup();
        let pcm = cm.acquire(&mut m, Side::Pcm, "mature-pcm").unwrap();
        let dram = cm.acquire(&mut m, Side::Dram, "mature-dram").unwrap();
        assert!(pcm >= PCM_START && pcm < PCM_END);
        assert!(dram >= PCM_END && dram < DRAM_END);
        assert_eq!(m.socket_of(ProcId(0), pcm), SocketId::PCM);
        assert_eq!(m.socket_of(ProcId(0), dram), SocketId::DRAM);
    }

    #[test]
    fn pcm_only_sockets_bind_everything_to_socket_1() {
        let mut m = Machine::new(MachineProfile::emulation());
        let p = m.add_process(SocketId::PCM);
        let mut cm = ChunkManager::new(SideSockets::pcm_only(), p);
        let dram_side = cm.acquire(&mut m, Side::Dram, "mature-dram").unwrap();
        assert_eq!(m.socket_of(p, dram_side), SocketId::PCM);
    }

    #[test]
    fn exhaustion_reports_out_of_heap() {
        let (mut m, mut cm) = setup();
        // The DRAM region is 768 MiB = 192 chunks.
        for _ in 0..192 {
            cm.acquire(&mut m, Side::Dram, "fill").unwrap();
        }
        let err = cm.acquire(&mut m, Side::Dram, "fill").unwrap_err();
        assert!(matches!(err, hemu_types::HemuError::OutOfHeapMemory { .. }));
    }

    /// The carve-only contract, end to end: a heap driven through minor and
    /// full collections, with large objects on both sides, maps each chunk
    /// once, inside its side's region and on the socket its side names.
    #[test]
    fn heap_chunks_are_mapped_once_on_their_sides_socket() {
        for kind in [CollectorKind::KgW, CollectorKind::PcmOnly] {
            let mut m = Machine::new(MachineProfile::emulation());
            m.set_tracer(Tracer::bounded(1 << 16));
            let cfg = kind.config(ByteSize::from_mib(1), ByteSize::from_mib(32));
            let sockets = cfg.side_sockets();
            let p = m.add_process(cfg.young_socket());
            let mut heap = ManagedHeap::new(&mut m, p, CtxId(0), cfg).unwrap();
            let mut roots = Vec::new();
            for round in 0..3 {
                // Large objects start on PCM; written ones are rescued to
                // DRAM by the next full collection under KG-W.
                for i in 0..4 {
                    let big = heap.alloc(&mut m, 0, 600 * 1024).unwrap();
                    roots.push(heap.new_root(Some(big)));
                    if i % 2 == 0 {
                        heap.write_data(&mut m, big, 0, 4096).unwrap();
                    }
                }
                for i in 0..3000 {
                    let o = heap.alloc(&mut m, 1, 512).unwrap();
                    if i % 16 == 0 {
                        roots.push(heap.new_root(Some(o)));
                    }
                }
                heap.collect_full(&mut m).unwrap();
                if round == 1 {
                    // Free half the survivors so later rounds reuse space.
                    for r in roots.drain(..roots.len() / 2) {
                        heap.drop_root(r);
                    }
                }
            }
            let stats = heap.stats();
            assert!(
                stats.full_gcs >= 3 && stats.minor_gcs > 0,
                "{kind:?}: {stats:?}"
            );

            let mut seen = HashSet::new();
            let mut per_side = [0; 2];
            for rec in m.tracer_mut().drain() {
                let TraceEvent::ChunkMap { addr, socket } = rec.event else {
                    continue;
                };
                assert!(seen.insert(addr), "{kind:?}: chunk {addr} mapped twice");
                let side = if (PCM_START..PCM_END).contains(&addr) {
                    Side::Pcm
                } else {
                    assert!((PCM_END..DRAM_END).contains(&addr), "{kind:?}: {addr}");
                    Side::Dram
                };
                assert_eq!(socket, sockets.socket(side), "{kind:?}: {addr}");
                assert_eq!(m.socket_of(p, addr), socket, "{kind:?}: {addr}");
                per_side[side as usize] += 1;
            }
            // PCM-Only keeps every space on the PCM side.
            let want_dram = kind == CollectorKind::KgW;
            assert!(
                per_side[0] > 0 && (per_side[1] > 0) == want_dram,
                "{kind:?}: {per_side:?}"
            );
        }
    }
}
