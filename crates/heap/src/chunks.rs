//! Chunk management: the two free lists of Figure 1.
//!
//! A chunk is 4 MiB of virtual memory, the minimum unit handed to a space.
//! The heap keeps one free list per memory technology: **FreeList-Lo** for
//! the PCM-backed portion of virtual memory and **FreeList-Hi** for the
//! DRAM-backed portion. Once a chunk has been mapped (bound to a socket and
//! faulted in), it is never unmapped: releasing it only marks the free-list
//! entry free, and the next space that asks the same list gets it back with
//! its physical pages — and socket binding — intact.
//!
//! The alternative the paper argues against, a single **monolithic** free
//! list, is implemented too (for the ablation bench): there a recycled
//! chunk may carry the wrong socket binding and must be unmapped and
//! re-bound, which costs page faults and page-table churn.

use hemu_machine::{Machine, ProcId};
use hemu_obs::TraceEvent;
use hemu_types::{Addr, ByteSize, Result, SocketId, CHUNK_SIZE};

use crate::layout::{DRAM_END, PCM_END, PCM_START};

/// Which portion of heap virtual memory a chunk request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Side {
    /// The PCM-backed portion (`FreeList-Lo`).
    Pcm,
    /// The DRAM-backed portion (`FreeList-Hi`).
    Dram,
}

/// Free-list discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkPolicy {
    /// The paper's design: two free lists, chunks stay mapped forever and
    /// are recycled within their own technology.
    #[default]
    TwoLists,
    /// Ablation: one pooled free list; a recycled chunk whose physical
    /// mapping is on the wrong socket is unmapped and re-bound.
    Monolithic,
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

/// One free-list entry: the chunk's location and meta-information
/// (size, status, owner), as in Figure 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChunkEntry {
    /// Chunk base address.
    pub addr: Addr,
    /// Always 4 MiB in this implementation.
    pub size: ByteSize,
    /// Whether the chunk is currently free.
    pub free: bool,
    /// Name of the owning space, if any.
    pub owner: Option<&'static str>,
    /// The socket the chunk is currently bound to.
    pub socket: SocketId,
    /// Which virtual region the chunk was carved from.
    pub side: Side,
}

/// The chunk allocator: FreeList-Lo, FreeList-Hi, and the region cursors.
#[derive(Debug)]
pub(crate) struct ChunkManager {
    policy: ChunkPolicy,
    sockets: SideSockets,
    proc: ProcId,
    entries: Vec<ChunkEntry>,
    /// Indices of free entries per side (both sides alias the same list
    /// under the monolithic policy).
    free_lo: Vec<usize>,
    free_hi: Vec<usize>,
    next_pcm: Addr,
    next_dram: Addr,
}

impl ChunkManager {
    /// Creates the manager for one process.
    pub(crate) fn new(policy: ChunkPolicy, sockets: SideSockets, proc: ProcId) -> Self {
        ChunkManager {
            policy,
            sockets,
            proc,
            entries: Vec::new(),
            free_lo: Vec::new(),
            free_hi: Vec::new(),
            next_pcm: PCM_START,
            next_dram: PCM_END,
        }
    }

    /// Acquires a 4 MiB chunk for `owner` on the requested side.
    ///
    /// # Errors
    ///
    /// Returns [`hemu_types::HemuError::OutOfHeapMemory`] when the side's
    /// virtual region is exhausted and no free chunk is available.
    pub(crate) fn acquire(
        &mut self,
        machine: &mut Machine,
        side: Side,
        owner: &'static str,
    ) -> Result<Addr> {
        let want_socket = self.sockets.socket(side);

        // 1. Try to recycle a free chunk.
        let list = match (self.policy, side) {
            (ChunkPolicy::TwoLists, Side::Pcm) => &mut self.free_lo,
            (ChunkPolicy::TwoLists, Side::Dram) => &mut self.free_hi,
            // Monolithic: one pooled list (kept in free_lo).
            (ChunkPolicy::Monolithic, _) => &mut self.free_lo,
        };
        if let Some(idx) = list.pop() {
            let entry = &mut self.entries[idx];
            debug_assert!(entry.free);
            entry.free = false;
            entry.owner = Some(owner);
            let addr = entry.addr;
            if entry.socket != want_socket {
                // Only possible under the monolithic policy: the physical
                // pages are on the wrong socket and must be remapped.
                machine.unmap(self.proc, entry.addr, entry.size)?;
                machine.mbind(self.proc, entry.addr, entry.size, want_socket);
                entry.socket = want_socket;
                let t = machine.elapsed();
                let tracer = machine.tracer_mut();
                tracer.record(t, TraceEvent::ChunkUnmap { addr });
                tracer.record(
                    t,
                    TraceEvent::ChunkRebind {
                        addr,
                        socket: want_socket,
                    },
                );
            } else {
                let t = machine.elapsed();
                machine.tracer_mut().record(
                    t,
                    TraceEvent::ChunkMap {
                        addr,
                        socket: want_socket,
                        recycled: true,
                    },
                );
            }
            return Ok(addr);
        }

        // 2. Carve a fresh chunk from the side's virtual region.
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
        machine.mbind(
            self.proc,
            addr,
            ByteSize::new(CHUNK_SIZE as u64),
            want_socket,
        );
        self.entries.push(ChunkEntry {
            addr,
            size: ByteSize::new(CHUNK_SIZE as u64),
            free: false,
            owner: Some(owner),
            socket: want_socket,
            side,
        });
        let t = machine.elapsed();
        machine.tracer_mut().record(
            t,
            TraceEvent::ChunkMap {
                addr,
                socket: want_socket,
                recycled: false,
            },
        );
        Ok(addr)
    }

    /// Releases the chunk at `addr` back to its free list. The chunk keeps
    /// its physical mapping (the paper's design): only the entry's status
    /// changes.
    ///
    /// # Errors
    ///
    /// Returns [`hemu_types::HemuError::InvalidConfig`] if `addr` names no
    /// chunk.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is already free.
    // No space returns a chunk yet, so only the tests reach the recycling
    // path of `acquire`.
    #[cfg(test)]
    pub(crate) fn release(&mut self, addr: Addr) -> Result<()> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.addr == addr)
            .ok_or_else(|| {
                hemu_types::HemuError::InvalidConfig(format!("release of unknown chunk at {addr}"))
            })?;
        let entry = &mut self.entries[idx];
        assert!(!entry.free, "double release of chunk at {addr}");
        entry.free = true;
        entry.owner = None;
        match (self.policy, entry.side) {
            (ChunkPolicy::TwoLists, Side::Pcm) => self.free_lo.push(idx),
            (ChunkPolicy::TwoLists, Side::Dram) => self.free_hi.push(idx),
            (ChunkPolicy::Monolithic, _) => self.free_lo.push(idx),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemu_machine::MachineProfile;
    use hemu_obs::Tracer;

    fn setup(policy: ChunkPolicy) -> (Machine, ChunkManager) {
        let mut m = Machine::new(MachineProfile::emulation());
        let p = m.add_process(SocketId::DRAM);
        (m, ChunkManager::new(policy, SideSockets::hybrid(), p))
    }

    #[test]
    fn fresh_chunks_come_from_their_regions() {
        let (mut m, mut cm) = setup(ChunkPolicy::TwoLists);
        let pcm = cm.acquire(&mut m, Side::Pcm, "mature-pcm").unwrap();
        let dram = cm.acquire(&mut m, Side::Dram, "mature-dram").unwrap();
        assert!(pcm >= PCM_START && pcm < PCM_END);
        assert!(dram >= PCM_END && dram < DRAM_END);
        assert_eq!(m.socket_of(ProcId(0), pcm), SocketId::PCM);
        assert_eq!(m.socket_of(ProcId(0), dram), SocketId::DRAM);
    }

    #[test]
    fn two_lists_recycle_within_technology() {
        let (mut m, mut cm) = setup(ChunkPolicy::TwoLists);
        let pcm = cm.acquire(&mut m, Side::Pcm, "a").unwrap();
        cm.release(pcm).unwrap();
        // A DRAM request must NOT get the freed PCM chunk.
        let dram = cm.acquire(&mut m, Side::Dram, "b").unwrap();
        assert_ne!(dram, pcm);
        // A PCM request gets it back, binding intact, no remap.
        m.set_tracer(Tracer::bounded(64));
        let again = cm.acquire(&mut m, Side::Pcm, "c").unwrap();
        assert_eq!(again, pcm);
        assert_eq!(m.socket_of(ProcId(0), again), SocketId::PCM);
        let events: Vec<TraceEvent> = m
            .tracer_mut()
            .drain()
            .into_iter()
            .map(|r| r.event)
            .collect();
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(matches!(
            events[0],
            TraceEvent::ChunkMap { addr, recycled: true, .. } if addr == pcm
        ));
    }

    #[test]
    fn monolithic_list_remaps_cross_technology_reuse() {
        let (mut m, mut cm) = setup(ChunkPolicy::Monolithic);
        let pcm = cm.acquire(&mut m, Side::Pcm, "a").unwrap();
        cm.release(pcm).unwrap();
        // The pooled list hands the PCM-mapped chunk to a DRAM request,
        // forcing an unmap + re-bind.
        m.set_tracer(Tracer::bounded(64));
        let dram = cm.acquire(&mut m, Side::Dram, "b").unwrap();
        assert_eq!(dram, pcm, "monolithic list recycles across sides");
        assert_eq!(m.socket_of(ProcId(0), dram), SocketId::DRAM);
        let events: Vec<TraceEvent> = m
            .tracer_mut()
            .drain()
            .into_iter()
            .map(|r| r.event)
            .collect();
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(matches!(events[0], TraceEvent::ChunkUnmap { addr } if addr == pcm));
        assert!(matches!(
            events[1],
            TraceEvent::ChunkRebind { addr, socket: SocketId::DRAM } if addr == pcm
        ));
    }

    #[test]
    fn pcm_only_sockets_bind_everything_to_socket_1() {
        let mut m = Machine::new(MachineProfile::emulation());
        let p = m.add_process(SocketId::PCM);
        let mut cm = ChunkManager::new(ChunkPolicy::TwoLists, SideSockets::pcm_only(), p);
        let dram_side = cm.acquire(&mut m, Side::Dram, "mature-dram").unwrap();
        assert_eq!(m.socket_of(p, dram_side), SocketId::PCM);
    }

    #[test]
    fn entries_carry_owner_metadata() {
        let (mut m, mut cm) = setup(ChunkPolicy::TwoLists);
        let a = cm.acquire(&mut m, Side::Pcm, "los-pcm").unwrap();
        let e = cm.entries.iter().find(|e| e.addr == a).unwrap();
        assert_eq!(e.owner, Some("los-pcm"));
        assert!(!e.free);
        assert_eq!(e.size.bytes(), CHUNK_SIZE as u64);
        cm.release(a).unwrap();
        let e = cm.entries.iter().find(|e| e.addr == a).unwrap();
        assert!(e.free);
        assert_eq!(e.owner, None);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let (mut m, mut cm) = setup(ChunkPolicy::TwoLists);
        let a = cm.acquire(&mut m, Side::Pcm, "x").unwrap();
        cm.release(a).unwrap();
        cm.release(a).unwrap();
    }

    #[test]
    fn release_of_unknown_chunk_is_an_error() {
        let (mut m, mut cm) = setup(ChunkPolicy::TwoLists);
        let a = cm.acquire(&mut m, Side::Pcm, "x").unwrap();
        let err = cm.release(a.offset(CHUNK_SIZE as u64)).unwrap_err();
        assert!(matches!(err, hemu_types::HemuError::InvalidConfig(_)));
        assert!(!cm.entries[0].free, "the known chunk stays in use");
    }

    #[test]
    fn exhaustion_reports_out_of_heap() {
        let (mut m, mut cm) = setup(ChunkPolicy::TwoLists);
        // The DRAM region is 768 MiB = 192 chunks.
        for _ in 0..192 {
            cm.acquire(&mut m, Side::Dram, "fill").unwrap();
        }
        let err = cm.acquire(&mut m, Side::Dram, "fill").unwrap_err();
        assert!(matches!(err, hemu_types::HemuError::OutOfHeapMemory { .. }));
    }

    #[test]
    fn release_frees_only_its_own_chunk() {
        let (mut m, mut cm) = setup(ChunkPolicy::TwoLists);
        let in_use = |cm: &ChunkManager| cm.entries.iter().filter(|e| !e.free).count();
        let a = cm.acquire(&mut m, Side::Pcm, "x").unwrap();
        let _b = cm.acquire(&mut m, Side::Pcm, "y").unwrap();
        assert_eq!(in_use(&cm), 2);
        cm.release(a).unwrap();
        assert_eq!(in_use(&cm), 1);
    }
}
