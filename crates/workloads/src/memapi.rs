//! [`Memory`]: one object API over both memory managers.
//!
//! GraphChi workloads run unchanged on Java-style automatic memory
//! management and C++-style manual management; this enum is the seam. A
//! [`Memory::Managed`] call forwards to the garbage-collected
//! [`hemu_heap::ManagedHeap`] (allocation zeroes, collections move
//! objects); a [`Memory::Native`] call forwards to the
//! [`hemu_malloc::NativeHeap`] (no zeroing, explicit free, roots are
//! no-ops because nothing is ever collected).

use hemu_heap::heap::RootSlot;
use hemu_heap::{GcStats, ManagedHeap, ObjectId};
use hemu_machine::Machine;
use hemu_malloc::{NativeHeap, NativeObject, NativeStats};
use hemu_types::Result;
use std::collections::HashMap;

/// A handle to an application object, valid for the [`Memory`] that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Obj(u64);

/// A root registration token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Root(usize);

/// The workload-facing memory manager: managed (Java) or native (C++).
#[derive(Debug)]
pub enum Memory {
    /// Garbage-collected heap with Java allocation semantics.
    Managed(Box<ManagedMemory>),
    /// malloc/free heap with C++ allocation semantics.
    Native(Box<NativeMemory>),
}

/// State for the managed variant.
#[derive(Debug)]
pub struct ManagedMemory {
    heap: ManagedHeap,
}

/// State for the native variant. Reference slots are modelled as ordinary
/// 8-byte payload words plus a Rust-side shadow so `read_ref` can return
/// handles.
#[derive(Debug)]
pub struct NativeMemory {
    heap: NativeHeap,
    refs: HashMap<NativeObject, Vec<Option<Obj>>>,
    ref_counts: HashMap<NativeObject, usize>,
}

impl Memory {
    /// Wraps a managed heap.
    pub fn managed(heap: ManagedHeap) -> Self {
        Memory::Managed(Box::new(ManagedMemory { heap }))
    }

    /// Wraps a native heap.
    pub fn native(heap: NativeHeap) -> Self {
        Memory::Native(Box::new(NativeMemory {
            heap,
            refs: HashMap::new(),
            ref_counts: HashMap::new(),
        }))
    }

    /// `true` for the garbage-collected variant. Workloads use this to
    /// model language-level differences (e.g. Java boxes temporary values
    /// that C++ keeps in registers or stack locals).
    pub fn is_managed(&self) -> bool {
        matches!(self, Memory::Managed(_))
    }

    /// Allocates an object with `ref_count` reference slots and
    /// `data_bytes` of payload.
    ///
    /// # Errors
    ///
    /// Propagates heap exhaustion from either manager.
    pub fn alloc(
        &mut self,
        machine: &mut Machine,
        ref_count: usize,
        data_bytes: usize,
    ) -> Result<Obj> {
        match self {
            Memory::Managed(mm) => {
                let id = mm.heap.alloc(machine, ref_count, data_bytes)?;
                Ok(Obj(id.raw()))
            }
            Memory::Native(nm) => {
                // C++ lays refs out as pointer members in the same block.
                let o = nm
                    .heap
                    .alloc(machine, (ref_count * 8 + data_bytes) as u32)?;
                if ref_count > 0 {
                    nm.refs.insert(o, vec![None; ref_count]);
                }
                nm.ref_counts.insert(o, ref_count);
                Ok(Obj(o.raw() as u64))
            }
        }
    }

    /// Explicitly frees an object. A no-op under garbage collection.
    pub fn free(&mut self, obj: Obj) {
        match self {
            Memory::Managed(_) => {}
            Memory::Native(nm) => {
                let o = NativeObject::from_raw(obj.0 as u32);
                nm.refs.remove(&o);
                nm.ref_counts.remove(&o);
                nm.heap.free(o);
            }
        }
    }

    /// Writes `len` bytes of payload at `offset`.
    ///
    /// # Errors
    ///
    /// Propagates machine memory exhaustion.
    pub fn write_data(
        &mut self,
        machine: &mut Machine,
        obj: Obj,
        offset: u32,
        len: u32,
    ) -> Result<()> {
        match self {
            Memory::Managed(mm) => {
                mm.heap
                    .write_data(machine, ObjectId::from_raw(obj.0), offset, len)
            }
            Memory::Native(nm) => {
                let o = NativeObject::from_raw(obj.0 as u32);
                let skip = *nm.ref_counts.get(&o).unwrap_or(&0) as u32 * 8;
                nm.heap.write(machine, o, skip + offset, len)
            }
        }
    }

    /// Reads `len` bytes of payload at `offset`.
    ///
    /// # Errors
    ///
    /// Propagates machine memory exhaustion.
    pub fn read_data(
        &mut self,
        machine: &mut Machine,
        obj: Obj,
        offset: u32,
        len: u32,
    ) -> Result<()> {
        match self {
            Memory::Managed(mm) => {
                mm.heap
                    .read_data(machine, ObjectId::from_raw(obj.0), offset, len)
            }
            Memory::Native(nm) => {
                let o = NativeObject::from_raw(obj.0 as u32);
                let skip = *nm.ref_counts.get(&o).unwrap_or(&0) as u32 * 8;
                nm.heap.read(machine, o, skip + offset, len)
            }
        }
    }

    /// Stores a reference into slot `slot` of `obj` (with the write
    /// barrier, under GC).
    ///
    /// # Errors
    ///
    /// Propagates machine memory exhaustion.
    pub fn write_ref(
        &mut self,
        machine: &mut Machine,
        obj: Obj,
        slot: usize,
        target: Option<Obj>,
    ) -> Result<()> {
        match self {
            Memory::Managed(mm) => mm.heap.write_ref(
                machine,
                ObjectId::from_raw(obj.0),
                slot,
                target.map(|t| ObjectId::from_raw(t.0)),
            ),
            Memory::Native(nm) => {
                let o = NativeObject::from_raw(obj.0 as u32);
                nm.heap.write(machine, o, slot as u32 * 8, 8)?;
                nm.refs.get_mut(&o).expect("object has no ref slots")[slot] = target;
                Ok(())
            }
        }
    }

    /// Loads the reference in slot `slot` of `obj`.
    ///
    /// # Errors
    ///
    /// Propagates machine memory exhaustion.
    pub fn read_ref(
        &mut self,
        machine: &mut Machine,
        obj: Obj,
        slot: usize,
    ) -> Result<Option<Obj>> {
        match self {
            Memory::Managed(mm) => Ok(mm
                .heap
                .read_ref(machine, ObjectId::from_raw(obj.0), slot)?
                .map(|t| Obj(t.raw()))),
            Memory::Native(nm) => {
                let o = NativeObject::from_raw(obj.0 as u32);
                nm.heap.read(machine, o, slot as u32 * 8, 8)?;
                Ok(nm.refs.get(&o).expect("object has no ref slots")[slot])
            }
        }
    }

    /// Registers `obj` as a GC root. No-op (but token-compatible) for the
    /// native heap.
    pub fn add_root(&mut self, obj: Obj) -> Root {
        match self {
            Memory::Managed(mm) => Root(mm.heap.new_root(Some(ObjectId::from_raw(obj.0))).index()),
            Memory::Native(_) => Root(usize::MAX),
        }
    }

    /// Re-points a root at a different object (or clears it).
    pub fn set_root(&mut self, root: Root, obj: Option<Obj>) {
        if let Memory::Managed(mm) = self {
            mm.heap.set_root(
                RootSlot::from_index(root.0),
                obj.map(|o| ObjectId::from_raw(o.0)),
            );
        }
    }

    /// Releases a root registration.
    pub fn drop_root(&mut self, root: Root) {
        if let Memory::Managed(mm) = self {
            mm.heap.drop_root(RootSlot::from_index(root.0));
        }
    }

    /// GC statistics, if managed.
    pub fn gc_stats(&self) -> Option<&GcStats> {
        match self {
            Memory::Managed(mm) => Some(mm.heap.stats()),
            Memory::Native(_) => None,
        }
    }

    /// Native allocation statistics, if native.
    pub fn native_stats(&self) -> Option<&NativeStats> {
        match self {
            Memory::Managed(_) => None,
            Memory::Native(nm) => Some(nm.heap.stats()),
        }
    }

    /// Total bytes the application has allocated so far (either manager).
    pub fn allocated_bytes(&self) -> u64 {
        match self {
            Memory::Managed(mm) => mm.heap.stats().allocated_bytes,
            Memory::Native(nm) => nm.heap.stats().allocated_bytes,
        }
    }

    /// The hardware context this memory's owner runs on.
    pub fn ctx(&self) -> hemu_machine::CtxId {
        match self {
            Memory::Managed(mm) => mm.heap.ctx(),
            Memory::Native(nm) => nm.heap.ctx(),
        }
    }

    /// Advances this instance's virtual clock by pure compute work.
    pub fn compute(&self, machine: &mut Machine, cycles: hemu_types::Cycles) {
        machine.compute(self.ctx(), cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemu_heap::CollectorKind;
    use hemu_machine::{CtxId, MachineProfile};
    use hemu_types::{ByteSize, SocketId};

    fn managed() -> (Machine, Memory) {
        let mut m = Machine::new(MachineProfile::emulation());
        let p = m.add_process(SocketId::DRAM);
        let cfg = CollectorKind::KgN.config(ByteSize::from_mib(1), ByteSize::from_mib(32));
        let heap = ManagedHeap::new(&mut m, p, CtxId(0), cfg).unwrap();
        (m, Memory::managed(heap))
    }

    fn native() -> (Machine, Memory) {
        let mut m = Machine::new(MachineProfile::emulation());
        let p = m.add_process(SocketId::PCM);
        let heap = NativeHeap::new(&mut m, p, CtxId(0), SocketId::PCM);
        (m, Memory::native(heap))
    }

    #[test]
    fn same_code_runs_on_both_managers() {
        for (mut m, mut mem) in [managed(), native()] {
            let a = mem.alloc(&mut m, 1, 64).unwrap();
            let b = mem.alloc(&mut m, 0, 16).unwrap();
            let _r = mem.add_root(a);
            mem.write_ref(&mut m, a, 0, Some(b)).unwrap();
            mem.write_data(&mut m, a, 0, 64).unwrap();
            mem.read_data(&mut m, a, 8, 8).unwrap();
            assert_eq!(mem.read_ref(&mut m, a, 0).unwrap(), Some(b));
            mem.free(b);
            mem.free(a);
        }
    }

    #[test]
    fn managed_allocation_writes_more_than_native() {
        // Zero-initialisation: the Java side writes the whole object at
        // allocation; malloc writes only a header.
        let (mut m1, mut ma) = managed();
        for _ in 0..100 {
            ma.alloc(&mut m1, 0, 4096).unwrap();
        }
        let (mut m2, mut na) = native();
        let mut objs = Vec::new();
        for _ in 0..100 {
            objs.push(na.alloc(&mut m2, 0, 4096).unwrap());
        }
        m1.flush_caches().unwrap();
        m2.flush_caches().unwrap();
        let managed_writes = m1.socket_writes(SocketId::DRAM) + m1.socket_writes(SocketId::PCM);
        let native_writes = m2.socket_writes(SocketId::DRAM) + m2.socket_writes(SocketId::PCM);
        assert!(managed_writes.bytes() > 4 * native_writes.bytes());
    }

    #[test]
    fn free_is_noop_under_gc_and_real_under_malloc() {
        let (mut m, mut mem) = managed();
        let a = mem.alloc(&mut m, 0, 16).unwrap();
        mem.free(a); // must not panic or kill the object
        let (mut m2, mut mem2) = native();
        let b = mem2.alloc(&mut m2, 0, 16).unwrap();
        mem2.free(b);
        assert!(mem2.native_stats().unwrap().freed_bytes > 0);
    }

    #[test]
    fn roots_keep_managed_objects_alive_through_churn() {
        let (mut m, mut mem) = managed();
        let keep = mem.alloc(&mut m, 0, 32).unwrap();
        let _r = mem.add_root(keep);
        for _ in 0..4000 {
            mem.alloc(&mut m, 0, 512).unwrap();
        }
        // Object is still usable (would panic if collected).
        mem.write_data(&mut m, keep, 0, 8).unwrap();
        assert!(mem.gc_stats().unwrap().minor_gcs > 0);
    }
}
