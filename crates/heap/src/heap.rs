//! [`ManagedHeap`]: the mutator-facing managed runtime.
//!
//! This is the object-level API the workloads program against: allocate,
//! read and write fields, register roots. Every operation issues the memory
//! accesses a real VM would (zero-initialising allocation, field stores,
//! barrier bookkeeping), so the cache hierarchy and the socket counters see
//! a realistic access stream.

use crate::chunks::{ChunkManager, Side};
use crate::gc;
use crate::layout;
use crate::object::{object_size, ObjectId, ObjectInfo, ObjectTable, SpaceKind, LARGE_THRESHOLD};
use crate::plan::GcConfig;
use crate::space::{BumpSpace, ImmixSpace, LargeObjectSpace, MetaAllocator};
use crate::stats::GcStats;
use hemu_machine::{CtxId, Machine, ProcId};
use hemu_types::{Addr, ByteSize, MemoryAccess, Result, SpaceTag, WriteCause, WriteTag, WORD};

/// Handle to a root slot (a VM-level reference such as a static or a stack
/// slot) that keeps an object alive across collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RootSlot(pub(crate) usize);

impl RootSlot {
    /// The slot's index, for adapter layers that store it as an integer.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a slot from [`RootSlot::index`]. The index must have
    /// come from this heap's [`ManagedHeap::new_root`].
    pub fn from_index(index: usize) -> Self {
        RootSlot(index)
    }
}

/// A managed heap bound to one emulated process and hardware context.
///
/// # Examples
///
/// ```
/// use hemu_heap::{CollectorKind, ManagedHeap};
/// use hemu_machine::{CtxId, Machine, MachineProfile};
/// use hemu_types::{ByteSize, SocketId};
///
/// let mut m = Machine::new(MachineProfile::emulation());
/// let proc = m.add_process(SocketId::DRAM);
/// let cfg = CollectorKind::KgN.config(ByteSize::from_mib(4), ByteSize::from_mib(64));
/// let mut heap = ManagedHeap::new(&mut m, proc, CtxId(0), cfg)?;
/// let obj = heap.alloc(&mut m, 2, 24)?;
/// let root = heap.new_root(Some(obj));
/// heap.write_data(&mut m, obj, 0, 24)?;
/// # let _ = root;
/// # Ok::<(), hemu_types::HemuError>(())
/// ```
#[derive(Debug)]
pub struct ManagedHeap {
    pub(crate) proc: ProcId,
    pub(crate) ctx: CtxId,
    pub(crate) config: GcConfig,
    pub(crate) table: ObjectTable,
    pub(crate) nursery: BumpSpace,
    pub(crate) observer: Option<BumpSpace>,
    pub(crate) mature_dram: ImmixSpace,
    pub(crate) mature_pcm: ImmixSpace,
    pub(crate) los_dram: LargeObjectSpace,
    pub(crate) los_pcm: LargeObjectSpace,
    pub(crate) meta_dram: MetaAllocator,
    pub(crate) meta_pcm: MetaAllocator,
    pub(crate) chunks: ChunkManager,
    /// Old (non-young) objects remembered because they may reference young
    /// objects. Persists across nursery-only collections.
    pub(crate) remset_old: Vec<ObjectId>,
    /// Observer objects remembered because they may reference nursery
    /// objects. Consumed by every minor collection.
    pub(crate) remset_obs: Vec<ObjectId>,
    pub(crate) remset_cursor: u64,
    /// Objects in the nursery or the observer space, in no particular
    /// order: the only objects a minor collection can free.
    pub(crate) young: Vec<ObjectId>,
    pub(crate) roots: Vec<Option<ObjectId>>,
    free_root_slots: Vec<usize>,
    boot_cursor: Addr,
    /// Minor collections since the last full-heap collection (full-GC
    /// scheduling cooldown).
    pub(crate) minor_since_full: u32,
    pub(crate) stats: GcStats,
}

impl ManagedHeap {
    /// Creates a managed heap for process `proc`, with its GC running on
    /// hardware context `ctx`. Reserves and binds the fixed regions
    /// (nursery, observer, boot, remset buffer) per the plan.
    ///
    /// # Errors
    ///
    /// Returns [`hemu_types::HemuError::InvalidConfig`] for degenerate
    /// configurations (zero-sized nursery or heap, or a nursery or observer
    /// larger than its virtual-memory reservation).
    pub fn new(machine: &mut Machine, proc: ProcId, ctx: CtxId, config: GcConfig) -> Result<Self> {
        if config.nursery.bytes() == 0 || config.heap_size.bytes() == 0 {
            return Err(hemu_types::HemuError::InvalidConfig(
                "nursery and heap size must be positive".into(),
            ));
        }
        if config.nursery > layout::NURSERY_MAX {
            return Err(hemu_types::HemuError::InvalidConfig(format!(
                "nursery {} exceeds the {} reservation",
                config.nursery,
                layout::NURSERY_MAX
            )));
        }
        if let Some(observer) = config.observer.filter(|&o| o > layout::OBSERVER_MAX) {
            return Err(hemu_types::HemuError::InvalidConfig(format!(
                "observer {observer} exceeds the {} reservation",
                layout::OBSERVER_MAX
            )));
        }

        let young_socket = config.young_socket();
        machine.mbind(proc, layout::NURSERY_START, config.nursery, young_socket);
        let observer = config.observer.map(|sz| {
            machine.mbind(proc, layout::OBSERVER_START, sz, young_socket);
            BumpSpace::new(layout::OBSERVER_START, sz)
        });
        machine.mbind(
            proc,
            layout::BOOT_START,
            layout::BOOT_SIZE,
            config.boot_socket(),
        );
        machine.mbind(
            proc,
            layout::REMSET_BUFFER,
            layout::REMSET_BUFFER_SIZE,
            young_socket,
        );

        Ok(ManagedHeap {
            proc,
            ctx,
            table: ObjectTable::new(),
            nursery: BumpSpace::new(layout::NURSERY_START, config.nursery),
            observer,
            mature_dram: ImmixSpace::new("mature-dram", Side::Dram),
            mature_pcm: ImmixSpace::new("mature-pcm", Side::Pcm),
            los_dram: LargeObjectSpace::new("los-dram", Side::Dram),
            los_pcm: LargeObjectSpace::new("los-pcm", Side::Pcm),
            meta_dram: MetaAllocator::new("meta-dram", Side::Dram),
            meta_pcm: MetaAllocator::new("meta-pcm", Side::Pcm),
            chunks: ChunkManager::new(config.side_sockets(), proc),
            remset_old: Vec::new(),
            remset_obs: Vec::new(),
            remset_cursor: 0,
            young: Vec::new(),
            roots: Vec::new(),
            free_root_slots: Vec::new(),
            boot_cursor: layout::BOOT_START,
            minor_since_full: 0,
            stats: GcStats::default(),
            config,
        })
    }

    /// The hardware context this heap's mutator and collector run on.
    pub fn ctx(&self) -> CtxId {
        self.ctx
    }

    /// Collection and allocation statistics.
    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> usize {
        self.table.live_count()
    }

    /// Old-generation occupancy (mature + large spaces).
    pub fn old_gen_used(&self) -> ByteSize {
        self.mature_dram.used()
            + self.mature_pcm.used()
            + self.los_dram.used()
            + self.los_pcm.used()
    }

    /// The budget that triggers a full-heap collection: the heap size minus
    /// the young reservations (never less than a quarter of the heap).
    pub(crate) fn old_gen_budget(&self) -> ByteSize {
        let young = self.config.nursery + self.config.observer.unwrap_or(ByteSize::ZERO);
        let quarter = ByteSize::new(self.config.heap_size.bytes() / 4);
        self.config.heap_size.saturating_sub(young).max(quarter)
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates an object with `ref_count` reference slots and
    /// `data_bytes` of scalar payload, zero-initialising its storage.
    ///
    /// Large objects (≥ 8 KiB) go to the large object space, or start in
    /// the nursery under the Large Object Optimization. Nursery exhaustion
    /// triggers a minor collection; old-generation pressure triggers a full
    /// collection.
    ///
    /// # Errors
    ///
    /// Returns an error if the heap cannot satisfy the request even after
    /// collecting.
    pub fn alloc(
        &mut self,
        machine: &mut Machine,
        ref_count: usize,
        data_bytes: usize,
    ) -> Result<ObjectId> {
        // Fault-injection point: a plan may force OOM at the Nth managed
        // allocation. A no-op unless an injector is installed.
        machine.fault_on_managed_alloc()?;
        let size = object_size(ref_count, data_bytes);
        let (addr, space) = self.alloc_raw(machine, size)?;

        // Java semantics: fresh storage is zero-initialised. This is one of
        // the three extra write sources of managed workloads (§VI.A).
        machine.set_write_tag(WriteTag::new(WriteCause::Mutator, space.tag()));
        machine.access(self.ctx, self.proc, MemoryAccess::write(addr, size))?;

        self.stats.allocated_bytes += size as u64;
        self.stats.allocated_objects += 1;
        let mut info = ObjectInfo::fresh(addr, size, ref_count, space);
        if space.is_large() {
            // Objects born in a mature/large space need their mark slot now.
            info.set_meta(self.meta_slot_for(machine, space)?);
        }
        let id = self.table.insert(info);
        if space.is_young() {
            self.young.push(id);
        }
        Ok(id)
    }

    fn alloc_raw(&mut self, machine: &mut Machine, size: u32) -> Result<(Addr, SpaceKind)> {
        if size >= LARGE_THRESHOLD {
            self.stats.large_allocated_bytes += size as u64;
            // LOO: small-ish large objects start in the nursery to give
            // them time to die (§II.B, §VI.E).
            if self.config.loo
                && size as u64 <= self.config.loo_nursery_max.bytes()
                && size as u64 <= self.config.nursery.bytes()
            {
                self.stats.loo_nursery_large += 1;
                let addr = self.nursery_alloc(machine, size)?;
                return Ok((addr, SpaceKind::Nursery));
            }
            // Directly into the PCM large object space (the mutator never
            // allocates large objects in DRAM; the collector rescues
            // written ones later).
            self.maybe_full_gc(machine, size)?;
            let addr = self.los_pcm.alloc(machine, &mut self.chunks, size)?;
            return Ok((addr, SpaceKind::LargePcm));
        }
        let addr = self.nursery_alloc(machine, size)?;
        Ok((addr, SpaceKind::Nursery))
    }

    fn nursery_alloc(&mut self, machine: &mut Machine, size: u32) -> Result<Addr> {
        if let Some(a) = self.nursery.alloc(size) {
            return Ok(a);
        }
        gc::minor_gc(self, machine, "nursery_full")?;
        self.maybe_full_gc(machine, size)?;
        self.nursery
            .alloc(size)
            .ok_or(hemu_types::HemuError::OutOfHeapMemory {
                requested: ByteSize::new(size as u64),
                space: "nursery",
            })
    }

    fn maybe_full_gc(&mut self, machine: &mut Machine, upcoming: u32) -> Result<()> {
        // Full-heap collection under old-generation pressure, with a
        // cooldown of two nursery cycles so a live set close to the budget
        // does not thrash the collector.
        if self.old_gen_used().bytes() + upcoming as u64 > self.old_gen_budget().bytes()
            && self.minor_since_full >= 2
        {
            gc::full_gc(self, machine, "old_gen_pressure")?;
        }
        Ok(())
    }

    /// Forces a full-heap collection.
    ///
    /// # Errors
    ///
    /// Propagates machine memory exhaustion.
    pub fn collect_full(&mut self, machine: &mut Machine) -> Result<()> {
        gc::full_gc(self, machine, "forced")
    }

    /// Allocates an object in the boot space. Boot objects are permanent
    /// GC roots (the VM boot image): never collected, never moved. The
    /// paper observes a large number of writes to the boot image, which is
    /// why every plan except PCM-Only keeps it in DRAM.
    ///
    /// # Errors
    ///
    /// Returns an error when the boot reservation is exhausted.
    pub fn alloc_boot(
        &mut self,
        machine: &mut Machine,
        ref_count: usize,
        data_bytes: usize,
    ) -> Result<ObjectId> {
        let size = object_size(ref_count, data_bytes);
        let end = layout::BOOT_START.raw() + layout::BOOT_SIZE.bytes();
        if self.boot_cursor.raw() + size as u64 > end {
            return Err(hemu_types::HemuError::OutOfHeapMemory {
                requested: ByteSize::new(size as u64),
                space: "boot",
            });
        }
        let addr = self.boot_cursor;
        self.boot_cursor = self.boot_cursor.offset(size as u64);
        machine.set_write_tag(WriteTag::new(WriteCause::Mutator, SpaceTag::Other));
        machine.access(self.ctx, self.proc, MemoryAccess::write(addr, size))?;
        self.stats.allocated_bytes += size as u64;
        self.stats.allocated_objects += 1;
        Ok(self
            .table
            .insert(ObjectInfo::fresh(addr, size, ref_count, SpaceKind::Boot)))
    }

    pub(crate) fn meta_slot_for(
        &mut self,
        machine: &mut Machine,
        space: SpaceKind,
    ) -> Result<Addr> {
        let meta = if space.is_pcm_side() && !self.config.mdo {
            &mut self.meta_pcm
        } else {
            // MDO: PCM objects' mark bytes live in DRAM. DRAM-side objects'
            // metadata is DRAM-side regardless.
            &mut self.meta_dram
        };
        meta.alloc_slot(machine, &mut self.chunks)
    }

    // ------------------------------------------------------------------
    // Mutator field access
    // ------------------------------------------------------------------

    /// Stores `target` into reference slot `slot` of `src`, running the
    /// generational write barrier.
    ///
    /// # Errors
    ///
    /// Propagates machine memory exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for `src`.
    pub fn write_ref(
        &mut self,
        machine: &mut Machine,
        src: ObjectId,
        slot: usize,
        target: Option<ObjectId>,
    ) -> Result<()> {
        let (slot_addr, src_tag) = {
            let info = self.table.get(src);
            assert!(
                slot < info.ref_count() as usize,
                "ref slot {slot} out of range"
            );
            (info.ref_slot_addr(slot), info.space.tag())
        };
        // The store itself.
        machine.set_write_tag(WriteTag::new(WriteCause::Mutator, src_tag));
        machine.access(
            self.ctx,
            self.proc,
            MemoryAccess::write(slot_addr, WORD as u32),
        )?;
        self.monitor_write(machine, src)?;

        // Boundary write barrier: remember old→young and observer→nursery
        // pointers, one entry per source object (object remembering).
        if let Some(t) = target {
            let target_space = self.table.get(t).space;
            let src_space = self.table.get(src).space;
            if target_space.is_young() && !self.table.get(src).logged() {
                let log = match src_space {
                    SpaceKind::Nursery => false,
                    SpaceKind::Observer => target_space == SpaceKind::Nursery,
                    _ => true,
                };
                if log {
                    self.table.get_mut(src).set_logged(true);
                    if src_space == SpaceKind::Observer {
                        self.remset_obs.push(src);
                    } else {
                        self.remset_old.push(src);
                    }
                    self.stats.remset_entries += 1;
                    // The barrier appends the source to a buffer in DRAM.
                    let buf = layout::REMSET_BUFFER.offset(
                        (self.remset_cursor * WORD as u64) % layout::REMSET_BUFFER_SIZE.bytes(),
                    );
                    self.remset_cursor += 1;
                    machine.set_write_tag(WriteTag::new(WriteCause::Metadata, SpaceTag::Meta));
                    machine.access(self.ctx, self.proc, MemoryAccess::write(buf, WORD as u32))?;
                }
            }
        }
        self.table.set_ref(src, slot, target);
        Ok(())
    }

    /// Loads reference slot `slot` of `src`.
    ///
    /// # Errors
    ///
    /// Propagates machine memory exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn read_ref(
        &mut self,
        machine: &mut Machine,
        src: ObjectId,
        slot: usize,
    ) -> Result<Option<ObjectId>> {
        let value = self.table.ref_at(src, slot);
        let addr = self.table.get(src).ref_slot_addr(slot);
        machine.access(self.ctx, self.proc, MemoryAccess::read(addr, WORD as u32))?;
        Ok(value)
    }

    /// Writes `len` bytes of the object's scalar payload starting at
    /// `offset`.
    ///
    /// # Errors
    ///
    /// Propagates machine memory exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the payload.
    pub fn write_data(
        &mut self,
        machine: &mut Machine,
        obj: ObjectId,
        offset: u32,
        len: u32,
    ) -> Result<()> {
        let (addr, tag) = {
            let info = self.table.get(obj);
            assert!(offset + len <= info.data_size(), "data write out of range");
            (info.data_addr().offset(offset as u64), info.space.tag())
        };
        machine.set_write_tag(WriteTag::new(WriteCause::Mutator, tag));
        machine.access(self.ctx, self.proc, MemoryAccess::write(addr, len))?;
        self.monitor_write(machine, obj)
    }

    /// Reads `len` bytes of the object's scalar payload starting at
    /// `offset`.
    ///
    /// # Errors
    ///
    /// Propagates machine memory exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the payload.
    pub fn read_data(
        &mut self,
        machine: &mut Machine,
        obj: ObjectId,
        offset: u32,
        len: u32,
    ) -> Result<()> {
        let addr = {
            let info = self.table.get(obj);
            assert!(offset + len <= info.data_size(), "data read out of range");
            info.data_addr().offset(offset as u64)
        };
        machine.access(self.ctx, self.proc, MemoryAccess::read(addr, len))
    }

    /// KG-W write monitoring: the first store to an object under
    /// observation sets its written bit in the header (an extra write).
    /// Writes to PCM large objects are tracked the same way so mature
    /// collections can rescue them to DRAM.
    fn monitor_write(&mut self, machine: &mut Machine, obj: ObjectId) -> Result<()> {
        let (space, written, addr) = {
            let info = self.table.get(obj);
            (info.space, info.written(), info.addr)
        };
        if written {
            return Ok(());
        }
        match space {
            SpaceKind::Observer => {
                self.table.get_mut(obj).set_written(true);
                self.stats.monitor_marks += 1;
                machine.set_write_tag(WriteTag::new(WriteCause::Metadata, SpaceTag::Observer));
                machine.access(self.ctx, self.proc, MemoryAccess::write(addr, WORD as u32))?;
                // The first-write slow path of the monitoring barrier.
                machine.compute(self.ctx, hemu_types::Cycles::new(120));
            }
            SpaceKind::LargePcm if self.config.has_observer() => {
                // Same barrier path tags written large objects; the flag
                // rides in the header word the store already touched.
                self.table.get_mut(obj).set_written(true);
            }
            _ => {}
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Roots
    // ------------------------------------------------------------------

    /// Registers a new root slot holding `value`.
    pub fn new_root(&mut self, value: Option<ObjectId>) -> RootSlot {
        if let Some(i) = self.free_root_slots.pop() {
            self.roots[i] = value;
            RootSlot(i)
        } else {
            self.roots.push(value);
            RootSlot(self.roots.len() - 1)
        }
    }

    /// Releases a root slot (its referent becomes collectable).
    pub fn drop_root(&mut self, slot: RootSlot) {
        self.roots[slot.0] = None;
        self.free_root_slots.push(slot.0);
    }

    /// Returns the space an object currently lives in (for tests and
    /// reporting).
    pub fn space_of(&self, obj: ObjectId) -> SpaceKind {
        self.table.get(obj).space
    }

    /// Number of reference slots of a live object.
    pub fn ref_slots(&self, obj: ObjectId) -> usize {
        self.table.get(obj).ref_count() as usize
    }

    /// Returns `true` if `obj` still names a live object.
    pub fn is_live(&self, obj: ObjectId) -> bool {
        self.table.is_live(obj)
    }
}
