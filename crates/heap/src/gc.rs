//! The collection algorithms: minor (nursery / young) collections and
//! full-heap (mature) collections, shared by every plan.
//!
//! All tracing, copying and mark bookkeeping issues machine accesses, so
//! collector-induced writes (object copying, forwarding words, mark bytes)
//! are measured exactly like mutator writes — this is how the paper's
//! KG-W−MDO experiment can observe collector marking writes landing on PCM.

use crate::heap::ManagedHeap;
use crate::object::{ObjectId, SpaceKind, HEADER_SIZE, LARGE_THRESHOLD};
use hemu_machine::Machine;
use hemu_obs::{GcKind, TraceEvent};
use hemu_types::{
    ByteSize, Cycles, HemuError, MemoryAccess, Result, SpaceTag, WriteCause, WriteTag, WORD,
};

/// Stamps the start of a collection pause: emits a [`TraceEvent::GcStart`],
/// opens the collection's outer span (named [`GcKind::name`]) and returns
/// the pause's start time on the collecting context's clock.
fn pause_begin(
    heap: &ManagedHeap,
    machine: &mut Machine,
    kind: GcKind,
    reason: &'static str,
) -> Cycles {
    let t0 = machine.clock(heap.ctx).now();
    machine
        .tracer_mut()
        .record(t0, TraceEvent::GcStart { kind, reason });
    machine.spans_mut().begin(kind.name(), "gc", t0);
    t0
}

/// Stamps the end of a collection pause: accumulates `GcStats::pause_cycles`,
/// feeds the machine's GC pause histogram, emits a [`TraceEvent::GcEnd`]
/// and closes the outer span [`pause_begin`] opened.
fn pause_end(heap: &mut ManagedHeap, machine: &mut Machine, kind: GcKind, t0: Cycles) {
    let t1 = machine.clock(heap.ctx).now();
    let pause = t1.raw() - t0.raw();
    heap.stats.pause_cycles += pause;
    machine.record_gc_pause(pause);
    machine.tracer_mut().record(
        t1,
        TraceEvent::GcEnd {
            kind,
            pause_cycles: pause,
        },
    );
    machine.spans_mut().end(t1);
}

/// Crosses a GC phase boundary on the collecting context's clock: closes
/// the open phase span when `close`, then opens `next`, if any.
fn phase(heap: &ManagedHeap, machine: &mut Machine, close: bool, next: Option<&'static str>) {
    let t = machine.clock(heap.ctx).now();
    let spans = machine.spans_mut();
    if close {
        spans.end(t);
    }
    if let Some(name) = next {
        spans.begin(name, "gc", t);
    }
}

/// Re-logs mature→young edges manufactured by evacuation.
///
/// Promotion can create old→young pointers that never crossed the mutator's
/// write barrier: an observer source is promoted to the mature space in the
/// same collection that moved its nursery target into the observer space,
/// and a full collection clears every logged bit outright. Any such edge
/// must be re-remembered, or the next observer-collecting minor GC would
/// treat the (reachable) young target as garbage and a later scan of the
/// stale reference would fault. Pure collector bookkeeping — the mutator's
/// barrier already paid for these entries when the refs were stored.
fn rebuild_remsets(heap: &mut ManagedHeap) {
    for idx in 0..heap.table.slot_count() {
        let Some(src) = heap.table.live_at(idx) else {
            continue;
        };
        let table = &heap.table;
        let info = table.get(src);
        if info.space.is_young() || info.logged() {
            continue;
        }
        if table
            .refs(src)
            .any(|t| table.is_live(t) && table.get(t).space.is_young())
        {
            heap.table.get_mut(src).set_logged(true);
            heap.remset_old.push(src);
        }
    }
}

/// Where an evacuated object is copied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    Observer,
    MatureDram,
    MaturePcm,
    LargeDram,
    LargePcm,
}

impl Dest {
    fn space(self) -> SpaceKind {
        match self {
            Dest::Observer => SpaceKind::Observer,
            Dest::MatureDram => SpaceKind::MatureDram,
            Dest::MaturePcm => SpaceKind::MaturePcm,
            Dest::LargeDram => SpaceKind::LargeDram,
            Dest::LargePcm => SpaceKind::LargePcm,
        }
    }
}

/// Bytes the collector reads when scanning an object for references.
fn scan_bytes(size: u32, ref_count: u16) -> u32 {
    (HEADER_SIZE + ref_count as u32 * WORD as u32).min(size)
}

/// Destination for an observer survivor: segregation by observed writes is
/// the heart of Kingsguard-writers.
fn observer_dest(written: bool, size: u32) -> Dest {
    match (written, size >= LARGE_THRESHOLD) {
        (true, true) => Dest::LargeDram,
        (true, false) => Dest::MatureDram,
        (false, true) => Dest::LargePcm,
        (false, false) => Dest::MaturePcm,
    }
}

/// Destination for a nursery survivor.
fn nursery_dest(heap: &ManagedHeap, size: u32) -> Dest {
    if heap.config.has_observer() {
        Dest::Observer
    } else if size >= LARGE_THRESHOLD {
        Dest::LargePcm
    } else {
        Dest::MaturePcm
    }
}

/// Copies one live object to `dest`: read at the old location, write at the
/// new one, plus a forwarding-pointer store in the old header.
fn evacuate(heap: &mut ManagedHeap, machine: &mut Machine, id: ObjectId, dest: Dest) -> Result<()> {
    let (old_addr, size, old_space) = {
        let info = heap.table.get(id);
        (info.addr, info.size, info.space)
    };
    let new_addr = match dest {
        Dest::Observer => heap
            .observer
            .as_mut()
            .ok_or_else(|| {
                HemuError::InvalidConfig("evacuating to a plan without an observer space".into())
            })?
            .alloc(size)
            .ok_or(HemuError::OutOfHeapMemory {
                requested: ByteSize::new(size as u64),
                space: "observer",
            })?,
        Dest::MatureDram => heap.mature_dram.alloc(machine, &mut heap.chunks, size)?,
        Dest::MaturePcm => heap.mature_pcm.alloc(machine, &mut heap.chunks, size)?,
        Dest::LargeDram => heap.los_dram.alloc(machine, &mut heap.chunks, size)?,
        Dest::LargePcm => heap.los_pcm.alloc(machine, &mut heap.chunks, size)?,
    };

    let (ctx, proc) = (heap.ctx, heap.proc);
    // Copies out of a young space are the nursery-evacuation write stream;
    // everything else (rescue, compaction) is a mature copy.
    let copy_cause = if old_space.is_young() {
        WriteCause::NurseryEvac
    } else {
        WriteCause::MatureCopy
    };
    machine.access(ctx, proc, MemoryAccess::read(old_addr, size))?;
    machine.set_write_tag(WriteTag::new(copy_cause, dest.space().tag()));
    machine.access(ctx, proc, MemoryAccess::write(new_addr, size))?;
    // Forwarding pointer in the old header, read by other tracers.
    machine.set_write_tag(WriteTag::new(WriteCause::Metadata, old_space.tag()));
    machine.access(ctx, proc, MemoryAccess::write(old_addr, WORD as u32))?;
    // Per-object copy work: size check, forwarding CAS, table update.
    machine.compute(ctx, Cycles::new(60 + size as u64 / 4));
    // Evacuating an observed object additionally consults and resets the
    // write-monitoring state — the bookkeeping behind KG-W's overhead (§V).
    if old_space == SpaceKind::Observer {
        machine.compute(ctx, Cycles::new(600));
    }

    let space = dest.space();
    let needs_meta = {
        let info = heap.table.get_mut(id);
        info.addr = new_addr;
        info.space = space;
        // Entering the observer (re)starts write observation; leaving any
        // young space ends it.
        info.set_written(false);
        info.meta().is_none() && !space.is_young()
    };
    if needs_meta {
        let slot = heap.meta_slot_for(machine, space)?;
        heap.table.get_mut(id).set_meta(slot);
    }
    Ok(())
}

/// Scans an object's header and reference slots (collector read traffic)
/// and passes each outgoing reference, read in place from the table, to
/// `visit` in slot order.
fn scan(
    heap: &mut ManagedHeap,
    machine: &mut Machine,
    id: ObjectId,
    mut visit: impl FnMut(&mut ManagedHeap, ObjectId),
) -> Result<()> {
    let (addr, size, ref_count) = {
        let info = heap.table.get(id);
        (info.addr, info.size, info.ref_count())
    };
    machine.access(
        heap.ctx,
        heap.proc,
        MemoryAccess::read(addr, scan_bytes(size, ref_count)),
    )?;
    // Per-object trace work: type lookup and reference-map decoding.
    machine.compute(heap.ctx, Cycles::new(30 + 4 * ref_count as u64));
    for i in 0..ref_count as usize {
        if let Some(t) = heap.table.ref_at(id, i) {
            visit(heap, t);
        }
    }
    Ok(())
}

/// A minor collection: evacuates the nursery (and, when it is full, the
/// observer space), seeded from roots and the remembered sets.
pub(crate) fn minor_gc(
    heap: &mut ManagedHeap,
    machine: &mut Machine,
    reason: &'static str,
) -> Result<()> {
    heap.stats.minor_gcs += 1;
    heap.minor_since_full += 1;
    let collect_observer = heap.config.has_observer()
        && heap
            .observer
            .as_ref()
            .map(|o| o.available() < heap.nursery.used())
            .unwrap_or(false);
    if collect_observer {
        heap.stats.observer_gcs += 1;
    }
    let kind = if collect_observer {
        GcKind::MinorObserver
    } else {
        GcKind::Minor
    };
    let pause_t0 = pause_begin(heap, machine, kind, reason);
    // Stop-the-world pause setup: stack and register root scan.
    machine.compute(heap.ctx, Cycles::new(30_000));
    phase(heap, machine, false, Some("trace"));

    let in_evacuated =
        |s: SpaceKind| s == SpaceKind::Nursery || (collect_observer && s == SpaceKind::Observer);

    // --- Mark ---
    let mut gray: Vec<ObjectId> = Vec::new();
    let mut survivors: Vec<ObjectId> = Vec::new();
    let mark = |heap: &mut ManagedHeap,
                id: ObjectId,
                gray: &mut Vec<ObjectId>,
                survivors: &mut Vec<ObjectId>| {
        let info = heap.table.get_mut(id);
        if in_evacuated(info.space) && !info.marked() {
            info.set_marked(true);
            gray.push(id);
            survivors.push(id);
        }
    };

    for r in 0..heap.roots.len() {
        if let Some(root) = heap.roots[r] {
            mark(heap, root, &mut gray, &mut survivors);
        }
    }
    // Remembered sets: re-scan each remembered source object, the old
    // generation's set first.
    let n_old = heap.remset_old.len();
    for r in 0..n_old + heap.remset_obs.len() {
        let src = if r < n_old {
            heap.remset_old[r]
        } else {
            heap.remset_obs[r - n_old]
        };
        if !heap.table.is_live(src) || in_evacuated(heap.table.get(src).space) {
            continue;
        }
        scan(heap, machine, src, |h, t| {
            mark(h, t, &mut gray, &mut survivors)
        })?;
    }
    while let Some(o) = gray.pop() {
        scan(heap, machine, o, |h, t| {
            mark(h, t, &mut gray, &mut survivors)
        })?;
    }
    phase(heap, machine, true, Some("evacuate"));

    // --- Evacuate: observer first, then the nursery into the freed space.
    if collect_observer {
        for &id in &survivors {
            if heap.table.get(id).space == SpaceKind::Observer {
                let (written, size) = {
                    let i = heap.table.get(id);
                    (i.written(), i.size)
                };
                let dest = observer_dest(written, size);
                if written {
                    heap.stats.promoted_dram_objects += 1;
                } else {
                    heap.stats.promoted_pcm_objects += 1;
                }
                heap.stats.copied_observer_bytes += size as u64;
                evacuate(heap, machine, id, dest)?;
            }
        }
        if let Some(obs) = heap.observer.as_mut() {
            obs.reset();
        }
    }
    for &id in &survivors {
        if heap.table.get(id).space == SpaceKind::Nursery {
            let size = heap.table.get(id).size;
            let dest = nursery_dest(heap, size);
            heap.stats.copied_minor_bytes += size as u64;
            evacuate(heap, machine, id, dest)?;
        }
    }
    phase(heap, machine, true, Some("sweep"));

    // --- Sweep the evacuated spaces: only young objects can die here ---
    let mut dead: Vec<ObjectId> = Vec::new();
    heap.young.retain(|&id| {
        let i = heap.table.get(id);
        if in_evacuated(i.space) && !i.marked() {
            dead.push(id);
            false
        } else {
            i.space.is_young()
        }
    });
    heap.table.remove_in_slot_order(&dead);
    heap.nursery.reset();
    for &id in &survivors {
        heap.table.get_mut(id).set_marked(false);
    }

    // --- Remembered set maintenance ---
    for &src in &heap.remset_obs {
        if heap.table.is_live(src) {
            heap.table.get_mut(src).set_logged(false);
        }
    }
    heap.remset_obs.clear();
    if collect_observer {
        for &src in &heap.remset_old {
            if heap.table.is_live(src) {
                heap.table.get_mut(src).set_logged(false);
            }
        }
        heap.remset_old.clear();
        rebuild_remsets(heap);
    }
    phase(heap, machine, true, None);
    pause_end(heap, machine, kind, pause_t0);
    Ok(())
}

/// A full-heap (mature) collection: traces the whole object graph, writes
/// mark bytes, reclaims mature lines and dead large objects, evacuates the
/// young generation, and rescues written PCM large objects to DRAM.
pub(crate) fn full_gc(
    heap: &mut ManagedHeap,
    machine: &mut Machine,
    reason: &'static str,
) -> Result<()> {
    heap.stats.full_gcs += 1;
    heap.minor_since_full = 0;
    let pause_t0 = pause_begin(heap, machine, GcKind::Full, reason);
    machine.compute(heap.ctx, Cycles::new(120_000));
    phase(heap, machine, false, Some("trace"));

    // --- Mark the whole graph ---
    let mut gray: Vec<ObjectId> = Vec::new();
    let mut live: Vec<ObjectId> = Vec::new();
    let mark = |heap: &mut ManagedHeap,
                id: ObjectId,
                gray: &mut Vec<ObjectId>,
                live: &mut Vec<ObjectId>| {
        let info = heap.table.get_mut(id);
        if !info.marked() {
            info.set_marked(true);
            gray.push(id);
            live.push(id);
        }
    };
    // Roots first, then the boot image in slot order.
    for r in 0..heap.roots.len() {
        if let Some(root) = heap.roots[r] {
            mark(heap, root, &mut gray, &mut live);
        }
    }
    for idx in 0..heap.table.slot_count() {
        if let Some(id) = heap.table.live_at(idx) {
            if heap.table.get(id).space == SpaceKind::Boot {
                mark(heap, id, &mut gray, &mut live);
            }
        }
    }
    while let Some(o) = gray.pop() {
        scan(heap, machine, o, |h, t| mark(h, t, &mut gray, &mut live))?;
    }

    // --- Mark-state writes ---
    // Marking live objects writes their metadata: a mark byte in a metadata
    // space for mature/large objects (the MDO decides which socket that
    // lands on), or a header bit for young and boot objects.
    for &id in &live {
        let (space, meta, addr) = {
            let i = heap.table.get(id);
            (i.space, i.meta(), i.addr)
        };
        heap.stats.mark_writes += 1;
        match space {
            SpaceKind::MatureDram
            | SpaceKind::MaturePcm
            | SpaceKind::LargeDram
            | SpaceKind::LargePcm => {
                let slot = meta.ok_or_else(|| {
                    HemuError::InvalidConfig(format!("mature object {id} without a metadata slot"))
                })?;
                machine.set_write_tag(WriteTag::new(WriteCause::Metadata, SpaceTag::Meta));
                machine.access(heap.ctx, heap.proc, MemoryAccess::write(slot, 1))?;
            }
            _ => {
                machine.set_write_tag(WriteTag::new(WriteCause::Metadata, space.tag()));
                machine.access(heap.ctx, heap.proc, MemoryAccess::write(addr, WORD as u32))?;
            }
        }
    }

    phase(heap, machine, true, Some("sweep"));

    // --- Sweep: drop the dead, in ascending slot order ---
    for idx in 0..heap.table.slot_count() {
        let Some(d) = heap.table.live_at(idx) else {
            continue;
        };
        let (space, addr, size, marked) = {
            let i = heap.table.get(d);
            (i.space, i.addr, i.size, i.marked())
        };
        if marked || space == SpaceKind::Boot {
            continue;
        }
        match space {
            SpaceKind::LargeDram => heap.los_dram.free(addr, size),
            SpaceKind::LargePcm => heap.los_pcm.free(addr, size),
            _ => {}
        }
        heap.table.remove(d);
    }

    // --- Rebuild mature line maps from the survivors ---
    heap.mature_dram.begin_sweep();
    heap.mature_pcm.begin_sweep();
    for &id in &live {
        if !heap.table.is_live(id) {
            continue;
        }
        let (space, addr, size) = {
            let i = heap.table.get(id);
            (i.space, i.addr, i.size)
        };
        match space {
            SpaceKind::MatureDram => heap.mature_dram.mark_object(addr, size)?,
            SpaceKind::MaturePcm => heap.mature_pcm.mark_object(addr, size)?,
            _ => {}
        }
    }

    phase(heap, machine, true, Some("evacuate"));

    // --- Rescue written PCM large objects to DRAM (KG-W family) ---
    if heap.config.has_observer() {
        let rescue: Vec<ObjectId> = live
            .iter()
            .copied()
            .filter(|&id| {
                heap.table.is_live(id) && {
                    let i = heap.table.get(id);
                    i.space == SpaceKind::LargePcm && i.written()
                }
            })
            .collect();
        for id in rescue {
            let (addr, size) = {
                let i = heap.table.get(id);
                (i.addr, i.size)
            };
            heap.los_pcm.free(addr, size);
            evacuate(heap, machine, id, Dest::LargeDram)?;
            heap.stats.large_rescued += 1;
        }
    }

    // --- Evacuate the young generation ---
    let young: Vec<ObjectId> = live
        .iter()
        .copied()
        .filter(|&id| heap.table.is_live(id) && heap.table.get(id).space.is_young())
        .collect();
    for &id in &young {
        if heap.table.get(id).space == SpaceKind::Observer {
            let (written, size) = {
                let i = heap.table.get(id);
                (i.written(), i.size)
            };
            if written {
                heap.stats.promoted_dram_objects += 1;
            } else {
                heap.stats.promoted_pcm_objects += 1;
            }
            heap.stats.copied_observer_bytes += size as u64;
            evacuate(heap, machine, id, observer_dest(written, size))?;
        }
    }
    if let Some(obs) = heap.observer.as_mut() {
        obs.reset();
    }
    for &id in &young {
        if heap.table.get(id).space == SpaceKind::Nursery {
            let size = heap.table.get(id).size;
            heap.stats.copied_minor_bytes += size as u64;
            evacuate(heap, machine, id, nursery_dest(heap, size))?;
        }
    }
    heap.nursery.reset();
    let table = &heap.table;
    heap.young
        .retain(|&id| table.is_live(id) && table.get(id).space.is_young());

    // --- Clear marks, logged bits, remembered sets ---
    for &id in &live {
        if heap.table.is_live(id) {
            let i = heap.table.get_mut(id);
            i.set_marked(false);
            i.set_logged(false);
        }
    }
    heap.remset_old.clear();
    heap.remset_obs.clear();
    if heap.config.has_observer() {
        rebuild_remsets(heap);
    }
    phase(heap, machine, true, None);
    pause_end(heap, machine, GcKind::Full, pause_t0);
    Ok(())
}
