//! The object model and object table.
//!
//! The simulated machine carries no data, so the semantic state of every
//! object (its reference fields, liveness, written bit) lives in an
//! [`ObjectTable`] on the Rust side, while its *location* (virtual address,
//! size, space) determines the memory traffic its uses generate.

use hemu_types::{Addr, WORD};
use std::fmt;

/// Size of an object header in bytes (status word + type information
/// block pointer, as in Jikes RVM).
pub(crate) const HEADER_SIZE: u32 = 16;

/// Objects at least this big go to the large object space (the 8 KiB MMTk
/// LOS threshold).
pub(crate) const LARGE_THRESHOLD: u32 = 8 * 1024;

/// A stable handle to a managed object.
///
/// The id survives copying collections — the garbage collector updates the
/// object's address, not its identity — which is exactly the indirection a
/// real VM's object-to-forwarding map provides during a moving collection.
/// Ids are generation-tagged: a handle to a collected object never aliases
/// a later object that reuses the same table slot, so stale handles are
/// reliably detected instead of silently corrupting an unrelated object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub(crate) u64);

impl ObjectId {
    pub(crate) fn new(index: u32, generation: u32) -> Self {
        ObjectId((generation as u64) << 32 | index as u64)
    }

    pub(crate) fn index(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Raw value (for diagnostics and adapter layers).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an id from [`ObjectId::raw`]. For adapter layers that
    /// store ids as plain integers; the id must have come from this heap.
    pub fn from_raw(raw: u64) -> Self {
        ObjectId(raw)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}v{}", self.index(), self.generation())
    }
}

/// Which space an object currently resides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpaceKind {
    /// The boot image.
    Boot,
    /// The copying nursery.
    Nursery,
    /// KG-W's DRAM observer space.
    Observer,
    /// Mark-region mature space on DRAM.
    MatureDram,
    /// Mark-region mature space on PCM.
    MaturePcm,
    /// Large object space on DRAM.
    LargeDram,
    /// Large object space on PCM.
    LargePcm,
}

impl SpaceKind {
    /// Young spaces are collected at every minor collection.
    pub(crate) fn is_young(self) -> bool {
        matches!(self, SpaceKind::Nursery | SpaceKind::Observer)
    }

    /// Spaces whose storage is on the emulated PCM socket under a hybrid
    /// plan.
    pub(crate) fn is_pcm_side(self) -> bool {
        matches!(self, SpaceKind::MaturePcm | SpaceKind::LargePcm)
    }

    /// Large-object spaces (non-moving, page granular).
    pub(crate) fn is_large(self) -> bool {
        matches!(self, SpaceKind::LargeDram | SpaceKind::LargePcm)
    }

    /// The provenance space tag for writes targeting this space.
    pub(crate) fn tag(self) -> hemu_types::SpaceTag {
        use hemu_types::SpaceTag;
        match self {
            SpaceKind::Nursery => SpaceTag::Nursery,
            SpaceKind::Observer => SpaceTag::Observer,
            SpaceKind::MatureDram => SpaceTag::MatureDram,
            SpaceKind::MaturePcm => SpaceTag::MaturePcm,
            SpaceKind::LargeDram | SpaceKind::LargePcm => SpaceTag::Large,
            SpaceKind::Boot => SpaceTag::Other,
        }
    }
}

// Bits of `ObjectInfo::flags`.
const WRITTEN: u8 = 1 << 0;
const MARKED: u8 = 1 << 1;
const LOGGED: u8 = 1 << 2;
const ALIVE: u8 = 1 << 3;

/// The metadata word of an object without a mark slot. Metadata slots are
/// byte addresses inside a chunk, so the all-ones address never occurs.
const NO_META: u64 = u64::MAX;

/// Everything the runtime knows about one object except its reference
/// fields: one 32-byte record per table slot.
///
/// Address, size and space sit together because the mutator paths and the
/// collector read them together. The reference fields live in the table's
/// shared arena ([`ObjectTable::ref_at`]), so a record owns no host
/// allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ObjectInfo {
    /// Current virtual address of the header.
    pub addr: Addr,
    /// Address of the object's one-byte GC mark slot in a metadata space,
    /// or `NO_META` (assigned on promotion into a mature or large space).
    meta: u64,
    /// Total size in bytes (header + reference slots + data payload).
    pub size: u32,
    /// First arena cell of the reference fields.
    refs_at: u32,
    /// Slot generation: bumped on every free, so stale ids report dead.
    generation: u32,
    /// Number of reference slots; fixed for the record's lifetime, since
    /// it sizes the object's arena range.
    ref_count: u16,
    /// Space the object currently lives in.
    pub space: SpaceKind,
    /// `WRITTEN | MARKED | LOGGED | ALIVE`.
    flags: u8,
}

impl ObjectInfo {
    /// Creates a fresh object record at `addr` in `space`.
    pub(crate) fn fresh(addr: Addr, size: u32, ref_count: usize, space: SpaceKind) -> Self {
        ObjectInfo {
            addr,
            meta: NO_META,
            size,
            refs_at: 0,
            generation: 0,
            ref_count: ref_count as u16,
            space,
            flags: ALIVE,
        }
    }

    fn flag(&self, bit: u8) -> bool {
        self.flags & bit != 0
    }

    fn set_flag(&mut self, bit: u8, on: bool) {
        if on {
            self.flags |= bit;
        } else {
            self.flags &= !bit;
        }
    }

    /// Set when the mutator writes the object while it is being observed
    /// (KG-W write monitoring), or while it lives in PCM large space.
    pub(crate) fn written(&self) -> bool {
        self.flag(WRITTEN)
    }

    /// Sets or clears the written bit.
    pub(crate) fn set_written(&mut self, on: bool) {
        self.set_flag(WRITTEN, on)
    }

    /// Mark state for tracing collections.
    pub(crate) fn marked(&self) -> bool {
        self.flag(MARKED)
    }

    /// Sets or clears the mark bit.
    pub(crate) fn set_marked(&mut self, on: bool) {
        self.set_flag(MARKED, on)
    }

    /// Set when the object is registered in a remembered set (write
    /// barrier dedup).
    pub(crate) fn logged(&self) -> bool {
        self.flag(LOGGED)
    }

    /// Sets or clears the logged bit.
    pub(crate) fn set_logged(&mut self, on: bool) {
        self.set_flag(LOGGED, on)
    }

    /// Number of reference slots.
    pub(crate) fn ref_count(&self) -> u16 {
        self.ref_count
    }

    /// `false` once the slot has been freed.
    pub(crate) fn alive(&self) -> bool {
        self.flag(ALIVE)
    }

    /// Address of the object's GC mark slot, if it has one.
    pub(crate) fn meta(&self) -> Option<Addr> {
        (self.meta != NO_META).then_some(Addr::new(self.meta))
    }

    /// Assigns the object's GC mark slot.
    pub(crate) fn set_meta(&mut self, slot: Addr) {
        debug_assert_ne!(slot.raw(), NO_META);
        self.meta = slot.raw();
    }

    /// Address of reference slot `i` (slots follow the header).
    pub(crate) fn ref_slot_addr(&self, i: usize) -> Addr {
        self.addr
            .offset(HEADER_SIZE as u64 + (i as u64) * WORD as u64)
    }

    /// Address of the data payload (after header and reference slots).
    pub(crate) fn data_addr(&self) -> Addr {
        self.addr
            .offset(HEADER_SIZE as u64 + self.ref_count as u64 * WORD as u64)
    }

    /// Size of the data payload in bytes.
    pub(crate) fn data_size(&self) -> u32 {
        self.size - HEADER_SIZE - self.ref_count as u32 * WORD as u32
    }
}

/// Computes the total size of an object with `ref_count` reference slots
/// and `data_bytes` of scalar payload, rounded up to word alignment.
pub(crate) fn object_size(ref_count: usize, data_bytes: usize) -> u32 {
    let raw = HEADER_SIZE as usize + ref_count * WORD + data_bytes;
    (raw.div_ceil(WORD) * WORD) as u32
}

/// An empty reference field in the arena. A raw id of all ones would need
/// table slot `u32::MAX`, which the table never hands out.
const NO_REF: u64 = u64::MAX;

/// Every object's reference fields in one buffer: an object's fields are
/// the `ref_count` cells starting at its `refs_at`. A freed range is kept
/// on the free list for its length and handed to the next object with that
/// many fields, so steady allocation reuses cells instead of growing the
/// buffer.
#[derive(Debug, Default)]
struct RefArena {
    cells: Vec<u64>,
    /// `free[n]`: starts of free ranges of `n` cells.
    free: Vec<Vec<u32>>,
}

impl RefArena {
    /// Takes a range of `len` empty cells and returns its start.
    fn alloc(&mut self, len: u16) -> u32 {
        let n = len as usize;
        if n == 0 {
            return 0;
        }
        if let Some(start) = self.free.get_mut(n).and_then(Vec::pop) {
            let s = start as usize;
            self.cells[s..s + n].fill(NO_REF);
            return start;
        }
        let start = self.cells.len();
        assert!(start <= u32::MAX as usize, "reference arena full");
        self.cells.resize(start + n, NO_REF);
        start as u32
    }

    /// Returns the range of `len` cells at `start` for reuse.
    fn release(&mut self, start: u32, len: u16) {
        let n = len as usize;
        if n == 0 {
            return;
        }
        if self.free.len() <= n {
            self.free.resize_with(n + 1, Vec::new);
        }
        self.free[n].push(start);
    }
}

/// The table of all objects: one [`ObjectInfo`] record per slot, the
/// shared reference arena, and generation-tagged slot recycling.
///
/// Freed slots are reused last-freed first. The collectors free dead
/// objects in ascending slot order, so the ids handed out after a
/// collection depend only on which slots died.
#[derive(Debug, Default)]
pub(crate) struct ObjectTable {
    slots: Vec<ObjectInfo>,
    refs: RefArena,
    free: Vec<u32>,
    live_count: usize,
}

impl ObjectTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers a new object, with every reference field empty, and
    /// returns its id.
    pub(crate) fn insert(&mut self, mut info: ObjectInfo) -> ObjectId {
        debug_assert!(info.alive());
        self.live_count += 1;
        info.refs_at = self.refs.alloc(info.ref_count);
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            info.generation = slot.generation;
            *slot = info;
            ObjectId::new(idx, info.generation)
        } else {
            // Slot u32::MAX stays unused: its ids could alias `NO_REF`.
            assert!(self.slots.len() < u32::MAX as usize, "object table full");
            info.generation = 0;
            self.slots.push(info);
            ObjectId::new(self.slots.len() as u32 - 1, 0)
        }
    }

    /// Removes a dead object, making its slot reusable.
    ///
    /// # Panics
    ///
    /// Panics if the object is already dead.
    pub(crate) fn remove(&mut self, id: ObjectId) {
        let idx = id.index();
        let slot = &mut self.slots[idx];
        assert_eq!(
            slot.generation,
            id.generation(),
            "remove of stale handle {id}"
        );
        assert!(slot.alive(), "double free of {id}");
        slot.set_flag(ALIVE, false);
        slot.generation = slot.generation.wrapping_add(1);
        self.refs.release(slot.refs_at, slot.ref_count);
        self.live_count -= 1;
        self.free.push(idx as u32);
    }

    /// Removes every object in `ids`, freeing their slots in ascending slot
    /// order whatever the order of `ids`. That is the order a walk over the
    /// whole table frees them in, so the ids handed out next do not depend
    /// on how the caller found the dead.
    ///
    /// # Panics
    ///
    /// Panics if an id is dead or stale, or appears twice.
    pub(crate) fn remove_in_slot_order(&mut self, ids: &[ObjectId]) {
        let mut dead = vec![0u64; self.slots.len().div_ceil(64)];
        for &id in ids {
            assert!(self.is_live(id), "remove of dead or stale handle {id}");
            let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
            assert!(dead[word] & bit == 0, "double free of {id}");
            dead[word] |= bit;
        }
        for (word, mut bits) in dead.into_iter().enumerate() {
            while bits != 0 {
                let idx = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.remove(ObjectId::new(idx as u32, self.slots[idx].generation));
            }
        }
    }

    /// Immutable access to an object.
    ///
    /// # Panics
    ///
    /// Panics if the object is dead (use-after-free in the workload or
    /// collector).
    #[inline]
    pub(crate) fn get(&self, id: ObjectId) -> &ObjectInfo {
        debug_assert!(self.is_live(id), "use of dead or stale object {id}");
        &self.slots[id.index()]
    }

    /// Mutable access to an object.
    ///
    /// # Panics
    ///
    /// Panics if the object is dead.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: ObjectId) -> &mut ObjectInfo {
        debug_assert!(self.is_live(id), "use of dead or stale object {id}");
        &mut self.slots[id.index()]
    }

    /// Arena index of reference field `i` of a live object.
    #[inline]
    fn cell(&self, id: ObjectId, i: usize) -> usize {
        let info = self.get(id);
        assert!(i < info.ref_count as usize, "ref slot {i} out of range");
        info.refs_at as usize + i
    }

    /// Reference field `i` of a live object.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for the object.
    #[inline]
    pub(crate) fn ref_at(&self, id: ObjectId, i: usize) -> Option<ObjectId> {
        let raw = self.refs.cells[self.cell(id, i)];
        (raw != NO_REF).then_some(ObjectId(raw))
    }

    /// Stores `target` into reference field `i` of a live object.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for the object.
    #[inline]
    pub(crate) fn set_ref(&mut self, id: ObjectId, i: usize, target: Option<ObjectId>) {
        let c = self.cell(id, i);
        self.refs.cells[c] = target.map_or(NO_REF, |t| t.0);
    }

    /// The non-empty reference fields of a live object, in slot order.
    pub(crate) fn refs(&self, id: ObjectId) -> impl Iterator<Item = ObjectId> + '_ {
        let info = self.get(id);
        let start = info.refs_at as usize;
        self.refs.cells[start..start + info.ref_count as usize]
            .iter()
            .filter(|&&raw| raw != NO_REF)
            .map(|&raw| ObjectId(raw))
    }

    /// Returns `true` if `id` currently names a live object (stale handles
    /// from a previous occupant of the slot report dead).
    pub(crate) fn is_live(&self, id: ObjectId) -> bool {
        self.slots
            .get(id.index())
            .is_some_and(|s| s.alive() && s.generation == id.generation())
    }

    /// Number of live objects.
    pub(crate) fn live_count(&self) -> usize {
        self.live_count
    }

    /// Number of slots, live or free: the bound for [`ObjectTable::live_at`].
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The id of the live object in slot `index`, if the slot is in use.
    #[inline]
    pub(crate) fn live_at(&self, index: usize) -> Option<ObjectId> {
        let s = &self.slots[index];
        s.alive().then(|| ObjectId::new(index as u32, s.generation))
    }

    /// Cells in the reference arena, free or in use.
    #[cfg(test)]
    pub(crate) fn ref_cells(&self) -> usize {
        self.refs.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(size: u32, refs: usize) -> ObjectInfo {
        ObjectInfo::fresh(Addr::new(0x1000), size, refs, SpaceKind::Nursery)
    }

    /// The ids of all live objects, in slot order.
    fn live_ids(t: &ObjectTable) -> Vec<ObjectId> {
        (0..t.slot_count()).filter_map(|i| t.live_at(i)).collect()
    }

    #[test]
    fn object_size_is_word_aligned_and_includes_header() {
        assert_eq!(object_size(0, 0), 16);
        assert_eq!(object_size(2, 0), 32);
        assert_eq!(object_size(0, 1), 24);
        assert_eq!(object_size(1, 9), 40);
        assert_eq!(object_size(0, 8) % WORD as u32, 0);
    }

    #[test]
    fn slot_addresses_follow_header_then_refs() {
        let o = obj(object_size(2, 8), 2);
        assert_eq!(o.ref_slot_addr(0), Addr::new(0x1010));
        assert_eq!(o.ref_slot_addr(1), Addr::new(0x1018));
        assert_eq!(o.data_addr(), Addr::new(0x1020));
        assert_eq!(o.data_size(), 8);
    }

    #[test]
    fn insert_remove_recycles_slots() {
        let mut t = ObjectTable::new();
        let a = t.insert(obj(16, 0));
        let b = t.insert(obj(16, 0));
        assert_ne!(a, b);
        t.remove(a);
        assert!(!t.is_live(a));
        let c = t.insert(obj(16, 0));
        assert_eq!(c.index(), a.index(), "slot is recycled");
        assert_ne!(c, a, "but the generation tag differs");
        assert!(!t.is_live(a), "stale handle stays dead");
        assert!(t.is_live(c));
        assert_eq!(t.slot_count(), 2);
    }

    #[test]
    fn live_accounting_tracks_removals() {
        let mut t = ObjectTable::new();
        let a = t.insert(obj(100, 0));
        let _b = t.insert(obj(28, 0));
        assert_eq!(t.live_count(), 2);
        t.remove(a);
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn double_remove_panics() {
        let mut t = ObjectTable::new();
        let a = t.insert(obj(16, 0));
        t.remove(a);
        t.remove(a);
    }

    #[test]
    fn live_at_skips_dead() {
        let mut t = ObjectTable::new();
        let a = t.insert(obj(16, 0));
        let b = t.insert(obj(16, 0));
        t.remove(a);
        assert_eq!(live_ids(&t), vec![b]);
    }

    #[test]
    fn a_slot_costs_at_most_32_bytes() {
        // The record carries the slot generation too, so it is the whole
        // per-slot cost; reference fields are 8 bytes each in the arena.
        assert!(std::mem::size_of::<ObjectInfo>() <= 32);
    }

    #[test]
    fn flags_and_meta_round_trip() {
        let mut o = obj(32, 1);
        assert!(o.alive() && !o.written() && !o.marked() && !o.logged());
        assert_eq!(o.meta(), None);
        o.set_marked(true);
        o.set_logged(true);
        o.set_written(true);
        o.set_marked(false);
        assert!(o.alive() && o.written() && !o.marked() && o.logged());
        o.set_meta(Addr::new(0));
        assert_eq!(o.meta(), Some(Addr::new(0)));
    }

    #[test]
    fn steady_same_size_churn_does_not_grow_the_arena() {
        let mut t = ObjectTable::new();
        let mut cells = None;
        for round in 0..50 {
            let ids: Vec<_> = (0..100).map(|i| t.insert(obj(64, i % 5))).collect();
            for (i, &id) in ids.iter().enumerate() {
                if let Some(r) = ids.get(i + 1).filter(|_| t.get(id).ref_count() > 0) {
                    t.set_ref(id, 0, Some(*r));
                }
            }
            for id in ids {
                t.remove(id);
            }
            match cells {
                None => cells = Some(t.ref_cells()),
                Some(c) => assert_eq!(t.ref_cells(), c, "round {round}"),
            }
        }
        assert_eq!(cells, Some(100 / 5 * (1 + 2 + 3 + 4)));
    }

    /// A reference model of the table: one record per slot owning a `Vec`
    /// of fields, a generation column and a LIFO free list.
    #[derive(Default)]
    struct ModelTable {
        slots: Vec<Option<Vec<Option<ObjectId>>>>,
        generations: Vec<u32>,
        free: Vec<u32>,
    }

    impl ModelTable {
        fn insert(&mut self, refs: usize) -> ObjectId {
            if let Some(idx) = self.free.pop() {
                self.slots[idx as usize] = Some(vec![None; refs]);
                ObjectId::new(idx, self.generations[idx as usize])
            } else {
                self.slots.push(Some(vec![None; refs]));
                self.generations.push(0);
                ObjectId::new(self.slots.len() as u32 - 1, 0)
            }
        }

        fn remove(&mut self, id: ObjectId) {
            self.slots[id.index()] = None;
            self.generations[id.index()] += 1;
            self.free.push(id.index() as u32);
        }

        fn is_live(&self, id: ObjectId) -> bool {
            self.slots.get(id.index()).is_some_and(Option::is_some)
                && self.generations[id.index()] == id.generation()
        }

        fn refs(&self, id: ObjectId) -> &[Option<ObjectId>] {
            self.slots[id.index()].as_deref().unwrap_or(&[])
        }

        fn iter_live(&self) -> Vec<ObjectId> {
            (0..self.slots.len())
                .filter(|&i| self.slots[i].is_some())
                .map(|i| ObjectId::new(i as u32, self.generations[i]))
                .collect()
        }
    }

    #[test]
    fn table_agrees_with_the_vec_per_object_model() {
        let mut rng = hemu_types::DeterministicRng::seeded(0x0b7ec7);
        let mut t = ObjectTable::new();
        let mut m = ModelTable::default();
        // Every id ever handed out, so stale handles get probed too.
        let mut seen: Vec<ObjectId> = Vec::new();
        for step in 0..20_000 {
            let live = m.iter_live();
            match rng.below(100) {
                0..=44 => {
                    let refs = if rng.chance(0.05) {
                        rng.range(8, 300) as usize
                    } else {
                        rng.below(6) as usize
                    };
                    let size = object_size(refs, rng.below(64) as usize);
                    let id = t.insert(obj(size, refs));
                    assert_eq!(id, m.insert(refs), "step {step}: insert");
                    seen.push(id);
                }
                45..=54 if !live.is_empty() => {
                    let id = live[rng.below(live.len() as u64) as usize];
                    t.remove(id);
                    m.remove(id);
                }
                55 if !live.is_empty() => {
                    // A collector sweep: the model frees a batch in
                    // ascending slot order, the table gets it reversed.
                    let mut batch: Vec<_> = live.into_iter().filter(|_| rng.chance(0.3)).collect();
                    for &id in &batch {
                        m.remove(id);
                    }
                    batch.reverse();
                    t.remove_in_slot_order(&batch);
                }
                56..=84 if !live.is_empty() => {
                    let id = live[rng.below(live.len() as u64) as usize];
                    let n = m.refs(id).len();
                    if n > 0 {
                        let i = rng.below(n as u64) as usize;
                        let target = (!seen.is_empty() && rng.chance(0.8))
                            .then(|| seen[rng.below(seen.len() as u64) as usize]);
                        t.set_ref(id, i, target);
                        m.slots[id.index()].as_mut().unwrap()[i] = target;
                    }
                }
                _ => {
                    for &id in seen.iter().rev().take(64) {
                        assert_eq!(t.is_live(id), m.is_live(id), "step {step}: {id}");
                        if m.is_live(id) {
                            let got: Vec<_> =
                                (0..m.refs(id).len()).map(|i| t.ref_at(id, i)).collect();
                            assert_eq!(got, m.refs(id), "step {step}: refs of {id}");
                            let some: Vec<_> = m.refs(id).iter().flatten().copied().collect();
                            assert_eq!(t.refs(id).collect::<Vec<_>>(), some);
                        }
                    }
                }
            }
            if step % 500 == 0 {
                assert_eq!(live_ids(&t), m.iter_live());
                assert_eq!(t.live_count(), m.iter_live().len());
                assert_eq!(t.slot_count(), m.slots.len());
            }
        }
        assert!(t.live_count() > 50, "the run keeps a sizeable table");
    }

    #[test]
    fn space_kind_predicates() {
        assert!(SpaceKind::Nursery.is_young());
        assert!(SpaceKind::Observer.is_young());
        assert!(!SpaceKind::MaturePcm.is_young());
        assert!(SpaceKind::MaturePcm.is_pcm_side());
        assert!(!SpaceKind::MatureDram.is_pcm_side());
        assert!(SpaceKind::LargePcm.is_large());
    }
}
