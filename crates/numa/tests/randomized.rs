//! Seeded randomized tests for the NUMA memory substrate.
//!
//! These check the substrate's core properties with the in-tree
//! deterministic PRNG, so they run on every plain `cargo test` with zero
//! external dependencies. Failures print the seed of
//! the offending case; rerunning is fully reproducible.

use hemu_fault::{EnduranceConfig, EnduranceModel};
use hemu_numa::{AddressSpace, NumaConfig, NumaMemory, PageHeat};
use hemu_types::{
    AccessKind, Addr, ByteSize, DeterministicRng, HemuError, LineAddr, PageNum, SocketId,
    WriteCause, PAGE_SIZE,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

fn mem() -> NumaMemory {
    NumaMemory::new(NumaConfig {
        sockets: 2,
        capacity_per_socket: ByteSize::from_mib(256),
    })
}

/// Translation of any two addresses on the same virtual page lands on the
/// same frame with offsets preserved.
#[test]
fn translation_preserves_page_offsets() {
    let mut rng = DeterministicRng::seeded(0x7261_6e64_0001);
    for case in 0..256 {
        let base = rng.below(1 << 32);
        let off = rng.below(PAGE_SIZE as u64);
        let mut m = mem();
        let mut asp = AddressSpace::new();
        let page_base = Addr::new(base).page().base();
        let pa_base = asp.translate(page_base, &mut m).unwrap();
        let pa_off = asp.translate(page_base.offset(off), &mut m).unwrap();
        assert_eq!(
            pa_off.raw() - pa_base.raw(),
            off,
            "case {case}: base {base:#x} off {off}"
        );
        assert_eq!(
            pa_base.frame(),
            pa_off.frame(),
            "case {case}: base {base:#x} off {off}"
        );
    }
}

/// After an arbitrary sequence of mbind calls, every address reports a
/// socket consistent with the *last* bind covering it (or the default).
#[test]
fn mbind_last_writer_wins() {
    let mut rng = DeterministicRng::seeded(0x7261_6e64_0002);
    for case in 0..128 {
        let mut asp = AddressSpace::new();
        // Reference model: per-page socket array.
        let mut reference = [SocketId::DRAM; 96];
        let bind_count = rng.range(1, 12);
        for _ in 0..bind_count {
            let start_page = rng.below(64);
            let pages = rng.range(1, 16);
            let socket = if rng.chance(0.5) {
                SocketId::PCM
            } else {
                SocketId::DRAM
            };
            asp.mbind(
                Addr::new(start_page * PAGE_SIZE as u64),
                ByteSize::new(pages * PAGE_SIZE as u64),
                socket,
            );
            for p in start_page..(start_page + pages).min(96) {
                reference[p as usize] = socket;
            }
        }
        for p in 0..96u64 {
            assert_eq!(
                asp.socket_of(Addr::new(p * PAGE_SIZE as u64)),
                reference[p as usize],
                "case {case}, page {p}"
            );
        }
    }
}

/// Frames are conserved: alloc/free sequences never lose or duplicate a
/// frame, and in-use counts match a reference model.
#[test]
fn frame_conservation() {
    let mut rng = DeterministicRng::seeded(0x7261_6e64_0003);
    for case in 0..64 {
        let mut m = NumaMemory::new(NumaConfig {
            sockets: 2,
            capacity_per_socket: ByteSize::from_mib(1),
        });
        let mut held = Vec::new();
        let ops = rng.range(1, 200);
        for op in 0..ops {
            if rng.chance(0.5) || held.is_empty() {
                if let Ok(f) = m.allocate_frame(SocketId::DRAM) {
                    assert!(
                        !held.contains(&f),
                        "case {case} op {op}: frame {f} handed out twice"
                    );
                    held.push(f);
                }
            } else {
                let f = held.pop().unwrap();
                m.free_frame(f).unwrap();
            }
            assert_eq!(
                m.socket(SocketId::DRAM).frames_in_use(),
                held.len() as u64,
                "case {case} op {op}"
            );
        }
    }
}

/// socket_of_line agrees with the frame partition for any frame handed out
/// by either socket.
#[test]
fn line_routing_matches_frame_owner() {
    let mut rng = DeterministicRng::seeded(0x7261_6e64_0004);
    for case in 0..128 {
        let mut m = mem();
        let socket = if rng.chance(0.5) {
            SocketId::PCM
        } else {
            SocketId::DRAM
        };
        let line_in_page = rng.below(64);
        let f = m.allocate_frame(socket).unwrap();
        let line = hemu_types::LineAddr::new(f.phys_base().line().raw() + line_in_page);
        assert_eq!(m.socket_of_line(line), socket, "case {case}");
    }
}

/// The per-frame observers as plain maps, one map per observer: the
/// reference semantics the frame table must reproduce op for op.
struct Model {
    frames_per_socket: u64,
    endurance: EnduranceModel,
    /// Frame → heat; present once any line of the frame was recorded.
    heat: BTreeMap<u64, PageHeat>,
    /// Frame → owning tenant.
    owner: HashMap<u64, u16>,
    /// PCM line → writes.
    wear: BTreeMap<u64, u64>,
    retired: BTreeSet<u64>,
    /// Frames on a free list.
    free: BTreeSet<u64>,
    pending: Vec<PageNum>,
    failed: u64,
    pcm: Vec<u64>,
    dram: Vec<u64>,
    unattributed: [u64; 2],
}

impl Model {
    fn record(&mut self, line: LineAddr, kind: AccessKind) {
        let frame = line.frame().raw();
        let pcm = frame / self.frames_per_socket == 1;
        let h = self.heat.entry(frame).or_default();
        match kind {
            AccessKind::Read => {
                h.reads += 1;
                h.epoch_reads += 1;
                return;
            }
            AccessKind::Write => {
                h.writes += 1;
                h.epoch_writes += 1;
            }
        }
        match self.owner.get(&frame) {
            Some(&t) if pcm => self.pcm[t as usize] += 1,
            Some(&t) => self.dram[t as usize] += 1,
            None => self.unattributed[pcm as usize] += 1,
        }
        if pcm {
            let count = self.wear.entry(line.raw()).or_default();
            *count += 1;
            if *count == self.endurance.line_budget(line) {
                self.failed += 1;
                if self.retired.insert(frame) {
                    self.pending.push(line.frame());
                }
            }
        }
    }

    /// A free frame cannot be freed again; a retired one is dropped.
    fn free(&mut self, frame: PageNum) -> bool {
        if self.free.contains(&frame.raw()) {
            return false;
        }
        if !self.retired.contains(&frame.raw()) {
            self.free.insert(frame.raw());
        }
        self.owner.remove(&frame.raw());
        true
    }

    fn assign(&mut self, frame: PageNum, tenant: u16) {
        if (tenant as usize) < self.pcm.len() {
            self.owner.insert(frame.raw(), tenant);
        }
    }

    /// Owner moves before the copy, heat after it with epoch deltas
    /// restarted; wear and retirement stay with the physical frame.
    fn copy_page(&mut self, old: PageNum, new: PageNum) {
        if let Some(t) = self.owner.remove(&old.raw()) {
            self.owner.insert(new.raw(), t);
        }
        let (old0, new0) = (old.phys_base().line().raw(), new.phys_base().line().raw());
        for i in 0..64 {
            self.record(LineAddr::new(old0 + i), AccessKind::Read);
            self.record(LineAddr::new(new0 + i), AccessKind::Write);
        }
        if let Some(mut h) = self.heat.remove(&old.raw()) {
            h.epoch_reads = 0;
            h.epoch_writes = 0;
            self.heat.insert(new.raw(), h);
        }
    }

    fn check(&self, m: &mut NumaMemory, case: u64, op: u64) {
        let heat: Vec<(PageNum, PageHeat)> = m.page_heat().unwrap().collect();
        let want: Vec<(PageNum, PageHeat)> = self
            .heat
            .iter()
            .map(|(&f, &h)| (PageNum::new(f), h))
            .collect();
        assert_eq!(heat, want, "case {case} op {op}: heat sequence");

        let t = m.tenancy().unwrap();
        for i in 0..self.pcm.len() {
            assert_eq!(
                (t.pcm_lines(i), t.dram_lines(i)),
                (self.pcm[i], self.dram[i]),
                "case {case} op {op}: tenant {i}"
            );
        }
        assert_eq!(
            [t.unattributed_dram(), t.unattributed_pcm()],
            self.unattributed,
            "case {case} op {op}: unattributed"
        );

        let w = m.wear().unwrap();
        let lines: Vec<(u64, u64)> = w
            .pages()
            .flat_map(|(f, counts)| {
                let line0 = f.phys_base().line().raw();
                (0..64u64).map(move |i| (line0 + i, counts[i as usize]))
            })
            .filter(|&(_, c)| c > 0)
            .collect();
        let want: Vec<(u64, u64)> = self.wear.iter().map(|(&l, &c)| (l, c)).collect();
        assert_eq!(lines, want, "case {case} op {op}: wear rows");
        assert_eq!(w.lines_touched(), self.wear.len() as u64);
        assert_eq!(
            w.max_line_writes(),
            self.wear.values().copied().max().unwrap_or(0)
        );

        assert_eq!(
            m.retired_pages(SocketId::PCM),
            self.retired.len() as u64,
            "case {case} op {op}: retired pages"
        );
        assert_eq!(m.retired_pages(SocketId::DRAM), 0);
        assert_eq!(m.failed_lines(), self.failed, "case {case} op {op}");
        assert_eq!(
            m.take_pending_retirements(),
            self.pending,
            "case {case} op {op}: pending retirements"
        );
    }
}

/// The frame table against the plain-map model: a seeded stream of reads
/// and writes on both sockets, tenant assignments, frees (double frees
/// must be rejected), page copies,
/// epoch resets and counter resets, with page heat, tenancy, wear and
/// endurance all on. Every observable of every observer must agree after
/// every op.
#[test]
fn frame_table_matches_the_plain_map_model() {
    let mut rng = DeterministicRng::seeded(0x7261_6e64_0005);
    // 1024 frames per socket: four record chunks each.
    let capacity = ByteSize::from_mib(4);
    let frames_per_socket = capacity.bytes() / PAGE_SIZE as u64;
    for case in 0..16 {
        let cfg = EnduranceConfig {
            budget_writes: 8,
            variability: 0.25,
            seed: 0xF4A3 + case,
        };
        let mut m = NumaMemory::new(NumaConfig {
            sockets: 2,
            capacity_per_socket: capacity,
        });
        m.enable_page_heat();
        m.enable_tenancy(3);
        m.enable_endurance(cfg);
        let mut model = Model {
            frames_per_socket,
            endurance: EnduranceModel::new(cfg),
            heat: BTreeMap::new(),
            owner: HashMap::new(),
            wear: BTreeMap::new(),
            retired: BTreeSet::new(),
            free: BTreeSet::new(),
            pending: Vec::new(),
            failed: 0,
            pcm: vec![0; 3],
            dram: vec![0; 3],
            unattributed: [0; 2],
        };
        // Hand out every frame the ops below can name.
        for socket in [SocketId::DRAM, SocketId::PCM] {
            for _ in 0..903 {
                m.allocate_frame(socket).unwrap();
            }
        }
        // A few frames per chunk on both sockets, so ops collide.
        let frame = |rng: &mut DeterministicRng| {
            let socket = rng.below(2);
            PageNum::new(socket * frames_per_socket + rng.below(4) * 300 + rng.below(3))
        };
        for op in 0..1500 {
            match rng.below(100) {
                0..=69 => {
                    let f = frame(&mut rng);
                    let line = LineAddr::new(f.phys_base().line().raw() + rng.below(4));
                    let kind = if rng.chance(0.6) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    m.record_line_access(line, kind, 0);
                    model.record(line, kind);
                }
                70..=79 => {
                    let (f, t) = (frame(&mut rng), rng.below(4) as u16);
                    m.tenancy_assign(f, t);
                    model.assign(f, t);
                }
                80..=85 => {
                    let f = frame(&mut rng);
                    let freed = m.free_frame(f).is_ok();
                    assert_eq!(freed, model.free(f), "case {case} op {op}: free {f}");
                }
                86..=93 => {
                    let (old, new) = (frame(&mut rng), frame(&mut rng));
                    if old != new {
                        m.copy_page(old, new, WriteCause::Other);
                        model.copy_page(old, new);
                    }
                }
                94..=97 => {
                    m.reset_page_heat_epoch();
                    for h in model.heat.values_mut() {
                        h.epoch_reads = 0;
                        h.epoch_writes = 0;
                    }
                }
                _ => {
                    m.reset_counters();
                    model.pcm.iter_mut().for_each(|c| *c = 0);
                    model.dram.iter_mut().for_each(|c| *c = 0);
                    model.unattributed = [0; 2];
                }
            }
            model.check(&mut m, case, op);
            model.pending.clear();
        }
        assert!(
            model.failed > 0,
            "case {case}: the stream never wore a line out"
        );
        assert!(!model.heat.is_empty() && !model.wear.is_empty());
    }
}

/// The page table as a plain map, plus the placement rules a fault follows.
#[derive(Default)]
struct TableModel {
    table: HashMap<u64, PageNum>,
    /// `mbind` ranges `[p0, p1)` in call order; the last covering one wins.
    policy: Vec<(u64, u64, SocketId)>,
    os_placement: Option<(SocketId, Option<SocketId>)>,
    faults: u64,
    unmaps: u64,
    remaps: u64,
}

impl TableModel {
    /// The socket a fault on `vpage` must allocate on, or `None` when
    /// placement has no free frame to offer.
    fn fault_socket(&self, vpage: u64, m: &NumaMemory) -> Option<SocketId> {
        let has_room = |s: SocketId| m.socket(s).frames_in_use() < m.socket(s).frame_count();
        match self.os_placement {
            Some((primary, _)) if has_room(primary) => Some(primary),
            Some((_, spill)) => spill.filter(|&s| has_room(s)),
            None => {
                let mut bound = self.policy.iter().rev();
                let socket = bound
                    .find(|&&(p0, p1, _)| (p0..p1).contains(&vpage))
                    .map_or(SocketId::DRAM, |&(_, _, s)| s);
                has_room(socket).then_some(socket)
            }
        }
    }
}

/// The two-level page table against a plain-map model: a seeded stream of
/// faults (some past the 1 TiB address bound), range unmaps, frame remaps,
/// `mbind` calls and OS placement on 32-frame sockets, so faults spill and
/// run out. After every op every touched page translates as the model
/// says, and every counter and each socket's frames in use agree.
#[test]
fn page_table_matches_the_plain_map_model() {
    const VA_LIMIT_PAGES: u64 = (1 << 40) / PAGE_SIZE as u64;
    let mut rng = DeterministicRng::seeded(0x7261_6e64_0006);
    let sockets = [SocketId::DRAM, SocketId::PCM];
    // Faults past the bound, out of memory, and spilled.
    let mut seen = [0u64; 3];
    for case in 0..48 {
        let mut m = NumaMemory::new(NumaConfig {
            sockets: 2,
            capacity_per_socket: ByteSize::from_kib(128),
        });
        let mut asp = AddressSpace::new();
        let mut model = TableModel::default();
        let mut touched = BTreeSet::new();
        // Runs of pages across leaf boundaries, a far leaf, and a run that
        // starts just below the address bound and crosses it.
        let bases = [0, 500, 1020, 1 << 27, VA_LIMIT_PAGES - 8];
        let page = |rng: &mut DeterministicRng| bases[rng.below(5) as usize] + rng.below(24);
        for op in 0..400 {
            match rng.below(100) {
                0..=54 => {
                    let vpage = page(&mut rng);
                    let addr = Addr::new(vpage * PAGE_SIZE as u64 + rng.below(PAGE_SIZE as u64));
                    let want = model.table.get(&vpage).copied();
                    let socket = model.fault_socket(vpage, &m);
                    let got = if rng.chance(0.5) {
                        asp.frame_of(addr, &mut m)
                    } else {
                        asp.translate(addr, &mut m).map(|pa| pa.frame())
                    };
                    match (want, got) {
                        (Some(want), got) => {
                            assert_eq!(got.ok(), Some(want), "case {case} op {op}")
                        }
                        (None, Err(HemuError::InvalidConfig(_))) => {
                            assert!(vpage >= VA_LIMIT_PAGES, "case {case} op {op}: {vpage}");
                            seen[0] += 1;
                        }
                        (None, Err(HemuError::OutOfPhysicalMemory { .. })) => {
                            assert_eq!(socket, None, "case {case} op {op}: room left");
                            seen[1] += 1;
                        }
                        (None, Ok(f)) => {
                            assert!(vpage < VA_LIMIT_PAGES, "case {case} op {op}: {vpage}");
                            assert_eq!(Some(m.socket_of_frame(f)), socket, "case {case} op {op}");
                            assert!(!model.table.values().any(|&g| g == f), "frame {f} shared");
                            model.table.insert(vpage, f);
                            model.faults += 1;
                            let primary = model.os_placement.map(|(p, _)| p);
                            seen[2] += u64::from(primary.is_some_and(|p| socket != Some(p)));
                        }
                        (None, Err(e)) => panic!("case {case} op {op}: {e}"),
                    }
                    touched.insert(vpage);
                }
                55..=69 => {
                    let (p0, pages) = (page(&mut rng), rng.range(1, 40));
                    let len = ByteSize::new(pages * PAGE_SIZE as u64);
                    asp.unmap(Addr::new(p0 * PAGE_SIZE as u64), len, &mut m)
                        .unwrap();
                    let before = model.table.len();
                    model.table.retain(|p, _| !(p0..p0 + pages).contains(p));
                    model.unmaps += (before - model.table.len()) as u64;
                }
                70..=81 => {
                    let mut mapped: Vec<PageNum> = model.table.values().copied().collect();
                    mapped.sort();
                    let old = if mapped.is_empty() || rng.chance(0.2) {
                        PageNum::new(rng.below(128))
                    } else {
                        mapped[rng.below(mapped.len() as u64) as usize]
                    };
                    let Ok(new) = m.allocate_frame(sockets[rng.below(2) as usize]) else {
                        continue;
                    };
                    let changed = asp.remap_frame(old, new);
                    let entry = model.table.values_mut().find(|f| **f == old);
                    assert_eq!(changed, u64::from(entry.is_some()), "case {case} op {op}");
                    // The page moved off `old`; an unused replacement goes back.
                    if let Some(f) = entry {
                        *f = new;
                        model.remaps += 1;
                        m.free_frame(old).unwrap();
                    } else {
                        m.free_frame(new).unwrap();
                    }
                }
                82..=93 => {
                    let (p0, pages) = (page(&mut rng), rng.range(1, 40));
                    let socket = sockets[rng.below(2) as usize];
                    let len = ByteSize::new(pages * PAGE_SIZE as u64);
                    asp.mbind(Addr::new(p0 * PAGE_SIZE as u64), len, socket);
                    model.policy.push((p0, p0 + pages, socket));
                }
                _ => {
                    let primary = sockets[rng.below(2) as usize];
                    let spill = rng.chance(0.5).then_some(sockets[rng.below(2) as usize]);
                    asp.set_os_placement(primary, spill);
                    model.os_placement = Some((primary, spill));
                }
            }
            for &vpage in &touched {
                let addr = Addr::new(vpage * PAGE_SIZE as u64 + 8);
                let want = model.table.get(&vpage).map(|f| f.phys_base().offset(8));
                assert_eq!(
                    asp.translate_existing(addr),
                    want,
                    "case {case} op {op}: page {vpage}"
                );
            }
            assert_eq!(
                (
                    asp.fault_count(),
                    asp.mapped_pages(),
                    asp.unmap_count(),
                    asp.remap_count()
                ),
                (model.faults, model.table.len(), model.unmaps, model.remaps),
                "case {case} op {op}: counters"
            );
            for s in sockets {
                let held = model.table.values().filter(|&&f| m.socket_of_frame(f) == s);
                assert_eq!(
                    m.socket(s).frames_in_use(),
                    held.count() as u64,
                    "case {case} op {op}"
                );
            }
        }
        assert!(model.unmaps > 0 && model.remaps > 0, "case {case}");
    }
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
}
