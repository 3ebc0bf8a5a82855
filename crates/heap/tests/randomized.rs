//! Seeded randomized tests for the managed heap.
//!
//! These check the heap's core properties with the in-tree deterministic
//! PRNG, so they run on every plain `cargo test` with zero external
//! dependencies. Each case is generated
//! from a fixed seed and replays an arbitrary mutator history: allocate,
//! link, drop roots, mutate, force full collections.

use hemu_heap::heap::RootSlot;
use hemu_heap::{CollectorKind, ManagedHeap, ObjectId};
use hemu_machine::{CtxId, Machine, MachineProfile};
use hemu_types::{ByteSize, DeterministicRng, SocketId};
use std::collections::HashSet;

/// A mutator action the randomized tests replay.
#[derive(Debug, Clone)]
enum Op {
    Alloc {
        refs: usize,
        data: usize,
        rooted: bool,
    },
    Link {
        a: usize,
        b: usize,
        slot: usize,
    },
    DropRoot {
        i: usize,
    },
    Mutate {
        a: usize,
    },
    FullGc,
}

/// Draws one op, weighted 5 alloc : 3 link : 2 drop-root : 2 mutate :
/// 1 full-gc.
fn draw_op(rng: &mut DeterministicRng) -> Op {
    match rng.below(13) {
        0..=4 => Op::Alloc {
            refs: rng.below(4) as usize,
            data: rng.below(200) as usize,
            rooted: rng.chance(0.5),
        },
        5..=7 => Op::Link {
            a: rng.below(64) as usize,
            b: rng.below(64) as usize,
            slot: rng.below(4) as usize,
        },
        8..=9 => Op::DropRoot {
            i: rng.below(32) as usize,
        },
        10..=11 => Op::Mutate {
            a: rng.below(64) as usize,
        },
        _ => Op::FullGc,
    }
}

fn draw_ops(rng: &mut DeterministicRng, max_len: u64) -> Vec<Op> {
    let len = rng.range(1, max_len);
    (0..len).map(|_| draw_op(rng)).collect()
}

fn setup(kind: CollectorKind) -> (Machine, ManagedHeap) {
    let mut m = Machine::new(MachineProfile::emulation());
    let socket = if kind == CollectorKind::PcmOnly {
        SocketId::PCM
    } else {
        SocketId::DRAM
    };
    let proc = m.add_process(socket);
    let cfg = kind.config(ByteSize::from_kib(256), ByteSize::from_mib(16));
    let heap = ManagedHeap::new(&mut m, proc, CtxId(0), cfg).unwrap();
    (m, heap)
}

/// Replays ops; returns the machine, the heap, the allocation log, and the
/// surviving roots.
fn replay(
    kind: CollectorKind,
    ops: &[Op],
) -> (Machine, ManagedHeap, Vec<ObjectId>, Vec<(usize, RootSlot)>) {
    let (mut m, mut heap) = setup(kind);
    let mut log: Vec<ObjectId> = Vec::new();
    let mut ref_counts: Vec<usize> = Vec::new();
    let mut data_sizes: Vec<usize> = Vec::new();
    let mut roots: Vec<(usize, RootSlot)> = Vec::new();
    for op in ops {
        match *op {
            Op::Alloc { refs, data, rooted } => {
                let o = heap.alloc(&mut m, refs, data).unwrap();
                log.push(o);
                ref_counts.push(refs);
                data_sizes.push(data);
                if rooted {
                    roots.push((log.len() - 1, heap.new_root(Some(o))));
                }
            }
            Op::Link { a, b, slot } => {
                if log.is_empty() {
                    continue;
                }
                let (ai, bi) = (a % log.len(), b % log.len());
                if ref_counts[ai] == 0 {
                    continue;
                }
                let (oa, ob) = (log[ai], log[bi]);
                if heap.is_live(oa) && heap.is_live(ob) {
                    heap.write_ref(&mut m, oa, slot % ref_counts[ai], Some(ob))
                        .unwrap();
                }
            }
            Op::DropRoot { i } => {
                if roots.is_empty() {
                    continue;
                }
                let (_, slot) = roots.swap_remove(i % roots.len());
                heap.drop_root(slot);
            }
            Op::Mutate { a } => {
                if log.is_empty() {
                    continue;
                }
                let i = a % log.len();
                let o = log[i];
                if heap.is_live(o) && data_sizes[i] > 0 {
                    heap.write_data(&mut m, o, 0, 1).unwrap();
                }
            }
            Op::FullGc => heap.collect_full(&mut m).unwrap(),
        }
    }
    (m, heap, log, roots)
}

/// Rooted objects are always live, under every collector configuration.
#[test]
fn rooted_objects_never_die() {
    let mut rng = DeterministicRng::seeded(0x6865_6170_0001);
    for case in 0..24 {
        let ops = draw_ops(&mut rng, 120);
        for kind in [
            CollectorKind::PcmOnly,
            CollectorKind::KgN,
            CollectorKind::KgW,
        ] {
            let (_m, heap, log, roots) = replay(kind, &ops);
            for (idx, _) in &roots {
                assert!(
                    heap.is_live(log[*idx]),
                    "case {case}, {kind:?}: rooted object died"
                );
            }
        }
    }
}

/// After a full collection, the live set is exactly the set reachable from
/// roots (and boot objects): no floating garbage survives a full trace, and
/// nothing reachable is lost.
#[test]
fn full_gc_retains_exactly_the_reachable_set() {
    let mut rng = DeterministicRng::seeded(0x6865_6170_0002);
    for case in 0..24 {
        let ops = draw_ops(&mut rng, 120);
        let (mut m, mut heap, log, roots) = replay(CollectorKind::KgW, &ops);
        heap.collect_full(&mut m).unwrap();

        // Reference reachability over the shadow graph.
        let mut reachable: HashSet<ObjectId> = HashSet::new();
        let mut stack: Vec<ObjectId> = roots.iter().map(|(i, _)| log[*i]).collect();
        while let Some(o) = stack.pop() {
            if !reachable.insert(o) {
                continue;
            }
            assert!(
                heap.is_live(o),
                "case {case}: reachable object {o} was collected"
            );
            let slots = heap.ref_slots(o);
            let refs: Vec<ObjectId> = (0..slots)
                .filter_map(|slot| heap.read_ref(&mut m, o, slot).ok().flatten())
                .collect();
            stack.extend(refs);
        }
        assert_eq!(
            heap.live_objects(),
            reachable.len(),
            "case {case}: live set diverges from the reachable set after full GC"
        );
    }
}

/// GC pause accounting never goes backwards and is consistent with the
/// collection counters: collections imply pause cycles and vice versa.
#[test]
fn pause_accounting_tracks_collections() {
    let mut rng = DeterministicRng::seeded(0x6865_6170_0003);
    for case in 0..16 {
        let ops = draw_ops(&mut rng, 150);
        let (_m, heap, _, _) = replay(CollectorKind::KgW, &ops);
        let s = heap.stats();
        assert_eq!(
            s.total_gcs() > 0,
            s.pause_cycles > 0,
            "case {case}: {} GCs but {} pause cycles",
            s.total_gcs(),
            s.pause_cycles
        );
    }
}

/// Determinism: replaying the same ops gives identical traffic, timing, and
/// GC behaviour.
#[test]
fn replay_is_deterministic() {
    let mut rng = DeterministicRng::seeded(0x6865_6170_0004);
    for _case in 0..12 {
        let ops = draw_ops(&mut rng, 80);
        let (m1, h1, _, _) = replay(CollectorKind::KgW, &ops);
        let (m2, h2, _, _) = replay(CollectorKind::KgW, &ops);
        assert_eq!(m1.pcm_writes(), m2.pcm_writes());
        assert_eq!(m1.elapsed(), m2.elapsed());
        assert_eq!(h1.stats().minor_gcs, h2.stats().minor_gcs);
        assert_eq!(h1.stats().pause_cycles, h2.stats().pause_cycles);
    }
}
