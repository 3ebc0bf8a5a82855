//! Whole-heap behavioural tests: allocation, collection, promotion,
//! write-rationing semantics, and the PCM-write ordering the paper reports.

use hemu_heap::SpaceKind;
use hemu_heap::{CollectorKind, ManagedHeap};
use hemu_machine::{CtxId, Machine, MachineProfile, ProcId};
use hemu_types::{ByteSize, HemuError, SocketId};

fn setup(kind: CollectorKind) -> (Machine, ManagedHeap) {
    let mut m = Machine::new(MachineProfile::emulation());
    let default_socket = if kind == CollectorKind::PcmOnly {
        SocketId::PCM
    } else {
        SocketId::DRAM
    };
    let proc = m.add_process(default_socket);
    let cfg = kind.config(ByteSize::from_mib(1), ByteSize::from_mib(32));
    let heap = ManagedHeap::new(&mut m, proc, CtxId(0), cfg).unwrap();
    (m, heap)
}

#[test]
fn allocation_starts_in_the_nursery() {
    let (mut m, mut heap) = setup(CollectorKind::KgN);
    let o = heap.alloc(&mut m, 1, 16).unwrap();
    assert_eq!(heap.space_of(o), SpaceKind::Nursery);
}

#[test]
fn nursery_exhaustion_triggers_minor_gc_and_dead_objects_vanish() {
    let (mut m, mut heap) = setup(CollectorKind::KgN);
    // Allocate ~2 MiB of garbage through a 1 MiB nursery.
    let mut last = None;
    for _ in 0..2048 {
        last = Some(heap.alloc(&mut m, 0, 1000).unwrap());
    }
    assert!(heap.stats().minor_gcs >= 1);
    // Only recently allocated, unrooted objects remain (those since the
    // last collection); the heap must not retain all 2048.
    assert!(heap.live_objects() < 1100, "live = {}", heap.live_objects());
    let _ = last;
}

#[test]
fn rooted_objects_survive_and_are_promoted_to_pcm_under_kg_n() {
    let (mut m, mut heap) = setup(CollectorKind::KgN);
    let keep = heap.alloc(&mut m, 0, 64).unwrap();
    let _root = heap.new_root(Some(keep));
    // Churn enough garbage to force several minor collections.
    for _ in 0..4096 {
        heap.alloc(&mut m, 0, 512).unwrap();
    }
    assert!(heap.is_live(keep));
    assert_eq!(
        heap.space_of(keep),
        SpaceKind::MaturePcm,
        "KG-N promotes survivors to PCM"
    );
}

#[test]
fn kg_w_survivors_go_to_observer_then_segregate_by_writes() {
    let (mut m, mut heap) = setup(CollectorKind::KgW);
    let hot = heap.alloc(&mut m, 0, 64).unwrap();
    let cold = heap.alloc(&mut m, 0, 64).unwrap();
    let _r1 = heap.new_root(Some(hot));
    let _r2 = heap.new_root(Some(cold));

    // First promotion: into the observer space.
    for _ in 0..2048 {
        heap.alloc(&mut m, 0, 512).unwrap();
    }
    assert_eq!(heap.space_of(hot), SpaceKind::Observer);
    assert_eq!(heap.space_of(cold), SpaceKind::Observer);

    // Mutate only `hot` while both are observed. A rolling window of
    // rooted survivors fills the observer quickly, forcing its
    // evacuation within a bounded number of rounds.
    let mut window: std::collections::VecDeque<_> = std::collections::VecDeque::new();
    let mut rounds = 0;
    while heap.space_of(hot) == SpaceKind::Observer {
        heap.write_data(&mut m, hot, 0, 8).unwrap();
        for _ in 0..64 {
            let o = heap.alloc(&mut m, 0, 1024).unwrap();
            window.push_back(heap.new_root(Some(o)));
            if window.len() > 1024 {
                heap.drop_root(window.pop_front().unwrap());
            }
        }
        rounds += 1;
        assert!(rounds < 10_000, "observer never evacuated");
    }
    assert_eq!(
        heap.space_of(hot),
        SpaceKind::MatureDram,
        "written object belongs in DRAM"
    );
    assert_eq!(
        heap.space_of(cold),
        SpaceKind::MaturePcm,
        "unwritten object belongs in PCM"
    );
    assert!(heap.stats().promoted_dram_objects >= 1);
    assert!(heap.stats().promoted_pcm_objects >= 1);
}

#[test]
fn reference_graph_keeps_transitively_reachable_objects_alive() {
    let (mut m, mut heap) = setup(CollectorKind::KgN);
    let a = heap.alloc(&mut m, 1, 8).unwrap();
    let b = heap.alloc(&mut m, 1, 8).unwrap();
    let c = heap.alloc(&mut m, 0, 8).unwrap();
    heap.write_ref(&mut m, a, 0, Some(b)).unwrap();
    heap.write_ref(&mut m, b, 0, Some(c)).unwrap();
    let _root = heap.new_root(Some(a));
    for _ in 0..4096 {
        heap.alloc(&mut m, 0, 512).unwrap();
    }
    assert!(heap.is_live(a) && heap.is_live(b) && heap.is_live(c));
    // The chain is intact after copying.
    assert_eq!(heap.read_ref(&mut m, a, 0).unwrap(), Some(b));
    assert_eq!(heap.read_ref(&mut m, b, 0).unwrap(), Some(c));
}

#[test]
fn old_to_young_pointers_are_remembered() {
    let (mut m, mut heap) = setup(CollectorKind::KgN);
    let old = heap.alloc(&mut m, 1, 8).unwrap();
    let _root = heap.new_root(Some(old));
    // Promote `old` out of the nursery.
    for _ in 0..2048 {
        heap.alloc(&mut m, 0, 512).unwrap();
    }
    assert_eq!(heap.space_of(old), SpaceKind::MaturePcm);
    // Now point it at a brand-new nursery object, with no other reference.
    let young = heap.alloc(&mut m, 0, 8).unwrap();
    heap.write_ref(&mut m, old, 0, Some(young)).unwrap();
    assert!(heap.stats().remset_entries >= 1);
    for _ in 0..2048 {
        heap.alloc(&mut m, 0, 512).unwrap();
    }
    assert!(
        heap.is_live(young),
        "object reachable only through the remset must survive"
    );
    assert_eq!(heap.read_ref(&mut m, old, 0).unwrap(), Some(young));
}

#[test]
fn unreferenced_cycle_is_collected_by_full_gc() {
    let (mut m, mut heap) = setup(CollectorKind::KgN);
    let a = heap.alloc(&mut m, 1, 8).unwrap();
    let b = heap.alloc(&mut m, 1, 8).unwrap();
    heap.write_ref(&mut m, a, 0, Some(b)).unwrap();
    heap.write_ref(&mut m, b, 0, Some(a)).unwrap();
    let root = heap.new_root(Some(a));
    for _ in 0..2048 {
        heap.alloc(&mut m, 0, 512).unwrap();
    }
    assert!(heap.is_live(a) && heap.is_live(b));
    heap.drop_root(root);
    heap.collect_full(&mut m).unwrap();
    assert!(
        !heap.is_live(a) && !heap.is_live(b),
        "cycle must not survive a full trace"
    );
}

#[test]
fn large_objects_go_directly_to_pcm_los_without_loo() {
    let (mut m, mut heap) = setup(CollectorKind::KgN);
    let big = heap.alloc(&mut m, 0, 64 * 1024).unwrap();
    assert_eq!(heap.space_of(big), SpaceKind::LargePcm);
    assert_eq!(heap.stats().loo_nursery_large, 0);
}

#[test]
fn loo_routes_smallish_large_objects_through_the_nursery() {
    let (mut m, mut heap) = setup(CollectorKind::KgNLoo);
    let big = heap.alloc(&mut m, 0, 16 * 1024).unwrap(); // 16 KiB ≤ 512 KiB cap
    assert_eq!(heap.space_of(big), SpaceKind::Nursery);
    assert_eq!(heap.stats().loo_nursery_large, 1);
    // An object beyond the LOO cap still bypasses the nursery.
    let huge = heap.alloc(&mut m, 0, 600 * 1024).unwrap();
    assert_eq!(heap.space_of(huge), SpaceKind::LargePcm);
}

#[test]
fn kg_w_rescues_written_large_objects_to_dram() {
    let (mut m, mut heap) = setup(CollectorKind::KgW);
    let big = heap.alloc(&mut m, 0, 600 * 1024).unwrap();
    assert_eq!(heap.space_of(big), SpaceKind::LargePcm);
    let _root = heap.new_root(Some(big));
    heap.write_data(&mut m, big, 0, 4096).unwrap();
    heap.collect_full(&mut m).unwrap();
    assert_eq!(
        heap.space_of(big),
        SpaceKind::LargeDram,
        "written large object rescued"
    );
    assert_eq!(heap.stats().large_rescued, 1);
}

#[test]
fn boot_objects_are_permanent_roots() {
    let (mut m, mut heap) = setup(CollectorKind::KgN);
    let boot = heap.alloc_boot(&mut m, 1, 64).unwrap();
    assert_eq!(heap.space_of(boot), SpaceKind::Boot);
    let child = heap.alloc(&mut m, 0, 8).unwrap();
    heap.write_ref(&mut m, boot, 0, Some(child)).unwrap();
    heap.collect_full(&mut m).unwrap();
    assert!(
        heap.is_live(boot),
        "boot objects survive without explicit roots"
    );
    assert!(heap.is_live(child), "objects referenced from boot survive");
}

/// The paper's headline ordering (Table II / Fig. 7): PCM-Only writes the
/// most to PCM; KG-N cuts nursery writes; KG-W cuts survivor writes too.
#[test]
fn pcm_write_ordering_matches_the_paper() {
    let mut results = Vec::new();
    for kind in [
        CollectorKind::PcmOnly,
        CollectorKind::KgN,
        CollectorKind::KgW,
    ] {
        let (mut m, mut heap) = setup(kind);
        let mut hot = Vec::new();
        // A workload with long-lived, frequently written survivors: the
        // case where write segregation pays.
        for i in 0..6000u32 {
            let o = heap.alloc(&mut m, 0, 256).unwrap();
            if i % 8 == 0 {
                let r = heap.new_root(Some(o));
                hot.push((o, r));
            }
            if let Some(&(h, _)) = hot.get((i as usize) % hot.len().max(1)) {
                if heap.is_live(h) {
                    heap.write_data(&mut m, h, 0, 64).unwrap();
                }
            }
        }
        m.flush_caches().unwrap();
        results.push((kind, m.pcm_writes().bytes()));
    }
    let pcm_only = results[0].1;
    let kg_n = results[1].1;
    let kg_w = results[2].1;
    assert!(
        kg_n < pcm_only,
        "KG-N ({kg_n}) must write less than PCM-Only ({pcm_only})"
    );
    assert!(
        kg_w < kg_n,
        "KG-W ({kg_w}) must write less than KG-N ({kg_n})"
    );
}

#[test]
fn kg_w_does_more_gc_work_than_kg_n() {
    // §V: monitoring and extra copying give KG-W a ~10% overhead over
    // KG-N. The overhead sources are structural: survivors are copied
    // twice (nursery → observer → mature) and first writes to observed
    // objects cost an extra header store.
    let mut work = Vec::new();
    for kind in [CollectorKind::KgN, CollectorKind::KgW] {
        let (mut m, mut heap) = setup(kind);
        // A rolling population of written survivors.
        let mut standing = std::collections::VecDeque::new();
        for i in 0..100_000usize {
            let o = heap.alloc(&mut m, 0, 256).unwrap();
            if i % 2 == 0 {
                // Standing objects live for ~16 K allocations: several GC
                // periods, so they are present (and written) in the
                // observer when it is evacuated.
                standing.push_back((o, heap.new_root(Some(o))));
                if standing.len() > 8192 {
                    let (_, r) = standing.pop_front().unwrap();
                    heap.drop_root(r);
                }
            }
            let (s, _) = standing[i % standing.len()];
            if heap.is_live(s) {
                heap.write_data(&mut m, s, 0, 8).unwrap();
            }
        }
        let st = heap.stats();
        work.push((
            st.copied_minor_bytes + st.copied_observer_bytes,
            st.monitor_marks,
        ));
    }
    let (kg_n_copied, kg_n_marks) = work[0];
    let (kg_w_copied, kg_w_marks) = work[1];
    assert!(
        kg_w_copied > kg_n_copied,
        "KG-W copies more ({kg_w_copied} vs {kg_n_copied})"
    );
    assert_eq!(kg_n_marks, 0, "KG-N does no write monitoring");
    assert!(kg_w_marks > 0, "KG-W monitors observer writes");
}

#[test]
fn pcm_only_binds_young_allocation_to_socket_1() {
    let (mut m, mut heap) = setup(CollectorKind::PcmOnly);
    for _ in 0..4096 {
        heap.alloc(&mut m, 0, 512).unwrap();
    }
    m.flush_caches().unwrap();
    assert!(m.pcm_writes().bytes() > 0);
    // Nothing in this configuration writes to socket 0.
    assert_eq!(m.socket_writes(SocketId::DRAM), ByteSize::ZERO);
    let _ = ProcId(0);
}

#[test]
fn full_gc_reclaims_mature_lines_for_reuse() {
    let (mut m, mut heap) = setup(CollectorKind::KgN);
    // Promote a batch, drop it, and verify mature occupancy shrinks.
    let mut roots = Vec::new();
    for _ in 0..512 {
        let o = heap.alloc(&mut m, 0, 256).unwrap();
        roots.push(heap.new_root(Some(o)));
    }
    for _ in 0..2048 {
        heap.alloc(&mut m, 0, 512).unwrap();
    }
    let used_before = heap.old_gen_used();
    for r in roots {
        heap.drop_root(r);
    }
    heap.collect_full(&mut m).unwrap();
    assert!(heap.old_gen_used() < used_before);
}

#[test]
fn allocation_volume_is_tracked() {
    let (mut m, mut heap) = setup(CollectorKind::KgN);
    for _ in 0..100 {
        heap.alloc(&mut m, 2, 100).unwrap();
    }
    assert_eq!(heap.stats().allocated_objects, 100);
    // object_size(2, 100) = 16 + 16 + 100 → 136 rounded to 136.
    assert_eq!(heap.stats().allocated_bytes, 100 * 136);
}

/// The observer reservation ends where the nursery's starts, so a KG-W
/// observer (twice the nursery) larger than it would overlap the nursery.
#[test]
fn young_spaces_larger_than_their_reservations_are_rejected() {
    let mut m = Machine::new(MachineProfile::emulation());
    let proc = m.add_process(SocketId::DRAM);
    let kg_w = |nursery_mib| {
        CollectorKind::KgW.config(ByteSize::from_mib(nursery_mib), ByteSize::from_gib(1))
    };
    let err = ManagedHeap::new(&mut m, proc, CtxId(0), kg_w(160)).unwrap_err();
    assert!(
        matches!(err, HemuError::InvalidConfig(ref msg) if msg.contains("observer")),
        "{err}"
    );
    assert!(ManagedHeap::new(&mut m, proc, CtxId(0), kg_w(128)).is_ok());
}
