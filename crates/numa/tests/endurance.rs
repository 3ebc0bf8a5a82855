//! Seeded randomized tests for the PCM endurance model: wear-driven line
//! failure, page retirement, transparent remapping, and the monotonic
//! counter invariant. Like `randomized.rs`, every case is derived from the
//! in-tree deterministic PRNG so failures reproduce exactly.

use hemu_fault::EnduranceConfig;
use hemu_numa::{AddressSpace, NumaConfig, NumaMemory};
use hemu_types::{
    AccessKind, Addr, ByteSize, DeterministicRng, PageNum, SocketId, CACHE_LINE, PAGE_SIZE,
};

fn worn_mem(seed: u64) -> NumaMemory {
    let mut m = NumaMemory::new(NumaConfig {
        sockets: 2,
        capacity_per_socket: ByteSize::from_mib(4),
    });
    m.enable_endurance(EnduranceConfig {
        budget_writes: 8,
        variability: 0.25,
        seed,
    });
    m
}

/// Hammers random PCM lines until at least one frame retires, then remaps
/// it the way the machine does. Along the way the per-socket write counter
/// must be monotonic, and after the remap every previously mapped address
/// must still translate to the same offset within a healthy frame — the
/// substrate's version of "remapping preserves page contents" (the
/// emulator models contents as the page → frame → offset identity).
#[test]
fn remapping_preserves_translation_and_counters_stay_monotonic() {
    let mut rng = DeterministicRng::seeded(0xE2D_0001);
    for case in 0..24 {
        let mut m = worn_mem(0xBEEF + case);
        let mut asp = AddressSpace::with_default_socket(SocketId::PCM);
        let pages = 4 + rng.below(8);
        let addrs: Vec<Addr> = (0..pages)
            .map(|i| Addr::new(i * PAGE_SIZE as u64))
            .collect();
        let before: Vec<_> = addrs
            .iter()
            .map(|&a| asp.translate(a, &mut m).unwrap())
            .collect();
        let faults_after_setup = asp.fault_count();

        let mut last_writes = 0u64;
        let mut retired: Vec<PageNum> = Vec::new();
        for step in 0..200_000u64 {
            let a = addrs[rng.below(addrs.len() as u64) as usize];
            let off = rng.below((PAGE_SIZE / CACHE_LINE) as u64) * CACHE_LINE as u64;
            let pa = asp.translate(a.offset(off), &mut m).unwrap();
            m.record_line_access(pa.line(), AccessKind::Write, 0);
            let w = m.counters(SocketId::PCM).write_lines();
            assert!(
                w > last_writes,
                "case {case} step {step}: write counter not monotonic"
            );
            last_writes = w;
            retired = m.take_pending_retirements();
            if !retired.is_empty() {
                break;
            }
        }
        assert!(
            !retired.is_empty(),
            "case {case}: tiny budget never retired a frame"
        );

        for &old in &retired {
            let socket = m.socket_of_frame(old);
            assert_eq!(socket, SocketId::PCM, "case {case}: wear is a PCM effect");
            let new = m.allocate_frame_uninjected(socket).unwrap();
            let changed = asp.remap_frame(old, new);
            assert_eq!(changed, 1, "case {case}: each frame backs exactly one page");
        }

        for (&a, pa_before) in addrs.iter().zip(&before) {
            let pa_after = asp
                .translate_existing(a)
                .expect("remap must not drop the mapping");
            assert_eq!(
                pa_after.raw() % PAGE_SIZE as u64,
                pa_before.raw() % PAGE_SIZE as u64,
                "case {case}: offset within the frame changed"
            );
            assert!(
                !retired.contains(&pa_after.frame()),
                "case {case}: page still mapped to a retired frame"
            );
        }
        assert_eq!(
            asp.fault_count(),
            faults_after_setup,
            "case {case}: remapping must not page-fault"
        );
        assert_eq!(asp.remap_count(), retired.len() as u64, "case {case}");
    }
}

/// Retired frames shrink the socket's effective capacity and are never
/// handed out again, even when the free list is drained to exhaustion.
#[test]
fn retired_frames_never_return_and_capacity_shrinks() {
    let mut m = worn_mem(0x5EED);
    let frame = m.allocate_frame(SocketId::PCM).unwrap();
    let line0 = frame.phys_base().line();
    // Spend every line's budget; with budget 8 and variability 0.25 the
    // worst-case per-line budget is 10 writes.
    for i in 0..(PAGE_SIZE / CACHE_LINE) as u64 {
        for _ in 0..16 {
            m.record_line_access(
                hemu_types::LineAddr::new(line0.raw() + i),
                AccessKind::Write,
                0,
            );
        }
    }
    let retired = m.take_pending_retirements();
    assert_eq!(retired, vec![frame], "whole-frame hammering retires it");
    assert!(m.failed_lines() > 0);
    assert_eq!(m.retired_pages(SocketId::PCM), 1);
    let total = m.config().capacity_per_socket;
    assert_eq!(
        m.effective_capacity(SocketId::PCM).bytes(),
        total.bytes() - PAGE_SIZE as u64,
        "one retired page must vanish from the effective capacity"
    );

    // Freeing the retired frame must not resurrect it.
    m.free_frame(frame).unwrap();
    let mut handed_out = Vec::new();
    while let Ok(f) = m.allocate_frame(SocketId::PCM) {
        assert_ne!(f, frame, "retired frame was re-issued");
        handed_out.push(f);
    }
    assert_eq!(
        handed_out.len() as u64,
        m.socket(SocketId::PCM).frame_count() - 1,
        "exactly the healthy frames are allocatable"
    );
}
