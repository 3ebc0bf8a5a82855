//! Seeded randomized tests for the NUMA memory substrate.
//!
//! These check the substrate's core properties with the in-tree
//! deterministic PRNG, so they run on every plain `cargo test` with zero
//! external dependencies. Failures print the seed of
//! the offending case; rerunning is fully reproducible.

use hemu_numa::{AddressSpace, NumaConfig, NumaMemory};
use hemu_types::{Addr, ByteSize, DeterministicRng, SocketId, PAGE_SIZE};

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
