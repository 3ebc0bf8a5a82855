//! End-to-end endurance tests through the machine: wear-driven line
//! failure retires the frame and transparently remaps the page, the
//! translation survives, and the retirement bookkeeping is visible through
//! the memory system.

use hemu_fault::EnduranceConfig;
use hemu_machine::{CtxId, Machine, MachineProfile};
use hemu_types::{Addr, MemoryAccess, SocketId, CACHE_LINE, PAGE_SIZE};

fn tiny_budget_machine() -> Machine {
    let mut m = Machine::new(MachineProfile::emulation());
    m.enable_endurance(EnduranceConfig {
        budget_writes: 16,
        variability: 0.25,
        seed: 0xAB,
    });
    m
}

/// Repeatedly writing one PCM page (flushing between rounds so the dirty
/// lines actually reach the controller) wears its lines out; the machine
/// must retire the frame and remap the page without the process noticing:
/// the address still translates, onto a healthy PCM frame.
#[test]
fn worn_out_page_is_remapped_transparently() {
    let mut m = tiny_budget_machine();
    let p = m.add_process(SocketId::PCM);
    let lines = (PAGE_SIZE / CACHE_LINE) as u64;
    for _round in 0..64 {
        for line in 0..lines {
            m.access(
                CtxId(0),
                p,
                MemoryAccess::write(Addr::new(line * CACHE_LINE as u64), CACHE_LINE as u32),
            )
            .unwrap();
        }
        m.flush_caches().unwrap();
        if m.pages_remapped() > 0 {
            break;
        }
    }
    assert!(
        m.pages_remapped() > 0,
        "a 16-write budget must retire the hammered page"
    );
    assert!(m.memory().failed_lines() > 0);
    assert!(m.memory().retired_pages(SocketId::PCM) > 0);

    let pa = m
        .address_space(p)
        .translate_existing(Addr::new(0))
        .expect("the page must stay mapped across retirement");
    assert_eq!(
        m.memory().socket_of_frame(pa.frame()),
        SocketId::PCM,
        "the replacement frame must come from the same socket"
    );
    assert!(
        !m.memory().socket(SocketId::PCM).owns_frame(pa.frame())
            || m.memory().retired_pages(SocketId::PCM) > 0,
        "sanity: retirement bookkeeping is visible"
    );
}

/// A wear-out remap moves the page's heat after the page copy: the
/// replacement frame keeps the page's cumulative totals but starts its
/// epoch cold, so the copy alone cannot make the OS hot/cold migrator
/// promote it, and the retired frame is no longer sampled.
#[test]
fn retirement_remap_restarts_the_page_heat_epoch() {
    let mut m = Machine::new(MachineProfile::emulation());
    m.enable_page_heat();
    m.enable_endurance(EnduranceConfig {
        budget_writes: 4,
        variability: 0.0,
        seed: 1,
    });
    let p = m.add_process(SocketId::PCM);
    let write = MemoryAccess::write(Addr::new(0), CACHE_LINE as u32);
    m.access(CtxId(0), p, write).unwrap();
    let old = m
        .address_space(p)
        .translate_existing(Addr::new(0))
        .unwrap()
        .frame();
    for _round in 0..8 {
        m.flush_caches().unwrap();
        if m.pages_remapped() > 0 {
            break;
        }
        m.access(CtxId(0), p, write).unwrap();
    }
    assert_eq!(m.pages_remapped(), 1, "a 4-write budget retires the page");
    let new = m
        .address_space(p)
        .translate_existing(Addr::new(0))
        .unwrap()
        .frame();
    assert_ne!(new, old);
    let heat = m.memory().heat(new);
    assert_eq!(heat.epoch_writes, 0, "the copy must not make the page hot");
    assert!(heat.writes >= 4, "cumulative totals follow the page");
    assert!(
        m.memory().page_heat().unwrap().all(|(f, _)| f != old),
        "the retired frame is not sampled"
    );
}
