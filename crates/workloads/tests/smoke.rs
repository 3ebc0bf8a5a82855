//! Bounded smoke tests: every registered workload runs a few hundred
//! quanta on the managed heap (and, for GraphChi, on the native heap)
//! without faulting, and actually generates memory traffic.

use hemu_heap::{CollectorKind, ManagedHeap};
use hemu_machine::{CtxId, Machine, MachineProfile};
use hemu_malloc::NativeHeap;
use hemu_types::SocketId;
use hemu_workloads::{spec, Language, Memory, StepResult, WorkloadSpec};

fn drive(spec: WorkloadSpec, steps: usize) -> (Machine, Memory, bool) {
    let mut machine = Machine::new(MachineProfile::emulation());
    let mut w = spec.instantiate(11);
    let mem = match spec.language {
        Language::Java => {
            let cfg = CollectorKind::KgN.config(w.base_nursery(), w.heap_size());
            let proc = machine.add_process(cfg.young_socket());
            Memory::managed(
                ManagedHeap::new(&mut machine, proc, CtxId(0), cfg).expect("heap builds"),
            )
        }
        Language::Cpp => {
            let proc = machine.add_process(SocketId::PCM);
            Memory::native(NativeHeap::new(&mut machine, proc, CtxId(0), SocketId::PCM))
        }
    };
    let mut mem = mem;
    let mut finished = false;
    for _ in 0..steps {
        match w.step(&mut machine, &mut mem).expect("step succeeds") {
            StepResult::Running => {}
            StepResult::IterationDone => {
                finished = true;
                break;
            }
        }
    }
    (machine, mem, finished)
}

#[test]
fn every_registered_workload_steps_cleanly() {
    for s in spec::all_default() {
        let (machine, mem, _) = drive(s, 200);
        assert!(
            mem.allocated_bytes() > 0 || machine.stats().line_accesses > 0,
            "{s}: no observable activity after 200 quanta"
        );
    }
}

#[test]
fn graphchi_apps_run_natively_too() {
    for name in ["pr", "cc", "als"] {
        let s = WorkloadSpec::by_name(name)
            .unwrap()
            .with_language(Language::Cpp);
        let (machine, mem, _) = drive(s, 200);
        assert!(machine.stats().line_accesses > 0, "{s}: no traffic");
        assert!(mem.native_stats().is_some());
    }
}

#[test]
fn avrora_completes_an_iteration_within_budget() {
    let s = WorkloadSpec::by_name("avrora").unwrap();
    let (_, _, finished) = drive(s, 200_000);
    assert!(finished, "avrora did not finish an iteration");
}

/// OS-managed placement: the same managed workload, but with the
/// kernel-side first-touch override installed. Every page the heap asks
/// for on the PCM socket is placed on DRAM instead, and the per-page heat
/// counters see the traffic the workload generates.
#[test]
fn os_placement_overrides_the_heap_socket() {
    let s = WorkloadSpec::by_name("avrora").unwrap();
    let mut machine = Machine::new(MachineProfile::emulation());
    let mut w = s.instantiate(11);
    let cfg = CollectorKind::PcmOnly.config(w.base_nursery(), w.heap_size());
    let proc = machine.add_process(cfg.young_socket());
    machine.set_os_placement(proc, SocketId::DRAM, Some(SocketId::PCM));
    machine.enable_page_heat();
    let mut mem =
        Memory::managed(ManagedHeap::new(&mut machine, proc, CtxId(0), cfg).expect("heap builds"));
    for _ in 0..500 {
        if let StepResult::IterationDone = w.step(&mut machine, &mut mem).expect("step succeeds") {
            break;
        }
    }
    machine.flush_caches().expect("flush succeeds");
    let dram = machine.memory().counters(SocketId::DRAM).write_lines();
    let pcm = machine.memory().counters(SocketId::PCM).write_lines();
    assert!(dram > 0, "workload traffic must reach the DRAM controller");
    assert_eq!(pcm, 0, "first-touch DRAM placement left nothing on PCM");
    let mut heat = machine.memory().page_heat().expect("heat tracking enabled");
    assert!(
        heat.any(|(_, h)| h.writes > 0),
        "per-page counters must see the workload's writes"
    );
}

#[test]
fn names_round_trip_through_the_registry() {
    for s in spec::all_default() {
        let w = s.instantiate(3);
        assert_eq!(w.name(), s.name);
        assert_eq!(w.suite(), s.suite);
        assert_eq!(w.base_nursery(), s.suite.base_nursery());
    }
}
