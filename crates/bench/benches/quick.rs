//! Dependency-free microbenchmarks of the platform's hot paths.
//!
//! A plain `harness = false` binary timed with `std::time::Instant`, so
//! `cargo bench` works in the hermetic offline build. Each benchmark is
//! calibrated to a target wall time and reports ns/op and throughput.

use hemu_cache::{Hierarchy, HierarchyConfig};
use hemu_heap::{CollectorKind, ManagedHeap};
use hemu_machine::{CtxId, Machine, MachineProfile};
use hemu_malloc::NativeHeap;
use hemu_numa::{AddressSpace, NumaConfig, NumaMemory};
use hemu_types::{AccessKind, Addr, ByteSize, DeterministicRng, LineAddr, MemoryAccess, SocketId};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `f` (which performs `batch` operations per call) until roughly
/// `target` wall time has elapsed, then reports ns/op and Mops/s.
fn bench(name: &str, batch: u64, target: Duration, mut f: impl FnMut()) {
    // Warm up and estimate the per-call cost.
    f();
    let t0 = Instant::now();
    f();
    let per_call = t0.elapsed().max(Duration::from_nanos(1));
    let calls = (target.as_nanos() / per_call.as_nanos()).clamp(1, 1_000_000) as u64;

    let t0 = Instant::now();
    for _ in 0..calls {
        f();
    }
    let elapsed = t0.elapsed();
    let ops = calls * batch;
    let ns_per_op = elapsed.as_nanos() as f64 / ops as f64;
    let mops = ops as f64 / elapsed.as_secs_f64() / 1e6;
    println!("{name:<32} {ns_per_op:>9.1} ns/op {mops:>9.2} Mops/s  ({ops} ops)");
}

fn main() {
    // `cargo bench -- <filter>` runs only matching benchmarks.
    let filter: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let wants = |name: &str| filter.is_empty() || filter.iter().any(|f| name.contains(f.as_str()));
    let target = Duration::from_millis(300);

    if wants("cache.hierarchy_access_stream") {
        let mut h = Hierarchy::new(HierarchyConfig::e5_2650l(4));
        let mut i = 0u64;
        bench("cache.hierarchy_access_stream", 4096, target, || {
            for _ in 0..4096 {
                i = i.wrapping_add(1);
                let line = LineAddr::new(i % 500_000);
                black_box(h.access((i % 4) as usize, line, AccessKind::Write));
            }
        });
    }

    if wants("numa.translate_warm") {
        let mut mem = NumaMemory::new(NumaConfig::default());
        let mut asp = AddressSpace::new();
        for p in 0..4096u64 {
            asp.translate(Addr::new(p * 4096), &mut mem).unwrap();
        }
        let mut i = 0u64;
        bench("numa.translate_warm", 4096, target, || {
            for _ in 0..4096 {
                i = i.wrapping_add(2654435761);
                let a = Addr::new((i % 4096) * 4096 + (i % 64) * 64);
                black_box(asp.translate(a, &mut mem).unwrap());
            }
        });
    }

    if wants("heap.managed_alloc_256B") {
        let mut m = Machine::new(MachineProfile::emulation());
        let proc = m.add_process(SocketId::DRAM);
        let cfg = CollectorKind::KgN.config(ByteSize::from_mib(4), ByteSize::from_mib(64));
        let mut heap = ManagedHeap::new(&mut m, proc, CtxId(0), cfg).unwrap();
        bench("heap.managed_alloc_256B", 256, target, || {
            for _ in 0..256 {
                black_box(heap.alloc(&mut m, 0, 240).unwrap());
            }
        });
    }

    if wants("heap.write_barrier_old_to_young") {
        let mut m = Machine::new(MachineProfile::emulation());
        let proc = m.add_process(SocketId::DRAM);
        let cfg = CollectorKind::KgN.config(ByteSize::from_mib(4), ByteSize::from_mib(64));
        let mut heap = ManagedHeap::new(&mut m, proc, CtxId(0), cfg).unwrap();
        // Promote a holder object to the mature space.
        let holder = heap.alloc(&mut m, 1, 8).unwrap();
        let _r = heap.new_root(Some(holder));
        for _ in 0..32_768 {
            heap.alloc(&mut m, 0, 248).unwrap();
        }
        let young = heap.alloc(&mut m, 0, 8).unwrap();
        let _r2 = heap.new_root(Some(young));
        bench("heap.write_barrier_old_to_young", 256, target, || {
            for _ in 0..256 {
                heap.write_ref(&mut m, holder, 0, Some(young)).unwrap();
            }
        });
    }

    if wants("malloc.native_alloc_free_cycle") {
        let mut m = Machine::new(MachineProfile::emulation());
        let proc = m.add_process(SocketId::PCM);
        let mut heap = NativeHeap::new(&mut m, proc, CtxId(0), SocketId::PCM);
        bench("malloc.native_alloc_free_cycle", 256, target, || {
            let mut objs = Vec::with_capacity(256);
            for _ in 0..256 {
                objs.push(heap.alloc(&mut m, 240).unwrap());
            }
            for o in objs {
                heap.free(o);
            }
        });
    }

    if wants("workloads.zipf_draws") {
        let mut rng = DeterministicRng::seeded(7);
        bench("workloads.zipf_draws", 4096, target, || {
            for _ in 0..4096 {
                black_box(rng.zipf(1 << 22, 0.8));
            }
        });
    }

    if wants("machine.access_64B_stream") {
        let mut m = Machine::new(MachineProfile::emulation());
        let proc = m.add_process(SocketId::DRAM);
        let mut i = 0u64;
        bench("machine.access_64B_stream", 4096, target, || {
            for _ in 0..4096 {
                i = i.wrapping_add(1);
                let a = Addr::new((i % 1_000_000) * 64);
                m.access(CtxId(0), proc, MemoryAccess::write(a, 64))
                    .unwrap();
            }
        });
    }
}
