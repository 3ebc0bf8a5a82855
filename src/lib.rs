//! # hemu — hybrid-memory emulation for managed languages
//!
//! A from-scratch Rust reproduction of *"Emulating and Evaluating Hybrid
//! Memory for Managed Languages on NUMA Hardware"* (Akram, Sartor,
//! McKinley, Eeckhout; ISPASS 2019).
//!
//! The paper builds an emulation platform for hybrid DRAM–PCM memories on
//! a two-socket NUMA server: the local socket's memory plays DRAM, the
//! remote socket's plays PCM, and a modified JVM exposes the split to
//! write-rationing garbage collectors (the Kingsguard family) while
//! hardware counters report the writes arriving at the "PCM" socket.
//!
//! This crate is the facade over the workspace that reproduces the whole
//! system against a simulated machine:
//!
//! | Layer | Crate | What it models |
//! |---|---|---|
//! | experiments | [`core`] (`hemu-core`) | the one run driver (multiprogrammed copies and multi-tenant mixes), write-rate monitor, PCM lifetime model |
//! | workloads | [`workloads`] (`hemu-workloads`) | 11 DaCapo models, Pjbb, GraphChi PR/CC/ALS in Java and C++ modes; workload mixes |
//! | managed runtime | [`heap`] (`hemu-heap`) | two-free-list heap layout, spaces, barriers, 8 collector configurations |
//! | manual runtime | [`malloc`] (`hemu-malloc`) | C/C++ size-class allocator |
//! | OS paging | [`os`] (`hemu-os`) | first-touch placement, hot/cold page migration |
//! | machine | [`machine`] (`hemu-machine`) | contexts, address spaces, timing |
//! | caches | [`cache`] (`hemu-cache`) | private L2s + shared inclusive 20 MB LLC, write-back |
//! | memory | [`numa`] (`hemu-numa`) | two sockets, page tables, `mbind`, controller counters |
//! | observability | [`obs`] (`hemu-obs`) | event tracer, profiler spans, GC pause histogram, JSON/CSV export |
//! | vocabulary | [`types`] (`hemu-types`) | addresses, sizes, clock, deterministic RNG |
//!
//! # Quickstart
//!
//! ```no_run
//! use hemu::core::Experiment;
//! use hemu::heap::CollectorKind;
//! use hemu::workloads::WorkloadSpec;
//!
//! // How many bytes does lusearch write to PCM under Kingsguard-writers,
//! // and at what rate?
//! let report = Experiment::new(WorkloadSpec::by_name("lusearch").unwrap())
//!     .collector(CollectorKind::KgW)
//!     .run()?;
//! println!("{report}");
//! # Ok::<(), hemu::types::HemuError>(())
//! ```
//!
//! Reproduce the paper's tables and figures with the harness binary:
//!
//! ```text
//! cargo run -p hemu-bench --bin repro --release -- all
//! ```

pub use hemu_cache as cache;
pub use hemu_core as core;
pub use hemu_heap as heap;
pub use hemu_machine as machine;
pub use hemu_malloc as malloc;
pub use hemu_numa as numa;
pub use hemu_obs as obs;
pub use hemu_os as os;
pub use hemu_types as types;
pub use hemu_workloads as workloads;

pub use hemu_core::{Experiment, RunReport};
pub use hemu_heap::CollectorKind;
pub use hemu_workloads::{DatasetSize, Language, WorkloadSpec};
