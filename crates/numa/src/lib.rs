//! Simulated two-socket NUMA memory subsystem.
//!
//! This crate is the hardware substrate under the emulation platform: a
//! machine with two sockets, each owning a slice of physical memory behind a
//! memory controller with read/write counters (the simulated equivalent of
//! Intel's `pcm-memory` counters the paper samples), plus per-process page
//! tables with an `mbind`-style binding policy.
//!
//! The paper's platform uses the local socket's DRAM to emulate DRAM and the
//! remote socket's DRAM to emulate PCM; the observable of interest is the
//! number of writes arriving at each socket's memory controller. Here the
//! "sockets" are simulated, so the counters are exact rather than sampled.
//!
//! Beside its counters, each socket keeps one record per physical frame for
//! the opt-in observers of that accounting point: page heat for OS hot/cold
//! migration, the owning tenant for consolidated runs, and retirement plus
//! per-line wear for the endurance model. [`NumaMemory::copy_page`] is the
//! one place that state follows a page to a new frame. The profiler's
//! [`WriteProvenance`] counts every controller write by cause and heap
//! space at the same point, from the tag each write carries.
//!
//! # Examples
//!
//! ```
//! use hemu_numa::{AddressSpace, NumaMemory, NumaConfig};
//! use hemu_types::{AccessKind, Addr, ByteSize, SocketId, WriteTag};
//!
//! let mut mem = NumaMemory::new(NumaConfig::default());
//! let mut space = AddressSpace::new();
//! // Bind a 4 MiB chunk to the remote (PCM) socket, like the heap manager
//! // does after mmap().
//! space.mbind(Addr::new(0x1000_0000), ByteSize::from_mib(4), SocketId::PCM);
//! let pa = space.translate(Addr::new(0x1000_0040), &mut mem).unwrap();
//! // The controller counts the write under the tag of the store that
//! // dirtied the line (only consulted once provenance is enabled).
//! mem.record_line_access(pa.line(), AccessKind::Write, WriteTag::OTHER.raw());
//! assert_eq!(mem.counters(SocketId::PCM).write_lines(), 1);
//! ```

#![warn(missing_docs)]

mod counters;
mod frames;
mod memory;
mod pagetable;
mod provenance;
mod qpi;
mod tenancy;

pub use counters::MemoryCounters;
pub use frames::{PageHeat, Wear};
pub use memory::{NumaConfig, NumaMemory, SocketMemory};
pub use pagetable::AddressSpace;
pub use provenance::WriteProvenance;
pub use qpi::QpiLink;
pub use tenancy::TenancyTracker;
