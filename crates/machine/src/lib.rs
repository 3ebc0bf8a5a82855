//! The emulated machine: hardware contexts on the local socket, per-process
//! address spaces, the cache hierarchy, and the two-socket memory system.
//!
//! This crate assembles the substrates ([`hemu_cache`], [`hemu_numa`]) into
//! one object, [`Machine`], with the paper's measurement semantics:
//!
//! * every store becomes a *memory* write only when its dirty line reaches a
//!   memory controller (write-back, LLC-filtered);
//! * each controller counts its own traffic, so "PCM writes" is simply the
//!   write counter of socket 1;
//! * virtual time advances per access according to which level was hit,
//!   with remote (PCM) fills paying the QPI penalty.
//!
//! # Examples
//!
//! ```
//! use hemu_machine::{CtxId, Machine, MachineProfile};
//! use hemu_types::{Addr, ByteSize, MemoryAccess, SocketId};
//!
//! let mut m = Machine::new(MachineProfile::emulation());
//! let p = m.add_process(SocketId::DRAM);
//! m.mbind(p, Addr::new(0x1000_0000), ByteSize::from_mib(4), SocketId::PCM);
//! // Write 1 MiB into the PCM-bound region, then flush the caches.
//! m.access(CtxId(0), p, MemoryAccess::write(Addr::new(0x1000_0000), 1 << 20)).unwrap();
//! m.flush_caches().unwrap();
//! assert!(m.socket_writes(SocketId::PCM).bytes() >= 1 << 20);
//! ```

#![warn(missing_docs)]

mod machine;
mod profile;

pub use machine::{CtxId, Machine, MachineStats, ProcId};
pub use profile::{LatencyModel, MachineProfile};
