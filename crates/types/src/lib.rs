//! Foundational vocabulary types for the `hemu` hybrid-memory emulation
//! platform.
//!
//! This crate defines the small, widely shared types that every other crate
//! in the workspace builds on: virtual and physical addresses ([`Addr`],
//! [`PhysAddr`]), byte quantities ([`ByteSize`]), memory access records
//! ([`MemoryAccess`]), the [`VirtualClock`], the [`DeterministicRng`], and
//! the platform-wide [`HemuError`] type.
//!
//! # Examples
//!
//! ```
//! use hemu_types::{Addr, ByteSize, CACHE_LINE};
//!
//! let a = Addr::new(0x1000_0040);
//! assert_eq!(a.line(), Addr::new(0x1000_0040)); // already line-aligned
//! assert_eq!(ByteSize::from_mib(4).bytes(), 4 * 1024 * 1024);
//! assert_eq!(CACHE_LINE, 64);
//! ```

mod access;
mod addr;
mod clock;
mod error;
mod os;
mod provenance;
mod rng;
mod size;

pub use access::{AccessKind, MemoryAccess};
pub use addr::{Addr, LineAddr, PageNum, PhysAddr, SocketId};
pub use clock::{Cycles, VirtualClock};
pub use error::{HemuError, Result};
pub use os::{OsPagingConfig, OsPolicy};
pub use provenance::{SpaceTag, WriteCause, WriteTag};
pub use rng::DeterministicRng;
pub use size::{ByteSize, CACHE_LINE, CHUNK_SIZE, MIB, PAGE_SIZE, WORD};
