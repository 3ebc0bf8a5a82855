//! Foundational vocabulary types for the `hemu` hybrid-memory emulation
//! platform.
//!
//! This crate defines the small, widely shared types that every other crate
//! in the workspace builds on: virtual and physical [`addr`]esses, byte
//! [`size`] quantities, memory [`access`] records, the virtual [`clock`],
//! the deterministic [`rng`], and the platform-wide [`HemuError`] type.
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

#![warn(missing_docs)]

pub mod access;
pub mod addr;
pub mod clock;
pub mod error;
pub mod os;
pub mod provenance;
pub mod rng;
pub mod size;

pub use access::{AccessKind, MemoryAccess};
pub use addr::{Addr, LineAddr, PageNum, PhysAddr, SocketId};
pub use clock::{Cycles, VirtualClock};
pub use error::{HemuError, Result};
pub use os::{OsPagingConfig, OsPolicy};
pub use provenance::{SpaceTag, WriteCause, WriteTag};
pub use rng::DeterministicRng;
pub use size::{ByteSize, CACHE_LINE, CHUNK_SIZE, GIB, KIB, MIB, PAGE_SIZE, WORD};
