//! The managed-heap runtime: the paper's software contribution.
//!
//! This crate reproduces, against the simulated machine, the heap
//! organization of §III of the paper:
//!
//! * virtual heap memory split into a **PCM-backed region** and a
//!   **DRAM-backed region** of 4 MiB chunks (the paper's FreeList-Lo /
//!   FreeList-Hi, in the `chunks` module);
//! * a chunk is carved and bound to its region's socket once and is never
//!   returned or unmapped: each space reuses the chunks it owns, so no
//!   chunk ever changes technology;
//! * MMTk-style **spaces**: a bump-allocated copying nursery at the top of
//!   virtual memory (enabling the fast boundary write barrier), an optional
//!   observer space next to it, Immix-style mark-region mature spaces, large
//!   object spaces and metadata spaces on either socket (the `space` module);
//! * the **Kingsguard** write-rationing collector family ([`CollectorKind`]):
//!   PCM-Only (generational Immix with every space on PCM), KG-N, KG-B,
//!   KG-N+LOO, KG-B+LOO, KG-W, KG-W−LOO and KG-W−MDO;
//! * a mutator-facing object API with zero-initialising allocation, read and
//!   write barriers, and root registration ([`ManagedHeap`]).
//!
//! All allocation, mutation, copying, marking and barrier work issues real
//! accesses to the [`hemu_machine::Machine`], so every store is subject to
//! cache filtering before it can become a PCM write — the property the
//! paper's emulation methodology is built on.

mod chunks;
mod gc;
mod heap;
mod layout;
mod object;
mod plan;
mod space;
mod stats;

pub use heap::{ManagedHeap, RootSlot};
pub use object::{ObjectId, SpaceKind};
pub use plan::{render_table1, CollectorKind, GcConfig};
pub use stats::GcStats;
