//! A C/C++-style manually managed heap model.
//!
//! Fig. 3 of the paper compares the PCM writes of the C++ and Java
//! implementations of the GraphChi applications. The mechanisms that
//! differentiate the two are all allocator-level:
//!
//! * **no zero-initialisation** — `malloc` returns uninitialised storage,
//!   so allocation itself writes nothing (Java zeroes every object);
//! * **no copying** — objects never move, so there is no GC copy traffic;
//! * **scattered freshness** — a free-list allocator reuses holes all over
//!   the heap, so fresh allocation is not localised to a nursery region
//!   that a write-rationing collector could pin to DRAM;
//! * **explicit free** — memory returns to size-class free lists.
//!
//! The [`NativeHeap`] mirrors the managed heap's object API (allocate,
//! read/write data and pointer fields) so the same workload code can run on
//! either memory manager; the native version simply requires explicit
//! [`NativeHeap::free`].

mod heap;

pub use heap::{NativeHeap, NativeObject, NativeStats};
