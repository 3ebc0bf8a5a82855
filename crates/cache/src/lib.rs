//! Write-back cache hierarchy simulator.
//!
//! The paper's two central cache phenomena are:
//!
//! 1. **A large shared LLC absorbs most nursery writes** (§V: with a 20 MB
//!    L3 the benefit of KG-N drops from 81 % to 4–8 % because nursery lines
//!    are overwritten in cache and rarely reach memory), and
//! 2. **multiprogrammed LLC interference causes super-linear growth in PCM
//!    writes** (§VI.B: four instances write 6.4× more, not 4×, because their
//!    combined nursery working sets no longer fit in the LLC).
//!
//! Both are write-back effects: a store only becomes a *memory* write when
//! the dirty line is evicted. This crate therefore models exactly the part
//! of the hierarchy that decides which stores reach memory: private per-core
//! L2 caches and one shared, inclusive LLC per socket of cores. (The paper's
//! simulator validation config is likewise "256 KB private L2 + shared
//! 20 MB L3"; L1s only filter latency, not write-backs, and are omitted.)
//!
//! Caches are physically indexed and tagged — required for multiprogrammed
//! workloads, where different processes' pages must not collide in the LLC
//! unless their *physical* frames collide.
//!
//! # Examples
//!
//! ```
//! use hemu_cache::{Cache, CacheConfig};
//! use hemu_types::{AccessKind, ByteSize, LineAddr};
//!
//! let mut c = Cache::new(CacheConfig::new("L2", ByteSize::from_kib(256), 8));
//! let r = c.access(LineAddr::new(7), AccessKind::Write);
//! assert!(!r.hit);
//! let r = c.access(LineAddr::new(7), AccessKind::Read);
//! assert!(r.hit);
//! ```

mod cache;
mod hierarchy;
mod shard;
mod stats;

pub use cache::{AccessResult, Cache, CacheConfig, Victim};
pub use hierarchy::{Hierarchy, HierarchyConfig, HierarchyOutcome, HitLevel, MAX_CONTEXTS};
pub use shard::{ShardedHierarchy, DEFAULT_SHARD_BITS};
pub use stats::CacheStats;
