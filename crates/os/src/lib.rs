//! OS-level hybrid-memory page management.
//!
//! The paper's emulation platform supports two owners of the DRAM/PCM
//! split: the language runtime (the Kingsguard write-rationing collectors
//! in `hemu-heap`) and the operating system's virtual-memory layer. This
//! crate models the OS side, the baseline the paper's headline claim —
//! write-rationing GC beats OS paging at protecting PCM from writes — is
//! measured against.
//!
//! An [`OsPageManager`] owns page placement for an experiment instead of
//! the GC:
//!
//! * **first-touch placement** per [`OsPolicy`]: `DramFirst` faults pages
//!   into DRAM and spills to PCM when DRAM fills, `PcmFirst` does the
//!   opposite, and `HotCold` starts DRAM-first;
//! * **epoch-driven migration** (`HotCold` only): every
//!   [`OsPagingConfig::epoch_lines`] machine line accesses, the manager
//!   samples the per-page read/write counters kept in each frame's record
//!   (`hemu_numa::NumaMemory::page_heat`), promotes write-hot PCM pages to
//!   DRAM and demotes cold DRAM pages to PCM to make room, moving at most
//!   [`OsPagingConfig::migration_budget`] pages per epoch.
//!
//! Moves go through [`hemu_machine::Machine::migrate_frame`], which
//! charges the page copy as controller traffic (wearing PCM on demotions)
//! and emits a `PageMigrated` trace event. The manager counts its own activity in an
//! [`OsStats`], which the run report copies.
//!
//! # Examples
//!
//! ```
//! use hemu_machine::{CtxId, Machine, MachineProfile};
//! use hemu_os::OsPageManager;
//! use hemu_types::{Addr, ByteSize, MemoryAccess, OsPagingConfig, OsPolicy};
//!
//! let mut machine = Machine::new(MachineProfile::emulation());
//! let mut cfg = OsPagingConfig::new(OsPolicy::DramFirst);
//! cfg.dram_limit = Some(ByteSize::from_kib(16)); // 4 frames of DRAM
//! let mut os = OsPageManager::install(&mut machine, cfg);
//! let proc = machine.add_process(hemu_types::SocketId::DRAM);
//! os.attach_process(&mut machine, proc);
//! machine.access(CtxId(0), proc, MemoryAccess::write(Addr::new(0), 64))?;
//! os.poll(&mut machine)?;
//! # Ok::<(), hemu_types::HemuError>(())
//! ```

#![warn(missing_docs)]

mod manager;

pub use hemu_types::{OsPagingConfig, OsPolicy};
pub use manager::{OsPageManager, OsStats};
