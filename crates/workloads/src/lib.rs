//! Benchmark models for the emulation platform.
//!
//! The paper evaluates 15 Java applications: 11 from DaCapo, pseudojbb2005
//! (Pjbb), and three GraphChi graph applications (PageRank, Connected
//! Components, ALS matrix factorisation), the last three in both Java and
//! C++ variants. We cannot run JVM bytecode, so:
//!
//! * the **GraphChi applications are real implementations** of their
//!   algorithms over synthetic power-law graphs and ratings, written
//!   against the [`memapi::Memory`] abstraction so the same algorithm runs
//!   on the managed heap (Java semantics: boxed temporaries, zeroed
//!   allocation, GC) or the native heap (C++ semantics: in-place updates,
//!   explicit free);
//! * the **DaCapo and Pjbb applications are synthetic mutators**, one
//!   parameter set per benchmark, calibrated to the published allocation
//!   volume, survival, object-size and mutation characteristics of each —
//!   what the memory system sees is the allocation/mutation stream, which
//!   these models generate through the real heap API.
//!
//! Every workload implements [`Workload`] as a resumable state machine so
//! the multiprogrammed runner can interleave instances on the shared cache
//! hierarchy, and supports the replay-compilation protocol (a warm-up
//! iteration followed by a measured iteration).

#![warn(missing_docs)]

pub mod dacapo;
pub mod graph;
pub mod memapi;
pub mod mix;
pub mod pjbb;
pub mod spec;

pub use memapi::{Memory, Obj};
pub use mix::{Mix, Roster, TenantSpec};
pub use spec::{DatasetSize, Language, Suite, WorkloadSpec};

use hemu_machine::Machine;
use hemu_types::{ByteSize, Result};

/// Outcome of one workload step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// More work remains in the current iteration.
    Running,
    /// The current benchmark iteration has completed.
    IterationDone,
}

/// A resumable benchmark.
///
/// A workload performs a bounded amount of work per [`Workload::step`]
/// call; the runner interleaves steps of concurrent instances so they
/// contend in the shared LLC exactly like co-scheduled processes.
pub trait Workload {
    /// Benchmark name as the paper spells it (e.g. `lusearch`, `pr`).
    fn name(&self) -> &str;

    /// Which suite the benchmark belongs to.
    fn suite(&self) -> Suite;

    /// The suite's base nursery size (4 MiB for DaCapo/Pjbb, 32 MiB for
    /// GraphChi, §IV).
    fn base_nursery(&self) -> ByteSize {
        self.suite().base_nursery()
    }

    /// The heap budget for this benchmark (twice the minimum heap, §IV).
    fn heap_size(&self) -> ByteSize;

    /// Performs one bounded quantum of work.
    ///
    /// # Errors
    ///
    /// Propagates heap or machine exhaustion.
    fn step(&mut self, machine: &mut Machine, mem: &mut Memory) -> Result<StepResult>;

    /// Rewinds progress so the next [`Workload::step`] begins a fresh
    /// iteration (live data structures persist, as across DaCapo
    /// iterations under replay compilation).
    fn start_iteration(&mut self);
}
