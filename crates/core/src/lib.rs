//! The emulation platform: configure and run hybrid-memory experiments.
//!
//! This crate is the top of the stack — the equivalent of the paper's
//! measurement harness. An [`Experiment`] names a roster (N copies of one
//! workload for multiprogramming, or N tenants from a workload mix for
//! consolidation), a collector configuration, a machine profile
//! (emulation vs simulation), a scheduler slice and a seed; running it:
//!
//! 1. builds the machine and one process + heap + workload per roster
//!    entry (mix runs also bind each process to its tenant for write
//!    attribution);
//! 2. runs a **warm-up iteration** (replay compilation's first iteration);
//! 3. synchronizes all workloads at a **barrier**, resets the
//!    memory-controller counters, clocks and cache statistics;
//! 4. runs the **measured iteration**, interleaving slices of workload
//!    steps on the shared cache hierarchy while the write-rate monitor
//!    samples the PCM socket's counters ([`RateSample`]);
//! 5. produces a [`RunReport`] (with per-tenant shares for mix runs).
//!
//! # Examples
//!
//! ```no_run
//! use hemu_core::Experiment;
//! use hemu_heap::CollectorKind;
//! use hemu_workloads::WorkloadSpec;
//!
//! let report = Experiment::new(WorkloadSpec::by_name("lusearch").unwrap())
//!     .collector(CollectorKind::KgW)
//!     .instances(2)
//!     .run()?;
//! println!("PCM writes: {}, rate {:.1} MB/s", report.pcm_writes, report.pcm_write_rate_mbs);
//! # Ok::<(), hemu_types::HemuError>(())
//! ```
//!
//! A mix run consolidates different workloads on one machine and
//! attributes every controller write to the tenant owning the frame:
//!
//! ```no_run
//! use hemu_core::Experiment;
//! use hemu_workloads::Mix;
//!
//! let report = Experiment::mix(Mix::Dacapo, 4).slice(64).run()?;
//! let c = report.consolidation.expect("mix runs carry per-tenant shares");
//! for t in &c.per_tenant {
//!     println!("tenant {} ({}): {} PCM line writes", t.id, t.workload, t.pcm_write_lines);
//! }
//! # Ok::<(), hemu_types::HemuError>(())
//! ```

mod experiment;
pub mod lifetime;
mod monitor;
mod report;
mod restore;

pub use experiment::{Experiment, RunArtifacts};
pub use lifetime::LifetimeModel;
pub use monitor::RateSample;
pub use report::{
    ConsolidationSummary, EnduranceSummary, PageWear, ProvenanceSummary, RunReport, TenantShare,
    WearSummary,
};
pub use restore::restore_run_report;
