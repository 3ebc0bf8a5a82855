//! Deterministic fault injection and PCM endurance modeling.
//!
//! The paper measures writes to the PCM socket because writes determine PCM
//! lifetime; this crate closes the loop by modeling what those writes wear
//! out, and by letting experiments inject the failures a real hybrid-memory
//! machine would eventually produce. Everything here is driven by the
//! in-tree [`DeterministicRng`](hemu_types::DeterministicRng), so a faulty
//! run is exactly as reproducible as a healthy one: same config, same seed,
//! same faults, same result.
//!
//! Four pieces:
//!
//! - [`FaultPlan`] — a parseable description of *which* faults to inject:
//!   transient physical-frame allocation failures, a forced out-of-memory
//!   at the Nth managed allocation, and periodic QPI stall bursts.
//! - [`FaultInjector`] — the runtime object the memory system consults at
//!   each injection point. Library code answers injections with
//!   [`HemuError`](hemu_types::HemuError) values, never panics.
//! - [`EnduranceConfig`] / [`EnduranceModel`] — a per-line write-endurance
//!   budget for the PCM socket with deterministic cell-to-cell variability.
//!   When a line exceeds its budget the NUMA layer retires the containing
//!   frame and remaps the page transparently (see `hemu-numa`).
//! - [`ChaosKill`] — a commit-counting hook for the one failure no
//!   in-process injector can model: the process being killed. The bench
//!   harness uses it (`repro --chaos-kill-after`) to self-test crash-safe
//!   resume end-to-end.
//!
//! # Examples
//!
//! ```
//! use hemu_fault::{FaultInjector, FaultPlan};
//!
//! let plan = FaultPlan::parse("oom_at=100,seed=7").unwrap();
//! let mut inj = FaultInjector::new(plan);
//! for _ in 0..99 {
//!     assert!(inj.on_managed_alloc().is_ok());
//! }
//! assert!(inj.on_managed_alloc().is_err()); // the 100th allocation fails
//! ```

mod chaos;
mod endurance;
mod inject;
mod plan;

pub use chaos::{ChaosKill, CHAOS_EXIT_CODE};
pub use endurance::{EnduranceConfig, EnduranceModel};
pub use inject::FaultInjector;
pub use plan::{FaultPlan, QpiBurst};
