//! The benchmark harness: regenerates every table and figure of the paper.
//!
//! The [`experiments`] module contains one function per table/figure; the
//! `repro` binary (`cargo run -p hemu-bench --bin repro --release -- all`)
//! prints them; host speed is measured by the separate `benchmark/`
//! package. A [`Harness`] caches experiment
//! results so that figures sharing configurations (e.g. Fig. 4's
//! multiprogrammed PCM-Only runs and Table III's lifetime inputs) run each
//! experiment once.

mod executor;
pub mod experiments;
mod fmt;
mod harness;

pub use harness::{Harness, Manager, Profile, RunRecord, RunStatus, Scale};
