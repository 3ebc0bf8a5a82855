//! Workload runs: one [`Experiment`] per configuration, timed and checked.

use crate::digest::{digest, report_fields};
use crate::trace::Tracer;
use hemu_core::{restore_run_report, Experiment, RunReport};
use hemu_heap::CollectorKind;
use hemu_obs::ToJson;
use hemu_types::{ByteSize, OsPagingConfig, OsPolicy};
use hemu_workloads::{Language, WorkloadSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Who places the run's pages: a collector configuration, or the OS
/// hot/cold page migrator over the PCM-Only heap.
#[derive(Debug, Clone, Copy)]
pub enum Manager {
    Gc(CollectorKind),
    OsHotCold,
}

/// One run of the list: benchmark × language × manager × instances.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub bench: &'static str,
    pub cpp: bool,
    pub manager: Manager,
    pub instances: usize,
}

impl RunCfg {
    pub const fn java(bench: &'static str, manager: Manager, instances: usize) -> Self {
        RunCfg {
            bench,
            cpp: false,
            manager,
            instances,
        }
    }

    pub const fn cpp(bench: &'static str) -> Self {
        RunCfg {
            bench,
            cpp: true,
            manager: Manager::Gc(CollectorKind::PcmOnly),
            instances: 1,
        }
    }

    pub fn spec(&self) -> WorkloadSpec {
        let spec = WorkloadSpec::by_name(self.bench)
            .unwrap_or_else(|| panic!("`{}` is not in the workload registry", self.bench));
        if self.cpp {
            spec.with_language(Language::Cpp)
        } else {
            spec
        }
    }

    pub fn experiment(&self, seed: u64) -> Experiment {
        let e = Experiment::new(self.spec())
            .seed(seed)
            .instances(self.instances);
        match self.manager {
            Manager::Gc(collector) => e.collector(collector),
            Manager::OsHotCold => {
                // As `repro` runs it: a 4 MiB DRAM clamp, so first-touch
                // placement spills and the migrator has pages to move.
                let mut cfg = OsPagingConfig::new(OsPolicy::HotCold);
                cfg.dram_limit = Some(ByteSize::from_mib(4));
                e.os_paging(cfg)
            }
        }
    }

    pub fn label(&self) -> String {
        let manager = match self.manager {
            Manager::Gc(c) if self.cpp => {
                debug_assert_eq!(c, CollectorKind::PcmOnly);
                "malloc"
            }
            Manager::Gc(c) => c.name(),
            Manager::OsHotCold => OsPolicy::HotCold.name(),
        };
        format!("{}|{manager}|x{}", self.spec(), self.instances)
    }
}

/// A completed, checked run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Host seconds inside `Experiment::run` (or `run_full`).
    pub seconds: f64,
    pub digest: u64,
    pub report: RunReport,
}

/// Runs `cfg` at `seed` — profiled when `profiled`, adopting the program's
/// own spans — then exports its report and checks that the export restores
/// to a report with the same statistics.
///
/// # Errors
///
/// The run's error or panic, or a failed round trip.
pub fn execute(
    cfg: &RunCfg,
    seed: u64,
    profiled: bool,
    tracer: &mut Tracer,
    run: usize,
) -> Result<RunOutcome, String> {
    let exp = cfg.experiment(seed);
    let span = tracer.open("run", run, None);
    let parent = span.id();
    let result = guarded(|| {
        let done = if profiled {
            exp.profiling().run_full().map(|a| (a.report, a.spans))
        } else {
            exp.run().map(|r| (r, Vec::new()))
        };
        done.map_err(|e| e.to_string())
    });
    let seconds = tracer.close(span);
    let (report, spans) = result?;
    tracer.adopt(&spans, parent, run);

    let span = tracer.open("obs.export", run, None);
    let json = report.to_json();
    let _ = tracer.close(span);
    let span = tracer.open("core.restore", run, None);
    let restored = restore_run_report(&json);
    let _ = tracer.close(span);
    let sim = digest(&report_fields(&report));
    match restored {
        Some(r) if digest(&report_fields(&r)) == sim => Ok(RunOutcome {
            seconds,
            digest: sim,
            report,
        }),
        Some(_) => Err("restored report has different statistics".into()),
        None => Err("exported report does not round-trip".into()),
    }
}

/// Runs `f`, turning a panic into an error, so one failed run is counted
/// and the list goes on.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned());
        Err(format!(
            "panic: {}",
            message.as_deref().unwrap_or("(no message)")
        ))
    })
}
