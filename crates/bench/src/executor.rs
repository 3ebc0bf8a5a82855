//! The parallel sweep executor: the calling thread and up to `--jobs − 1`
//! scoped helpers drain a deterministic job queue of experiment runs, and
//! [`run_job`] is the one failure boundary of each job.
//!
//! # Determinism contract
//!
//! Parallelism must never change a single exported byte. The harness
//! guarantees that by separating *execution* from *commitment*:
//!
//! 1. A **planning pass** replays a figure function with the harness in
//!    planning mode. Every run the figure demands that is not already
//!    memoized or staged is enqueued as a [`JobSpec`] and answered
//!    with [`HemuError::Deferred`]; the figure's output is discarded.
//! 2. An **execution wave** drains the queue: every worker pulls jobs off
//!    one atomic cursor and runs each end to end in [`run_job`] — the
//!    sweep-wide settings laid over the job's experiment, panic isolation,
//!    the deadline and the retries. Results are staged by queue position.
//! 3. Planning and execution repeat until a pass demands nothing new
//!    (figures branch on earlier results, so dependent runs surface only
//!    after their inputs exist).
//! 4. The **real pass** renders the figure again; staged results are
//!    *committed* (recorded, exported, memoized) strictly in demand order —
//!    the exact order the sequential path executes in. Speculatively
//!    executed runs that the real pass never demands are never committed
//!    and are invisible in every artifact.
//!
//! `--jobs 1` skips the planning machinery entirely and executes inline at
//! first demand, byte-identical to the historical sequential path — which
//! in turn is byte-identical to any `--jobs N` by the argument above.

use hemu_core::{Experiment, RunArtifacts};
use hemu_fault::{EnduranceConfig, FaultPlan};
use hemu_obs::{Reporter, Tracer};
use hemu_types::HemuError;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Records retained per traced run; QPI batching keeps even long runs well
/// under this.
pub(crate) const TRACE_CAPACITY: usize = 1 << 16;

/// Attempts per job. Only a transient injected fault consumes another, and
/// each retry reseeds the fault plan ([`FaultPlan::for_attempt`]). A run is
/// a pure function of its configuration, so a retry starts at once: no
/// pause could change its outcome.
const MAX_ATTEMPTS: u32 = 3;

/// One experiment run awaiting execution, fully described by value so a
/// worker thread needs nothing from the harness.
#[derive(Debug, Clone)]
pub(crate) struct JobSpec {
    /// The memoization key, [`Experiment::key`]: for example
    /// `lusearch|KG-N|1|Emulation`, `mixed@8|PCM-Only|slice64|Emulation`
    /// or `lu.Fix|PCM-Only|1|Emulation|llc=4MiB`.
    pub key: String,
    /// The configured run, before the sweep-wide settings the executor
    /// overlays (fault plan, endurance, profiling, tracing).
    pub experiment: Experiment,
}

impl JobSpec {
    /// Describes one run under its key.
    pub(crate) fn new(experiment: Experiment) -> Self {
        JobSpec {
            key: experiment.key(),
            experiment,
        }
    }
}

/// The outcome of executing one job, parked in staging until the run is
/// demanded (and thereby committed) by the real rendering pass.
#[derive(Debug)]
pub(crate) struct StagedRun {
    /// Attempts consumed (1 unless transient faults forced retries).
    pub attempts: u32,
    /// The full artifact bundle (report, trace, profiler spans, wear
    /// heatmap), or the terminal error.
    pub outcome: Result<RunArtifacts, HemuError>,
}

/// Everything a worker needs to execute jobs: the harness-wide run
/// configuration, cloned once per wave and shared read-only.
pub(crate) struct ExecCtx {
    /// Fault plan applied (key-filtered) to every attempt.
    pub fault_plan: Option<FaultPlan>,
    /// Endurance model applied to every experiment.
    pub endurance: Option<EnduranceConfig>,
    /// Wall-clock bound on each attempt (`--run-deadline`); `None` runs
    /// every attempt inline with no watchdog.
    pub deadline: Option<Duration>,
    /// Whether to capture an event trace of the measured iteration.
    pub want_trace: bool,
    /// Whether to run every job under the phase-and-provenance profiler
    /// (virtual-time spans, write attribution, wear heatmap).
    pub want_profile: bool,
    /// Serialized progress sink shared by all workers.
    pub reporter: Reporter,
}

/// Renders a caught panic payload as a [`HemuError::Panicked`].
fn panic_error(payload: &(dyn std::any::Any + Send)) -> HemuError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into());
    HemuError::Panicked(msg)
}

/// Builds the experiment for one attempt: the job's own configuration plus
/// the sweep-wide profiling and endurance settings and (when the key
/// matches) the fault plan reseeded for this attempt, so a retry does not
/// deterministically re-fail.
fn configure(ctx: &ExecCtx, job: &JobSpec, attempt: u32) -> Experiment {
    let mut e = job.experiment.clone();
    if ctx.want_profile {
        e = e.profiling();
    }
    if let Some(cfg) = ctx.endurance {
        e = e.endurance(cfg);
    }
    if let Some(plan) = &ctx.fault_plan {
        if plan.applies_to(&job.key) {
            e = e.faults(plan.for_attempt(attempt));
        }
    }
    e
}

/// Runs one attempt with panic isolation and, when a deadline is set, a
/// watchdog: the run executes on a helper thread and an expired deadline
/// abandons it (the thread is detached; the Machine it owns is dropped when
/// the attempt eventually unwinds or finishes). A helper thread the host
/// cannot spawn fails the attempt with [`HemuError::Io`].
fn run_guarded(
    deadline: Option<Duration>,
    want_trace: bool,
    experiment: Experiment,
) -> Result<RunArtifacts, HemuError> {
    let body = move || {
        panic::catch_unwind(AssertUnwindSafe(|| {
            let tracer = if want_trace {
                Tracer::bounded(TRACE_CAPACITY)
            } else {
                Tracer::disabled()
            };
            experiment.run_traced(tracer)
        }))
        .unwrap_or_else(|p| Err(panic_error(p.as_ref())))
    };
    let Some(deadline) = deadline else {
        return body();
    };
    let (tx, rx) = mpsc::channel();
    thread::Builder::new()
        .spawn(move || {
            // The receiver may have given up already; that's fine.
            let _ = tx.send(body());
        })
        .map_err(|e| HemuError::Io(format!("spawning the --run-deadline run thread: {e}")))?;
    match rx.recv_timeout(deadline) {
        Ok(result) => result,
        Err(_) => Err(HemuError::Timeout {
            deadline_ms: deadline.as_millis() as u64,
        }),
    }
}

/// Whether a retry may clear `e`: only a transient injected fault can.
fn is_transient(e: &HemuError) -> bool {
    matches!(
        e,
        HemuError::FaultInjected {
            transient: true,
            ..
        }
    )
}

/// Executes one job: panics are caught, the deadline (if set) bounds each
/// attempt, and a transient injected fault is retried, up to
/// [`MAX_ATTEMPTS`] attempts. Nothing in here panics, so this is the one
/// failure boundary of a job: every outcome comes back as a [`StagedRun`].
pub(crate) fn run_job(job: &JobSpec, ctx: &ExecCtx) -> StagedRun {
    // begin/finish bracket the run so a failed or retried run always
    // finalizes its display line — `running ...` is never a key's last word.
    ctx.reporter.begin(&job.key);
    let mut attempt = 1u32;
    loop {
        let outcome = run_guarded(ctx.deadline, ctx.want_trace, configure(ctx, job, attempt));
        match &outcome {
            Ok(_) => ctx.reporter.finish(&format!("done {}", job.key)),
            Err(e) if attempt < MAX_ATTEMPTS && is_transient(e) => {
                ctx.reporter
                    .line(&format!("  retrying {} (attempt {attempt}): {e}", job.key));
                attempt += 1;
                continue;
            }
            Err(e) => ctx.reporter.finish(&format!(
                "FAILED {} after {attempt} attempt(s): {e}",
                job.key
            )),
        }
        return StagedRun {
            attempts: attempt,
            outcome,
        };
    }
}

/// Executes `jobs` on the calling thread plus up to `workers − 1` scoped
/// helpers and returns the staged results in job order. Workers pull jobs
/// from one atomic cursor, so the assignment of jobs to threads is racy —
/// but results are keyed by queue position, and commitment order is decided
/// later by the demand sequence, so scheduling noise cannot reach any
/// artifact. A helper the host cannot spawn just leaves fewer workers; a
/// panic that escapes [`run_job`] (a harness bug) is propagated.
pub(crate) fn execute_wave(jobs: &[JobSpec], workers: usize, ctx: &ExecCtx) -> Vec<StagedRun> {
    let cursor = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else {
                return done;
            };
            done.push((i, run_job(job, ctx)));
        }
    };
    let mut staged: Vec<(usize, StagedRun)> = thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(jobs.len()))
            .map_while(|_| thread::Builder::new().spawn_scoped(scope, drain).ok())
            .collect();
        let mut staged = drain();
        for helper in helpers {
            staged.extend(helper.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        staged
    });
    staged.sort_unstable_by_key(|&(i, _)| i);
    staged.into_iter().map(|(_, run)| run).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Real jobs that fail at once in `validate`, one per out-of-range
    /// instance count, come back in job order at any worker count.
    #[test]
    fn staged_results_come_back_in_job_order() {
        let spec = hemu_workloads::WorkloadSpec::by_name("avrora").expect("known workload");
        let counts = [0usize, 256, 300, 1000, 4096];
        let jobs: Vec<JobSpec> = counts
            .iter()
            .map(|&n| JobSpec::new(Experiment::new(spec).instances(n)))
            .collect();
        let ctx = ExecCtx {
            fault_plan: None,
            endurance: None,
            deadline: None,
            want_trace: false,
            want_profile: false,
            reporter: Reporter::to_writer(Box::new(std::io::sink())),
        };
        for workers in [1, 3] {
            let staged = execute_wave(&jobs, workers, &ctx);
            assert_eq!(staged.len(), counts.len(), "{workers} workers");
            for (n, run) in counts.iter().zip(&staged) {
                assert_eq!(run.attempts, 1, "{workers} workers, n={n}");
                match &run.outcome {
                    Err(HemuError::InvalidConfig(msg)) => {
                        assert!(
                            msg.ends_with(&format!("got {n}")),
                            "{workers} workers: {msg}"
                        )
                    }
                    other => panic!("{workers} workers, n={n}: staged {other:?}"),
                }
            }
        }
    }
}
