//! The parallel sweep executor: a fixed-size worker pool that drains a
//! deterministic job queue of experiment runs.
//!
//! # Determinism contract
//!
//! Parallelism must never change a single exported byte. The harness
//! guarantees that by separating *execution* from *commitment*:
//!
//! 1. A **planning pass** replays a figure function with the harness in
//!    planning mode. Every run the figure demands that is not already
//!    cached, failed, or staged is enqueued as a [`JobSpec`] and answered
//!    with [`HemuError::Deferred`]; the figure's output is discarded.
//! 2. An **execution wave** drains the queue on a pool of `--jobs`
//!    workers. Each worker owns its jobs end to end — experiment
//!    construction, retries, backoff sleeps — and parks only itself while
//!    backing off. Results land in per-job staging slots.
//! 3. Planning and execution repeat until a pass demands nothing new
//!    (figures branch on earlier results, so dependent runs surface only
//!    after their inputs exist).
//! 4. The **real pass** renders the figure again; staged results are
//!    *committed* (recorded, exported, cached) strictly in demand order —
//!    the exact order the sequential path executes in. Speculatively
//!    executed runs that the real pass never demands are never committed
//!    and are invisible in every artifact.
//!
//! `--jobs 1` skips the planning machinery entirely and executes inline at
//! first demand, byte-identical to the historical sequential path — which
//! in turn is byte-identical to any `--jobs N` by the argument above.

use crate::harness::{Manager, Profile, RunPolicy};
use hemu_core::{Experiment, RunArtifacts};
use hemu_fault::{EnduranceConfig, FaultPlan};
use hemu_obs::{Reporter, Tracer};
use hemu_types::{HemuError, OsPagingConfig};
use hemu_workloads::Roster;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;

/// Records retained per traced run; QPI batching keeps even long runs well
/// under this.
pub(crate) const TRACE_CAPACITY: usize = 1 << 16;

/// One experiment run awaiting execution, fully described by value so a
/// worker thread needs nothing from the harness.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The memoization key: `workload|manager|instances|profile` for
    /// copies, `mix@tenants|manager|sliceN|profile` for mixes.
    pub key: String,
    /// Who co-runs: copies of one workload, or tenants from a mix.
    pub roster: Roster,
    /// Co-running workload count (copies or tenants).
    pub instances: usize,
    /// Scheduler slice in workload steps.
    pub slice: u64,
    /// Who places pages: a collector or an OS paging policy.
    pub manager: Manager,
    /// Machine profile.
    pub profile: Profile,
}

impl JobSpec {
    /// Describes one run and renders its key, the one place both key
    /// formats are spelled.
    pub(crate) fn new(
        roster: Roster,
        instances: usize,
        slice: u64,
        manager: Manager,
        profile: Profile,
    ) -> Self {
        let key = match roster {
            Roster::Copies(spec) => format!("{spec}|{}|{instances}|{profile:?}", manager.name()),
            Roster::Mix(mix) => format!(
                "{mix}@{instances}|{}|slice{slice}|{profile:?}",
                manager.name()
            ),
        };
        JobSpec {
            key,
            roster,
            instances,
            slice,
            manager,
            profile,
        }
    }
}

/// The outcome of executing one job, parked in staging until the run is
/// demanded (and thereby committed) by the real rendering pass.
#[derive(Debug)]
pub struct StagedRun {
    /// Attempts consumed (1 unless transient faults forced retries).
    pub attempts: u32,
    /// The full artifact bundle (report, trace, profiler spans, wear
    /// heatmap), or the terminal error.
    pub outcome: Result<RunArtifacts, HemuError>,
}

/// Everything a worker needs to execute jobs: the harness-wide run
/// configuration, cloned once per wave and shared read-only.
pub struct ExecCtx {
    /// Fault plan applied (key-filtered) to every attempt.
    pub fault_plan: Option<FaultPlan>,
    /// Endurance model applied to every experiment.
    pub endurance: Option<EnduranceConfig>,
    /// Deadline/retry policy.
    pub policy: RunPolicy,
    /// Migrator tuning for OS-managed jobs (the job's policy overrides the
    /// `policy` field).
    pub os_tuning: OsPagingConfig,
    /// Whether to capture an event trace of the measured iteration.
    pub want_trace: bool,
    /// Whether to run the phase-and-provenance profiler (virtual-time
    /// spans, write attribution, wear heatmap).
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

/// Builds the experiment for one attempt, applying the endurance model and
/// (when the key matches) the fault plan reseeded for this attempt so a
/// retry does not deterministically re-fail.
fn configure(ctx: &ExecCtx, job: &JobSpec, attempt: u32) -> Experiment {
    let mut e = match job.roster {
        Roster::Copies(spec) => Experiment::new(spec).instances(job.instances),
        Roster::Mix(mix) => Experiment::mix(mix, job.instances),
    }
    .slice(job.slice)
    .profile(job.profile.machine());
    if ctx.want_profile {
        e = e.profiling();
    }
    match job.manager {
        Manager::Gc(collector) => e = e.collector(collector),
        Manager::Os(policy) => {
            let mut cfg = ctx.os_tuning;
            cfg.policy = policy;
            // The default collector is PCM-Only, the only one an OS-managed
            // run accepts.
            e = e.os_paging(cfg);
        }
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

/// Runs one attempt with panic isolation and, when the policy sets a
/// deadline, a watchdog: the run executes on a helper thread and an
/// expired deadline abandons it (the thread is detached; the Machine it
/// owns is dropped when the attempt eventually unwinds or finishes).
fn run_guarded(
    policy: &RunPolicy,
    want_trace: bool,
    experiment: Experiment,
) -> Result<RunArtifacts, HemuError> {
    let body = move || {
        let tracer = if want_trace {
            Tracer::bounded(TRACE_CAPACITY)
        } else {
            Tracer::disabled()
        };
        experiment.run_traced(tracer)
    };
    match policy.deadline {
        None => panic::catch_unwind(AssertUnwindSafe(body))
            .unwrap_or_else(|p| Err(panic_error(p.as_ref()))),
        Some(deadline) => {
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let result = panic::catch_unwind(AssertUnwindSafe(body))
                    .unwrap_or_else(|p| Err(panic_error(p.as_ref())));
                // The receiver may have given up already; that's fine.
                let _ = tx.send(result);
            });
            match rx.recv_timeout(deadline) {
                Ok(result) => result,
                Err(_) => Err(HemuError::Timeout {
                    deadline_ms: deadline.as_millis() as u64,
                }),
            }
        }
    }
}

/// Executes one job under the resilience policy: panics are caught, a
/// deadline (if set) bounds each attempt, and transient injected faults
/// are retried with capped linear backoff. Backoff sleeps park only the
/// calling worker; other workers keep draining the queue.
pub fn run_job(job: &JobSpec, ctx: &ExecCtx) -> StagedRun {
    run_job_inner(job, ctx, true)
}

/// [`run_job`] with explicit progress semantics: `announce = true` opens
/// the job's display with a `running` line; `false` marks a supervised
/// requeue with a `retried` line instead, so a job that crashed its worker
/// never emits a duplicate `begin` and progress output stays parseable as
/// one `running`/`retried*`/final-line sequence per key.
pub(crate) fn run_job_inner(job: &JobSpec, ctx: &ExecCtx, announce: bool) -> StagedRun {
    // begin/finish bracket the run so a failed or retried run always
    // finalizes its display line — `running ...` is never a key's last word.
    if announce {
        ctx.reporter.begin(&job.key);
    } else {
        ctx.reporter.retried(&job.key);
    }
    let mut attempt = 1u32;
    loop {
        match run_guarded(&ctx.policy, ctx.want_trace, configure(ctx, job, attempt)) {
            Ok(ok) => {
                ctx.reporter.finish(&job.key, &format!("done {}", job.key));
                return StagedRun {
                    attempts: attempt,
                    outcome: Ok(ok),
                };
            }
            Err(e) => {
                let transient = matches!(
                    e,
                    HemuError::FaultInjected {
                        transient: true,
                        ..
                    }
                );
                if transient && attempt < ctx.policy.max_attempts {
                    ctx.reporter
                        .line(&format!("  retrying {} (attempt {attempt}): {e}", job.key));
                    thread::sleep(ctx.policy.backoff_for(attempt));
                    attempt += 1;
                    continue;
                }
                ctx.reporter.finish(
                    &job.key,
                    &format!("FAILED {} after {attempt} attempt(s): {e}", job.key),
                );
                return StagedRun {
                    attempts: attempt,
                    outcome: Err(e),
                };
            }
        }
    }
}

/// Executes `jobs` on a pool of at most `workers` threads and returns the
/// staged results in job order. Workers pull jobs from a shared atomic
/// cursor, so the assignment of jobs to threads is racy — but results are
/// keyed by queue position, and commitment order is decided later by the
/// demand sequence, so scheduling noise cannot reach any artifact.
pub fn execute_wave(jobs: &[JobSpec], workers: usize, ctx: &ExecCtx) -> Vec<StagedRun> {
    execute_wave_with(jobs, workers, ctx, run_job_inner)
}

/// [`execute_wave`] generic over the per-job runner, so the supervision
/// machinery (requeue, bounded retries, `retried` progress lines) can be
/// unit-tested with a runner that misbehaves on demand.
///
/// # Worker supervision
///
/// `run_job_inner` already catches experiment panics, so a panic that
/// *escapes* the runner means the worker machinery itself crashed mid-job.
/// Rather than abort the sweep (or silently lose the job), the pool
/// supervises itself:
///
/// - the panic is caught at the worker loop, so the worker thread survives
///   and keeps draining the queue — the pool never shrinks;
/// - the crashed job is requeued and re-announced with a `retried`
///   progress line (never a duplicate `begin`);
/// - requeues are bounded by the [`RunPolicy`] retry budget; a job that
///   keeps killing workers is staged as [`HemuError::Panicked`] and the
///   sweep carries on.
///
/// Requeued jobs re-execute from scratch; determinism makes the retry
/// invisible in every artifact.
pub(crate) fn execute_wave_with<R>(
    jobs: &[JobSpec],
    workers: usize,
    ctx: &ExecCtx,
    runner: R,
) -> Vec<StagedRun>
where
    R: Fn(&JobSpec, &ExecCtx, bool) -> StagedRun + Sync,
{
    let workers = workers.clamp(1, jobs.len().max(1));
    let slots: Vec<Mutex<Option<StagedRun>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let crashes: Vec<AtomicU32> = jobs.iter().map(|_| AtomicU32::new(0)).collect();
    let requeue: Mutex<VecDeque<usize>> = Mutex::new(VecDeque::new());
    let cursor = AtomicUsize::new(0);
    let worker_loop = || loop {
        // Requeued (supervised-crash) jobs take priority over fresh ones so
        // a crash surfaces its retry budget quickly instead of starving
        // behind the tail of the queue.
        let requeued = requeue.lock().map_or(None, |mut q| q.pop_front());
        let i = match requeued {
            Some(i) => i,
            None => {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                i
            }
        };
        let job = &jobs[i];
        let first = crashes[i].load(Ordering::Relaxed) == 0;
        match panic::catch_unwind(AssertUnwindSafe(|| runner(job, ctx, first))) {
            Ok(staged) => {
                if let Ok(mut s) = slots[i].lock() {
                    *s = Some(staged);
                }
            }
            Err(payload) => {
                let err = panic_error(payload.as_ref());
                let crash_count = crashes[i].fetch_add(1, Ordering::Relaxed) + 1;
                if crash_count < ctx.policy.max_attempts {
                    ctx.reporter.line(&format!(
                        "  supervisor: worker crashed on {} ({err}); requeueing (crash {crash_count})",
                        job.key
                    ));
                    if let Ok(mut q) = requeue.lock() {
                        q.push_back(i);
                    }
                } else {
                    ctx.reporter.finish(
                        &job.key,
                        &format!(
                            "FAILED {} after {crash_count} worker crash(es): {err}",
                            job.key
                        ),
                    );
                    if let Ok(mut s) = slots[i].lock() {
                        *s = Some(StagedRun {
                            attempts: crash_count,
                            outcome: Err(err),
                        });
                    }
                }
            }
        }
    };
    if workers == 1 {
        worker_loop();
    } else {
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker_loop);
            }
        });
    }
    // Replenishment fallback: if every worker somehow died with jobs still
    // queued or requeued (catch_unwind above makes this unreachable in
    // practice), finish the stragglers inline rather than losing them.
    for (i, slot) in slots.iter().enumerate() {
        let empty = slot.lock().map_or(false, |s| s.is_none());
        if empty {
            let staged = panic::catch_unwind(AssertUnwindSafe(|| {
                runner(&jobs[i], ctx, crashes[i].load(Ordering::Relaxed) == 0)
            }))
            .unwrap_or_else(|payload| StagedRun {
                attempts: 1,
                outcome: Err(panic_error(payload.as_ref())),
            });
            if let Ok(mut s) = slot.lock() {
                *s = Some(staged);
            }
        }
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .unwrap_or_else(|| StagedRun {
                    attempts: 1,
                    outcome: Err(HemuError::Panicked("worker dropped a staged run".into())),
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::Arc;

    /// A writer appending into a shared buffer, for asserting on progress
    /// output.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if let Ok(mut b) = self.0.lock() {
                b.extend_from_slice(buf);
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn test_ctx(buf: &Arc<Mutex<Vec<u8>>>) -> ExecCtx {
        ExecCtx {
            fault_plan: None,
            endurance: None,
            policy: RunPolicy::default(),
            os_tuning: OsPagingConfig::default(),
            want_trace: false,
            want_profile: false,
            reporter: Reporter::to_writer(Box::new(SharedBuf(Arc::clone(buf)))),
        }
    }

    fn test_jobs(keys: &[&str]) -> Vec<JobSpec> {
        let spec = hemu_workloads::WorkloadSpec::by_name("avrora").expect("known workload");
        keys.iter()
            .map(|k| JobSpec {
                key: (*k).to_string(),
                ..JobSpec::new(
                    Roster::Copies(spec),
                    1,
                    1,
                    Manager::Gc(hemu_heap::CollectorKind::PcmOnly),
                    Profile::Emulation,
                )
            })
            .collect()
    }

    /// A stub staged result that identifies which job produced it without
    /// having to construct real run artifacts.
    fn stub_result(job: &JobSpec) -> StagedRun {
        StagedRun {
            attempts: 1,
            outcome: Err(HemuError::InvalidConfig(format!("stub:{}", job.key))),
        }
    }

    fn drained(buf: &Arc<Mutex<Vec<u8>>>) -> String {
        String::from_utf8(buf.lock().expect("buffer lock").clone()).expect("utf8 progress")
    }

    #[test]
    fn a_worker_crash_requeues_the_job_without_a_duplicate_begin() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let ctx = test_ctx(&buf);
        let jobs = test_jobs(&["crashy", "steady"]);
        // Record every (key, announce) call; panic exactly once, on the
        // first delivery of `crashy`.
        let calls: Mutex<Vec<(String, bool)>> = Mutex::new(Vec::new());
        let results = execute_wave_with(&jobs, 2, &ctx, |job, _ctx, announce| {
            let first_crashy = {
                let mut c = calls.lock().expect("calls lock");
                c.push((job.key.clone(), announce));
                job.key == "crashy" && c.iter().filter(|(k, _)| k == "crashy").count() == 1
            };
            if first_crashy {
                panic!("simulated worker crash");
            }
            stub_result(job)
        });
        // Both slots hold the stub result, in job order, despite the crash.
        assert_eq!(results.len(), 2);
        for (job, staged) in jobs.iter().zip(&results) {
            match &staged.outcome {
                Err(HemuError::InvalidConfig(msg)) => assert_eq!(msg, &format!("stub:{}", job.key)),
                other => panic!("job {} staged {other:?}", job.key),
            }
        }
        // The requeued delivery was announced as a retry, not a fresh begin.
        let calls = calls.into_inner().expect("calls lock");
        let crashy: Vec<bool> = calls
            .iter()
            .filter(|(k, _)| k == "crashy")
            .map(|(_, announce)| *announce)
            .collect();
        assert_eq!(crashy, [true, false], "requeue must re-announce as retried");
        let text = drained(&buf);
        assert!(
            text.contains("supervisor: worker crashed on crashy"),
            "supervisor line missing from:\n{text}"
        );
    }

    #[test]
    fn repeated_crashes_exhaust_the_retry_budget() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let ctx = test_ctx(&buf);
        let jobs = test_jobs(&["doomed"]);
        let results = execute_wave_with(&jobs, 1, &ctx, |_job, _ctx, _announce| {
            panic!("crashes every time");
        });
        assert_eq!(results.len(), 1);
        match &results[0].outcome {
            Err(HemuError::Panicked(msg)) => {
                assert!(
                    msg.contains("crashes every time"),
                    "unexpected panic message: {msg}"
                )
            }
            other => panic!("expected a panic error, got {other:?}"),
        }
        assert_eq!(
            results[0].attempts, ctx.policy.max_attempts,
            "the whole retry budget must be consumed before giving up"
        );
        let text = drained(&buf);
        assert!(
            text.contains("FAILED doomed") && text.contains("worker crash"),
            "final FAILED line missing from:\n{text}"
        );
    }
}
