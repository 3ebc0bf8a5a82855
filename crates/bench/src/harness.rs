//! The caching, fault-tolerant experiment harness.

use crate::executor::{self, ExecCtx, JobSpec, StagedRun};
use hemu_core::{restore_run_report, Experiment, PageWear, RunReport};
use hemu_fault::{ChaosKill, EnduranceConfig, FaultPlan, CHAOS_EXIT_CODE};
use hemu_heap::CollectorKind;
use hemu_machine::MachineProfile;
use hemu_obs::journal::{read_journal, JournalReadError, JournalRecord, JournalWriter};
use hemu_obs::json::{JsonObject, ToJson};
use hemu_obs::{fnv1a64, hash_hex, to_json_lines, write_atomic_str, Csv, Reporter, Timeline};
use hemu_types::{HemuError, OsPagingConfig, OsPolicy, Result};
use hemu_workloads::{Mix, WorkloadSpec};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How much of the evaluation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Every benchmark and dataset the paper uses.
    #[default]
    Full,
    /// A representative subset (the §V simulator subset of DaCapo, Pjbb,
    /// and the GraphChi applications) for faster turnaround.
    Quick,
}

/// Which machine profile an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// The NUMA emulation platform (16 SMT contexts).
    Emulation,
    /// The Sniper-like simulation reference (8 cores, no SMT).
    Simulation,
}

impl Profile {
    pub(crate) fn machine(self) -> MachineProfile {
        match self {
            Profile::Emulation => MachineProfile::emulation(),
            Profile::Simulation => MachineProfile::simulation(),
        }
    }
}

/// Who owns page placement for a run: a write-rationing collector (the
/// paper's Kingsguard family) or an OS paging policy (the kernel-side
/// baseline). Both sides of that comparison sweep through the same
/// harness, so a figure can put `KG-W` and `OS-hot-cold` in adjacent
/// columns.
///
/// `From` impls let every call site keep passing a bare [`CollectorKind`]
/// or [`OsPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Manager {
    /// GC-managed placement under this collector configuration.
    Gc(CollectorKind),
    /// OS-managed placement under this policy (the collector underneath is
    /// the placement-neutral PCM-Only configuration).
    Os(OsPolicy),
}

impl Manager {
    /// Stable display name used in run keys, reports and figure columns.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Manager::Gc(c) => c.name(),
            Manager::Os(p) => p.name(),
        }
    }
}

impl From<CollectorKind> for Manager {
    fn from(c: CollectorKind) -> Self {
        Manager::Gc(c)
    }
}

impl From<OsPolicy> for Manager {
    fn from(p: OsPolicy) -> Self {
        Manager::Os(p)
    }
}

/// Per-run resilience policy: how long an experiment may take and how
/// transient injected faults are retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPolicy {
    /// Wall-clock deadline per attempt. `None` runs inline with no
    /// watchdog; `Some` runs each attempt on a helper thread and abandons
    /// it on expiry.
    pub deadline: Option<Duration>,
    /// Attempts per run; only transient faults consume extra attempts.
    pub max_attempts: u32,
    /// Base backoff between retries (attempt `n` sleeps `n × backoff`,
    /// capped at [`RunPolicy::max_backoff`]).
    pub backoff: Duration,
    /// Upper bound on any single backoff sleep, so a generous `backoff`
    /// combined with a deep retry budget cannot stall a worker for long
    /// stretches.
    pub max_backoff: Duration,
}

impl RunPolicy {
    /// The capped linear backoff before retrying after `attempt` failed
    /// attempts: `min(attempt × backoff, max_backoff)`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        self.backoff.saturating_mul(attempt).min(self.max_backoff)
    }
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            deadline: None,
            max_attempts: 3,
            backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// Terminal outcome of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The run produced a report.
    Ok,
    /// The run failed after exhausting its retry budget.
    Failed,
    /// The run exceeded the policy deadline and was abandoned.
    TimedOut,
}

impl RunStatus {
    /// Stable lower-case name used in `runs.json`.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Failed => "failed",
            RunStatus::TimedOut => "timed-out",
        }
    }
}

/// One executed run (successful or not), in execution order.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The memoization key ([`Experiment::key`]): `workload|manager|instances|Profile`,
    /// or `mix@tenants|manager|sliceN|Profile` for mix runs, plus one
    /// `|name=value` segment per setting off its default (`|llc=4MiB`).
    pub key: String,
    /// Terminal outcome.
    pub status: RunStatus,
    /// Attempts consumed (1 unless transient faults forced retries).
    pub attempts: u32,
    /// The final error rendered as text, for failed runs.
    pub error: Option<String>,
}

/// Runs experiments, memoizing results by configuration so figures that
/// share runs do not repeat them. Failures are memoized too: a sweep
/// carries on past a failed configuration, later references to it fail
/// fast, and [`Harness::finalize_exports`] records every outcome.
#[derive(Default)]
pub struct Harness {
    scale: Scale,
    cache: HashMap<String, RunReport>,
    /// Failed configurations and their terminal error, so repeated figure
    /// references do not re-run a known-bad experiment.
    failed: HashMap<String, HemuError>,
    /// Experiments executed (cache misses) — visible in the harness output
    /// so a reader can see how much work a figure took.
    pub runs_executed: usize,
    /// When set, every executed run writes `<dir>/<key>.json` and
    /// [`Harness::finalize_exports`] writes the combined artifacts.
    json_dir: Option<PathBuf>,
    /// When set, every executed run captures a bounded event trace and
    /// appends it (JSONL) to this file.
    trace_out: Option<PathBuf>,
    /// When true, every executed run enables the phase-and-provenance
    /// profiler (write attribution in reports, spans, wear heatmaps).
    profile_runs: bool,
    /// When set, [`Harness::finalize_exports`] writes the committed runs'
    /// spans as one Chrome trace-event timeline (implies profiling).
    timeline_out: Option<PathBuf>,
    /// When set, [`Harness::finalize_exports`] writes the committed runs'
    /// per-page PCM wear rows as CSV (implies profiling).
    heatmap_out: Option<PathBuf>,
    /// Timeline of committed profiled runs, appended in demand order.
    timeline: Timeline,
    /// Wear-heatmap rows of committed profiled runs, in demand order.
    heatmap_rows: Vec<(String, Vec<PageWear>)>,
    /// Executed runs in execution order, for the combined `runs.json`.
    records: Vec<RunRecord>,
    /// Fault plan applied (key-filtered) to every executed experiment.
    fault_plan: Option<FaultPlan>,
    /// Endurance model applied to every executed experiment.
    endurance: Option<EnduranceConfig>,
    /// Migrator tuning (epoch length, budget, DRAM clamp) given to every
    /// OS-managed run; the policy field is overwritten per run.
    os_tuning: OsPagingConfig,
    policy: RunPolicy,
    /// Worker-pool width for planned sweeps; 0 or 1 means fully inline
    /// sequential execution (the historical path).
    jobs: usize,
    /// When true, `Harness::run` defers execution: unknown runs are
    /// enqueued as pending jobs and answered with [`HemuError::Deferred`].
    planning: bool,
    /// Jobs discovered by planning passes, in discovery order.
    pending: Vec<JobSpec>,
    /// Keys already in `pending`, to keep the queue duplicate-free.
    pending_set: HashSet<String>,
    /// Executed-but-uncommitted results. A staged run becomes visible in
    /// artifacts only when a real (non-planning) pass demands it; runs
    /// executed speculatively but never demanded stay here and are
    /// invisible in every export.
    staged: HashMap<String, StagedRun>,
    /// Serialized progress sink shared with pool workers.
    reporter: Reporter,
    /// Journaled results loaded by [`Harness::resume_from`], replayed into
    /// the memo table (and re-journaled) at first real demand instead of
    /// re-executing. Like `staged`, entries the sweep never demands are
    /// invisible in every export.
    restored: HashMap<String, RestoredRun>,
    /// Runs replayed from a resume journal instead of executed — visible
    /// like [`Harness::runs_executed`] so a reader can see how much work a
    /// resume saved.
    pub runs_restored: usize,
    /// Write-ahead journal of committed runs, created lazily in the
    /// [`Harness::set_json_dir`] directory at first commit (or eagerly by
    /// [`Harness::resume_from`]).
    journal: Option<JournalWriter>,
    /// Abrupt-exit hook for crash-safety self-tests, armed by
    /// [`Harness::set_chaos_kill_after`].
    chaos: ChaosKill,
}

/// One run replayed from a resume journal: the restored report plus the
/// journal metadata needed to re-journal it identically on commit.
struct RestoredRun {
    report: RunReport,
    attempts: u32,
}

/// Looks a benchmark up by name.
///
/// # Errors
///
/// Returns [`HemuError::InvalidConfig`] for a name the workload registry
/// does not know.
pub(crate) fn workload(name: &str) -> Result<WorkloadSpec> {
    WorkloadSpec::by_name(name)
        .ok_or_else(|| HemuError::InvalidConfig(format!("unknown benchmark `{name}`")))
}

fn io_err(context: &str, path: &Path, e: &std::io::Error) -> HemuError {
    HemuError::Io(format!("{context} {}: {e}", path.display()))
}

/// Turns a run key (`lusearch.small|KG-N|1|Emulation`) into a file stem.
fn slug(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Appends one run's trace records to the JSONL file at `path`, under a
/// `{"run":key}` header line.
fn append_trace(path: &Path, key: &str, trace: &[hemu_obs::TraceRecord]) -> Result<()> {
    let mut text = String::from("{\"run\":");
    hemu_obs::json::push_json_str(&mut text, key);
    text.push_str("}\n");
    text.push_str(&to_json_lines(trace));
    let existing = fs::read_to_string(path).map_err(|e| io_err("reading", path, &e))?;
    write_atomic_str(path, &(existing + &text)).map_err(|e| io_err("writing", path, &e))
}

/// Writes the per-run JSON artifact into `dir` atomically and returns its
/// content hash (hex), which the journal records so resume can verify the
/// file on disk is the one that was committed.
fn write_run_json(dir: &Path, key: &str, report: &RunReport) -> Result<String> {
    let path = dir.join(format!("{}.json", slug(key)));
    let mut text = report.to_json();
    text.push('\n');
    write_atomic_str(&path, &text).map_err(|e| io_err("writing", &path, &e))?;
    Ok(hash_hex(fnv1a64(text.as_bytes())))
}

impl Harness {
    /// Creates a harness at the given scale.
    pub fn new(scale: Scale) -> Self {
        Harness {
            scale,
            ..Self::default()
        }
    }

    /// Installs a fault plan applied to every subsequent run whose key
    /// matches the plan's `only` filter. An inert plan clears it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = if plan.is_inert() { None } else { Some(plan) };
    }

    /// Enables the PCM endurance model for every subsequent run.
    pub fn set_endurance(&mut self, cfg: EnduranceConfig) {
        self.endurance = Some(cfg);
    }

    /// Sets the per-run deadline/retry policy.
    pub fn set_run_policy(&mut self, policy: RunPolicy) {
        self.policy = policy;
    }

    /// Sets the migrator tuning (epoch length, migration budget, DRAM
    /// clamp) applied to every subsequent OS-managed run. The `policy`
    /// field of `cfg` is ignored — each run's [`Manager::Os`] value decides
    /// the policy.
    pub fn set_os_tuning(&mut self, cfg: OsPagingConfig) {
        self.os_tuning = cfg;
    }

    /// The migrator tuning applied to OS-managed runs.
    pub(crate) fn os_tuning(&self) -> OsPagingConfig {
        self.os_tuning
    }

    /// Sets the worker-pool width for planned sweeps. `0` and `1` both
    /// select the fully inline sequential path.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs;
    }

    /// Replaces the progress sink (stderr by default).
    pub fn set_reporter(&mut self, reporter: Reporter) {
        self.reporter = reporter;
    }

    /// Configurations that terminally failed so far.
    pub fn failed_count(&self) -> usize {
        self.failed.len()
    }

    /// Executed runs (successful and failed) in execution order.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Enables JSON export: every executed run writes
    /// `<dir>/<key>.json`, and [`Harness::finalize_exports`] adds the
    /// combined `runs.json` and `samples.csv`.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::Io`] if the directory cannot be created.
    pub fn set_json_dir(&mut self, dir: impl Into<PathBuf>) -> Result<()> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("creating", &dir, &e))?;
        self.json_dir = Some(dir);
        Ok(())
    }

    /// Enables event tracing: every executed run captures a bounded trace
    /// of its measured iteration and appends it as JSON Lines to `path`
    /// (each run preceded by a `{"run": "<key>"}` marker record).
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::Io`] if the file cannot be truncated.
    pub fn set_trace_out(&mut self, path: impl Into<PathBuf>) -> Result<()> {
        let path = path.into();
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent).map_err(|e| io_err("creating", parent, &e))?;
        }
        write_atomic_str(&path, "").map_err(|e| io_err("truncating", &path, &e))?;
        self.trace_out = Some(path);
        Ok(())
    }

    /// Enables the phase-and-provenance profiler for every subsequent run:
    /// reports carry a [`hemu_core::ProvenanceSummary`], and runs record
    /// virtual-time spans and a per-page wear heatmap (exported when
    /// [`Harness::set_timeline_out`] / [`Harness::set_heatmap_out`] are
    /// set). Off by default — an unprofiled sweep stores no tags.
    pub fn set_profile(&mut self, enabled: bool) {
        self.profile_runs = enabled;
    }

    /// Whether runs execute under the profiler (enabled explicitly or
    /// implied by a timeline/heatmap export path).
    pub(crate) fn profiling(&self) -> bool {
        self.profile_runs || self.timeline_out.is_some() || self.heatmap_out.is_some()
    }

    /// Enables timeline export: [`Harness::finalize_exports`] writes every
    /// committed run's spans, in demand order, as one Chrome trace-event
    /// JSON document loadable in Perfetto. Implies profiling.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::Io`] if the parent directory cannot be created.
    pub fn set_timeline_out(&mut self, path: impl Into<PathBuf>) -> Result<()> {
        let path = path.into();
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent).map_err(|e| io_err("creating", parent, &e))?;
        }
        self.timeline_out = Some(path);
        Ok(())
    }

    /// Enables wear-heatmap export: [`Harness::finalize_exports`] writes
    /// one CSV row per touched PCM frame per committed run. Implies
    /// profiling.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::Io`] if the parent directory cannot be created.
    pub fn set_heatmap_out(&mut self, path: impl Into<PathBuf>) -> Result<()> {
        let path = path.into();
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent).map_err(|e| io_err("creating", parent, &e))?;
        }
        self.heatmap_out = Some(path);
        Ok(())
    }

    /// The DaCapo benchmarks in scope at this scale.
    pub(crate) fn dacapo(&self) -> Vec<WorkloadSpec> {
        match self.scale {
            Scale::Full => hemu_workloads::dacapo_all(),
            Scale::Quick => hemu_workloads::dacapo_sim_subset(),
        }
    }

    /// All applications in scope at this scale (DaCapo + Pjbb + GraphChi).
    pub(crate) fn all_apps(&self) -> Vec<WorkloadSpec> {
        let mut v = self.dacapo();
        v.push(hemu_workloads::pjbb());
        v.extend(hemu_workloads::graphchi_all());
        v
    }

    /// The experiment behind `Harness::run` (OS policies get this
    /// harness's migrator tuning). Figures that sweep a further setting
    /// adjust it and pass it to [`Harness::run_experiment`].
    pub fn experiment(
        &self,
        spec: WorkloadSpec,
        manager: impl Into<Manager>,
        instances: usize,
        profile: Profile,
    ) -> Experiment {
        self.place(
            Experiment::new(spec).instances(instances),
            manager.into(),
            profile,
        )
    }

    fn place(&self, e: Experiment, manager: Manager, profile: Profile) -> Experiment {
        let e = e.profile(profile.machine());
        match manager {
            Manager::Gc(collector) => e.collector(collector),
            // The default collector is PCM-Only, the only one an OS-managed
            // run accepts.
            Manager::Os(policy) => e.os_paging(OsPagingConfig {
                policy,
                ..self.os_tuning
            }),
        }
    }

    /// Runs (or fetches) one experiment under the resilience policy:
    /// panics are caught, a deadline (if set) bounds each attempt, and
    /// transient injected faults are retried with linear backoff. A
    /// terminal failure is memoized and recorded — subsequent figures that
    /// reference the same configuration fail fast instead of re-running it.
    ///
    /// # Errors
    ///
    /// Returns the run's terminal error ([`HemuError::Timeout`] when the
    /// deadline expired, [`HemuError::Panicked`] when the experiment
    /// panicked, otherwise whatever the experiment reported).
    pub(crate) fn run(
        &mut self,
        spec: WorkloadSpec,
        manager: impl Into<Manager>,
        instances: usize,
        profile: Profile,
    ) -> Result<RunReport> {
        self.run_experiment(self.experiment(spec, manager, instances, profile))
    }

    /// Runs (or fetches) one multi-tenant consolidation: `tenants`
    /// workloads from `mix`, slice-scheduled onto the profile's hardware
    /// contexts. The run key (`mix@tenants|manager|sliceN|profile`)
    /// doubles as the progress label, so consolidated runs report as
    /// `mixed@16`-style entries.
    ///
    /// # Errors
    ///
    /// Returns the run's terminal error, exactly like `Harness::run`.
    pub fn run_consolidated(
        &mut self,
        mix: Mix,
        tenants: usize,
        slice: u64,
        manager: impl Into<Manager>,
        profile: Profile,
    ) -> Result<RunReport> {
        let e = Experiment::mix(mix, tenants).slice(slice);
        self.run_experiment(self.place(e, manager.into(), profile))
    }

    /// The one demand path, keyed by [`Experiment::key`]: answer from the
    /// memo tables, enqueue while planning, commit a restored or staged
    /// result, or execute inline. The harness's fault plan, endurance
    /// model, profiling and tracing apply on top of `experiment`.
    ///
    /// # Errors
    ///
    /// The run's terminal error, as for `Harness::run`.
    pub fn run_experiment(&mut self, experiment: Experiment) -> Result<RunReport> {
        let job = JobSpec::new(experiment);
        let key = job.key.clone();
        if let Some(r) = self.cache.get(&key) {
            return Ok(r.clone());
        }
        if let Some(e) = self.failed.get(&key) {
            return Err(e.clone());
        }
        if self.planning {
            // Peek a restored or staged result so the planning pass follows
            // the same branches the real pass will — but do NOT commit it;
            // commit order must be demand order of the real pass.
            if let Some(rr) = self.restored.get(&key) {
                return Ok(rr.report.clone());
            }
            if let Some(sr) = self.staged.get(&key) {
                return match &sr.outcome {
                    Ok(arts) => Ok(arts.report.clone()),
                    Err(e) => Err(e.clone()),
                };
            }
            if self.pending_set.insert(key.clone()) {
                self.pending.push(job);
            }
            return Err(HemuError::Deferred { key });
        }
        if let Some(rr) = self.restored.remove(&key) {
            return self.commit_restored(key, rr);
        }
        if let Some(sr) = self.staged.remove(&key) {
            return self.commit(key, sr);
        }
        // Inline execution: the sequential path (and the fallback should a
        // planned sweep demand a run no planning pass discovered).
        let sr = executor::run_job(&job, &self.exec_ctx(), true);
        self.commit(key, sr)
    }

    /// Renders a figure with parallel prefetching when `--jobs N > 1`:
    /// planning passes of `render` (output discarded) discover runnable
    /// jobs, execution waves drain them on the worker pool, and the final
    /// pass renders for real, committing results strictly in demand order.
    /// With `jobs <= 1` this is exactly `render(self)`.
    ///
    /// Byte-for-byte equivalence with the sequential path is guaranteed
    /// for deterministic `render` functions (see `executor` module docs)
    /// and locked in by the `determinism` integration tests.
    ///
    /// # Errors
    ///
    /// Whatever the final `render` pass returns.
    pub fn run_planned<F>(&mut self, render: F) -> Result<String>
    where
        F: Fn(&mut Harness) -> Result<String>,
    {
        if self.jobs > 1 {
            loop {
                self.planning = true;
                let _ = render(self);
                self.planning = false;
                if self.pending.is_empty() {
                    break;
                }
                self.execute_pending();
            }
        }
        render(self)
    }

    /// Drains the pending queue on the worker pool, staging every result.
    fn execute_pending(&mut self) {
        let jobs = std::mem::take(&mut self.pending);
        self.pending_set.clear();
        if jobs.is_empty() {
            return;
        }
        let ctx = self.exec_ctx();
        let staged = executor::execute_wave(&jobs, self.jobs, &ctx);
        for (job, sr) in jobs.into_iter().zip(staged) {
            self.staged.insert(job.key, sr);
        }
    }

    /// The read-only execution context handed to workers (and to the
    /// inline path, so both paths run the exact same code).
    fn exec_ctx(&self) -> ExecCtx {
        ExecCtx {
            fault_plan: self.fault_plan.clone(),
            endurance: self.endurance,
            policy: self.policy,
            want_trace: self.trace_out.is_some(),
            want_profile: self.profiling(),
            reporter: self.reporter.clone(),
        }
    }

    /// Commits one executed run: exports its artifacts, memoizes the
    /// outcome, appends the run record, and journals the commit. Called in
    /// demand order only.
    fn commit(&mut self, key: String, sr: StagedRun) -> Result<RunReport> {
        match sr.outcome {
            Ok(arts) => {
                let report = arts.report;
                if let Some(path) = &self.trace_out {
                    append_trace(path, &key, &arts.trace)?;
                }
                let content_hash = match &self.json_dir {
                    Some(dir) => Some(write_run_json(dir, &key, &report)?),
                    None => None,
                };
                if self.profiling() {
                    // Demand order decides track layout and row order, so
                    // the exported documents are byte-identical at any
                    // `--jobs` width.
                    self.timeline
                        .add_run(&key, arts.freq_hz, arts.elapsed, arts.spans);
                    self.heatmap_rows.push((key.clone(), arts.heatmap));
                }
                self.cache.insert(key.clone(), report.clone());
                self.journal_append(&key, RunStatus::Ok, sr.attempts, None, content_hash)?;
                self.records.push(RunRecord {
                    key,
                    status: RunStatus::Ok,
                    attempts: sr.attempts,
                    error: None,
                });
                self.runs_executed += 1;
                self.chaos_checkpoint();
                Ok(report)
            }
            Err(e) => {
                let status = if matches!(e, HemuError::Timeout { .. }) {
                    RunStatus::TimedOut
                } else {
                    RunStatus::Failed
                };
                self.journal_append(&key, status, sr.attempts, Some(e.to_string()), None)?;
                self.records.push(RunRecord {
                    key: key.clone(),
                    status,
                    attempts: sr.attempts,
                    error: Some(e.to_string()),
                });
                self.failed.insert(key, e.clone());
                self.runs_executed += 1;
                self.chaos_checkpoint();
                Err(e)
            }
        }
    }

    /// Commits one run replayed from a resume journal: rewrites its per-run
    /// artifact (byte-identical, via the atomic helper), memoizes it, and
    /// re-journals it so the resumed journal ends byte-identical to an
    /// uninterrupted run's. Called in demand order only, interleaved with
    /// executed commits exactly where the uninterrupted sweep would have
    /// committed this run.
    fn commit_restored(&mut self, key: String, rr: RestoredRun) -> Result<RunReport> {
        let report = rr.report;
        let content_hash = match &self.json_dir {
            Some(dir) => Some(write_run_json(dir, &key, &report)?),
            None => None,
        };
        self.cache.insert(key.clone(), report.clone());
        self.journal_append(&key, RunStatus::Ok, rr.attempts, None, content_hash)?;
        self.records.push(RunRecord {
            key,
            status: RunStatus::Ok,
            attempts: rr.attempts,
            error: None,
        });
        self.runs_restored += 1;
        self.chaos_checkpoint();
        Ok(report)
    }

    /// Appends one commit to the write-ahead journal (creating the journal
    /// on first use), recording the attempt count, the effective fault seed
    /// of the final attempt, and the per-run artifact's content hash. The
    /// append is fsync'd: once this returns, a kill at any later instant
    /// leaves a journal from which this run resumes.
    fn journal_append(
        &mut self,
        key: &str,
        status: RunStatus,
        attempts: u32,
        error: Option<String>,
        hash: Option<String>,
    ) -> Result<()> {
        let Some(dir) = self.json_dir.clone() else {
            return Ok(());
        };
        let seed = self
            .fault_plan
            .as_ref()
            .filter(|p| p.applies_to(key))
            .map(|p| p.for_attempt(attempts).seed);
        let record = JournalRecord {
            key: key.to_string(),
            status: status.as_str().to_string(),
            attempts,
            seed,
            error,
            hash,
        };
        let journal = match self.journal.as_mut() {
            Some(w) => w,
            None => {
                let w = JournalWriter::create(&dir, &self.plan_hash())
                    .map_err(|e| io_err("creating journal in", &dir, &e))?;
                self.journal.insert(w)
            }
        };
        journal
            .append(&record)
            .map_err(|e| io_err("appending journal in", &dir, &e))
    }

    /// Counts one commit against the chaos-kill budget and, when it fires,
    /// terminates the process abruptly — no export finalization, no
    /// destructors — emulating a SIGKILL for the crash-safety self-test.
    fn chaos_checkpoint(&mut self) {
        if self.chaos.on_commit() {
            self.reporter
                .line("  chaos: killing the process after this commit");
            std::process::exit(CHAOS_EXIT_CODE);
        }
    }

    /// Fingerprint of everything that decides what a sweep's runs compute:
    /// the crate version plus every configuration knob that changes run
    /// *results*. Deliberately excludes pure execution-shape knobs
    /// (`--jobs`) and export toggles —
    /// artifacts are byte-identical across those, so a journal written at
    /// one setting resumes cleanly at another.
    fn plan_hash(&self) -> String {
        let fingerprint = format!(
            "hemu-bench={}|scale={:?}|faults={:?}|endurance={:?}|policy={:?}|os={:?}",
            env!("CARGO_PKG_VERSION"),
            self.scale,
            self.fault_plan,
            self.endurance,
            self.policy,
            self.os_tuning,
        );
        hash_hex(fnv1a64(fingerprint.as_bytes()))
    }

    /// Arms the kill-chaos self-test: the process exits abruptly (exit code
    /// [`CHAOS_EXIT_CODE`], like a SIGKILL) right after the `n`-th commit.
    pub fn set_chaos_kill_after(&mut self, n: u64) {
        self.chaos = ChaosKill::after(n);
    }

    /// Resumes an interrupted sweep from the journal in `dir`: journaled
    /// successful runs are loaded into a replay table and committed — with
    /// byte-identical artifacts and journal records — at the exact point
    /// the sweep demands them; everything else (failed, missing, torn, or
    /// unverifiable records) is re-executed. Because runs are
    /// deterministic, the resumed sweep's artifacts are byte-identical to
    /// an uninterrupted run's at any `--jobs`.
    ///
    /// Call after all other configuration (scale, faults, endurance,
    /// policy, OS tuning): the journal header is validated against a
    /// fingerprint of that configuration, and a journal written by a
    /// different plan or binary version is refused. Also sets `dir` as the
    /// JSON export directory and recreates the journal, so the resumed
    /// journal ends byte-identical to a clean run's.
    ///
    /// Replay is skipped (everything re-executes) when event tracing or
    /// profiling is enabled — those artifacts are rebuilt run by run and
    /// cannot be recovered from per-run JSON alone.
    ///
    /// # Errors
    ///
    /// - [`HemuError::JournalMismatch`] when the journal belongs to a
    ///   different sweep plan;
    /// - [`HemuError::InvalidConfig`] when the journal header is malformed;
    /// - [`HemuError::Io`] when `dir` has no readable journal.
    pub fn resume_from(&mut self, dir: impl Into<PathBuf>) -> Result<()> {
        let dir = dir.into();
        let plan_hash = self.plan_hash();
        let contents = read_journal(&dir, &plan_hash).map_err(|e| match e {
            JournalReadError::PlanMismatch { expected, found } => {
                HemuError::JournalMismatch { expected, found }
            }
            JournalReadError::BadHeader(why) => {
                HemuError::InvalidConfig(format!("resume journal in {}: {why}", dir.display()))
            }
            JournalReadError::Io(err) => io_err("reading journal in", &dir, &err),
        })?;
        if contents.dropped_lines > 0 {
            self.reporter.line(&format!(
                "  resume: dropped {} torn trailing journal line(s)",
                contents.dropped_lines
            ));
        }
        // Tracing and profiling rebuild per-run side artifacts (trace
        // JSONL, timeline tracks, heatmap rows) that the journal does not
        // capture; re-execute everything to regenerate them. Determinism
        // makes that a pure wall-clock cost.
        let replayable = self.trace_out.is_none() && !self.profiling();
        let mut replayed = 0usize;
        let mut requeued = 0usize;
        if replayable {
            for rec in &contents.records {
                let (Some(expected_hash), "ok") = (&rec.hash, rec.status.as_str()) else {
                    requeued += 1;
                    continue;
                };
                let path = dir.join(format!("{}.json", slug(&rec.key)));
                let Ok(text) = fs::read_to_string(&path) else {
                    requeued += 1;
                    continue;
                };
                if &hash_hex(fnv1a64(text.as_bytes())) != expected_hash {
                    requeued += 1;
                    continue;
                }
                // The round-trip gate inside `restore_run_report` refuses
                // anything this binary would not re-export byte-identically.
                let Some(report) = restore_run_report(&text) else {
                    requeued += 1;
                    continue;
                };
                self.restored.insert(
                    rec.key.clone(),
                    RestoredRun {
                        report,
                        attempts: rec.attempts,
                    },
                );
                replayed += 1;
            }
        } else {
            requeued = contents.records.len();
        }
        self.reporter.line(&format!(
            "  resume: replaying {replayed} journaled run(s), re-executing {requeued}"
        ));
        self.set_json_dir(&dir)?;
        let w = JournalWriter::create(&dir, &plan_hash)
            .map_err(|e| io_err("recreating journal in", &dir, &e))?;
        self.journal = Some(w);
        Ok(())
    }

    /// Writes the combined export artifacts: `runs.json` (array of
    /// `{"key", "status", "attempts", "error", "report"}` objects in
    /// execution order — `report` is `null` and `error` a message for
    /// failed runs) and `samples.csv` (all monitor samples of successful
    /// runs, one row per interval per run) under the
    /// [`Harness::set_json_dir`] directory, plus — independently of it —
    /// the profiler's timeline JSON ([`Harness::set_timeline_out`]) and
    /// wear-heatmap CSV ([`Harness::set_heatmap_out`]).
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::Io`] on write failure.
    pub fn finalize_exports(&self) -> Result<()> {
        if let Some(path) = self.timeline_out.as_ref() {
            let mut doc = self.timeline.render();
            doc.push('\n');
            write_atomic_str(path, &doc).map_err(|e| io_err("writing", path, &e))?;
        }
        if let Some(path) = self.heatmap_out.as_ref() {
            let mut csv = Csv::new(&["key", "frame", "writes", "lines_touched", "max_line_writes"]);
            for (key, rows) in &self.heatmap_rows {
                for r in rows {
                    csv.row(&[
                        key as &dyn std::fmt::Display,
                        &r.frame,
                        &r.writes,
                        &r.lines_touched,
                        &r.max_line_writes,
                    ]);
                }
            }
            write_atomic_str(path, &csv.finish()).map_err(|e| io_err("writing", path, &e))?;
        }
        let Some(dir) = self.json_dir.as_ref() else {
            return Ok(());
        };
        let mut combined = String::from("[");
        for (i, rec) in self.records.iter().enumerate() {
            if i > 0 {
                combined.push(',');
            }
            let mut obj = JsonObject::new(&mut combined);
            obj.field("key", &rec.key)
                .field("status", rec.status.as_str())
                .field("attempts", &rec.attempts)
                .field("error", &rec.error)
                .field("report", &self.cache.get(&rec.key));
            obj.finish();
        }
        combined.push_str("]\n");
        let path = dir.join("runs.json");
        write_atomic_str(&path, &combined).map_err(|e| io_err("writing", &path, &e))?;

        let mut csv = Csv::new(&["key", "t_seconds", "pcm_write_mbs", "dram_write_mbs"]);
        for rec in &self.records {
            let Some(report) = self.cache.get(&rec.key) else {
                continue;
            };
            for s in &report.samples {
                csv.row(&[
                    &rec.key as &dyn std::fmt::Display,
                    &s.t_seconds,
                    &s.pcm_write_mbs,
                    &s.dram_write_mbs,
                ]);
            }
        }
        let path = dir.join("samples.csv");
        write_atomic_str(&path, &csv.finish()).map_err(|e| io_err("writing", &path, &e))
    }

    /// Like `Harness::run`, but a terminal failure (already recorded and
    /// memoized by `run`) yields `None` so figure loops degrade to partial
    /// tables instead of aborting the sweep.
    pub fn run_opt(
        &mut self,
        spec: WorkloadSpec,
        manager: impl Into<Manager>,
        instances: usize,
        profile: Profile,
    ) -> Option<RunReport> {
        self.run(spec, manager, instances, profile).ok()
    }

    /// [`Harness::run_opt`] for a single instance on the emulation profile.
    pub fn run1_opt(
        &mut self,
        spec: WorkloadSpec,
        manager: impl Into<Manager>,
    ) -> Option<RunReport> {
        self.run_opt(spec, manager, 1, Profile::Emulation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_narrows_dacapo() {
        let h = Harness::new(Scale::Quick);
        assert_eq!(h.dacapo().len(), 7);
        assert_eq!(h.all_apps().len(), 11);
        let f = Harness::new(Scale::Full);
        assert_eq!(f.dacapo().len(), 11);
        assert_eq!(f.all_apps().len(), 15);
    }

    #[test]
    fn cache_avoids_rerunning() {
        let mut h = Harness::new(Scale::Quick);
        let spec = WorkloadSpec::by_name("avrora").unwrap();
        let a = h.run1_opt(spec, CollectorKind::KgN).unwrap();
        assert_eq!(h.runs_executed, 1);
        let b = h.run1_opt(spec, CollectorKind::KgN).unwrap();
        assert_eq!(h.runs_executed, 1, "second call must hit the cache");
        assert_eq!(a.pcm_writes, b.pcm_writes);
    }
}
