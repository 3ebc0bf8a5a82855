//! Experiment configuration and the run driver: multiprogrammed copies
//! and multi-tenant mixes share one slice scheduler.

use crate::monitor::WriteRateMonitor;
use crate::report::{ConsolidationSummary, PageWear, ProvenanceSummary, RunReport, TenantShare};
use hemu_fault::{EnduranceConfig, FaultPlan};
use hemu_heap::chunks::ChunkPolicy;
use hemu_heap::{CollectorKind, GcStats, ManagedHeap};
use hemu_machine::{CtxId, Machine, MachineProfile, ProcId};
use hemu_malloc::{NativeHeap, NativeStats};
use hemu_obs::{SpanRecord, TraceRecord, Tracer};
use hemu_os::OsPageManager;
use hemu_types::{ByteSize, HemuError, OsPagingConfig, Result, SocketId};
use hemu_workloads::{
    Language, Memory, Mix, Roster, StepResult, TenantSpec, Workload, WorkloadSpec,
};

/// Everything one profiled run produces beyond the report: the event
/// trace, the profiler's span records (virtual-time GC phases, OS epochs
/// and the measured iteration), the per-page PCM wear heatmap, and the
/// clock frequency needed to convert span cycles to seconds.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The measured iteration's report.
    pub report: RunReport,
    /// Captured trace events (empty unless tracing was requested).
    pub trace: Vec<TraceRecord>,
    /// Closed profiler spans, oldest first (empty unless profiling).
    pub spans: Vec<SpanRecord>,
    /// Per-PCM-frame wear rows sorted by frame number (empty unless the
    /// run tracked wear).
    pub heatmap: Vec<PageWear>,
    /// The machine's clock frequency in Hz (for cycle → time conversion).
    pub freq_hz: f64,
    /// The measured iteration's total virtual time in cycles (the run's
    /// extent on an exported timeline).
    pub elapsed: hemu_types::Cycles,
}

/// A configured experiment: roster × collector × machine.
///
/// The roster is either N copies of one workload sharing a seed (the
/// paper's multiprogrammed runs, [`Experiment::new`] plus
/// [`Experiment::instances`]) or N tenants drawn from a [`Mix`]
/// ([`Experiment::mix`]). Built with a fluent API and executed with
/// [`Experiment::run`], which follows the paper's measurement methodology
/// (replay compilation: warm-up iteration, barrier, measured iteration;
/// §IV).
///
/// Workload `i` runs on hardware context `i % contexts`, so rosters
/// larger than the profile's context count share contexts the way
/// consolidated VMs share cores.
#[derive(Debug, Clone)]
pub struct Experiment {
    roster: Roster,
    instances: usize,
    slice: u64,
    collector: CollectorKind,
    profile: MachineProfile,
    seed: u64,
    chunk_policy: ChunkPolicy,
    warmup: bool,
    monitor_interval: f64,
    nursery_override: Option<ByteSize>,
    profiling: bool,
    faults: Option<FaultPlan>,
    endurance: Option<EnduranceConfig>,
    os: Option<OsPagingConfig>,
}

/// The largest roster a run accepts: far past any useful density, and it
/// keeps tenant ids (and the attribution tables) within a byte.
const MAX_WORKLOADS: usize = 255;

impl Experiment {
    /// Creates an experiment with the paper's defaults: one instance,
    /// PCM-Only collector, the emulation machine profile.
    pub fn new(spec: WorkloadSpec) -> Self {
        Self::with_roster(Roster::Copies(spec), 1)
    }

    /// Creates a consolidation run: `tenants` workloads drawn round-robin
    /// from `mix`, tenant `i` seeded with `seed + i`. Only mix runs attribute
    /// writes per tenant and carry [`RunReport::consolidation`].
    pub fn mix(mix: Mix, tenants: usize) -> Self {
        Self::with_roster(Roster::Mix(mix), tenants)
    }

    fn with_roster(roster: Roster, instances: usize) -> Self {
        Experiment {
            roster,
            instances,
            slice: 1,
            collector: CollectorKind::PcmOnly,
            profile: MachineProfile::emulation(),
            seed: 42,
            chunk_policy: ChunkPolicy::TwoLists,
            warmup: true,
            monitor_interval: 0.01,
            nursery_override: None,
            profiling: false,
            faults: None,
            endurance: None,
            os: None,
        }
    }

    /// Enables the phase-and-provenance profiler: GC-phase and OS-epoch
    /// spans in virtual time, per-cause / per-space write attribution
    /// ([`RunReport::provenance`]), and per-line PCM wear tracking, so the
    /// report carries a measured wear-levelling efficiency and the run a
    /// per-page wear heatmap. Retrieve the extra artifacts with
    /// [`Experiment::run_full`].
    pub fn profiling(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// Installs a deterministic fault-injection plan. An inert plan
    /// ([`FaultPlan::is_inert`]) is not installed at all, so a run with
    /// `FaultPlan::none()` is bit-identical to one without this call.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = if plan.is_inert() { None } else { Some(plan) };
        self
    }

    /// Enables the PCM wear/endurance model: per-line write budgets, cell
    /// failure, page retirement and transparent remapping. Implies wear
    /// tracking.
    pub fn endurance(mut self, cfg: EnduranceConfig) -> Self {
        self.endurance = Some(cfg);
        self
    }

    /// Overrides the suite's base nursery size (nursery-sensitivity
    /// studies; the KG-B configurations still scale it 3×).
    pub fn nursery(mut self, nursery: ByteSize) -> Self {
        self.nursery_override = Some(nursery);
        self
    }

    /// Hands page placement to an OS page manager instead of the GC: the
    /// paper's kernel-side baseline, where first-touch placement and (for
    /// [`hemu_os::OsPolicy::HotCold`]) epoch-driven hot-page migration
    /// decide which socket each page lives on.
    ///
    /// OS-managed runs keep the PCM-Only collector (the heap layout the OS
    /// baseline sees is placement-neutral); combining OS paging with a
    /// write-rationing collector is rejected at [`Experiment::run`].
    pub fn os_paging(mut self, cfg: OsPagingConfig) -> Self {
        self.os = Some(cfg);
        self
    }

    /// Sets the collector configuration.
    pub fn collector(mut self, collector: CollectorKind) -> Self {
        self.collector = collector;
        self
    }

    /// Sets the number of co-running workloads: copies of the spec, or
    /// tenants drawn from the mix.
    pub fn instances(mut self, instances: usize) -> Self {
        self.instances = instances;
        self
    }

    /// Sets the scheduler slice: how many consecutive workload steps each
    /// running workload takes per turn (clamped to at least 1, the
    /// default).
    pub fn slice(mut self, steps: u64) -> Self {
        self.slice = steps.max(1);
        self
    }

    /// Sets the machine profile (emulation vs simulation, LLC size, …).
    pub fn profile(mut self, profile: MachineProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the random seed (the base seed of a mix's tenants).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the chunk free-list policy (ablation).
    pub fn chunk_policy(mut self, policy: ChunkPolicy) -> Self {
        self.chunk_policy = policy;
        self
    }

    /// Disables the warm-up iteration (quick tests only — measured results
    /// then include cold-start effects).
    pub fn without_warmup(mut self) -> Self {
        self.warmup = false;
        self
    }

    /// Sets the write-rate monitor's sampling interval in virtual seconds
    /// (must be positive; checked at [`Experiment::run`]).
    pub fn monitor_interval(mut self, seconds: f64) -> Self {
        self.monitor_interval = seconds;
        self
    }

    /// Runs the experiment to completion.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::InvalidConfig`] for inconsistent
    /// configurations (a machine profile [`MachineProfile::validate`]
    /// rejects, a roster outside 1..=255 workloads, a C++ workload with a
    /// hybrid collector — the paper evaluates the C++ implementations on
    /// the PCM-Only reference system — OS paging with a write-rationing
    /// collector, or a monitor interval that is not positive), and
    /// propagates heap or machine exhaustion.
    pub fn run(&self) -> Result<RunReport> {
        self.run_traced(Tracer::disabled()).map(|a| a.report)
    }

    /// Runs the experiment and returns the full artifact bundle: report,
    /// profiler spans and the wear heatmap ([`RunArtifacts`]). Spans and
    /// heatmap are empty unless [`Experiment::profiling`] was requested
    /// (an endurance model alone also fills the heatmap).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Experiment::run`].
    pub fn run_full(&self) -> Result<RunArtifacts> {
        self.run_traced(Tracer::disabled())
    }

    /// The key naming this run in a sweep: `workload|manager|instances|Profile`
    /// for copies, `mix@tenants|manager|sliceS|Profile` for mixes (the
    /// manager is the OS policy, if any, else the collector), then one
    /// `|name=value` segment per setting off its default: `llc`, `nursery`,
    /// `chunks`, `monitor` and `profiling`, in that order. Sweep-wide
    /// settings (fault plan, endurance, tracing) stay out of the key.
    pub fn key(&self) -> String {
        let manager = self
            .os
            .map_or(self.collector.name(), |cfg| cfg.policy.name());
        let mut profile = self.profile.name.to_string();
        if let Some(first) = profile.get_mut(..1) {
            first.make_ascii_uppercase();
        }
        let (n, slice) = (self.instances, self.slice);
        let mut key = match self.roster {
            Roster::Copies(spec) => format!("{spec}|{manager}|{n}|{profile}"),
            Roster::Mix(mix) => format!("{mix}@{n}|{manager}|slice{slice}|{profile}"),
        };
        let size = |b: ByteSize| match b.bytes() {
            b if b.is_multiple_of(1 << 20) => format!("{}MiB", b >> 20),
            b => format!("{b}B"),
        };
        let default = Self::with_roster(self.roster, n);
        if self.profile.llc_size != default.profile.llc_size {
            key += &format!("|llc={}", size(self.profile.llc_size));
        }
        if let Some(nursery) = self.nursery_override {
            key += &format!("|nursery={}", size(nursery));
        }
        if self.chunk_policy != default.chunk_policy {
            key += &format!("|chunks={:?}", self.chunk_policy);
        }
        if self.monitor_interval != default.monitor_interval {
            key += &format!("|monitor={}s", self.monitor_interval);
        }
        if self.profiling {
            key += "|profiling=on";
        }
        key
    }

    /// Checks the configuration and resolves the roster into its workloads.
    fn validate(&self) -> Result<Vec<TenantSpec>> {
        self.profile.validate()?;
        if !(1..=MAX_WORKLOADS).contains(&self.instances) {
            return Err(HemuError::InvalidConfig(format!(
                "a run takes 1..={MAX_WORKLOADS} workloads, got {}",
                self.instances
            )));
        }
        let tenants = self.roster.tenant_specs(self.instances, self.seed)?;
        let cpp = tenants.iter().any(|t| t.workload.language == Language::Cpp);
        if cpp && self.collector != CollectorKind::PcmOnly {
            return Err(HemuError::InvalidConfig(
                "C++ workloads run on the PCM-Only reference system".into(),
            ));
        }
        if self.os.is_some() && self.collector != CollectorKind::PcmOnly {
            return Err(HemuError::InvalidConfig(
                "OS-managed placement replaces write-rationing: use the \
                 PCM-Only collector with an OS policy"
                    .into(),
            ));
        }
        if self.monitor_interval.is_nan() || self.monitor_interval <= 0.0 {
            return Err(HemuError::InvalidConfig(format!(
                "the monitor interval must be a positive number of seconds, got {}",
                self.monitor_interval
            )));
        }
        Ok(tenants)
    }

    /// Runs the experiment with an explicit tracer and returns the full
    /// artifact bundle — the general form behind [`Experiment::run`] and
    /// [`Experiment::run_full`], for callers that want the event trace.
    ///
    /// The tracer is installed at the start of the measured iteration, so
    /// warm-up activity never appears in the trace; a bounded tracer keeps
    /// only the most recent records ([`Tracer::bounded`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Experiment::run`].
    pub fn run_traced(&self, tracer: Tracer) -> Result<RunArtifacts> {
        let tenants = self.validate()?;
        // Only mix runs attribute writes per tenant, so the reports of
        // copy runs carry no tenant data.
        let mix = match self.roster {
            Roster::Mix(mix) => Some(mix),
            Roster::Copies(_) => None,
        };

        let mut machine = Machine::new(self.profile);
        // The OS page manager installs before anything touches memory, so
        // even heap metadata is placed (and sampled) under its policy.
        let mut os_mgr = self.os.map(|cfg| OsPageManager::install(&mut machine, cfg));
        // Tenancy goes in before any allocation so even the first heap
        // metadata fault is owned by its tenant.
        if mix.is_some() {
            machine.enable_tenancy(self.instances);
        }
        if self.profiling {
            machine.enable_wear_tracking();
            machine.enable_profiling();
        }
        if let Some(cfg) = self.endurance {
            machine.enable_endurance(cfg);
        }
        if let Some(plan) = &self.faults {
            machine.install_faults(plan.clone());
        }
        let mut workloads: Vec<(Box<dyn Workload>, Memory)> = Vec::new();
        let mut procs: Vec<ProcId> = Vec::new();
        for t in &tenants {
            let workload = t.workload.instantiate(t.seed);
            let ctx = CtxId(t.id % machine.contexts());
            let heap_cfg = (t.workload.language == Language::Java).then(|| {
                let nursery = self.nursery_override.unwrap_or(workload.base_nursery());
                self.collector.config(nursery, workload.heap_size())
            });
            let proc = machine.add_process(
                heap_cfg
                    .as_ref()
                    .map_or(SocketId::PCM, |c| c.young_socket()),
            );
            if mix.is_some() {
                machine.set_proc_tenant(proc, t.id as u16);
            }
            if let Some(os) = &os_mgr {
                os.attach_process(&mut machine, proc);
            }
            let mem = match heap_cfg {
                Some(cfg) => Memory::managed(ManagedHeap::with_chunk_policy(
                    &mut machine,
                    proc,
                    ctx,
                    cfg,
                    self.chunk_policy,
                )?),
                None => Memory::native(NativeHeap::new(&mut machine, proc, ctx, SocketId::PCM)),
            };
            procs.push(proc);
            workloads.push((workload, mem));
        }

        // Warm-up iteration (replay compilation's compile iteration). The
        // OS manager is polled here too, so hot pages migrate toward their
        // steady-state placement before measurement starts.
        if self.warmup {
            schedule(
                &mut machine,
                &mut workloads,
                self.slice,
                None,
                os_mgr.as_mut(),
            )?;
            // All workloads synchronize at a barrier and start the second
            // iteration at the same time (§IV).
            machine.barrier();
            for (w, _) in &mut workloads {
                w.start_iteration();
            }
        }

        // Snapshot per-workload stats, then measure the steady iteration.
        // The tracer goes in only now, so the trace covers exactly the
        // measured iteration. Write provenance, the GC pause histogram, the
        // OS manager's counts, clocks and controller counters are reset at
        // the same point — and so are the tenancy write counts, while
        // frame ownership survives: the tenants keep their memory, the
        // measurement interval restarts.
        machine.set_tracer(tracer);
        machine.start_measured_iteration();
        if let Some(os) = &mut os_mgr {
            os.reset_stats();
        }
        let gc_before: Vec<Option<GcStats>> = workloads
            .iter()
            .map(|(_, m)| m.gc_stats().copied())
            .collect();
        let native_before: Vec<Option<NativeStats>> = workloads
            .iter()
            .map(|(_, m)| m.native_stats().copied())
            .collect();
        let alloc_before: Vec<u64> = workloads.iter().map(|(_, m)| m.allocated_bytes()).collect();
        let faults_before: Vec<u64> = procs
            .iter()
            .map(|&p| machine.address_space(p).fault_count())
            .collect();

        let mut monitor = WriteRateMonitor::new(self.monitor_interval);
        // The measured iteration is the root profiler span; clocks were
        // just reset, so it opens at virtual zero.
        machine
            .spans_mut()
            .begin("iteration", "run", hemu_types::Cycles::ZERO);
        schedule(
            &mut machine,
            &mut workloads,
            self.slice,
            Some(&mut monitor),
            os_mgr.as_mut(),
        )?;
        let end = machine.elapsed();
        machine.spans_mut().end(end);
        // No cache flush here: the measured iteration starts with warm,
        // dirty caches (steady state after warm-up) and ends the same way,
        // so eviction traffic during the interval is exactly the
        // steady-state write stream `pcm-memory` samples on the real
        // platform. Flushing would mis-attribute the entire resident dirty
        // set to this iteration.
        monitor.finish(&mut machine);

        // Aggregate.
        let gc_deltas: Vec<Option<GcStats>> = workloads
            .iter()
            .zip(&gc_before)
            .map(|((_, m), before)| {
                m.gc_stats()
                    .map(|now| now.delta_since(&before.unwrap_or_default()))
            })
            .collect();
        let gc = gc_deltas
            .iter()
            .flatten()
            .fold(None, |total: Option<GcStats>, d| {
                Some(total.unwrap_or_default().add(d))
            });
        let native = aggregate_native(&workloads, &native_before);
        let allocated: Vec<u64> = workloads
            .iter()
            .zip(&alloc_before)
            .map(|((_, m), before)| m.allocated_bytes() - before)
            .collect();
        let consolidation = mix.map(|mix| {
            let tenancy = machine.memory().tenancy();
            let per_tenant: Vec<TenantShare> = tenants
                .iter()
                .map(|t| {
                    let i = t.id;
                    let gc_delta = gc_deltas[i];
                    let (pcm, dram) =
                        tenancy.map_or((0, 0), |tr| (tr.pcm_lines(i), tr.dram_lines(i)));
                    TenantShare {
                        id: i,
                        workload: format!("{}", t.workload),
                        pcm_write_lines: pcm,
                        dram_write_lines: dram,
                        minor_gcs: gc_delta.as_ref().map_or(0, |g| g.minor_gcs),
                        full_gcs: gc_delta.as_ref().map_or(0, |g| g.full_gcs),
                        pause_cycles: gc_delta.as_ref().map_or(0, |g| g.pause_cycles),
                        allocated_bytes: allocated[i],
                        page_faults: machine.address_space(procs[i]).fault_count()
                            - faults_before[i],
                    }
                })
                .collect();
            let (unattributed_pcm_lines, unattributed_dram_lines) =
                tenancy.map_or((0, 0), |tr| (tr.unattributed_pcm(), tr.unattributed_dram()));
            ConsolidationSummary {
                mix: mix.name().to_string(),
                tenants: self.instances,
                contexts: machine.contexts(),
                slice: self.slice,
                unattributed_pcm_lines,
                unattributed_dram_lines,
                per_tenant,
            }
        });

        let elapsed = machine.elapsed_seconds();
        let pcm_writes = machine.socket_writes(SocketId::PCM);
        let trace = machine.tracer_mut().drain();
        let pauses = machine.gc_pauses();
        let gc_pause_histogram = (pauses.count() > 0).then(|| pauses.snapshot());
        let spans = machine.spans();
        let provenance = machine.memory().provenance().map(|p| ProvenanceSummary {
            pcm_by_cause: p.pcm_by_cause,
            pcm_by_space: p.pcm_by_space,
            dram_by_cause: p.dram_by_cause,
            dram_by_space: p.dram_by_space,
            spans_recorded: spans.len() as u64 + spans.dropped(),
            spans_dropped: spans.dropped(),
        });
        let heatmap = build_heatmap(&machine);

        let report = RunReport {
            workload: match self.roster {
                Roster::Copies(spec) => format!("{spec}"),
                Roster::Mix(mix) => format!("{mix}@{}", self.instances),
            },
            // OS-managed runs are keyed by the placement policy: that is
            // the design point being swept, not the (neutral) collector.
            collector: if let Some(cfg) = self.os {
                cfg.policy.name().into()
            } else if tenants.iter().all(|t| t.workload.language == Language::Cpp) {
                "malloc".into()
            } else {
                self.collector.name().into()
            },
            profile: self.profile.name.into(),
            instances: self.instances,
            pcm_writes,
            pcm_reads: machine.socket_reads(SocketId::PCM),
            dram_writes: machine.socket_writes(SocketId::DRAM),
            dram_reads: machine.socket_reads(SocketId::DRAM),
            elapsed_seconds: elapsed,
            pcm_write_rate_mbs: if elapsed > 0.0 {
                pcm_writes.bytes() as f64 / 1e6 / elapsed
            } else {
                0.0
            },
            allocated: ByteSize::new(allocated.iter().sum()),
            gc,
            native,
            machine: *machine.stats(),
            samples: monitor.into_samples(),
            wear: machine.memory().wear().map(|w| crate::report::WearSummary {
                pcm_lines_touched: w.lines_touched(),
                max_line_writes: w.max_line_writes(),
                levelling_efficiency: w
                    .levelling_efficiency(self.profile.numa.capacity_per_socket.bytes() / 64),
            }),
            endurance: self.endurance.map(|cfg| crate::report::EnduranceSummary {
                budget_writes: cfg.budget_writes,
                failed_lines: machine.memory().failed_lines(),
                retired_pages: machine.memory().retired_pages(SocketId::PCM),
                remapped_pages: machine.pages_remapped(),
                effective_capacity: machine.memory().effective_capacity(SocketId::PCM),
            }),
            gc_pause_histogram,
            os_paging: os_mgr.as_ref().map(OsPageManager::stats),
            provenance,
            consolidation,
        };
        Ok(RunArtifacts {
            report,
            trace,
            spans: spans.snapshot(),
            heatmap,
            freq_hz: self.profile.freq_hz as f64,
            elapsed: machine.elapsed(),
        })
    }
}

/// One heatmap row per worn PCM frame, in ascending frame order. Empty
/// when wear tracking is off.
fn build_heatmap(machine: &Machine) -> Vec<PageWear> {
    let Some(wear) = machine.memory().wear() else {
        return Vec::new();
    };
    wear.pages()
        .map(|(frame, lines)| PageWear {
            frame: frame.raw(),
            writes: lines.iter().sum(),
            lines_touched: lines.iter().filter(|&&c| c > 0).count() as u64,
            max_line_writes: lines.iter().copied().max().unwrap_or(0),
        })
        .collect()
}

/// The slice scheduler: each running workload takes up to `slice`
/// consecutive steps, then yields, so co-running workloads interleave in
/// the shared LLC. A full round over all workloads is a monitor/OS poll
/// edge. At slice 1 this is the paper's round-robin, one quantum per
/// running instance per round. Workloads that finish are not restarted
/// (§IV).
fn schedule(
    machine: &mut Machine,
    workloads: &mut [(Box<dyn Workload>, Memory)],
    slice: u64,
    mut monitor: Option<&mut WriteRateMonitor>,
    mut os: Option<&mut OsPageManager>,
) -> Result<()> {
    let mut done = vec![false; workloads.len()];
    let mut remaining = workloads.len();
    // A generous runaway bound on steps, shared by all workloads: no
    // experiment needs this many.
    let mut fuel: u64 = 50_000_000;
    while remaining > 0 {
        for (i, (w, mem)) in workloads.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            for _ in 0..slice {
                if fuel == 0 {
                    return Err(HemuError::InvalidConfig(
                        "workloads did not terminate within the quantum budget".into(),
                    ));
                }
                fuel -= 1;
                if w.step(machine, mem)? == StepResult::IterationDone {
                    done[i] = true;
                    remaining -= 1;
                    break;
                }
            }
        }
        if let Some(mon) = monitor.as_deref_mut() {
            mon.poll(machine);
        }
        // The OS migrator ticks at scheduler-round granularity, like a
        // kernel balancing pass between time slices.
        if let Some(os) = os.as_deref_mut() {
            os.poll(machine)?;
        }
    }
    Ok(())
}

fn aggregate_native(
    instances: &[(Box<dyn Workload>, Memory)],
    before: &[Option<NativeStats>],
) -> Option<NativeStats> {
    let mut any = false;
    let mut total = NativeStats::default();
    for ((_, mem), earlier) in instances.iter().zip(before) {
        if let Some(stats) = mem.native_stats() {
            any = true;
            let then = earlier.unwrap_or_default();
            total.allocated_bytes += stats.allocated_bytes - then.allocated_bytes;
            total.allocated_objects += stats.allocated_objects - then.allocated_objects;
            total.freed_bytes += stats.freed_bytes - then.freed_bytes;
            total.in_use += stats.in_use;
            total.peak += stats.peak;
        }
    }
    any.then_some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avrora() -> WorkloadSpec {
        WorkloadSpec::by_name("avrora").expect("avrora registered")
    }

    fn invalid(e: &Experiment) -> bool {
        matches!(e.run(), Err(HemuError::InvalidConfig(_)))
    }

    #[test]
    fn zero_instances_is_invalid() {
        assert!(invalid(&Experiment::new(avrora()).instances(0)));
    }

    #[test]
    fn zero_tenants_is_invalid() {
        assert!(invalid(&Experiment::mix(Mix::Dacapo, 0)));
    }

    #[test]
    fn more_than_255_instances_is_invalid() {
        assert!(invalid(&Experiment::new(avrora()).instances(256)));
    }

    #[test]
    fn tenant_ids_must_fit_a_byte() {
        assert!(invalid(&Experiment::mix(Mix::Dacapo, 256)));
    }

    #[test]
    fn cpp_requires_pcm_only() {
        let spec = WorkloadSpec::by_name("pr")
            .expect("pr registered")
            .with_language(Language::Cpp);
        assert!(invalid(
            &Experiment::new(spec).collector(CollectorKind::KgN)
        ));
    }

    #[test]
    fn os_paging_requires_pcm_only() {
        let e = Experiment::mix(Mix::Dacapo, 2)
            .collector(CollectorKind::KgN)
            .os_paging(OsPagingConfig::default());
        assert!(invalid(&e));
    }

    #[test]
    fn monitor_interval_must_be_positive() {
        for seconds in [0.0, -0.01, f64::NAN] {
            let e = Experiment::new(avrora()).monitor_interval(seconds);
            assert!(invalid(&e), "interval {seconds} must be rejected");
        }
    }

    #[test]
    fn bad_cache_geometry_is_invalid_not_a_panic() {
        // 4 MiB does not split into the profile's 20-way sets.
        let profile = MachineProfile {
            llc_size: ByteSize::from_mib(4),
            ..MachineProfile::emulation()
        };
        assert!(invalid(&Experiment::new(avrora()).profile(profile)));
    }

    #[test]
    fn keys_pin_the_historical_formats() {
        let lu = WorkloadSpec::by_name("lu.Fix").expect("lu.Fix registered");
        assert_eq!(
            Experiment::new(lu).instances(4).key(),
            "lu.Fix|PCM-Only|4|Emulation"
        );
        assert_eq!(
            Experiment::mix(Mix::Mixed, 8).slice(64).key(),
            "mixed@8|PCM-Only|slice64|Emulation"
        );
        let os = OsPagingConfig::new(hemu_types::OsPolicy::HotCold);
        assert_eq!(
            Experiment::new(avrora()).os_paging(os).key(),
            "avrora|OS-hot-cold|1|Emulation"
        );
        assert_eq!(
            Experiment::new(avrora())
                .collector(CollectorKind::KgW)
                .profile(MachineProfile::simulation())
                .key(),
            "avrora|KG-W|1|Simulation"
        );
        let cpp = WorkloadSpec::by_name("pr")
            .expect("pr registered")
            .with_language(Language::Cpp);
        assert_eq!(Experiment::new(cpp).key(), "pr.cpp|PCM-Only|1|Emulation");
    }

    #[test]
    fn every_ablation_dimension_gets_its_own_key() {
        let base = Experiment::new(avrora());
        let keys = [
            base.clone(),
            base.clone()
                .profile(MachineProfile::emulation().with_llc(ByteSize::from_mib(4))),
            base.clone().nursery(ByteSize::from_mib(2)),
            base.clone().chunk_policy(ChunkPolicy::Monolithic),
            base.clone().monitor_interval(0.005),
            base.clone().profiling(),
        ]
        .map(|e| e.key());
        assert_eq!(keys[1], "avrora|PCM-Only|1|Emulation|llc=4MiB");
        assert_eq!(keys[2], "avrora|PCM-Only|1|Emulation|nursery=2MiB");
        assert_eq!(keys[3], "avrora|PCM-Only|1|Emulation|chunks=Monolithic");
        assert_eq!(keys[4], "avrora|PCM-Only|1|Emulation|monitor=0.005s");
        assert_eq!(keys[5], "avrora|PCM-Only|1|Emulation|profiling=on");
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "keys collide: {keys:?}");
        // An override equal to the default (20 MiB) is the default run.
        let same = base.profile(MachineProfile::emulation().with_llc(ByteSize::from_mib(20)));
        assert_eq!(same.key(), keys[0]);
    }

    #[test]
    fn oversubscription_is_allowed() {
        // 6 tenants on a 4-context profile: tenant i runs on context
        // i % 4. Warm-up off keeps the test cheap.
        let report = Experiment::mix(Mix::Dacapo, 6)
            .profile(MachineProfile::emulation().with_contexts(4))
            .slice(64)
            .without_warmup()
            .run()
            .expect("oversubscribed run completes");
        let c = report.consolidation.expect("consolidation block");
        assert_eq!(c.tenants, 6);
        assert_eq!(c.contexts, 4);
        assert_eq!(c.per_tenant.len(), 6);
    }

    #[test]
    fn slice_is_clamped_to_one() {
        assert_eq!(Experiment::mix(Mix::Pjbb, 1).slice(0).slice, 1);
        assert_eq!(Experiment::new(avrora()).slice, 1);
    }
}
