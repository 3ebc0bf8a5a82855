//! The consolidated runner: a deterministic virtual-time slice scheduler
//! over N tenants sharing one emulated machine.

use crate::mix::Mix;
use hemu_core::{ConsolidationSummary, PageWear, RunArtifacts, RunReport, TenantShare};
use hemu_core::{ProvenanceSummary, WriteRateMonitor};
use hemu_fault::{EnduranceConfig, FaultPlan};
use hemu_heap::chunks::ChunkPolicy;
use hemu_heap::{CollectorKind, GcStats, ManagedHeap};
use hemu_machine::{CtxId, Machine, MachineProfile, ProcId};
use hemu_malloc::NativeHeap;
use hemu_obs::Tracer;
use hemu_os::OsPageManager;
use hemu_types::{
    ByteSize, HemuError, OsPagingConfig, Result, SocketId, SpaceTag, WriteCause, CACHE_LINE,
    PAGE_SIZE,
};
use hemu_workloads::{Language, Memory, StepResult, Workload};

/// A configured consolidation run: `tenants` workloads from a [`Mix`]
/// roster, time-multiplexed onto the machine profile's hardware contexts
/// by a slice scheduler.
///
/// Mirrors [`hemu_core::Experiment`]'s fluent API and measurement
/// methodology (warm-up iteration, barrier, measured iteration), but
/// deliberately does *not* reject more tenants than hardware contexts —
/// over-subscription is the phenomenon under study. Tenant `i` runs on
/// context `i % contexts`, so densities past the context count share
/// contexts the way consolidated VMs share cores.
#[derive(Debug, Clone)]
pub struct ConsolidationRun {
    mix: Mix,
    tenants: usize,
    slice: u64,
    collector: CollectorKind,
    profile: MachineProfile,
    seed: u64,
    chunk_policy: ChunkPolicy,
    warmup: bool,
    monitor_interval: f64,
    track_wear: bool,
    profiling: bool,
    faults: Option<FaultPlan>,
    endurance: Option<EnduranceConfig>,
    os: Option<OsPagingConfig>,
}

impl ConsolidationRun {
    /// Creates a consolidation run with the defaults: PCM-Only collector,
    /// emulation profile, 64-step slices, seed 42.
    pub fn new(mix: Mix, tenants: usize) -> Self {
        ConsolidationRun {
            mix,
            tenants,
            slice: 64,
            collector: CollectorKind::PcmOnly,
            profile: MachineProfile::emulation(),
            seed: 42,
            chunk_policy: ChunkPolicy::TwoLists,
            warmup: true,
            monitor_interval: 0.01,
            track_wear: false,
            profiling: false,
            faults: None,
            endurance: None,
            os: None,
        }
    }

    /// The run's mix.
    pub fn mix(&self) -> Mix {
        self.mix
    }

    /// The run's tenant count (consolidation density).
    pub fn tenants(&self) -> usize {
        self.tenants
    }

    /// Sets the scheduler slice length in workload steps (clamped to at
    /// least 1).
    pub fn slice(mut self, steps: u64) -> Self {
        self.slice = steps.max(1);
        self
    }

    /// Sets the collector configuration every tenant's heap uses.
    pub fn collector(mut self, collector: CollectorKind) -> Self {
        self.collector = collector;
        self
    }

    /// Sets the machine profile (context count, LLC size, …).
    pub fn profile(mut self, profile: MachineProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the base seed; tenant `i` runs with `seed + i`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the chunk free-list policy.
    pub fn chunk_policy(mut self, policy: ChunkPolicy) -> Self {
        self.chunk_policy = policy;
        self
    }

    /// Disables the warm-up iteration (quick tests only).
    pub fn without_warmup(mut self) -> Self {
        self.warmup = false;
        self
    }

    /// Sets the write-rate monitor's sampling interval in virtual seconds.
    pub fn monitor_interval(mut self, seconds: f64) -> Self {
        self.monitor_interval = seconds;
        self
    }

    /// Enables per-line PCM wear tracking.
    pub fn track_wear(mut self) -> Self {
        self.track_wear = true;
        self
    }

    /// Enables the phase-and-provenance profiler (implies wear tracking).
    pub fn profiling(mut self) -> Self {
        self.profiling = true;
        self.track_wear = true;
        self
    }

    /// Installs a deterministic fault-injection plan (inert plans are
    /// dropped, exactly like [`hemu_core::Experiment::faults`]).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = if plan.is_inert() { None } else { Some(plan) };
        self
    }

    /// Enables the PCM endurance model.
    pub fn endurance(mut self, cfg: EnduranceConfig) -> Self {
        self.endurance = Some(cfg);
        self
    }

    /// Hands page placement to an OS page manager (requires the PCM-Only
    /// collector, like single-tenant runs).
    pub fn os_paging(mut self, cfg: OsPagingConfig) -> Self {
        self.os = Some(cfg);
        self
    }

    /// Runs the consolidation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::InvalidConfig`] for inconsistent
    /// configurations (zero tenants, more than 255, or OS paging combined
    /// with a write-rationing collector), and propagates heap or machine
    /// exhaustion.
    pub fn run(&self) -> Result<RunReport> {
        self.run_traced(Tracer::disabled()).map(|a| a.report)
    }

    /// Runs the consolidation and returns the full artifact bundle.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConsolidationRun::run`].
    pub fn run_full(&self) -> Result<RunArtifacts> {
        self.run_traced(Tracer::disabled())
    }

    /// Runs the consolidation with an explicit tracer — the general form
    /// behind [`ConsolidationRun::run`], for the bench harness.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConsolidationRun::run`].
    pub fn run_traced(&self, tracer: Tracer) -> Result<RunArtifacts> {
        if self.tenants == 0 {
            return Err(HemuError::InvalidConfig("need at least one tenant".into()));
        }
        // 255 tenants is far past any useful density, and keeps the
        // `--tenants` range and the attribution tables small.
        if self.tenants > 255 {
            return Err(HemuError::InvalidConfig(format!(
                "{} tenants exceed the 255-tenant attribution limit",
                self.tenants
            )));
        }
        if self.os.is_some() && self.collector != CollectorKind::PcmOnly {
            return Err(HemuError::InvalidConfig(
                "OS-managed placement replaces write-rationing: use the \
                 PCM-Only collector with an OS policy"
                    .into(),
            ));
        }

        let mut machine = Machine::new(self.profile);
        let mut os_mgr = self.os.map(|cfg| OsPageManager::install(&mut machine, cfg));
        // Tenancy goes in before any allocation so even the first heap
        // metadata fault is owned by its tenant.
        machine.enable_tenancy(self.tenants);
        if self.track_wear || self.profiling {
            machine.enable_wear_tracking();
        }
        if self.profiling {
            machine.enable_profiling();
        }
        if let Some(cfg) = self.endurance {
            machine.enable_endurance(cfg);
        }
        if let Some(plan) = &self.faults {
            machine.install_faults(plan.clone());
        }

        let specs = self.mix.tenant_specs(self.tenants, self.seed)?;
        let mut tenants: Vec<(Box<dyn Workload>, Memory)> = Vec::new();
        let mut procs: Vec<ProcId> = Vec::new();
        for spec in &specs {
            if spec.workload.language == Language::Cpp && self.collector != CollectorKind::PcmOnly {
                return Err(HemuError::InvalidConfig(
                    "C++ workloads run on the PCM-Only reference system".into(),
                ));
            }
            let workload = spec.workload.instantiate(spec.seed);
            // Over-subscription by design: densities past the context
            // count wrap around and share contexts.
            let ctx = CtxId(spec.id % machine.contexts());
            let mem = match spec.workload.language {
                Language::Java => {
                    let cfg = self
                        .collector
                        .config(workload.base_nursery(), workload.heap_size());
                    let proc = machine.add_process(cfg.young_socket());
                    machine.set_proc_tenant(proc, spec.id as u16);
                    if let Some(os) = &os_mgr {
                        os.attach_process(&mut machine, proc);
                    }
                    procs.push(proc);
                    Memory::managed(ManagedHeap::with_chunk_policy(
                        &mut machine,
                        proc,
                        ctx,
                        cfg,
                        self.chunk_policy,
                    )?)
                }
                Language::Cpp => {
                    let proc = machine.add_process(SocketId::PCM);
                    machine.set_proc_tenant(proc, spec.id as u16);
                    if let Some(os) = &os_mgr {
                        os.attach_process(&mut machine, proc);
                    }
                    procs.push(proc);
                    Memory::native(NativeHeap::new(&mut machine, proc, ctx, SocketId::PCM))
                }
            };
            tenants.push((workload, mem));
        }

        // Warm-up iteration, then the barrier: all tenants start the
        // measured iteration at the same virtual instant (§IV).
        if self.warmup {
            run_slices(
                &mut machine,
                &mut tenants,
                self.slice,
                None,
                os_mgr.as_mut(),
            )?;
            machine.barrier();
            for (w, _) in &mut tenants {
                w.start_iteration();
            }
        }

        machine.set_tracer(tracer);
        // Resets controller counters, clocks, metrics — and the tenancy
        // write counts, while frame ownership survives: the tenants keep
        // their memory, the measurement interval restarts.
        machine.start_measured_iteration();
        let gc_before: Vec<Option<GcStats>> =
            tenants.iter().map(|(_, m)| m.gc_stats().copied()).collect();
        let faults_before: Vec<u64> = procs
            .iter()
            .map(|&p| machine.address_space(p).fault_count())
            .collect();
        let alloc_before: Vec<u64> = tenants.iter().map(|(_, m)| m.allocated_bytes()).collect();

        let mut monitor = WriteRateMonitor::new(self.monitor_interval);
        let spans = machine.spans();
        spans.begin("iteration", "run", hemu_types::Cycles::ZERO);
        run_slices(
            &mut machine,
            &mut tenants,
            self.slice,
            Some(&mut monitor),
            os_mgr.as_mut(),
        )?;
        spans.end(machine.elapsed());
        monitor.finish(&machine);

        // Per-tenant shares: write attribution from the tenancy tracker,
        // GC and fault deltas from the per-tenant snapshots.
        let mut per_tenant = Vec::with_capacity(self.tenants);
        let mut gc_total: Option<GcStats> = None;
        for (i, spec) in specs.iter().enumerate() {
            let (_, mem) = &tenants[i];
            let gc_delta = mem
                .gc_stats()
                .map(|now| diff_gc(now, gc_before[i].as_ref().unwrap_or(&GcStats::default())));
            if let Some(d) = &gc_delta {
                gc_total = Some(match gc_total {
                    Some(t) => add_gc(&t, d),
                    None => *d,
                });
            }
            let (pcm, dram) = machine
                .tenancy()
                .map(|t| (t.pcm_lines(i), t.dram_lines(i)))
                .unwrap_or((0, 0));
            per_tenant.push(TenantShare {
                id: i,
                workload: format!("{}", spec.workload),
                pcm_write_lines: pcm,
                dram_write_lines: dram,
                minor_gcs: gc_delta.as_ref().map_or(0, |g| g.minor_gcs),
                full_gcs: gc_delta.as_ref().map_or(0, |g| g.full_gcs),
                pause_cycles: gc_delta.as_ref().map_or(0, |g| g.pause_cycles),
                allocated_bytes: tenants[i].1.allocated_bytes() - alloc_before[i],
                page_faults: machine.address_space(procs[i]).fault_count() - faults_before[i],
            });
        }
        let (unattributed_pcm, unattributed_dram) = machine
            .tenancy()
            .map(|t| (t.unattributed_pcm(), t.unattributed_dram()))
            .unwrap_or((0, 0));

        // Publish the per-tenant GC/OS namespaces alongside the machine's
        // writes.tenant.* gauges; everything lands in the same metrics
        // export.
        {
            let m = &machine.obs().metrics;
            for t in &per_tenant {
                let id = t.id;
                m.gauge(&format!("gc.tenant.{id}.minor_gcs"))
                    .set(t.minor_gcs as f64);
                m.gauge(&format!("gc.tenant.{id}.full_gcs"))
                    .set(t.full_gcs as f64);
                m.gauge(&format!("gc.tenant.{id}.pause_cycles"))
                    .set(t.pause_cycles as f64);
                m.gauge(&format!("gc.tenant.{id}.allocated_bytes"))
                    .set(t.allocated_bytes as f64);
                m.gauge(&format!("os.tenant.{id}.page_faults"))
                    .set(t.page_faults as f64);
            }
        }
        machine.publish_metrics();

        let elapsed = machine.elapsed_seconds();
        let pcm_writes = machine.socket_writes(SocketId::PCM);
        let allocated: u64 = per_tenant.iter().map(|t| t.allocated_bytes).sum();
        let trace = machine.obs().tracer.drain();
        let gc_pause_histogram = machine
            .obs()
            .metrics
            .histogram_snapshot("gc.pause_cycles")
            .filter(|h| h.count > 0);
        let provenance = machine.profiling_enabled().then(|| {
            let m = &machine.obs().metrics;
            let spans = &machine.obs().spans;
            ProvenanceSummary {
                pcm_by_cause: WriteCause::ALL
                    .map(|c| m.counter_value(&format!("writes.by_cause.{}", c.name()))),
                pcm_by_space: SpaceTag::ALL
                    .map(|s| m.counter_value(&format!("writes.by_space.{}", s.name()))),
                dram_by_cause: WriteCause::ALL
                    .map(|c| m.counter_value(&format!("writes.dram.by_cause.{}", c.name()))),
                dram_by_space: SpaceTag::ALL
                    .map(|s| m.counter_value(&format!("writes.dram.by_space.{}", s.name()))),
                spans_recorded: spans.len() as u64 + spans.dropped(),
                spans_dropped: spans.dropped(),
            }
        });
        let heatmap = build_heatmap(&machine);

        let report = RunReport {
            workload: format!("{}@{}", self.mix, self.tenants),
            collector: if let Some(cfg) = self.os {
                cfg.policy.name().into()
            } else {
                self.collector.name().into()
            },
            profile: self.profile.name.into(),
            instances: self.tenants,
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
            allocated: ByteSize::new(allocated),
            gc: gc_total,
            native: None,
            machine: *machine.stats(),
            samples: monitor.into_samples(),
            wear: machine.memory().wear().map(|w| hemu_core::WearSummary {
                pcm_lines_touched: w.lines_touched() as u64,
                max_line_writes: w.max_line_writes(),
                levelling_efficiency: w
                    .levelling_efficiency(self.profile.numa.capacity_per_socket.bytes() / 64),
            }),
            endurance: self.endurance.map(|cfg| hemu_core::EnduranceSummary {
                budget_writes: cfg.budget_writes,
                failed_lines: machine.memory().failed_lines(),
                retired_pages: machine.memory().retired_pages(SocketId::PCM),
                remapped_pages: machine.pages_remapped(),
                effective_capacity: machine.memory().effective_capacity(SocketId::PCM),
            }),
            gc_pause_histogram,
            os_paging: os_mgr.as_ref().map(OsPageManager::stats),
            provenance,
            consolidation: Some(ConsolidationSummary {
                mix: self.mix.name().to_string(),
                tenants: self.tenants,
                contexts: machine.contexts(),
                slice: self.slice,
                unattributed_pcm_lines: unattributed_pcm,
                unattributed_dram_lines: unattributed_dram,
                per_tenant,
            }),
        };
        Ok(RunArtifacts {
            report,
            trace,
            spans: machine.obs().spans.snapshot(),
            heatmap,
            freq_hz: self.profile.freq_hz as f64,
            elapsed: machine.elapsed(),
        })
    }
}

/// The slice scheduler: each live tenant runs up to `slice` consecutive
/// workload steps, then yields. A full round over all tenants is a
/// monitor/OS poll edge, exactly like the single-tenant round-robin.
fn run_slices(
    machine: &mut Machine,
    tenants: &mut [(Box<dyn Workload>, Memory)],
    slice: u64,
    mut monitor: Option<&mut WriteRateMonitor>,
    mut os: Option<&mut OsPageManager>,
) -> Result<()> {
    let mut done = vec![false; tenants.len()];
    let mut remaining = tenants.len();
    // A generous runaway bound, shared across all tenants.
    let mut fuel: u64 = 50_000_000;
    while remaining > 0 {
        for (i, (w, mem)) in tenants.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            for _ in 0..slice {
                if w.step(machine, mem)? == StepResult::IterationDone {
                    done[i] = true;
                    remaining -= 1;
                    break;
                }
                fuel -= 1;
                if fuel == 0 {
                    return Err(HemuError::InvalidConfig(
                        "consolidated workloads did not terminate within the quantum budget".into(),
                    ));
                }
            }
        }
        if let Some(mon) = monitor.as_deref_mut() {
            mon.poll(machine);
        }
        if let Some(os) = os.as_deref_mut() {
            os.poll(machine)?;
        }
    }
    Ok(())
}

/// Per-frame wear heatmap rows, sorted by frame (mirrors the
/// single-tenant experiment's aggregation).
fn build_heatmap(machine: &Machine) -> Vec<PageWear> {
    let Some(wear) = machine.memory().wear() else {
        return Vec::new();
    };
    let lines_per_page = (PAGE_SIZE / CACHE_LINE) as u64;
    let mut pages: std::collections::BTreeMap<u64, PageWear> = std::collections::BTreeMap::new();
    for (line, count) in wear.histogram() {
        let frame = line.raw() / lines_per_page;
        let row = pages.entry(frame).or_insert(PageWear {
            frame,
            writes: 0,
            lines_touched: 0,
            max_line_writes: 0,
        });
        row.writes += count;
        row.lines_touched += 1;
        row.max_line_writes = row.max_line_writes.max(count);
    }
    pages.into_values().collect()
}

fn diff_gc(now: &GcStats, then: &GcStats) -> GcStats {
    GcStats {
        minor_gcs: now.minor_gcs - then.minor_gcs,
        observer_gcs: now.observer_gcs - then.observer_gcs,
        full_gcs: now.full_gcs - then.full_gcs,
        pause_cycles: now.pause_cycles - then.pause_cycles,
        allocated_bytes: now.allocated_bytes - then.allocated_bytes,
        allocated_objects: now.allocated_objects - then.allocated_objects,
        large_allocated_bytes: now.large_allocated_bytes - then.large_allocated_bytes,
        loo_nursery_large: now.loo_nursery_large - then.loo_nursery_large,
        copied_minor_bytes: now.copied_minor_bytes - then.copied_minor_bytes,
        copied_observer_bytes: now.copied_observer_bytes - then.copied_observer_bytes,
        promoted_dram_objects: now.promoted_dram_objects - then.promoted_dram_objects,
        promoted_pcm_objects: now.promoted_pcm_objects - then.promoted_pcm_objects,
        large_rescued: now.large_rescued - then.large_rescued,
        mark_writes: now.mark_writes - then.mark_writes,
        remset_entries: now.remset_entries - then.remset_entries,
        monitor_marks: now.monitor_marks - then.monitor_marks,
    }
}

fn add_gc(a: &GcStats, b: &GcStats) -> GcStats {
    GcStats {
        minor_gcs: a.minor_gcs + b.minor_gcs,
        observer_gcs: a.observer_gcs + b.observer_gcs,
        full_gcs: a.full_gcs + b.full_gcs,
        pause_cycles: a.pause_cycles + b.pause_cycles,
        allocated_bytes: a.allocated_bytes + b.allocated_bytes,
        allocated_objects: a.allocated_objects + b.allocated_objects,
        large_allocated_bytes: a.large_allocated_bytes + b.large_allocated_bytes,
        loo_nursery_large: a.loo_nursery_large + b.loo_nursery_large,
        copied_minor_bytes: a.copied_minor_bytes + b.copied_minor_bytes,
        copied_observer_bytes: a.copied_observer_bytes + b.copied_observer_bytes,
        promoted_dram_objects: a.promoted_dram_objects + b.promoted_dram_objects,
        promoted_pcm_objects: a.promoted_pcm_objects + b.promoted_pcm_objects,
        large_rescued: a.large_rescued + b.large_rescued,
        mark_writes: a.mark_writes + b.mark_writes,
        remset_entries: a.remset_entries + b.remset_entries,
        monitor_marks: a.monitor_marks + b.monitor_marks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_tenants_is_invalid() {
        let r = ConsolidationRun::new(Mix::Dacapo, 0).run();
        assert!(matches!(r, Err(HemuError::InvalidConfig(_))));
    }

    #[test]
    fn tenant_ids_must_fit_a_byte() {
        let r = ConsolidationRun::new(Mix::Dacapo, 256).run();
        assert!(matches!(r, Err(HemuError::InvalidConfig(_))));
    }

    #[test]
    fn os_paging_requires_pcm_only() {
        let r = ConsolidationRun::new(Mix::Dacapo, 2)
            .collector(CollectorKind::KgN)
            .os_paging(hemu_types::OsPagingConfig::default())
            .run();
        assert!(matches!(r, Err(HemuError::InvalidConfig(_))));
    }

    #[test]
    fn oversubscription_is_allowed() {
        // 6 tenants on a 4-context profile — the whole point of the
        // subsystem. Warm-up off keeps the test cheap.
        let profile = MachineProfile::emulation().with_contexts(4);
        let report = ConsolidationRun::new(Mix::Dacapo, 6)
            .profile(profile)
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
        let r = ConsolidationRun::new(Mix::Pjbb, 1).slice(0);
        assert_eq!(r.slice, 1);
    }
}
