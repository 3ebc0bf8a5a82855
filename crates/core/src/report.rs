//! Experiment results.

use crate::monitor::RateSample;
use hemu_heap::GcStats;
use hemu_machine::MachineStats;
use hemu_malloc::NativeStats;
use hemu_obs::json::{JsonObject, ToJson};
use hemu_obs::HistogramSnapshot;
use hemu_os::OsStats;
use hemu_types::{ByteSize, SpaceTag, WriteCause};
use std::fmt;

/// Everything measured during one experiment's measured iteration.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload display name (`pr.cpp.large`, `lusearch`, …).
    pub workload: String,
    /// Collector name (`KG-W`, `PCM-Only`, …; `malloc` for native runs).
    pub collector: String,
    /// Machine profile name (`emulation` or `simulation`).
    pub profile: String,
    /// Number of co-running instances.
    pub instances: usize,
    /// Bytes written at the PCM socket's controller — the headline metric.
    pub pcm_writes: ByteSize,
    /// Bytes read at the PCM socket.
    pub pcm_reads: ByteSize,
    /// Bytes written at the DRAM socket.
    pub dram_writes: ByteSize,
    /// Bytes read at the DRAM socket.
    pub dram_reads: ByteSize,
    /// Virtual elapsed time of the measured iteration, in seconds.
    pub elapsed_seconds: f64,
    /// Average PCM write rate in MB/s (decimal megabytes, as the paper and
    /// `pcm-memory` report).
    pub pcm_write_rate_mbs: f64,
    /// Total bytes the applications allocated during the measured
    /// iteration.
    pub allocated: ByteSize,
    /// Aggregated GC statistics (managed runs).
    pub gc: Option<GcStats>,
    /// Aggregated native allocator statistics (C++ runs).
    pub native: Option<NativeStats>,
    /// Machine-level statistics.
    pub machine: MachineStats,
    /// Interval samples from the write-rate monitor.
    pub samples: Vec<RateSample>,
    /// Measured PCM wear statistics (present when the experiment enabled
    /// wear tracking).
    pub wear: Option<WearSummary>,
    /// PCM endurance outcome (present when the experiment enabled the
    /// endurance model).
    pub endurance: Option<EnduranceSummary>,
    /// Distribution of stop-the-world GC pauses (virtual cycles) over the
    /// measured iteration, across every heap on the machine (absent when
    /// no collection ran).
    pub gc_pause_histogram: Option<HistogramSnapshot>,
    /// OS page-manager activity (present when the run was placed by an
    /// [`hemu_os::OsPolicy`] instead of a write-rationing collector).
    pub os_paging: Option<OsStats>,
    /// Write-provenance breakdown (present when the experiment enabled
    /// profiling).
    pub provenance: Option<ProvenanceSummary>,
    /// Per-tenant write shares (present for mix runs,
    /// [`crate::Experiment::mix`]).
    pub consolidation: Option<ConsolidationSummary>,
}

/// Per-tenant attribution of a consolidated (multi-tenant) run: who wrote
/// how much at each memory controller, plus enough per-tenant GC/OS
/// context to explain the shares.
///
/// Tenant line counts plus the `unattributed_*` buckets sum *exactly* to
/// the global controller counters — they are charged at the same
/// accounting point and reset at the same instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsolidationSummary {
    /// Workload mix name (`dacapo`, `pjbb`, `graphchi`, `mixed`).
    pub mix: String,
    /// Number of co-scheduled tenants (the consolidation density).
    pub tenants: usize,
    /// Hardware contexts the tenants were multiplexed onto.
    pub contexts: usize,
    /// Scheduler slice length in workload steps.
    pub slice: u64,
    /// PCM line writes that hit a frame no tenant owned (0 in a
    /// well-formed run; the CI smoke greps for exactly that).
    pub unattributed_pcm_lines: u64,
    /// DRAM line writes that hit a frame no tenant owned.
    pub unattributed_dram_lines: u64,
    /// One entry per tenant, in tenant-id order.
    pub per_tenant: Vec<TenantShare>,
}

/// One tenant's slice of a consolidated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantShare {
    /// Tenant id (0-based).
    pub id: usize,
    /// The tenant's workload display name.
    pub workload: String,
    /// PCM controller line writes charged to this tenant.
    pub pcm_write_lines: u64,
    /// DRAM controller line writes charged to this tenant.
    pub dram_write_lines: u64,
    /// Minor (nursery) collections the tenant ran.
    pub minor_gcs: u64,
    /// Full-heap collections the tenant ran.
    pub full_gcs: u64,
    /// Virtual cycles the tenant spent in stop-the-world pauses.
    pub pause_cycles: u64,
    /// Bytes the tenant allocated during the measured iteration.
    pub allocated_bytes: u64,
    /// Demand page faults the tenant's process took.
    pub page_faults: u64,
}

impl ConsolidationSummary {
    /// Total PCM line writes attributed to tenants (excludes the
    /// unattributed bucket).
    pub fn attributed_pcm_lines(&self) -> u64 {
        self.per_tenant.iter().map(|t| t.pcm_write_lines).sum()
    }

    /// Total DRAM line writes attributed to tenants.
    pub fn attributed_dram_lines(&self) -> u64 {
        self.per_tenant.iter().map(|t| t.dram_write_lines).sum()
    }

    /// Mean PCM line writes per tenant — the consolidation figure's
    /// y-axis before normalization.
    pub fn pcm_lines_per_tenant(&self) -> f64 {
        if self.per_tenant.is_empty() {
            0.0
        } else {
            self.attributed_pcm_lines() as f64 / self.per_tenant.len() as f64
        }
    }
}

/// Per-cause / per-space attribution of the measured iteration's memory
/// writes, in cache lines, from the profiler's `writes.by_cause.*` and
/// `writes.by_space.*` counters. Indices follow [`WriteCause::ALL`] and
/// [`SpaceTag::ALL`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvenanceSummary {
    /// PCM line writes by cause.
    pub pcm_by_cause: [u64; WriteCause::ALL.len()],
    /// PCM line writes by targeted heap space.
    pub pcm_by_space: [u64; SpaceTag::ALL.len()],
    /// DRAM line writes by cause.
    pub dram_by_cause: [u64; WriteCause::ALL.len()],
    /// DRAM line writes by targeted heap space.
    pub dram_by_space: [u64; SpaceTag::ALL.len()],
    /// Spans captured by the profiler over the measured iteration.
    pub spans_recorded: u64,
    /// Spans overwritten because the bounded recorder filled up.
    pub spans_dropped: u64,
}

impl ProvenanceSummary {
    /// PCM line writes attributed to `cause`.
    pub fn pcm_cause(&self, cause: WriteCause) -> u64 {
        self.pcm_by_cause[cause as usize]
    }

    /// PCM line writes attributed to `space`.
    pub fn pcm_space(&self, space: SpaceTag) -> u64 {
        self.pcm_by_space[space as usize]
    }

    /// Total attributed PCM line writes.
    pub fn pcm_total(&self) -> u64 {
        self.pcm_by_cause.iter().sum()
    }

    /// Fraction of PCM line writes attributed to `cause` (0 when there
    /// were none).
    pub fn pcm_cause_fraction(&self, cause: WriteCause) -> f64 {
        let total = self.pcm_total();
        if total == 0 {
            0.0
        } else {
            self.pcm_cause(cause) as f64 / total as f64
        }
    }
}

/// Aggregated wear of one PCM page frame, a row of the per-page wear
/// heatmap CSV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageWear {
    /// Physical frame number.
    pub frame: u64,
    /// Total line writes absorbed by the frame.
    pub writes: u64,
    /// Distinct lines of the frame written at least once.
    pub lines_touched: u64,
    /// Writes absorbed by the frame's hottest line.
    pub max_line_writes: u64,
}

/// Per-line PCM wear statistics from the opt-in wear tracker.
#[derive(Debug, Clone, Copy)]
pub struct WearSummary {
    /// Distinct PCM lines written during the measured iteration.
    pub pcm_lines_touched: u64,
    /// Writes absorbed by the hottest line.
    pub max_line_writes: u64,
    /// Estimated rotation-levelling efficiency for this write stream in
    /// `(0, 1]` (the paper assumes 0.5).
    pub levelling_efficiency: f64,
}

/// Outcome of the PCM endurance model: how much of the device wore out
/// during the run and what capacity survived.
#[derive(Debug, Clone, Copy)]
pub struct EnduranceSummary {
    /// Configured mean per-line write budget.
    pub budget_writes: u64,
    /// PCM lines that exhausted their budget and failed.
    pub failed_lines: u64,
    /// PCM pages retired because a line in them failed.
    pub retired_pages: u64,
    /// Virtual pages transparently remapped onto replacement frames.
    pub remapped_pages: u64,
    /// PCM capacity still backed by healthy frames.
    pub effective_capacity: ByteSize,
}

impl RunReport {
    /// Total memory writes (both sockets).
    pub fn total_writes(&self) -> ByteSize {
        self.pcm_writes + self.dram_writes
    }

    /// Percentage reduction of PCM writes relative to `baseline`
    /// (positive = fewer writes than the baseline), the metric of
    /// Table II and Fig. 7.
    pub fn pcm_write_reduction_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.pcm_writes.bytes() == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.pcm_writes.bytes() as f64 / baseline.pcm_writes.bytes() as f64)
    }

    /// PCM writes normalized to `baseline` (Fig. 3 / Fig. 7 style).
    pub fn pcm_writes_normalized_to(&self, baseline: &RunReport) -> f64 {
        if baseline.pcm_writes.bytes() == 0 {
            return f64::INFINITY;
        }
        self.pcm_writes.bytes() as f64 / baseline.pcm_writes.bytes() as f64
    }
}

impl ToJson for WearSummary {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("pcm_lines_touched", &self.pcm_lines_touched)
            .field("max_line_writes", &self.max_line_writes)
            .field("levelling_efficiency", &self.levelling_efficiency);
        obj.finish();
    }
}

impl ToJson for EnduranceSummary {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("budget_writes", &self.budget_writes)
            .field("failed_lines", &self.failed_lines)
            .field("retired_pages", &self.retired_pages)
            .field("remapped_pages", &self.remapped_pages)
            .field("effective_capacity", &self.effective_capacity);
        obj.finish();
    }
}

impl ToJson for TenantShare {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("id", &self.id)
            .field("workload", &self.workload)
            .field("pcm_write_lines", &self.pcm_write_lines)
            .field("dram_write_lines", &self.dram_write_lines)
            .field("minor_gcs", &self.minor_gcs)
            .field("full_gcs", &self.full_gcs)
            .field("pause_cycles", &self.pause_cycles)
            .field("allocated_bytes", &self.allocated_bytes)
            .field("page_faults", &self.page_faults);
        obj.finish();
    }
}

impl ToJson for ConsolidationSummary {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("mix", &self.mix)
            .field("tenants", &self.tenants)
            .field("contexts", &self.contexts)
            .field("slice", &self.slice)
            .field("unattributed_pcm_lines", &self.unattributed_pcm_lines)
            .field("unattributed_dram_lines", &self.unattributed_dram_lines)
            .field("per_tenant", &self.per_tenant);
        obj.finish();
    }
}

impl ToJson for ProvenanceSummary {
    fn write_json(&self, out: &mut String) {
        fn side(out: &mut String, by_cause: &[u64], by_space: &[u64]) {
            let mut obj = JsonObject::new(out);
            obj.raw_field("by_cause", |o| {
                let mut m = JsonObject::new(o);
                for (cause, v) in WriteCause::ALL.iter().zip(by_cause) {
                    m.field(cause.name(), v);
                }
                m.finish();
            });
            obj.raw_field("by_space", |o| {
                let mut m = JsonObject::new(o);
                for (space, v) in SpaceTag::ALL.iter().zip(by_space) {
                    m.field(space.name(), v);
                }
                m.finish();
            });
            obj.finish();
        }
        let mut obj = JsonObject::new(out);
        obj.raw_field("pcm", |o| side(o, &self.pcm_by_cause, &self.pcm_by_space));
        obj.raw_field("dram", |o| {
            side(o, &self.dram_by_cause, &self.dram_by_space)
        });
        obj.field("spans_recorded", &self.spans_recorded)
            .field("spans_dropped", &self.spans_dropped);
        obj.finish();
    }
}

impl ToJson for RunReport {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("workload", &self.workload)
            .field("collector", &self.collector)
            .field("profile", &self.profile)
            .field("instances", &self.instances)
            .field("pcm_writes", &self.pcm_writes)
            .field("pcm_reads", &self.pcm_reads)
            .field("dram_writes", &self.dram_writes)
            .field("dram_reads", &self.dram_reads)
            .field("elapsed_seconds", &self.elapsed_seconds)
            .field("pcm_write_rate_mbs", &self.pcm_write_rate_mbs)
            .field("allocated", &self.allocated)
            .field("gc", &self.gc)
            .field("native", &self.native)
            .field("machine", &self.machine)
            .field("samples", &self.samples)
            .field("wear", &self.wear)
            .field("endurance", &self.endurance)
            .field("gc_pause_histogram", &self.gc_pause_histogram)
            .field("os_paging", &self.os_paging)
            .field("provenance", &self.provenance)
            .field("consolidation", &self.consolidation);
        obj.finish();
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {} [{}] on {}: PCM W {} ({:.1} MB/s), R {}; DRAM W {}; {:.3}s virtual",
            self.instances,
            self.workload,
            self.collector,
            self.profile,
            self.pcm_writes,
            self.pcm_write_rate_mbs,
            self.pcm_reads,
            self.dram_writes,
            self.elapsed_seconds,
        )?;
        if let Some(h) = &self.gc_pause_histogram {
            write!(
                f,
                "; GC pause p50/p95/p99 {}/{}/{} cycles",
                h.p50(),
                h.p95(),
                h.p99()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pcm: u64) -> RunReport {
        RunReport {
            workload: "x".into(),
            collector: "KG-N".into(),
            profile: "emulation".into(),
            instances: 1,
            pcm_writes: ByteSize::new(pcm),
            pcm_reads: ByteSize::ZERO,
            dram_writes: ByteSize::new(10),
            dram_reads: ByteSize::ZERO,
            elapsed_seconds: 1.0,
            pcm_write_rate_mbs: pcm as f64 / 1e6,
            allocated: ByteSize::ZERO,
            gc: None,
            native: None,
            machine: MachineStats::default(),
            samples: Vec::new(),
            wear: None,
            endurance: None,
            gc_pause_histogram: None,
            os_paging: None,
            provenance: None,
            consolidation: None,
        }
    }

    #[test]
    fn reduction_is_relative_to_baseline() {
        let base = report(1000);
        let better = report(400);
        assert!((better.pcm_write_reduction_vs(&base) - 60.0).abs() < 1e-9);
        assert!((better.pcm_writes_normalized_to(&base) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn zero_baseline_is_handled() {
        let base = report(0);
        let r = report(5);
        assert_eq!(r.pcm_write_reduction_vs(&base), 0.0);
        assert!(r.pcm_writes_normalized_to(&base).is_infinite());
    }

    #[test]
    fn display_has_the_essentials() {
        let s = format!("{}", report(2_000_000));
        assert!(s.contains("KG-N"));
        assert!(s.contains("MB/s"));
    }

    #[test]
    fn display_surfaces_pause_quantiles_when_present() {
        let mut r = report(100);
        let h = {
            let mut hist = hemu_obs::Histogram::default();
            hist.observe(100);
            hist.observe(200);
            hist.snapshot()
        };
        r.gc_pause_histogram = Some(h);
        let s = format!("{r}");
        assert!(s.contains("GC pause p50/p95/p99"), "quantiles missing: {s}");
    }

    #[test]
    fn provenance_summary_json_uses_stable_names() {
        let mut p = ProvenanceSummary::default();
        p.pcm_by_cause[WriteCause::Mutator as usize] = 10;
        p.pcm_by_space[SpaceTag::Nursery as usize] = 10;
        let json = p.to_json();
        assert!(
            json.starts_with(r#"{"pcm":{"by_cause":{"mutator":10,"nursery_evac":0"#),
            "unexpected JSON prefix: {json}"
        );
        assert!(json.contains(r#""by_space":{"nursery":10"#));
        assert!(json.contains(r#""spans_recorded":0"#));
        assert_eq!(p.pcm_total(), 10);
        assert!((p.pcm_cause_fraction(WriteCause::Mutator) - 1.0).abs() < 1e-12);
        assert_eq!(
            ProvenanceSummary::default().pcm_cause_fraction(WriteCause::Mutator),
            0.0
        );
    }
}
