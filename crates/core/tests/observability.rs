//! End-to-end observability tests: the event trace, the report's counts
//! and the JSON export must all tell the same story as the aggregate
//! statistics.

use hemu_core::{
    ConsolidationSummary, Experiment, ProvenanceSummary, RunReport, TenantShare, WearSummary,
};
use hemu_heap::{CollectorKind, GcStats};
use hemu_machine::MachineStats;
use hemu_obs::{ToJson, TraceEvent, Tracer};
use hemu_types::ByteSize;
use hemu_workloads::WorkloadSpec;

const TRACE_CAPACITY: usize = 1 << 16;

/// A traced `lusearch | KG-N` run: the GC events in the trace must be
/// internally consistent and agree with the aggregated [`GcStats`] and the
/// pause histogram in the report.
#[test]
fn trace_gc_events_match_gc_stats() {
    let spec = WorkloadSpec::by_name("lusearch").unwrap();
    let (report, trace) = Experiment::new(spec)
        .collector(CollectorKind::KgN)
        .run_traced(Tracer::bounded(TRACE_CAPACITY))
        .map(|a| (a.report, a.trace))
        .unwrap();

    // Nothing was dropped: the ring only overwrites once full.
    assert!(
        trace.len() < TRACE_CAPACITY,
        "trace filled its ring; grow the capacity"
    );

    let gc = report.gc.expect("managed run has GC stats");
    assert!(gc.total_gcs() > 0, "lusearch must collect at least once");

    let mut starts = 0u64;
    let mut ends = 0u64;
    let mut pause_sum = 0u64;
    for record in &trace {
        match record.event {
            TraceEvent::GcStart { .. } => starts += 1,
            TraceEvent::GcEnd { pause_cycles, .. } => {
                ends += 1;
                pause_sum += pause_cycles;
            }
            _ => {}
        }
    }
    assert_eq!(starts, gc.total_gcs(), "one GcStart per collection");
    assert_eq!(ends, gc.total_gcs(), "one GcEnd per collection");
    assert_eq!(
        pause_sum, gc.pause_cycles,
        "summed GcEnd pause cycles must equal the aggregate GcStats"
    );

    let hist = report
        .gc_pause_histogram
        .expect("collections imply a pause histogram");
    assert_eq!(hist.count, gc.total_gcs());
    assert_eq!(hist.sum, gc.pause_cycles);

    // Timestamps never go backwards within the (single-context) trace of
    // GC events for one instance.
    let gc_times: Vec<u64> = trace
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::GcStart { .. } | TraceEvent::GcEnd { .. }
            )
        })
        .map(|r| r.t.raw())
        .collect();
    assert!(
        gc_times.windows(2).all(|w| w[0] <= w[1]),
        "GC event times must be monotone"
    );
}

/// An untraced run returns byte-identical results to a traced one:
/// observability must not perturb the simulation.
#[test]
fn tracing_does_not_perturb_the_run() {
    let spec = WorkloadSpec::by_name("avrora").unwrap();
    let plain = Experiment::new(spec)
        .collector(CollectorKind::KgN)
        .run()
        .unwrap();
    let (traced, _) = Experiment::new(spec)
        .collector(CollectorKind::KgN)
        .run_traced(Tracer::bounded(TRACE_CAPACITY))
        .map(|a| (a.report, a.trace))
        .unwrap();
    assert_eq!(plain.pcm_writes, traced.pcm_writes);
    assert_eq!(plain.elapsed_seconds, traced.elapsed_seconds);
    assert_eq!(plain.gc, traced.gc);
}

/// A profiled run attributes every PCM controller write to a cause, does
/// not perturb the simulation, and captures virtual-time spans.
#[test]
fn profiling_attributes_writes_and_records_spans() {
    use hemu_types::WriteCause;
    let spec = WorkloadSpec::by_name("lusearch").unwrap();
    let plain = Experiment::new(spec)
        .collector(CollectorKind::PcmOnly)
        .run()
        .unwrap();
    let arts = Experiment::new(spec)
        .collector(CollectorKind::PcmOnly)
        .profiling()
        .run_full()
        .unwrap();

    // Zero-perturbation: provenance tags and spans are advisory metadata.
    assert_eq!(plain.pcm_writes, arts.report.pcm_writes);
    assert_eq!(plain.elapsed_seconds, arts.report.elapsed_seconds);
    assert_eq!(plain.gc, arts.report.gc);

    let prov = arts
        .report
        .provenance
        .as_ref()
        .expect("profiled run reports provenance");
    // Attribution is complete: per-cause PCM lines sum to the controller's
    // byte counter (every write-back passes the provenance recorder).
    assert_eq!(prov.pcm_total() * 64, arts.report.pcm_writes.bytes());
    // The paper's point: under PCM-Only the nursery/mutator write stream
    // dominates PCM writes — that is what write rationing later removes.
    let young = prov.pcm_cause_fraction(WriteCause::Mutator)
        + prov.pcm_cause_fraction(WriteCause::NurseryEvac);
    assert!(
        young > 0.5,
        "mutator+nursery-evac should dominate PCM writes, got {young:.3}"
    );

    // Spans: the measured iteration is recorded, and collections appear as
    // gc-category phases nested under it.
    assert!(arts.spans.iter().any(|s| s.name == "iteration"));
    if arts.report.gc.as_ref().is_some_and(|g| g.total_gcs() > 0) {
        assert!(arts.spans.iter().any(|s| s.cat == "gc"));
    }
    // Profiling implies wear tracking, so the heatmap has rows for the
    // touched PCM frames.
    assert!(!arts.heatmap.is_empty());
    assert!(arts.heatmap.windows(2).all(|w| w[0].frame < w[1].frame));
}

/// Golden test of the report's JSON schema: field names, order, and value
/// formatting are part of the export contract (downstream scripts parse
/// this), so any change must be deliberate.
#[test]
fn report_json_schema_golden() {
    let report = RunReport {
        workload: "lusearch".into(),
        collector: "KG-N".into(),
        profile: "emulation".into(),
        instances: 1,
        pcm_writes: ByteSize::new(1000),
        pcm_reads: ByteSize::new(2000),
        dram_writes: ByteSize::new(300),
        dram_reads: ByteSize::new(400),
        elapsed_seconds: 1.5,
        pcm_write_rate_mbs: 0.00066,
        allocated: ByteSize::new(512),
        gc: Some(GcStats {
            minor_gcs: 2,
            pause_cycles: 77,
            ..Default::default()
        }),
        native: None,
        machine: MachineStats::default(),
        samples: Vec::new(),
        wear: Some(WearSummary {
            pcm_lines_touched: 5,
            max_line_writes: 9,
            levelling_efficiency: 0.5,
        }),
        endurance: None,
        gc_pause_histogram: None,
        os_paging: None,
        provenance: Some(ProvenanceSummary {
            pcm_by_cause: [10, 2, 3, 4, 0, 0, 1],
            pcm_by_space: [8, 0, 0, 12, 0, 0, 0],
            dram_by_cause: [0; 7],
            dram_by_space: [0; 7],
            spans_recorded: 6,
            spans_dropped: 0,
        }),
        consolidation: Some(ConsolidationSummary {
            mix: "dacapo".into(),
            tenants: 2,
            contexts: 16,
            slice: 64,
            unattributed_pcm_lines: 0,
            unattributed_dram_lines: 0,
            per_tenant: vec![TenantShare {
                id: 0,
                workload: "avrora".into(),
                pcm_write_lines: 40,
                dram_write_lines: 40,
                minor_gcs: 1,
                full_gcs: 0,
                pause_cycles: 9,
                allocated_bytes: 4096,
                page_faults: 3,
            }],
        }),
    };
    let expected = concat!(
        "{\"workload\":\"lusearch\",\"collector\":\"KG-N\",\"profile\":\"emulation\",",
        "\"instances\":1,\"pcm_writes\":1000,\"pcm_reads\":2000,\"dram_writes\":300,",
        "\"dram_reads\":400,\"elapsed_seconds\":1.5,\"pcm_write_rate_mbs\":0.00066,",
        "\"allocated\":512,",
        "\"gc\":{\"minor_gcs\":2,\"observer_gcs\":0,\"full_gcs\":0,\"pause_cycles\":77,",
        "\"allocated_bytes\":0,\"allocated_objects\":0,\"large_allocated_bytes\":0,",
        "\"loo_nursery_large\":0,\"copied_minor_bytes\":0,\"copied_observer_bytes\":0,",
        "\"promoted_dram_objects\":0,\"promoted_pcm_objects\":0,\"large_rescued\":0,",
        "\"mark_writes\":0,\"remset_entries\":0,\"monitor_marks\":0},",
        "\"native\":null,",
        "\"machine\":{\"line_accesses\":0,\"local_fills\":0,\"remote_fills\":0},",
        "\"samples\":[],",
        "\"wear\":{\"pcm_lines_touched\":5,\"max_line_writes\":9,",
        "\"levelling_efficiency\":0.5},",
        "\"endurance\":null,",
        "\"gc_pause_histogram\":null,",
        "\"os_paging\":null,",
        "\"provenance\":{",
        "\"pcm\":{\"by_cause\":{\"mutator\":10,\"nursery_evac\":2,\"mature_copy\":3,",
        "\"metadata\":4,\"os_migration\":0,\"wear_remap\":0,\"other\":1},",
        "\"by_space\":{\"nursery\":8,\"observer\":0,\"mature_dram\":0,\"mature_pcm\":12,",
        "\"large\":0,\"meta\":0,\"other\":0}},",
        "\"dram\":{\"by_cause\":{\"mutator\":0,\"nursery_evac\":0,\"mature_copy\":0,",
        "\"metadata\":0,\"os_migration\":0,\"wear_remap\":0,\"other\":0},",
        "\"by_space\":{\"nursery\":0,\"observer\":0,\"mature_dram\":0,\"mature_pcm\":0,",
        "\"large\":0,\"meta\":0,\"other\":0}},",
        "\"spans_recorded\":6,\"spans_dropped\":0},",
        "\"consolidation\":{\"mix\":\"dacapo\",\"tenants\":2,\"contexts\":16,",
        "\"slice\":64,\"unattributed_pcm_lines\":0,\"unattributed_dram_lines\":0,",
        "\"per_tenant\":[{\"id\":0,\"workload\":\"avrora\",\"pcm_write_lines\":40,",
        "\"dram_write_lines\":40,\"minor_gcs\":1,\"full_gcs\":0,\"pause_cycles\":9,",
        "\"allocated_bytes\":4096,\"page_faults\":3}]}}",
    );
    assert_eq!(report.to_json(), expected);
}
