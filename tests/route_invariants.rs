//! Tracing is an observer and never changes a result: a traced run
//! exports the same report as the untraced run, byte for byte. The inputs
//! cover a GC-managed run, OS epochs with page migration,
//! multiprogramming, a two-tenant mix run and a profiled run. The mix
//! run's report must also attribute every controller write to a tenant
//! and survive the strict restore round-trip. Each report also hashes to
//! a golden FNV-1a digest, so a change that reorders object ids or the
//! heap's slot reuse shows up here and not only in the benchmark's
//! `sim_digest`; the profiled input pins the provenance block the same
//! way.

use hemu::core::{restore_run_report, Experiment, RunReport};
use hemu::heap::CollectorKind;
use hemu::obs::{fnv1a64, ToJson, TraceEvent, Tracer};
use hemu::types::{ByteSize, OsPagingConfig, OsPolicy, CACHE_LINE};
use hemu::workloads::{Mix, WorkloadSpec};

/// Per-tenant plus unattributed lines equal the controller counters, and
/// nothing is unattributed.
fn assert_attribution_complete(name: &str, report: &RunReport) {
    let c = report
        .consolidation
        .as_ref()
        .expect("mix runs carry a consolidation block");
    let line = CACHE_LINE as u64;
    assert_eq!(
        c.attributed_pcm_lines() + c.unattributed_pcm_lines,
        report.pcm_writes.bytes() / line,
        "{name}: PCM attribution"
    );
    assert_eq!(
        c.attributed_dram_lines() + c.unattributed_dram_lines,
        report.dram_writes.bytes() / line,
        "{name}: DRAM attribution"
    );
    assert_eq!(c.unattributed_pcm_lines, 0, "{name}: orphan PCM writes");
    assert_eq!(c.unattributed_dram_lines, 0, "{name}: orphan DRAM writes");
}

/// FNV-1a of each input's exported report, in input order. Re-record
/// only for a change that is meant to move simulated results.
const GOLDEN_REPORT_DIGESTS: [u64; 5] = [
    0x2869_77fb_935f_4293,
    0xaed6_ffb2_e3cd_7918,
    0x8886_d5d6_7662_b381,
    0xd040_6642_fda7_cdf0,
    0xc444_61b1_8572_8d57,
];

#[test]
fn traced_and_untraced_runs_export_identical_reports() {
    let lu = WorkloadSpec::by_name("lu.Fix").expect("lu.Fix registered");
    let pjbb = WorkloadSpec::by_name("pjbb").expect("pjbb registered");
    // OS hot/cold as `repro os` runs it: a 4 MiB DRAM clamp, so first-touch
    // placement spills and the migrator has pages to move.
    let mut os = OsPagingConfig::new(OsPolicy::HotCold);
    os.dram_limit = Some(ByteSize::from_mib(4));
    let inputs = [
        (
            "lu.Fix KG-W",
            Experiment::new(lu).collector(CollectorKind::KgW),
        ),
        ("lu.Fix OS hot/cold", Experiment::new(lu).os_paging(os)),
        (
            "pjbb x2 KG-N",
            Experiment::new(pjbb)
                .collector(CollectorKind::KgN)
                .instances(2),
        ),
        (
            "dacapo mix x2",
            Experiment::mix(Mix::Dacapo, 2).without_warmup(),
        ),
        (
            "lu.Fix KG-W profiled",
            Experiment::new(lu)
                .collector(CollectorKind::KgW)
                .profiling(),
        ),
    ];
    let mut mix_runs = 0;
    let mut digests = Vec::new();
    for (name, exp) in inputs {
        let plain = exp.run().expect("untraced run");
        let capacity = 1 << 12;
        let (traced, trace) = exp
            .run_traced(Tracer::bounded(capacity))
            .map(|a| (a.report, a.trace))
            .expect("traced run");
        assert!(!trace.is_empty(), "{name}: the traced run recorded events");
        let json = plain.to_json();
        assert_eq!(json, traced.to_json(), "{name}");
        digests.push(fnv1a64(json.as_bytes()));
        // The OS counters cover exactly the measured iteration, as the
        // trace does: every migration the report counts is one traced
        // move, and the ring kept every event.
        if let Some(os) = &plain.os_paging {
            assert!(trace.len() < capacity, "{name}: the trace ring filled");
            let moved = trace
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::PageMigrated { .. }))
                .count() as u64;
            assert!(os.migrations > 0, "{name}: the migrator moved pages");
            assert_eq!(moved, os.migrations, "{name}: traced migrations");
        }
        // Copy runs carry no tenant block; mix runs do.
        if plain.consolidation.is_some() {
            mix_runs += 1;
            assert_attribution_complete(name, &plain);
            let restored = restore_run_report(&json).expect("the report restores");
            assert_eq!(restored.to_json(), json, "{name}: restore round-trip");
        }
    }
    assert_eq!(mix_runs, 1, "exactly the mix input attributes per tenant");
    let hex = |d: &[u64]| d.iter().map(|x| format!("{x:#018x}")).collect::<Vec<_>>();
    assert_eq!(
        hex(&digests),
        hex(&GOLDEN_REPORT_DIGESTS),
        "report digests moved"
    );
}
