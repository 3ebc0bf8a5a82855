//! Tracing is an observer and never changes a result: a traced run
//! exports the same report as the untraced run, byte for byte. The inputs
//! cover a GC-managed run, OS epochs with page migration,
//! multiprogramming, and a two-tenant mix run. The mix run's report must
//! also attribute every controller write to a tenant and survive the
//! strict restore round-trip.

use hemu::core::{restore_run_report, Experiment, RunReport};
use hemu::heap::CollectorKind;
use hemu::obs::ToJson;
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
    ];
    let mut mix_runs = 0;
    for (name, exp) in inputs {
        let plain = exp.run().expect("untraced run");
        let (traced, trace) = exp.run_with_trace(1 << 12).expect("traced run");
        assert!(!trace.is_empty(), "{name}: the traced run recorded events");
        let json = plain.to_json();
        assert_eq!(json, traced.to_json(), "{name}");
        // Copy runs carry no tenant block; mix runs do.
        if plain.consolidation.is_some() {
            mix_runs += 1;
            assert_attribution_complete(name, &plain);
            let restored = restore_run_report(&json).expect("the report restores");
            assert_eq!(restored.to_json(), json, "{name}: restore round-trip");
        }
    }
    assert_eq!(mix_runs, 1, "exactly the mix input attributes per tenant");
}
