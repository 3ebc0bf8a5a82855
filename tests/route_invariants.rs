//! Tracing is an observer and never changes a result: a traced run
//! exports the same report as the untraced run, byte for byte. The inputs
//! cover a GC-managed run, OS epochs with page migration, and
//! multiprogramming.

use hemu::core::Experiment;
use hemu::heap::CollectorKind;
use hemu::obs::ToJson;
use hemu::types::{ByteSize, OsPagingConfig, OsPolicy};
use hemu::workloads::WorkloadSpec;

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
    ];
    for (name, exp) in inputs {
        let plain = exp.run().expect("untraced run");
        let (traced, trace) = exp.run_with_trace(1 << 12).expect("traced run");
        assert!(!trace.is_empty(), "{name}: the traced run recorded events");
        assert_eq!(plain.to_json(), traced.to_json(), "{name}");
    }
}
