//! The machine's two access routes agree: an untraced run takes the
//! buffered pipeline (submissions flush in batches and merge as sums), a
//! traced run takes the per-line walk. Every observable state is read only
//! after the buffer is flushed, so the two runs must export the same
//! report, byte for byte.

use hemu::core::Experiment;
use hemu::heap::CollectorKind;
use hemu::obs::ToJson;
use hemu::workloads::WorkloadSpec;

#[test]
fn traced_and_untraced_runs_export_identical_reports() {
    let exp = Experiment::new(WorkloadSpec::by_name("lu.Fix").expect("lu.Fix registered"))
        .collector(CollectorKind::KgW);
    let pipeline = exp.run().expect("untraced run");
    let (walked, trace) = exp.run_with_trace(1 << 12).expect("traced run");
    assert!(!trace.is_empty(), "the traced run recorded events");
    assert_eq!(pipeline.to_json(), walked.to_json());
}
