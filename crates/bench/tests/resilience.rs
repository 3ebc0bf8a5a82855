//! Resilience contracts of the sweep harness: a faulted run is recorded
//! and skipped, the rest of the sweep completes, the export artifacts
//! carry per-run status, and deadlines and retries behave as configured.

use hemu_bench::{Harness, RunStatus, Scale};
use hemu_fault::FaultPlan;
use hemu_heap::CollectorKind;
use hemu_workloads::WorkloadSpec;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One workload is forced to OOM; the other runs of the sweep must still
/// complete, the failure must land in `runs.json` with its status and
/// cause, and repeated references to the bad configuration must fail fast
/// without re-running it.
#[test]
fn forced_oom_does_not_abort_the_sweep() {
    let dir = tmp_dir("forced-oom");
    let mut h = Harness::new(Scale::Quick);
    h.set_json_dir(&dir).unwrap();
    h.set_fault_plan(FaultPlan {
        oom_at_alloc: Some(1),
        only: Some("avrora".into()),
        ..FaultPlan::none()
    });

    let victim = WorkloadSpec::by_name("avrora").unwrap();
    let healthy = WorkloadSpec::by_name("lusearch").unwrap();

    assert!(h.run1_opt(victim, CollectorKind::PcmOnly).is_none());
    assert!(h.run1_opt(healthy, CollectorKind::PcmOnly).is_some());
    assert!(h.run1_opt(healthy, CollectorKind::KgN).is_some());

    assert_eq!(h.failed_count(), 1);
    let executed_before = h.runs_executed;
    // Fail-fast memoization: the bad configuration is not executed again.
    assert!(h.run1_opt(victim, CollectorKind::PcmOnly).is_none());
    assert_eq!(h.runs_executed, executed_before);

    let records = h.records();
    assert_eq!(records.len(), 3);
    assert_eq!(records[0].status, RunStatus::Failed);
    assert!(records[0].error.as_deref().unwrap().contains("forced-oom"));
    assert!(records[1..].iter().all(|r| r.status == RunStatus::Ok));

    h.finalize_exports().unwrap();
    let runs = fs::read_to_string(dir.join("runs.json")).unwrap();
    assert_eq!(runs.matches("\"key\":").count(), 3, "every run is recorded");
    assert!(runs.contains("\"status\":\"failed\""));
    assert!(runs.contains("\"status\":\"ok\""));
    assert!(runs.contains("forced-oom"));
    assert!(
        runs.contains("\"report\":null"),
        "failed runs carry no report"
    );
    // The samples CSV only aggregates successful runs.
    let csv = fs::read_to_string(dir.join("samples.csv")).unwrap();
    assert!(!csv.contains("avrora|PCM-Only"));
}

/// A transient fault with probability 1 exhausts the retry budget: the
/// run is attempted exactly three times and recorded as failed with the
/// transient cause.
#[test]
fn transient_faults_consume_the_retry_budget() {
    let mut h = Harness::new(Scale::Quick);
    h.set_fault_plan(FaultPlan {
        frame_alloc_p: 1.0,
        ..FaultPlan::none()
    });
    let spec = WorkloadSpec::by_name("avrora").unwrap();
    assert!(h.run1_opt(spec, CollectorKind::PcmOnly).is_none());
    let rec = &h.records()[0];
    assert_eq!(rec.status, RunStatus::Failed);
    assert_eq!(rec.attempts, 3);
    assert!(rec.error.as_deref().unwrap().contains("frame-alloc"));
    assert!(rec.error.as_deref().unwrap().contains("transient"));
}

/// An absurdly short deadline abandons the run and records a timeout; the
/// sweep carries on.
#[test]
fn expired_deadline_is_recorded_as_timeout() {
    let mut h = Harness::new(Scale::Quick);
    h.set_run_deadline(Duration::from_millis(1));
    let spec = WorkloadSpec::by_name("avrora").unwrap();
    assert!(h.run1_opt(spec, CollectorKind::PcmOnly).is_none());
    let rec = &h.records()[0];
    assert_eq!(rec.status, RunStatus::TimedOut);
    assert!(rec.error.as_deref().unwrap().contains("deadline"));
    assert_eq!(h.failed_count(), 1);
}

/// Randomized: whatever a seeded fault plan does to a small sweep, every
/// attempted configuration ends up in `runs.json` with a terminal status,
/// and the failure count matches the records.
#[test]
fn faulted_sweeps_always_emit_complete_records() {
    for seed in 0..4u64 {
        let dir = tmp_dir(&format!("sweep-{seed}"));
        let mut h = Harness::new(Scale::Quick);
        h.set_json_dir(&dir).unwrap();
        h.set_fault_plan(FaultPlan {
            seed,
            frame_alloc_p: 0.5,
            ..FaultPlan::none()
        });
        let configs = [
            ("avrora", CollectorKind::PcmOnly),
            ("avrora", CollectorKind::KgN),
            ("lusearch", CollectorKind::PcmOnly),
        ];
        for (name, collector) in configs {
            let spec = WorkloadSpec::by_name(name).unwrap();
            let _ = h.run1_opt(spec, collector);
        }
        assert_eq!(h.records().len(), configs.len(), "seed {seed}");
        let failed = h
            .records()
            .iter()
            .filter(|r| r.status != RunStatus::Ok)
            .count();
        assert_eq!(h.failed_count(), failed, "seed {seed}");
        h.finalize_exports().unwrap();
        let runs = fs::read_to_string(dir.join("runs.json")).unwrap();
        assert_eq!(
            runs.matches("\"key\":").count(),
            configs.len(),
            "seed {seed}: runs.json must record every attempted run"
        );
        assert!(runs.starts_with('[') && runs.trim_end().ends_with(']'));
    }
}
