//! The sweep harness's `--jobs` contract: the `smoke` target rendered
//! through `Harness::run_planned` at one worker and at two gives the same
//! text and byte-identical artifacts — per-run JSON, `runs.json`,
//! `samples.csv` and the journal. The faulted variant makes one run retry
//! a transient frame-allocation fault, so the executor's retry loop and
//! the demand-order commit of a retried run are checked as well.

use hemu_bench::{experiments, Harness, Scale};
use hemu_fault::FaultPlan;
use hemu_obs::Reporter;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The rendered text, every artifact by file name, and the largest attempt
/// count of any record.
struct Sweep {
    text: String,
    files: BTreeMap<String, Vec<u8>>,
    max_attempts: u32,
}

fn smoke(name: &str, jobs: usize, faults: Option<&FaultPlan>) -> Sweep {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    let mut h = Harness::new(Scale::Quick);
    h.set_jobs(jobs);
    h.set_reporter(Reporter::to_writer(Box::new(std::io::sink())));
    h.set_json_dir(&dir).expect("create json dir");
    if let Some(plan) = faults {
        h.set_fault_plan(plan.clone());
    }
    let text = h.run_planned(experiments::smoke).expect("smoke renders");
    h.finalize_exports().expect("finalize");
    assert_eq!(h.records().len(), 6, "{name}: smoke commits six runs");
    let max_attempts = h.records().iter().map(|r| r.attempts).max().unwrap_or(0);
    Sweep {
        text,
        files: read_dir(&dir),
        max_attempts,
    }
}

fn read_dir(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("read dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, fs::read(entry.path()).expect("read artifact"))
        })
        .collect()
}

fn assert_identical(what: &str, seq: &Sweep, par: &Sweep) {
    assert_eq!(seq.text, par.text, "{what}: rendered text diverged");
    assert_eq!(
        seq.files.keys().collect::<Vec<_>>(),
        par.files.keys().collect::<Vec<_>>(),
        "{what}: artifact file sets diverged"
    );
    for (name, bytes) in &seq.files {
        assert!(
            bytes == &par.files[name],
            "{what}: artifact {name} diverged"
        );
    }
    for file in ["runs.json", "samples.csv", "journal.jsonl"] {
        assert!(seq.files.contains_key(file), "{what}: no {file}");
    }
}

#[test]
fn smoke_artifacts_are_byte_identical_at_jobs_1_and_2() {
    let seq = smoke("jobs-smoke-1", 1, None);
    let par = smoke("jobs-smoke-2", 2, None);
    assert_identical("plain", &seq, &par);
    assert_eq!(seq.max_attempts, 1, "no fault plan, no retry");
}

#[test]
fn retried_run_commits_identically_at_jobs_1_and_2() {
    // Seed and rate chosen so that this one run fails its first attempt
    // with a transient fault and succeeds on the reseeded second.
    let plan = FaultPlan {
        seed: 2,
        frame_alloc_p: 1e-4,
        only: Some("avrora|PCM-Only".into()),
        ..FaultPlan::none()
    };
    let seq = smoke("jobs-faulted-1", 1, Some(&plan));
    let par = smoke("jobs-faulted-2", 2, Some(&plan));
    assert_identical("faulted", &seq, &par);
    assert!(
        seq.max_attempts > 1,
        "the fault plan must force a retry; tune its seed or rate"
    );
}
