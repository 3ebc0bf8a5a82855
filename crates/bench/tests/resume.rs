//! Crash-safe sweeps: a killed `--json-out` sweep leaves a write-ahead
//! `journal.jsonl` plus atomically-written per-run artifacts, and resuming
//! it replays the journaled results and re-executes only what is missing,
//! failed, torn, or unverifiable — ending with artifacts byte-identical to
//! an uninterrupted sweep's, at any `--jobs` width. Locked here both
//! in-process (simulated crash damage) and end-to-end through the `repro`
//! binary's `--chaos-kill-after`/`--resume` flags.

use hemu_bench::{Harness, Profile, RunPolicy, Scale};
use hemu_fault::FaultPlan;
use hemu_heap::CollectorKind;
use hemu_machine::MachineProfile;
use hemu_obs::journal::journal_path;
use hemu_obs::Reporter;
use hemu_types::{ByteSize, HemuError, Result};
use hemu_workloads::WorkloadSpec;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The determinism suite's miniature figure: a cross-product sweep plus a
/// run demanded only when its base succeeded (forces multi-wave planning).
fn sweep(h: &mut Harness) -> Result<String> {
    let mut out = String::new();
    for name in ["avrora", "fop", "luindex"] {
        let spec = WorkloadSpec::by_name(name).expect("workload registry");
        for collector in [CollectorKind::PcmOnly, CollectorKind::KgN] {
            if let Some(r) = h.run_opt(spec, collector, 1, Profile::Emulation) {
                out.push_str(&format!(
                    "{name} {} pcm={}\n",
                    collector.name(),
                    r.pcm_writes
                ));
            }
        }
    }
    let fop = WorkloadSpec::by_name("fop").expect("workload registry");
    if h.run_opt(fop, CollectorKind::PcmOnly, 1, Profile::Emulation)
        .is_some()
    {
        if let Some(r) = h.run_opt(fop, CollectorKind::PcmOnly, 2, Profile::Emulation) {
            out.push_str(&format!("fop x2 pcm={}\n", r.pcm_writes));
        }
    }
    Ok(out)
}

/// The determinism suite's ablation-shaped sweep: a run profiled on its
/// own first, then non-default LLC, the default run, non-default nursery
/// and non-default monitor interval.
fn ablation_sweep(h: &mut Harness) -> Result<String> {
    let spec = WorkloadSpec::by_name("avrora").expect("workload registry");
    let base = h.experiment(spec, CollectorKind::KgN, 1, Profile::Emulation);
    let mut out = String::new();
    for e in [
        base.clone().profiling(),
        base.clone()
            .profile(MachineProfile::emulation().with_llc(ByteSize::from_mib(4))),
        base.clone(),
        base.clone().nursery(ByteSize::from_mib(2)),
        base.monitor_interval(0.005),
    ] {
        let key = e.key();
        if let Ok(r) = h.run_experiment(e) {
            out.push_str(&format!("{key} pcm={}\n", r.pcm_writes));
        }
    }
    Ok(out)
}

type Sweep = fn(&mut Harness) -> Result<String>;

fn quiet_harness(jobs: usize) -> Harness {
    let mut h = Harness::new(Scale::Quick);
    h.set_jobs(jobs);
    h.set_reporter(Reporter::to_writer(Box::new(std::io::sink())));
    h.set_run_policy(RunPolicy {
        backoff: Duration::from_millis(1),
        ..RunPolicy::default()
    });
    h
}

/// Runs the sweep uninterrupted into `dir` and returns the rendered text.
fn clean_run(dir: &Path, jobs: usize, sweep: Sweep) -> String {
    let mut h = quiet_harness(jobs);
    h.set_json_dir(dir).expect("create json dir");
    let text = h.run_planned(sweep).expect("sweep renders");
    h.finalize_exports().expect("finalize");
    text
}

fn read_dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        files.insert(name, fs::read(entry.path()).expect("read artifact"));
    }
    files
}

fn assert_dirs_identical(reference: &Path, resumed: &Path) {
    let a = read_dir_bytes(reference);
    let b = read_dir_bytes(resumed);
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "artifact file sets diverged"
    );
    for (name, content) in &a {
        assert_eq!(content, &b[name], "artifact {name} diverged after resume");
    }
}

/// Inflicts a realistic mix of crash damage on a completed sweep
/// directory: the journal is cut to its header plus two committed records
/// and a torn trailing fragment; one journaled per-run artifact
/// (`corrupt`) is corrupted (its content hash no longer matches); one
/// non-journaled artifact (`delete`) is deleted outright; and the combined
/// exports (written only at finalization) are gone.
fn simulate_crash(dir: &Path, corrupt: &str, delete: &str) {
    let journal = journal_path(dir);
    let text = fs::read_to_string(&journal).expect("read journal");
    let mut lines = text.lines();
    let mut kept = String::new();
    for _ in 0..3 {
        kept.push_str(lines.next().expect("journal has header + 2 records"));
        kept.push('\n');
    }
    kept.push_str("{\"key\":\"torn-mid-wri");
    fs::write(&journal, kept).expect("truncate journal");

    fs::write(dir.join(corrupt), "{\"tampered\":true}\n").expect("corrupt a journaled artifact");
    fs::remove_file(dir.join(delete)).expect("delete an artifact");
    fs::remove_file(dir.join("runs.json")).expect("delete runs.json");
    fs::remove_file(dir.join("samples.csv")).expect("delete samples.csv");
}

/// Resumes the damaged directory and returns the rendered text plus the
/// replay/re-execute split actually used.
fn resumed_run(dir: &Path, jobs: usize, sweep: Sweep) -> (String, usize, usize) {
    let mut h = quiet_harness(jobs);
    h.resume_from(dir).expect("resume accepts the journal");
    let text = h.run_planned(sweep).expect("sweep renders");
    h.finalize_exports().expect("finalize");
    (text, h.runs_restored, h.runs_executed)
}

/// A crash-damaged sweep, resumed, ends byte-identical to an uninterrupted
/// sweep — at the sequential width and on a worker pool.
#[test]
fn resumed_sweep_is_byte_identical_to_uninterrupted() {
    let reference = tmp_dir("resume-ref");
    let ref_text = clean_run(&reference, 2, sweep);

    for jobs in [1usize, 4] {
        let crashed = tmp_dir(&format!("resume-crash-j{jobs}"));
        clean_run(&crashed, jobs, sweep);
        simulate_crash(
            &crashed,
            "avrora_KG-N_1_Emulation.json",
            "luindex_KG-N_1_Emulation.json",
        );
        let (text, restored, executed) = resumed_run(&crashed, jobs, sweep);
        assert_eq!(text, ref_text, "rendered text diverged at jobs {jobs}");
        // Of the two journaled records, the corrupted one must fall back to
        // re-execution; only the intact one replays.
        assert_eq!(restored, 1, "exactly one journaled run replays");
        assert_eq!(
            executed, 6,
            "the corrupted, missing, and unjournaled runs re-execute"
        );
        assert_dirs_identical(&reference, &crashed);
    }
}

/// The ablation-shaped sweep resumes the same way. Its first journaled
/// run is profiled on its own, so the replay restores a report with a
/// write-attribution block; the second (non-default LLC) is corrupted and
/// re-executes.
#[test]
fn resumed_ablation_sweep_is_byte_identical_to_uninterrupted() {
    let reference = tmp_dir("resume-abl-ref");
    let ref_text = clean_run(&reference, 1, ablation_sweep);
    let crashed = tmp_dir("resume-abl-crash");
    clean_run(&crashed, 2, ablation_sweep);
    simulate_crash(
        &crashed,
        "avrora_KG-N_1_Emulation_llc_4MiB.json",
        "avrora_KG-N_1_Emulation_nursery_2MiB.json",
    );
    let (text, restored, executed) = resumed_run(&crashed, 2, ablation_sweep);
    assert_eq!(text, ref_text, "rendered text diverged");
    assert_eq!(
        (restored, executed),
        (1, 4),
        "only the profiled run replays"
    );
    assert_dirs_identical(&reference, &crashed);
}

/// A journal written under a different sweep plan (here: a fault plan the
/// resuming harness does not have) is refused with a typed error, not
/// silently replayed into wrong results.
#[test]
fn resume_refuses_a_journal_from_a_different_plan() {
    let dir = tmp_dir("resume-plan-mismatch");
    clean_run(&dir, 1, sweep);

    let mut h = quiet_harness(1);
    h.set_fault_plan(FaultPlan {
        seed: 7,
        frame_alloc_p: 0.5,
        ..FaultPlan::none()
    });
    match h.resume_from(&dir) {
        Err(HemuError::JournalMismatch { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("expected JournalMismatch, got {other:?}"),
    }
}

/// End to end through the binary: run the `smoke` target, kill it after
/// two commits (`--chaos-kill-after`), resume it, and require the resumed
/// directory to match an uninterrupted reference byte for byte — across
/// different `--jobs` widths.
#[test]
fn chaos_killed_cli_sweep_resumes_byte_identical() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let reference = tmp_dir("chaos-cli-ref");
    let crashed = tmp_dir("chaos-cli-crash");

    let run = |args: &[&str]| {
        Command::new(repro)
            .args(args)
            .output()
            .expect("spawn repro")
    };

    let reference_s = reference.to_string_lossy().into_owned();
    let crashed_s = crashed.to_string_lossy().into_owned();
    let out = run(&[
        "smoke",
        "--quick",
        "--jobs",
        "2",
        "--json-out",
        &reference_s,
    ]);
    assert!(out.status.success(), "reference sweep failed: {out:?}");

    // Sequential, so the kill lands after two *executed* runs, leaving a
    // genuinely partial directory (not a fully staged wave).
    let out = run(&[
        "smoke",
        "--quick",
        "--jobs",
        "1",
        "--chaos-kill-after",
        "2",
        "--json-out",
        &crashed_s,
    ]);
    assert_eq!(
        out.status.code(),
        Some(137),
        "chaos kill must exit like a SIGKILL: {out:?}"
    );
    assert!(
        journal_path(&crashed).exists(),
        "the journal survives the kill"
    );
    assert!(
        !crashed.join("runs.json").exists(),
        "the kill precedes export finalization"
    );

    let out = run(&["smoke", "--quick", "--jobs", "4", "--resume", &crashed_s]);
    assert!(out.status.success(), "resume failed: {out:?}");
    assert_dirs_identical(&reference, &crashed);
}
