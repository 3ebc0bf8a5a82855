//! The parallel executor's determinism guarantee: every exported artifact
//! — `runs.json`, `samples.csv`, per-run JSON reports, and the rendered
//! figure text — is byte-identical at any `--jobs` width, including
//! against the fully sequential `--jobs 1` path. Holds with and without an
//! active fault plan, and for sweeps whose later runs are conditional on
//! earlier results (the planning-wave case). One oracle test checks that
//! tracing a sweep changes none of its other artifacts.

use hemu_bench::{Harness, Profile, Scale};
use hemu_fault::FaultPlan;
use hemu_heap::CollectorKind;
use hemu_machine::MachineProfile;
use hemu_obs::Reporter;
use hemu_types::{ByteSize, OsPagingConfig, OsPolicy, Result};
use hemu_workloads::WorkloadSpec;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A sweep's rendered text plus every artifact, keyed by file name.
type Artifacts = (String, BTreeMap<String, String>);

/// A miniature figure function with the shapes real figures have: a
/// cross-product sweep via `run_opt`, plus a multiprogrammed run that is
/// demanded only when its single-instance base succeeded (the dependent
/// branch that forces multi-wave planning).
fn sweep(h: &mut Harness) -> Result<String> {
    let mut out = String::new();
    for name in ["avrora", "fop", "luindex"] {
        let spec = WorkloadSpec::by_name(name).expect("workload registry");
        for collector in [CollectorKind::PcmOnly, CollectorKind::KgN] {
            if let Some(r) = h.run_opt(spec, collector, 1, Profile::Emulation) {
                out.push_str(&format!(
                    "{name} {} pcm={} elapsed={:.3}\n",
                    collector.name(),
                    r.pcm_writes,
                    r.elapsed_seconds
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

/// A GC-vs-OS sweep: collectors and OS paging policies side by side, with
/// the hot/cold migrator actively moving pages (small DRAM clamp, short
/// epochs).
fn os_sweep(h: &mut Harness) -> Result<String> {
    let mut out = String::new();
    let spec = WorkloadSpec::by_name("avrora").expect("workload registry");
    for collector in [CollectorKind::PcmOnly, CollectorKind::KgN] {
        if let Some(r) = h.run_opt(spec, collector, 1, Profile::Emulation) {
            out.push_str(&format!("{} pcm={}\n", collector.name(), r.pcm_writes));
        }
    }
    for policy in OsPolicy::ALL {
        if let Some(r) = h.run_opt(spec, policy, 1, Profile::Emulation) {
            let os = r.os_paging.expect("OS-managed run carries stats");
            out.push_str(&format!(
                "{} pcm={} epochs={} promoted={} demoted={}\n",
                policy.name(),
                r.pcm_writes,
                os.epochs,
                os.promotions,
                os.demotions
            ));
        }
    }
    Ok(out)
}

/// A consolidation sweep: two tenant densities of the DaCapo mix
/// co-scheduled on shared hardware, rendering per-density PCM totals and
/// the per-tenant attribution the consolidation block carries.
fn tenant_sweep(h: &mut Harness) -> Result<String> {
    let mut out = String::new();
    for tenants in [2usize, 3] {
        if let Ok(r) = h.run_consolidated(
            hemu_workloads::Mix::Dacapo,
            tenants,
            32,
            CollectorKind::PcmOnly,
            Profile::Emulation,
        ) {
            let c = r.consolidation.expect("consolidated run carries the block");
            let shares: Vec<String> = c
                .per_tenant
                .iter()
                .map(|t| format!("{}:{}", t.workload, t.pcm_write_lines))
                .collect();
            out.push_str(&format!(
                "dacapo@{tenants} pcm={} unattributed={} [{}]\n",
                r.pcm_writes,
                c.unattributed_pcm_lines,
                shares.join(" ")
            ));
        }
    }
    Ok(out)
}

/// An ablation-shaped sweep: one run profiled on its own, runs with a
/// non-default LLC, nursery and monitor interval, and the default run they
/// vary, each under its own key.
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
            out.push_str(&format!(
                "{key} pcm={} samples={} attributed={}\n",
                r.pcm_writes,
                r.samples.len(),
                r.provenance.is_some()
            ));
        }
    }
    Ok(out)
}

/// The harness knobs a test varies.
#[derive(Clone, Default)]
struct Knobs {
    jobs: usize,
    faults: Option<FaultPlan>,
    /// Capture an event trace.
    traced: bool,
}

fn knobs(jobs: usize) -> Knobs {
    Knobs {
        jobs,
        ..Knobs::default()
    }
}

/// Runs `sweep` end to end with JSON export into `dir` and returns the
/// rendered text plus every artifact. The OS migrator is tuned to move
/// pages actively (small DRAM clamp, short epochs).
fn artifacts(dir: &Path, k: Knobs, sweep: fn(&mut Harness) -> Result<String>) -> Artifacts {
    let mut h = Harness::new(Scale::Quick);
    h.set_jobs(k.jobs);
    h.set_reporter(Reporter::to_writer(Box::new(std::io::sink())));
    h.set_json_dir(dir).expect("create json dir");
    if k.traced {
        h.set_trace_out(dir.join("trace.jsonl")).expect("trace out");
    }
    if let Some(plan) = k.faults {
        h.set_fault_plan(plan);
    }
    h.set_os_tuning(OsPagingConfig {
        dram_limit: Some(ByteSize::from_mib(4)),
        epoch_lines: 20_000,
        ..OsPagingConfig::default()
    });
    let text = h.run_planned(sweep).expect("sweep renders");
    h.finalize_exports().expect("finalize");
    (text, read_dir(dir))
}

fn read_dir(dir: &Path) -> BTreeMap<String, String> {
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let content = fs::read_to_string(entry.path()).expect("read artifact");
        files.insert(name, content);
    }
    files
}

fn assert_identical(a: &Artifacts, b: &Artifacts) {
    assert_eq!(a.0, b.0, "rendered text diverged");
    assert_eq!(
        a.1.keys().collect::<Vec<_>>(),
        b.1.keys().collect::<Vec<_>>(),
        "artifact file sets diverged"
    );
    for (name, content) in &a.1 {
        assert_eq!(content, &b.1[name], "artifact {name} diverged");
    }
}

/// A deterministic fault plan injecting allocation failures and retries
/// into the runs whose key contains `only`.
fn frame_faults(only: &str) -> FaultPlan {
    FaultPlan {
        seed: 3,
        frame_alloc_p: 0.5,
        only: Some(only.into()),
        ..FaultPlan::none()
    }
}

/// Artifacts are byte-identical at `--jobs` 1 and 4: every run owns its
/// machine, and results commit in demand order.
#[test]
fn jobs_matrix_is_byte_identical() {
    let base = artifacts(&tmp_dir("det-base"), knobs(1), sweep);
    let par = artifacts(&tmp_dir("det-par"), knobs(4), sweep);
    assert_identical(&base, &par);
    assert!(
        base.1["runs.json"].matches("\"key\":").count() >= 7,
        "the sweep includes the dependent multiprogrammed run"
    );
}

/// The same matrix with a fault plan: attempt counts, failed runs, and
/// partial tables must not depend on the worker count.
#[test]
fn faulted_jobs_matrix_is_byte_identical() {
    let faulted = |jobs| Knobs {
        faults: Some(frame_faults("avrora")),
        ..knobs(jobs)
    };
    let base = artifacts(&tmp_dir("det-fault-base"), faulted(1), sweep);
    let par = artifacts(&tmp_dir("det-fault-par"), faulted(4), sweep);
    assert_identical(&base, &par);
}

/// Tracing is an observer: the same sweeps traced and untraced produce
/// byte-identical text, `runs.json`, `samples.csv` and per-run JSON; the
/// traced sweep only adds its `trace.jsonl`.
#[test]
fn tracing_a_sweep_changes_no_other_artifact() {
    for (name, sweep) in [
        ("sweep", sweep as fn(&mut Harness) -> Result<String>),
        ("os", os_sweep),
        ("tenant", tenant_sweep),
    ] {
        let plain = artifacts(&tmp_dir(&format!("det-untraced-{name}")), knobs(4), sweep);
        let traced_knobs = Knobs {
            traced: true,
            ..knobs(4)
        };
        let mut traced = artifacts(&tmp_dir(&format!("det-traced-{name}")), traced_knobs, sweep);
        let trace = traced
            .1
            .remove("trace.jsonl")
            .expect("traced sweep writes a trace");
        assert!(!trace.is_empty(), "{name}: the trace captured events");
        assert_identical(&plain, &traced);
    }
}

/// An OS-policy sweep with an active hot/cold migrator exports
/// byte-identical artifacts at `--jobs 1` and `--jobs 4`.
#[test]
fn os_policy_sweep_is_byte_identical_to_sequential() {
    let seq = artifacts(&tmp_dir("det-os-seq"), knobs(1), os_sweep);
    let par = artifacts(&tmp_dir("det-os-par"), knobs(4), os_sweep);
    assert_identical(&seq, &par);
    assert!(
        seq.0.contains("OS-hot-cold") && seq.0.contains("epochs="),
        "hot/cold migrator ran in the sweep: {}",
        seq.0
    );
    assert!(
        seq.1["runs.json"].contains("\"os_paging\":{\"policy\":\"OS-hot-cold\""),
        "runs.json carries the migration block"
    );
}

/// Runs the sweep with the profiler and its timeline/heatmap exports
/// enabled. The export files land in `dir`, so the generic artifact
/// comparison covers them too.
fn profiled_artifacts(dir: &Path, jobs: usize) -> Artifacts {
    let mut h = Harness::new(Scale::Quick);
    h.set_jobs(jobs);
    h.set_reporter(Reporter::to_writer(Box::new(std::io::sink())));
    h.set_json_dir(dir).expect("create json dir");
    h.set_timeline_out(dir.join("timeline.json"))
        .expect("timeline out");
    h.set_heatmap_out(dir.join("heatmap.csv"))
        .expect("heatmap out");
    let text = h.run_planned(sweep).expect("sweep renders");
    h.finalize_exports().expect("finalize");
    (text, read_dir(dir))
}

/// The profiler's exports — the span timeline and the per-page wear
/// heatmap — are byte-identical at `--jobs 1` and `--jobs 4`, like every
/// other artifact: spans carry only virtual time, and commit order (demand
/// order) decides track and row layout.
#[test]
fn profiled_sweep_artifacts_are_byte_identical() {
    let seq = profiled_artifacts(&tmp_dir("det-prof-seq"), 1);
    let par = profiled_artifacts(&tmp_dir("det-prof-par"), 4);
    assert_identical(&seq, &par);

    let timeline = &seq.1["timeline.json"];
    assert!(
        timeline.contains("\"traceEvents\":[") && timeline.contains("\"name\":\"iteration\""),
        "timeline carries the measured-iteration spans"
    );
    assert!(
        timeline.contains("avrora|PCM-Only|1|Emulation"),
        "runs are labelled by their keys"
    );
    let heatmap = &seq.1["heatmap.csv"];
    assert!(
        heatmap.starts_with("key,frame,writes,lines_touched,max_line_writes\n"),
        "heatmap header is stable"
    );
    assert!(
        heatmap.lines().count() > 1,
        "profiled runs produce wear rows"
    );
    // Profiled reports carry the attribution block.
    assert!(seq.1["runs.json"].contains("\"provenance\":{\"pcm\":{\"by_cause\":{\"mutator\":"));
}

/// Consolidated sweeps are byte-identical at `--jobs` 1 and 4: the slice
/// scheduler runs in virtual time, so the executor width cannot reorder
/// tenant turns or write attribution.
#[test]
fn tenant_sweep_is_byte_identical_across_jobs() {
    let base = artifacts(&tmp_dir("det-ten-base"), knobs(1), tenant_sweep);
    let par = artifacts(&tmp_dir("det-ten-par"), knobs(4), tenant_sweep);
    assert_identical(&base, &par);
    assert!(
        base.0.contains("dacapo@2") && base.0.contains("dacapo@3"),
        "both densities rendered: {}",
        base.0
    );
    assert!(
        base.1["runs.json"].contains("\"consolidation\":{\"mix\":\"dacapo\""),
        "runs.json carries the consolidation block"
    );
    assert!(
        base.1["runs.json"].contains("\"unattributed_pcm_lines\":0"),
        "per-tenant attribution is complete"
    );
}

/// The same guarantee with a fault plan scoped to the density-2 run:
/// deterministic injected failures, retries, and the surviving density-3
/// run must not depend on the worker count.
#[test]
fn faulted_tenant_sweep_is_byte_identical() {
    let faulted = |jobs| Knobs {
        faults: Some(frame_faults("dacapo@2")),
        ..knobs(jobs)
    };
    let base = artifacts(&tmp_dir("det-ften-base"), faulted(1), tenant_sweep);
    let par = artifacts(&tmp_dir("det-ften-par"), faulted(4), tenant_sweep);
    assert_identical(&base, &par);
}

/// The ablation dimensions ride the same planning and commit machinery:
/// byte-identical at `--jobs` 1 and 2, one key and one artifact per run.
#[test]
fn ablation_sweep_is_byte_identical_across_jobs() {
    let seq = artifacts(&tmp_dir("det-abl-seq"), knobs(1), ablation_sweep);
    let par = artifacts(&tmp_dir("det-abl-par"), knobs(2), ablation_sweep);
    assert_identical(&seq, &par);
    assert_eq!(seq.0.lines().count(), 5, "every run rendered: {}", seq.0);
    for file in [
        "avrora_KG-N_1_Emulation_profiling_on.json",
        "avrora_KG-N_1_Emulation_llc_4MiB.json",
        "avrora_KG-N_1_Emulation.json",
        "avrora_KG-N_1_Emulation_nursery_2MiB.json",
        "avrora_KG-N_1_Emulation_monitor_0.005s.json",
    ] {
        assert!(seq.1.contains_key(file), "missing {file}");
    }
    assert_eq!(seq.0.matches("attributed=true").count(), 1, "{}", seq.0);
}

/// Widths beyond the job count (and odd widths) change nothing either.
#[test]
fn oversized_pool_is_byte_identical() {
    let seq = artifacts(&tmp_dir("det-seq2"), knobs(1), sweep);
    let wide = artifacts(&tmp_dir("det-wide"), knobs(32), sweep);
    assert_identical(&seq, &wide);
}
