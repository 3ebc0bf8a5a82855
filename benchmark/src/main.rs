//! `benchmark`: the seeded host-cost benchmark of the hemu emulation
//! platform. It measures how fast the emulator runs — never the emulated
//! machine's own time — and requires every simulated statistic to come out
//! identical. README.md lists the workloads, metrics and bounds.
//!
//! ```text
//! benchmark --workload <kernel|dacapo|graphchi|multiprog> --seed <u64>
//!           [--seconds <n>] [--trace <0|1>]
//! benchmark compare <setA> <setB>
//! ```
//!
//! A run prints every metric with its unit, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`. It exits 1 when any
//! run failed or any check disagreed, 2 on a usage error.

mod compare;
mod digest;
mod kernel;
mod reference;
mod runs;
mod stats;
mod trace;

use hemu_core::RunReport;
use hemu_heap::{CollectorKind, GcStats};
use hemu_machine::{Machine, MachineProfile, MachineStats};
use hemu_obs::json::JsonObject;
use reference::Reference;
use runs::{guarded, Manager, RunCfg};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics, printed by untraced runs: name and unit. Their
/// directions and bounds are in BENCHMARK.json.
const END_TO_END: [(&str, &str); 5] = [
    ("runs_per_s", "1/s"),
    ("run_p50_s", "s"),
    ("sim_mlines_per_s", "Mlines/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by `--trace 1` runs: name and unit.
const PER_LAYER: [(&str, &str); 35] = [
    ("cache.enqueue_s", "s"),
    ("cache.resolve_s", "s"),
    ("cache.drain_s", "s"),
    ("cache.resolve_ns_per_line", "ns"),
    ("cache.llc_hit_frac", "frac"),
    ("machine.ns_per_line", "ns"),
    ("machine.overhead_ns_per_line", "ns"),
    ("machine.access_batch_p50_us", "us"),
    ("machine.access_batch_p99_us", "us"),
    ("machine.line_accesses", "count"),
    ("machine.remote_fill_frac", "frac"),
    ("heap.gc.pause_s", "s"),
    ("heap.gc.trace_s", "s"),
    ("heap.gc.evacuate_s", "s"),
    ("heap.gc.sweep_s", "s"),
    ("heap.gc.evacuate_ns_per_kib", "ns/KiB"),
    ("heap.gc.collections", "count"),
    ("heap.gc.copied_mib", "MiB"),
    ("heap.gc.pause_mcycles", "Mcycles"),
    ("heap.alloc_mib", "MiB"),
    ("heap.remset_entries", "count"),
    ("core.iteration_s", "s"),
    ("core.mutator_s", "s"),
    ("core.warmup_s", "s"),
    ("core.restore_s", "s"),
    ("workloads.instantiate_s", "s"),
    ("os.epoch_s", "s"),
    ("os.migrations", "count"),
    ("mallocsim.peak_mib", "MiB"),
    ("obs.export_s", "s"),
    ("numa.pcm_read_mib", "MiB"),
    ("numa.pcm_write_mib", "MiB"),
    ("numa.dram_read_mib", "MiB"),
    ("numa.dram_write_mib", "MiB"),
    ("trace.overhead_frac", "frac"),
];

/// What one pass of a workload executes.
enum Workload {
    /// One kernel repetition of `batches` batches.
    Kernel { batches: usize },
    /// Each run of the list once, in order.
    Runs(Vec<RunCfg>),
}

impl Workload {
    /// Distinct configurations a pass runs; each gets one time per pass.
    fn configs(&self) -> usize {
        match self {
            Workload::Kernel { .. } => 1,
            Workload::Runs(cfgs) => cfgs.len(),
        }
    }
}

/// The benchmark's workloads. README.md gives the reason for each. A pass
/// takes 4-7 s on the reference host, so a 25 s run repeats it three times
/// or more and each configuration's median time filters out the host's
/// bursts of contention.
fn workload(name: &str) -> Option<Workload> {
    use CollectorKind::{KgN, KgW, PcmOnly};
    let java = RunCfg::java;
    Some(match name {
        "kernel" => Workload::Kernel {
            batches: kernel::BATCHES,
        },
        "dacapo" => Workload::Runs(
            ["lu.Fix", "pmd"]
                .into_iter()
                .flat_map(|b| {
                    [
                        Manager::Gc(PcmOnly),
                        Manager::Gc(KgN),
                        Manager::Gc(KgW),
                        Manager::OsHotCold,
                    ]
                    .map(|m| java(b, m, 1))
                })
                .collect(),
        ),
        "graphchi" => Workload::Runs(vec![
            java("pr", Manager::Gc(PcmOnly), 1),
            java("pr", Manager::Gc(KgN), 1),
            RunCfg::cpp("pr"),
        ]),
        "multiprog" => Workload::Runs(vec![
            java("pjbb", Manager::Gc(KgN), 4),
            java("pmd", Manager::Gc(KgW), 4),
        ]),
        _ => return None,
    })
}

/// The run a traced invocation measures the runtime layers on when its
/// workload never enters them (the kernel enters none; only `dacapo` has
/// OS epochs): one instance under the OS hot/cold migrator, so it has GC
/// pauses with evacuation, OS epochs, a report to export and restore.
const RUNTIME_PROBE: RunCfg = RunCfg::java("lu.Fix", Manager::OsHotCold, 1);

/// Set-up is sampled at least this many times, then until this much time
/// is spent or the cap is reached; `setup_s` is the median sample.
const SETUP_MIN_SAMPLES: usize = 3;
const SETUP_MAX_SAMPLES: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 25, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: expected a u64")?),
            "--seconds" => match value()?.parse() {
                Ok(s) if s > 0 => seconds = s,
                _ => return Err("--seconds: expected a positive whole number".into()),
            },
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        exit(match compare::run(&argv[1..]) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("benchmark compare: {e}");
                2
            }
        });
    }
    let usage = "usage: benchmark --workload <kernel|dacapo|graphchi|multiprog> --seed <u64> \
                 [--seconds <n>] [--trace <0|1>]\n       benchmark compare <setA> <setB>";
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{usage}");
        exit(2)
    });
    let Some(w) = workload(&args.workload) else {
        eprintln!("benchmark: unknown workload `{}`\n{usage}", args.workload);
        exit(2)
    };
    let out = measure(&args, &w);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "workload {} seed {} trace {} passes {} samples {} nproc {nproc}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.passes,
        out.samples
    );
    println!("sim_digest {:016x}", out.sim_digest);
    println!(
        "host_speed {} (times are scaled to the reference host)",
        out.host_speed
    );
    let Tally { attempted, failed } = out.tally;
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!("failed_frac {failed_frac} ({failed} of {attempted} attempted)");
    for &(name, unit, value) in &out.metrics {
        println!("{name:30} {value:>16.6} {unit}");
    }
    println!("{}", result_line(&out.tally, &out.metrics));
    exit(i32::from(failed > 0))
}

/// Attempts and failures. A failure is a run or repetition that errors or
/// panics, or any check that disagrees.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.fail(what, &e)).ok()
    }

    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("benchmark: {what} failed: {why}");
    }
}

/// What the passes measured.
#[derive(Default)]
struct Measured {
    passes: usize,
    /// Per configuration: host seconds of each untraced execution, scaled
    /// to the reference host's speed.
    seconds: Vec<Vec<f64>>,
    /// Per configuration: simulated line accesses of one execution (of the
    /// measured iteration, for runs), the same in every pass.
    lines: Vec<u64>,
    /// Host seconds of the traced executions and of their untraced twins.
    traced_seconds: f64,
    twin_seconds: f64,
    traced_reports: Vec<RunReport>,
    traced_reps: Vec<kernel::Rep>,
    /// Peak RSS in MiB when the first pass ended, less the host-speed
    /// probe's tables. Later passes only add allocator fragmentation, and
    /// how many of them fit depends on speed.
    first_pass_rss_mib: Option<f64>,
}

/// The outcome of one benchmark invocation.
struct Outcome {
    tally: Tally,
    sim_digest: u64,
    passes: usize,
    samples: usize,
    /// This host's speed relative to the reference host.
    host_speed: f64,
    /// (name, unit, value): the end-to-end metrics, or the per-layer ones
    /// when traced.
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Runs set-up samples, then whole passes until `--seconds` would be
/// exceeded (at least one), checks the digests and computes the metrics.
/// A traced invocation then runs the layer probes and writes its spans.
fn measure(args: &Args, w: &Workload) -> Outcome {
    let seed = args.seed;
    let mut quiet = Tracer::new(false);
    let mut traced = args.trace.then(|| Tracer::new(true));
    let mut tally = Tally::default();
    let mut m = Measured {
        seconds: vec![Vec::new(); w.configs()],
        lines: vec![0; w.configs()],
        ..Measured::default()
    };

    // The host-speed probe brackets the set-up and every pass, and scales
    // the untraced times measured between two probes.
    let mut reference = Reference::new();
    let mut setup = Vec::new();
    let started = Instant::now();
    while setup.len() < SETUP_MIN_SAMPLES
        || (setup.len() < SETUP_MAX_SAMPLES && started.elapsed() < SETUP_BUDGET)
    {
        let tracer = traced.as_mut().unwrap_or(&mut quiet);
        setup.push(setup_sample(w, seed, tracer));
    }
    let scale = reference.scale();
    setup.iter_mut().for_each(|s| *s *= scale);

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut pass_digests = Vec::new();
    loop {
        let pass_started = Instant::now();
        let before: Vec<usize> = m.seconds.iter().map(Vec::len).collect();
        let digest = match w {
            &Workload::Kernel { batches } => kernel_pass(
                seed,
                batches,
                &mut quiet,
                traced.as_mut(),
                &mut tally,
                &mut m,
            ),
            Workload::Runs(cfgs) => {
                runs_pass(cfgs, seed, &mut quiet, traced.as_mut(), &mut tally, &mut m)
            }
        };
        let scale = reference.scale();
        for (times, &n) in m.seconds.iter_mut().zip(&before) {
            times[n..].iter_mut().for_each(|t| *t *= scale);
        }
        pass_digests.push(digest);
        m.passes += 1;
        if m.first_pass_rss_mib.is_none() {
            m.first_pass_rss_mib = stats::peak_rss_mib().map(|p| p - reference.resident_mib());
        }
        if started.elapsed() + pass_started.elapsed() > budget {
            break;
        }
    }
    let sim_digest = pass_digests[0];
    if pass_digests.iter().any(|&d| d != sim_digest) {
        tally.fail(
            "determinism",
            "passes at one seed produced different digests",
        );
    }
    if let Some(want) = digest::expected(&args.workload, seed) {
        if want != sim_digest {
            let why = format!("sim_digest {sim_digest:016x}, recorded {want:016x}");
            tally.fail("sim_digest", &why);
        }
    }

    let metrics = match traced.as_mut() {
        None => {
            let e2e = end_to_end(&m, &setup);
            END_TO_END.iter().map(|&(n, u)| (n, u, e2e[n])).collect()
        }
        Some(t) => {
            let batches = match w {
                &Workload::Kernel { batches } => batches,
                Workload::Runs(_) => kernel::BATCHES,
            };
            let probes = probes(seed, batches, &mut quiet, t, &mut tally);
            let layers = per_layer(t, &m, &probes, setup.len());
            let path =
                PathBuf::from(".bench_trace").join(format!("{}-{seed}.jsonl", args.workload));
            match t.write_jsonl(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => eprintln!("benchmark: writing {}: {e}", path.display()),
            }
            PER_LAYER.iter().map(|&(n, u)| (n, u, layers[n])).collect()
        }
    };
    Outcome {
        tally,
        sim_digest,
        passes: m.passes,
        samples: m.seconds.iter().map(Vec::len).sum(),
        host_speed: reference.speed(),
        metrics,
    }
}

/// One set-up sample: every `Machine::new` and `WorkloadSpec::instantiate`
/// that one pass performs, timed outside the runs. Returns seconds.
fn setup_sample(w: &Workload, seed: u64, tracer: &mut Tracer) -> f64 {
    let run = tracer.run("setup".into(), false);
    let cfgs: &[RunCfg] = match w {
        Workload::Kernel { .. } => &[],
        Workload::Runs(cfgs) => cfgs,
    };
    let mut seconds = 0.0;
    for i in 0..cfgs.len().max(1) {
        let span = tracer.open("machine.new", run, None);
        let machine = Machine::new(MachineProfile::emulation());
        seconds += tracer.close(span);
        drop(machine);
        if let Some(cfg) = cfgs.get(i) {
            for _ in 0..cfg.instances {
                let span = tracer.open("workloads.instantiate", run, None);
                let workload = cfg.spec().instantiate(seed);
                seconds += tracer.close(span);
                drop(workload);
            }
        }
    }
    seconds
}

/// One kernel repetition, and in a traced invocation its traced twin.
/// Returns the repetition's digest (0 when it failed).
fn kernel_pass(
    seed: u64,
    batches: usize,
    quiet: &mut Tracer,
    traced: Option<&mut Tracer>,
    tally: &mut Tally,
    m: &mut Measured,
) -> u64 {
    let label = format!("kernel#{}", m.passes);
    let run = quiet.run(label.clone(), false);
    let result = guarded(|| kernel::rep(seed, batches, quiet, run));
    let Some(rep) = tally.check(&label, result) else {
        return 0;
    };
    m.seconds[0].push(rep.seconds);
    m.lines[0] = rep.lines;
    if let Some(t) = traced {
        let run = t.run(label.clone(), false);
        let result = guarded(|| kernel::rep(seed, batches, t, run));
        if let Some(twin) = tally.check(&format!("{label} (traced)"), result) {
            if twin.digest != rep.digest {
                tally.fail(&label, "traced repetition changed the simulated statistics");
            }
            m.traced_seconds += twin.seconds;
            m.twin_seconds += rep.seconds;
            m.traced_reps.push(twin);
        }
    }
    rep.digest
}

/// Each run of `cfgs` once, and in a traced invocation each run's profiled
/// twin right after it. Returns the runs' digests folded in order.
fn runs_pass(
    cfgs: &[RunCfg],
    seed: u64,
    quiet: &mut Tracer,
    mut traced: Option<&mut Tracer>,
    tally: &mut Tally,
    m: &mut Measured,
) -> u64 {
    let mut digests = Vec::with_capacity(cfgs.len());
    for (i, cfg) in cfgs.iter().enumerate() {
        let label = cfg.label();
        let run = quiet.run(label.clone(), false);
        let Some(out) = tally.check(&label, runs::execute(cfg, seed, false, quiet, run)) else {
            digests.push(0);
            continue;
        };
        m.seconds[i].push(out.seconds);
        m.lines[i] = out.report.machine.line_accesses;
        digests.push(out.digest);
        if let Some(t) = traced.as_mut() {
            let run = t.run(label.clone(), false);
            let result = runs::execute(cfg, seed, true, t, run);
            if let Some(twin) = tally.check(&format!("{label} (traced)"), result) {
                if twin.digest != out.digest {
                    tally.fail(&label, "profiling changed the simulated statistics");
                }
                m.traced_seconds += twin.seconds;
                m.twin_seconds += out.seconds;
                m.traced_reports.push(twin.report);
            }
        }
    }
    digest::digest(&digests)
}

/// The end-to-end metrics. The speed metrics use each configuration's
/// median time over the passes, so a burst of host contention during one
/// execution does not move them.
fn end_to_end(m: &Measured, setup: &[f64]) -> BTreeMap<&'static str, f64> {
    let measured: Vec<(f64, u64)> = m
        .seconds
        .iter()
        .zip(&m.lines)
        .filter(|(s, _)| !s.is_empty())
        .map(|(s, &lines)| (stats::quantile(s, 0.5), lines))
        .collect();
    let medians: Vec<f64> = measured.iter().map(|&(s, _)| s).collect();
    let busy: f64 = medians.iter().sum();
    let lines: u64 = measured.iter().map(|&(_, l)| l).sum();
    BTreeMap::from([
        ("runs_per_s", medians.len() as f64 / busy),
        ("run_p50_s", stats::quantile(&medians, 0.5)),
        ("sim_mlines_per_s", lines as f64 / 1e6 / busy),
        ("setup_s", stats::quantile(setup, 0.5)),
        ("peak_rss_mib", m.first_pass_rss_mib.unwrap_or(f64::NAN)),
    ])
}

/// What the probes of a traced invocation measured. Their spans are in the
/// tracer under probe runs.
#[derive(Default)]
struct Probes {
    cache: kernel::ProbeCounts,
    kernel_lines: u64,
    runtime: Option<RunReport>,
}

/// The layer probes every traced invocation runs after its passes: the
/// cache probe, one kernel repetition, and [`RUNTIME_PROBE`] untraced and
/// profiled. A workload's per-layer numbers come from its own traced runs
/// and fall back to these for layers it never enters.
fn probes(
    seed: u64,
    batches: usize,
    quiet: &mut Tracer,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Probes {
    let mut p = Probes::default();
    let run = t.run("probe:cache".into(), true);
    let result = guarded(|| Ok(kernel::cache_probe(seed, batches, t, run)));
    if let Some(c) = tally.check("cache probe", result) {
        if c.fills != c.memory {
            tally.fail("cache probe", "memory-level outcomes and fills disagree");
        }
        p.cache = c;
    }
    let run = t.run("probe:kernel".into(), true);
    let result = guarded(|| kernel::rep(seed, batches, t, run));
    if let Some(rep) = tally.check("kernel probe", result) {
        p.kernel_lines = rep.lines;
    }

    let label = format!("probe:{}", RUNTIME_PROBE.label());
    let run = quiet.run(label.clone(), true);
    let base = tally.check(
        &label,
        runs::execute(&RUNTIME_PROBE, seed, false, quiet, run),
    );
    let run = t.run(label.clone(), true);
    let span = t.open("workloads.instantiate", run, None);
    drop(RUNTIME_PROBE.spec().instantiate(seed));
    let _ = t.close(span);
    let result = runs::execute(&RUNTIME_PROBE, seed, true, t, run);
    if let Some(twin) = tally.check(&format!("{label} (traced)"), result) {
        if base.is_some_and(|b| b.digest != twin.digest) {
            tally.fail(&label, "profiling changed the simulated statistics");
        }
        p.runtime = Some(twin.report);
    }
    p
}

fn per_layer(
    t: &Tracer,
    m: &Measured,
    p: &Probes,
    setup_samples: usize,
) -> BTreeMap<&'static str, f64> {
    let passes = m.passes as f64;
    // A layer's seconds per pass on the workload's own runs, or on the
    // probes when the workload never entered it.
    let time = |names: &[&str]| {
        t.total(false, names)
            .map(|s| s / passes)
            .or_else(|| t.total(true, names))
            .unwrap_or(0.0)
    };
    let self_time = |name: &str| {
        t.self_total(false, name)
            .map(|s| s / passes)
            .or_else(|| t.self_total(true, name))
            .unwrap_or(0.0)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let cache = ["cache.enqueue", "cache.resolve", "cache.drain"].map(|n| time(&[n]));
    let cache_ns_per_line = ratio(cache.iter().sum::<f64>() * 1e9, p.cache.lines as f64);
    let own_batches = t.durations(false, "machine.access_batch");
    let (batches, batch_lines) = if own_batches.is_empty() {
        (t.durations(true, "machine.access_batch"), p.kernel_lines)
    } else {
        (own_batches, m.traced_reps.iter().map(|r| r.lines).sum())
    };
    let ns_per_line = ratio(batches.iter().sum::<f64>() * 1e9, batch_lines as f64);

    let reports = &m.traced_reports;
    // Folded from +0.0: an empty float `sum` is -0.0.
    let per_pass =
        |f: &dyn Fn(&RunReport) -> f64| reports.iter().map(f).fold(0.0, |a, b| a + b) / passes;
    let gc = |f: fn(&GcStats) -> u64| per_pass(&|r| r.gc.map_or(0, |g| f(&g)) as f64);
    fn copied(g: &GcStats) -> u64 {
        g.copied_minor_bytes + g.copied_observer_bytes
    }
    fn copied_kib<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> f64 {
        let kib = reports.into_iter().filter_map(|r| r.gc);
        kib.map(|g| copied(&g) as f64 / 1024.0)
            .fold(0.0, |a, b| a + b)
    }
    let own_kib = copied_kib(reports);
    let evacuate_ns_per_kib = match t.total(false, &["evacuate"]) {
        Some(s) if own_kib > 0.0 => s * 1e9 / own_kib,
        _ => ratio(
            t.total(true, &["evacuate"]).unwrap_or(0.0) * 1e9,
            copied_kib(&p.runtime),
        ),
    };
    let instantiate = t
        .total(false, &["workloads.instantiate"])
        .map(|s| s / setup_samples as f64)
        .or_else(|| t.total(true, &["workloads.instantiate"]))
        .unwrap_or(0.0);

    let machine: Vec<MachineStats> = if reports.is_empty() {
        m.traced_reps.iter().map(|r| r.stats).collect()
    } else {
        reports.iter().map(|r| r.machine).collect()
    };
    let machine_total = |f: fn(&MachineStats) -> u64| machine.iter().map(f).sum::<u64>() as f64;
    let (local, remote) = (
        machine_total(|s| s.local_fills),
        machine_total(|s| s.remote_fills),
    );

    BTreeMap::from([
        ("cache.enqueue_s", cache[0]),
        ("cache.resolve_s", cache[1]),
        ("cache.drain_s", cache[2]),
        (
            "cache.resolve_ns_per_line",
            ratio(cache[1] * 1e9, p.cache.lines as f64),
        ),
        (
            "cache.llc_hit_frac",
            ratio(
                p.cache.llc_hits as f64,
                (p.cache.llc_hits + p.cache.memory) as f64,
            ),
        ),
        ("machine.ns_per_line", ns_per_line),
        (
            "machine.overhead_ns_per_line",
            ns_per_line - cache_ns_per_line,
        ),
        (
            "machine.access_batch_p50_us",
            stats::quantile(&batches, 0.5) * 1e6,
        ),
        (
            "machine.access_batch_p99_us",
            stats::quantile(&batches, 0.99) * 1e6,
        ),
        (
            "machine.line_accesses",
            machine_total(|s| s.line_accesses) / passes,
        ),
        ("machine.remote_fill_frac", ratio(remote, local + remote)),
        (
            "heap.gc.pause_s",
            time(&["minor", "minor_observer", "full"]),
        ),
        ("heap.gc.trace_s", time(&["trace"])),
        ("heap.gc.evacuate_s", time(&["evacuate"])),
        ("heap.gc.sweep_s", time(&["sweep"])),
        ("heap.gc.evacuate_ns_per_kib", evacuate_ns_per_kib),
        ("heap.gc.collections", gc(|g| g.minor_gcs + g.full_gcs)),
        ("heap.gc.copied_mib", gc(copied) / MIB),
        ("heap.gc.pause_mcycles", gc(|g| g.pause_cycles) / 1e6),
        ("heap.alloc_mib", gc(|g| g.allocated_bytes) / MIB),
        ("heap.remset_entries", gc(|g| g.remset_entries)),
        ("core.iteration_s", time(&["iteration"])),
        ("core.mutator_s", self_time("iteration")),
        ("core.warmup_s", self_time("run")),
        ("core.restore_s", time(&["core.restore"])),
        ("workloads.instantiate_s", instantiate),
        ("os.epoch_s", time(&["os_epoch"])),
        (
            "os.migrations",
            per_pass(&|r| r.os_paging.map_or(0, |o| o.migrations) as f64),
        ),
        // The C++ runs allocate their arrays before the measured iteration,
        // so the native heap's peak footprint is the count that moves.
        (
            "mallocsim.peak_mib",
            per_pass(&|r| r.native.map_or(0, |n| n.peak) as f64) / MIB,
        ),
        ("obs.export_s", time(&["obs.export"])),
        (
            "numa.pcm_read_mib",
            per_pass(&|r| r.pcm_reads.bytes() as f64) / MIB,
        ),
        (
            "numa.pcm_write_mib",
            per_pass(&|r| r.pcm_writes.bytes() as f64) / MIB,
        ),
        (
            "numa.dram_read_mib",
            per_pass(&|r| r.dram_reads.bytes() as f64) / MIB,
        ),
        (
            "numa.dram_write_mib",
            per_pass(&|r| r.dram_writes.bytes() as f64) / MIB,
        ),
        (
            "trace.overhead_frac",
            ratio(m.traced_seconds, m.twin_seconds) - 1.0,
        ),
    ])
}

/// The result line: `{"correct","attempted","failed","metrics"}`.
fn result_line(tally: &Tally, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = String::new();
    let mut obj = JsonObject::new(&mut out);
    obj.field("correct", &(tally.failed == 0))
        .field("attempted", &tally.attempted.max(1))
        .field("failed", &tally.failed.min(tally.attempted.max(1)))
        .raw_field("metrics", |o| {
            let mut all = JsonObject::new(o);
            for &(name, unit, value) in metrics {
                all.raw_field(name, |o| {
                    let mut metric = JsonObject::new(o);
                    metric.field("value", &value).field("unit", unit);
                    metric.finish();
                });
            }
            all.finish();
        });
    obj.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str, w: &Workload, trace: bool) -> Outcome {
        let args = Args {
            workload: format!("smoke-{name}"),
            seed: 3,
            seconds: 1,
            trace,
        };
        let out = measure(&args, w);
        assert_eq!(out.tally.failed, 0, "{name}: a run or check failed");
        let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let names: Vec<(&str, &str)> = out.metrics.iter().map(|&(n, u, _)| (n, u)).collect();
        assert_eq!(names, expected);
        for &(n, _, v) in &out.metrics {
            assert!(v.is_finite(), "{name}: {n} = {v}");
        }
        out
    }

    fn value(out: &Outcome, name: &str) -> f64 {
        out.metrics.iter().find(|m| m.0 == name).expect("metric").2
    }

    #[test]
    fn kernel_smoke_repeats_and_tracing_keeps_the_digest() {
        let w = Workload::Kernel { batches: 4 };
        let plain = smoke("kernel", &w, false);
        assert!(plain.passes >= 2, "repetitions fill the time budget");
        for name in ["runs_per_s", "sim_mlines_per_s", "setup_s", "peak_rss_mib"] {
            assert!(value(&plain, name) > 0.0, "{name}");
        }
        let traced = smoke("kernel", &w, true);
        assert_eq!(traced.sim_digest, plain.sim_digest);
        assert!(value(&traced, "machine.ns_per_line") > 0.0);
        assert!(value(&traced, "cache.resolve_s") > 0.0);
        // The kernel never enters the runtime: those layers are timed on
        // the runtime probe.
        assert!(value(&traced, "heap.gc.pause_s") > 0.0);
        assert!(value(&traced, "os.epoch_s") > 0.0);
        assert_eq!(value(&traced, "heap.gc.collections"), 0.0);
    }

    #[test]
    fn run_smoke_covers_each_kind_of_run() {
        // One managed run under OS paging, one C++ run on the native heap,
        // one multiprogrammed run with a write-rationing collector.
        let w = Workload::Runs(vec![
            RunCfg::java("lu.Fix", Manager::OsHotCold, 1),
            RunCfg::cpp("pr"),
            RunCfg::java("lu.Fix", Manager::Gc(CollectorKind::KgW), 2),
        ]);
        // A traced pass runs every run untraced and profiled, and fails
        // unless the two digests agree and each report round-trips.
        let traced = smoke("runs", &w, true);
        assert_eq!(traced.samples, 3);
        for name in [
            "heap.gc.copied_mib",
            "os.migrations",
            "mallocsim.peak_mib",
            "core.mutator_s",
        ] {
            assert!(value(&traced, name) > 0.0, "{name}");
        }
    }
}
