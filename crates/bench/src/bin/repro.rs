//! `repro`: regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p hemu-bench --bin repro --release -- all
//! cargo run -p hemu-bench --bin repro --release -- fig3 fig7 --quick
//! cargo run -p hemu-bench --bin repro --release -- table2 --json-out out/ --trace-out out/trace.jsonl
//! ```
//!
//! Targets: `table1 table2 fig3 fig4 fig5 fig6 fig7 fig8 table3 os
//! consolidate ablations write_breakdown all`, plus `series:<name>` (one
//! benchmark's write-rate time series) and `smoke` (a tiny 6-run sanity
//! sweep used by the CI crash-safety smoke). Every target runs its
//! experiments through one harness, so each takes `--jobs`, `--resume`,
//! `--json-out` and the fault flags; `table1` runs none.
//! `--quick` (or `--scale quick`) restricts DaCapo to the seven-benchmark
//! §V subset.
//! `--json-out <dir>` writes one `<run>.json` per executed experiment plus
//! the combined `runs.json` and `samples.csv`; `--trace-out <file>` writes
//! every committed run's measured-iteration event trace as JSON Lines.
//!
//! Crash safety (see `docs/fault-injection.md`): `--json-out` sweeps keep
//! a write-ahead `journal.jsonl` in the output directory, fsynced as each
//! run commits, and every artifact is written atomically
//! (temp-file + rename). `--resume <dir>` replays a killed sweep's
//! journaled results and re-executes only what is missing or failed — the
//! resumed directory ends byte-identical to an uninterrupted sweep's at
//! any `--jobs`. `--chaos-kill-after <n>` hard-exits the process (as if
//! SIGKILLed) after the Nth run commit; CI uses it to prove the
//! run→kill→resume→identical-bytes loop.
//!
//! Profiler flags (see `docs/observability.md`): `--profile` runs every
//! harness experiment under the phase-and-provenance profiler (reports gain
//! the per-cause/per-space write-attribution block); `--timeline-out
//! <file>` writes the runs' virtual-time spans as a Chrome trace-event JSON
//! document loadable in Perfetto; `--heatmap-out <file>` writes a per-page
//! PCM wear CSV. The export flags imply `--profile`.
//!
//! Resilience flags (see `docs/fault-injection.md`):
//! `--faults <spec>` installs a deterministic fault plan (`smoke`, `none`,
//! or `k=v` pairs); `--endurance <spec>` enables the PCM wear/endurance
//! model; `--run-deadline <seconds>` bounds each experiment attempt.
//! Failed runs are recorded in `runs.json` with their status and cause
//! while the sweep completes; the exit code is non-zero iff any run
//! ultimately failed.
//!
//! Consolidation flags (the `consolidate` target; see `EXPERIMENTS.md`):
//! `--tenants N` sets the sweep's maximum tenant density (default: 8 at
//! quick scale, 64 at full scale); `--mix dacapo|pjbb|graphchi|mixed`
//! picks the workload roster tenants round-robin over (default: mixed);
//! `--slice N` sets the scheduler's virtual-time slice in workload steps
//! per tenant turn (default: 64). Per-tenant write attribution lands in
//! each report's `consolidation` block.
//!
//! OS-baseline flags (the `os` target; see `docs/observability.md` and
//! `EXPERIMENTS.md`): `--os-policy dram-first,pcm-first,hot-cold` selects
//! which paging policies sweep against the collectors (default: all
//! three); `--epoch <lines>` sets the hot/cold migrator's epoch length in
//! cache-line accesses; `--migration-budget <pages>` caps migrations per
//! epoch; `--os-dram <MiB>` clamps the DRAM socket for OS-managed runs
//! (default 4 MiB so migration pressure is visible; `0` = unlimited).
//!
//! Performance flags (see `docs/performance.md`):
//! `--jobs N` runs each target's experiments on an N-worker pool (default:
//! the machine's available parallelism; `--jobs 1` is the sequential
//! path). Every exported artifact is byte-identical at any `--jobs` value.
//! Host-speed measurement lives in the separate `benchmark/` package.
//!
//! `--help` (or `-h`) prints the flag summary and exits 0 without running a
//! target; any other unknown `--flag` prints a usage line naming it and
//! exits 2.

use hemu_bench::{experiments, Harness, Scale};
use hemu_fault::{EnduranceConfig, FaultPlan};
use hemu_types::{ByteSize, OsPagingConfig, OsPolicy};
use std::time::{Duration, Instant};

/// The flag summary `--help` prints; the module docs above describe each
/// group in full.
const USAGE: &str = "\
usage: repro [TARGET...] [FLAGS]

Regenerates the paper's tables and figures. With no target, runs `all`
(the full reproduction; slow).

targets:
  table1 table2 fig3 fig4 fig5 fig6 fig7 fig8 table3 os consolidate
  ablations write_breakdown all smoke series:<benchmark>

flags:
  --quick | --scale quick|full   workload scale (default: full)
  --jobs N                       experiment worker pool width
  --json-out DIR                 per-run JSON, runs.json, samples.csv
  --trace-out FILE               measured-iteration event trace (JSON Lines)
  --profile                      phase-and-provenance profiler
  --timeline-out FILE            Perfetto timeline (implies --profile)
  --heatmap-out FILE             per-page PCM wear CSV (implies --profile)
  --faults SPEC                  deterministic fault plan (smoke, none, k=v,...)
  --endurance SPEC               PCM wear/endurance model
  --run-deadline SECONDS         bound on each experiment attempt
  --resume DIR                   finish a killed --json-out sweep
  --chaos-kill-after N           hard-exit after the Nth run commit
  --tenants N                    consolidate: maximum tenant density
  --mix dacapo|pjbb|graphchi|mixed   consolidate: workload roster
  --slice N                      consolidate: scheduler slice in steps
  --os-policy LIST               os: dram-first,pcm-first,hot-cold
  --epoch LINES                  os: hot/cold migrator epoch length
  --migration-budget PAGES       os: migrations per epoch
  --os-dram MIB                  os: DRAM socket clamp (0 = unlimited)
  -h, --help                     print this text
";

/// Extracts a `--flag VALUE` pair from `args`, removing both elements.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() || args[i + 1].starts_with("--") {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Removes a boolean `--flag` from `args`, returning whether it was there.
fn take_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    let json_out = take_value_flag(&mut args, "--json-out");
    let trace_out = take_value_flag(&mut args, "--trace-out");
    let timeline_out = take_value_flag(&mut args, "--timeline-out");
    let heatmap_out = take_value_flag(&mut args, "--heatmap-out");
    let profile = take_bool_flag(&mut args, "--profile");
    let faults = take_value_flag(&mut args, "--faults");
    let endurance = take_value_flag(&mut args, "--endurance");
    let run_deadline = take_value_flag(&mut args, "--run-deadline");
    let scale_flag = take_value_flag(&mut args, "--scale");
    let jobs_flag = take_value_flag(&mut args, "--jobs");
    let os_policy_flag = take_value_flag(&mut args, "--os-policy");
    let epoch_flag = take_value_flag(&mut args, "--epoch");
    let budget_flag = take_value_flag(&mut args, "--migration-budget");
    let os_dram_flag = take_value_flag(&mut args, "--os-dram");
    let resume = take_value_flag(&mut args, "--resume");
    let chaos_kill_after = take_value_flag(&mut args, "--chaos-kill-after");
    let tenants_flag = take_value_flag(&mut args, "--tenants");
    let mix_flag = take_value_flag(&mut args, "--mix");
    let slice_flag = take_value_flag(&mut args, "--slice");
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && *a != "--quick") {
        eprintln!("unknown flag `{flag}`; usage: repro [TARGET...] [FLAGS] (see repro --help)");
        std::process::exit(2);
    }
    // `try_from_secs_f64` refuses what no `Duration` holds (NaN, infinity,
    // negative or overflowing seconds) instead of panicking.
    let run_deadline = run_deadline.map(|secs| {
        match secs
            .parse::<f64>()
            .ok()
            .and_then(|s| Duration::try_from_secs_f64(s).ok())
        {
            Some(d) if !d.is_zero() => d,
            _ => {
                eprintln!("--run-deadline: expected a positive number of seconds");
                std::process::exit(2);
            }
        }
    });
    let jobs = match jobs_flag.as_deref() {
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs: expected a positive integer, got `{s}`");
                std::process::exit(2);
            }
        },
    };

    let quick = match scale_flag.as_deref() {
        None => args.iter().any(|a| a == "--quick"),
        Some("quick") => true,
        Some("full") => false,
        Some(other) => {
            eprintln!("--scale: expected `quick` or `full`, got `{other}`");
            std::process::exit(2);
        }
    };
    let mix = match mix_flag.as_deref() {
        None => hemu_workloads::Mix::Mixed,
        Some(s) => match hemu_workloads::Mix::parse(s) {
            Some(m) => m,
            None => {
                eprintln!("--mix: expected dacapo|pjbb|graphchi|mixed, got `{s}`");
                std::process::exit(2);
            }
        },
    };
    // Full-scale sweeps go past LLC saturation (the interesting knee);
    // quick keeps CI cheap while still showing the contention trend.
    let max_tenants = match tenants_flag.as_deref() {
        None => {
            if quick {
                8
            } else {
                64
            }
        }
        Some(s) => match s.parse::<usize>() {
            Ok(n) if (1..=255).contains(&n) => n,
            _ => {
                eprintln!("--tenants: expected a tenant count in 1..=255, got `{s}`");
                std::process::exit(2);
            }
        },
    };
    let slice = match slice_flag.as_deref() {
        None => 64,
        Some(s) => match s.parse::<u64>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--slice: expected a positive number of steps, got `{s}`");
                std::process::exit(2);
            }
        },
    };
    let mut targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if targets.is_empty() || targets.contains(&"all") {
        targets = vec![
            "table1",
            "table2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "table3",
            "fig8",
            "os",
            "consolidate",
            "ablations",
            "write_breakdown",
        ];
    }

    let os_policies: Vec<OsPolicy> = match os_policy_flag.as_deref() {
        None | Some("all") => OsPolicy::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|p| match OsPolicy::parse(p.trim()) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("--os-policy: {e}");
                    std::process::exit(2);
                }
            })
            .collect(),
    };
    // The emulated sockets are far larger than any workload here, so an
    // unclamped DRAM socket never spills and every policy degenerates to
    // dram-first; a small default clamp makes migration pressure real.
    let mut os_tuning = OsPagingConfig {
        dram_limit: Some(ByteSize::from_mib(4)),
        ..OsPagingConfig::default()
    };
    if let Some(s) = &epoch_flag {
        match s.parse::<u64>() {
            Ok(n) if n > 0 => os_tuning.epoch_lines = n,
            _ => {
                eprintln!("--epoch: expected a positive number of line accesses");
                std::process::exit(2);
            }
        }
    }
    if let Some(s) = &budget_flag {
        match s.parse::<u64>() {
            Ok(n) if n > 0 => os_tuning.migration_budget = n,
            _ => {
                eprintln!("--migration-budget: expected a positive number of pages");
                std::process::exit(2);
            }
        }
    }
    if let Some(s) = &os_dram_flag {
        match s.parse::<u64>() {
            Ok(0) => os_tuning.dram_limit = None,
            Ok(mib) => os_tuning.dram_limit = Some(ByteSize::from_mib(mib)),
            _ => {
                eprintln!("--os-dram: expected a DRAM size in MiB (0 = unlimited)");
                std::process::exit(2);
            }
        }
    }

    let scale = if quick { Scale::Quick } else { Scale::Full };
    let mut h = Harness::new(scale);
    if resume.is_some() && json_out.is_some() {
        eprintln!("--resume DIR implies --json-out DIR; pass only --resume");
        std::process::exit(2);
    }
    if let Some(dir) = &json_out {
        if let Err(e) = h.set_json_dir(dir) {
            eprintln!("--json-out: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &trace_out {
        if let Err(e) = h.set_trace_out(path) {
            eprintln!("--trace-out: {e}");
            std::process::exit(1);
        }
    }
    h.set_profile(profile);
    if let Some(path) = &timeline_out {
        if let Err(e) = h.set_timeline_out(path) {
            eprintln!("--timeline-out: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &heatmap_out {
        if let Err(e) = h.set_heatmap_out(path) {
            eprintln!("--heatmap-out: {e}");
            std::process::exit(1);
        }
    }
    if let Some(spec) = &faults {
        match FaultPlan::parse(spec) {
            Ok(plan) => h.set_fault_plan(plan),
            Err(e) => {
                eprintln!("--faults: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(spec) = &endurance {
        match EnduranceConfig::parse(spec) {
            Ok(cfg) => h.set_endurance(cfg),
            Err(e) => {
                eprintln!("--endurance: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(deadline) = run_deadline {
        h.set_run_deadline(deadline);
    }
    h.set_jobs(jobs);
    h.set_os_tuning(os_tuning);
    // Resume must come after every plan-affecting flag above: the journal
    // header's plan hash covers scale, faults, endurance, deadline and OS
    // tuning, and a mismatch refuses the stale journal.
    if let Some(dir) = &resume {
        if let Err(e) = h.resume_from(dir) {
            eprintln!("--resume: {e}");
            std::process::exit(1);
        }
    }
    if let Some(n) = &chaos_kill_after {
        match n.parse::<u64>() {
            Ok(n) => h.set_chaos_kill_after(n),
            _ => {
                eprintln!("--chaos-kill-after: expected a number of run commits, got `{n}`");
                std::process::exit(2);
            }
        }
    }
    let t0 = Instant::now();
    let mut target_failures = 0usize;

    for target in targets {
        let started = Instant::now();
        // Every target but the static `table1` renders through
        // `run_planned`, which prefetches its experiments on the worker
        // pool when --jobs > 1 (artifacts stay byte-identical; see
        // docs/performance.md).
        let result = match target {
            "table1" => Ok(experiments::table1()),
            "smoke" => h.run_planned(experiments::smoke),
            "table2" => h.run_planned(experiments::table2),
            "fig3" => h.run_planned(experiments::fig3),
            "fig4" => h.run_planned(experiments::fig4),
            "fig5" => h.run_planned(experiments::fig5),
            "fig6" => h.run_planned(experiments::fig6),
            "fig7" => h.run_planned(experiments::fig7),
            "fig8" => h.run_planned(experiments::fig8),
            "table3" => h.run_planned(experiments::table3),
            "os" => h.run_planned(|h| experiments::os_baseline(h, &os_policies)),
            "consolidate" => {
                h.run_planned(|h| experiments::consolidation(h, mix, slice, max_tenants))
            }
            "ablations" => h.run_planned(experiments::ablations),
            "write_breakdown" => h.run_planned(|h| experiments::write_breakdown(h, &os_policies)),
            // e.g. `series:lusearch` or `series:pr`.
            s if s.starts_with("series:") => h.run_planned(|h| {
                experiments::series(h, &s["series:".len()..], hemu_heap::CollectorKind::PcmOnly)
            }),
            other => {
                eprintln!("unknown target `{other}`; repro --help lists the targets");
                std::process::exit(2);
            }
        };
        match result {
            Ok(text) => {
                println!("{}", "=".repeat(78));
                println!("{text}");
                println!(
                    "[{target} done in {:.0?}; {} experiments executed so far]",
                    started.elapsed(),
                    h.runs_executed
                );
            }
            Err(e) => {
                eprintln!("{target} failed: {e}");
                target_failures += 1;
            }
        }
    }
    if let Err(e) = h.finalize_exports() {
        eprintln!("export failed: {e}");
        std::process::exit(1);
    }
    if let Some(dir) = json_out.as_ref().or(resume.as_ref()) {
        println!("[JSON reports written to {dir}]");
    }
    if let Some(path) = &trace_out {
        println!("[event trace written to {path}]");
    }
    if let Some(path) = &timeline_out {
        println!("[Perfetto timeline written to {path}]");
    }
    if let Some(path) = &heatmap_out {
        println!("[wear heatmap written to {path}]");
    }
    println!(
        "\nTotal: {} experiments in {:.0?} ({:?} scale).",
        h.runs_executed,
        t0.elapsed(),
        scale
    );
    if h.failed_count() > 0 || target_failures > 0 {
        eprintln!(
            "{} run(s) and {} target(s) failed; per-run status and cause are in runs.json.",
            h.failed_count(),
            target_failures
        );
        std::process::exit(1);
    }
}
