//! One function per table and figure of the paper's evaluation.
//!
//! Every function takes the caching [`Harness`] and returns the rendered
//! text block (plus, where useful, headline aggregates). Shape — who wins,
//! by what rough factor, where crossovers fall — is the reproduction
//! target; absolute counts differ from the paper's because the substrate
//! is a simulator driving synthetic datasets.
//!
//! Figures degrade gracefully under fault injection: a failed experiment
//! (recorded by the harness, see `Harness::records`) renders as a `FAIL`
//! cell or a skipped data point rather than aborting the whole figure, so
//! a sweep with one bad configuration still produces every other result.

use crate::fmt::{ratio, table};
use crate::harness::{workload, Harness, Manager, Profile};
use hemu_core::lifetime::{LifetimeModel, ENDURANCE_PROTOTYPES};
use hemu_heap::{plan, CollectorKind};
use hemu_types::{ByteSize, OsPagingConfig, OsPolicy, Result};
use hemu_workloads::{spec, DatasetSize, Mix, Suite};

/// Table I: space-to-socket mapping of KG-N, KG-W and KG-W−MDO, printed
/// from the live plan objects.
pub fn table1() -> String {
    let configs: Vec<_> = [
        CollectorKind::KgN,
        CollectorKind::KgW,
        CollectorKind::KgWMinusMdo,
    ]
    .iter()
    .map(|k| k.config(ByteSize::from_mib(4), ByteSize::from_mib(100)))
    .collect();
    format!(
        "Table I: heap spaces and their socket mapping (S0 = DRAM, S1 = PCM)\n\n{}",
        plan::render_table1(&configs)
    )
}

/// Table II (§V): percentage reduction in PCM writes vs the PCM-Only
/// reference, simulation profile vs emulation profile, plus the §V side
/// findings (KG-B total-write blow-up and the KG-W performance overhead).
///
/// # Errors
///
/// Propagates experiment failures.
pub fn table2(h: &mut Harness) -> Result<String> {
    let benches = spec::dacapo_sim_subset();
    let mut rows = vec![vec![
        "Collector".to_string(),
        "Simulator".to_string(),
        "Emulator".to_string(),
        "(paper sim)".to_string(),
        "(paper emu)".to_string(),
    ]];
    let paper = [
        ("KG-N", 4.0, 8.0),
        ("KG-B", 11.0, 13.0),
        ("KG-W", 64.0, 62.0),
    ];
    let mut per_profile_total_ratio = Vec::new();
    let mut overheads = Vec::new();

    for (ci, collector) in [CollectorKind::KgN, CollectorKind::KgB, CollectorKind::KgW]
        .into_iter()
        .enumerate()
    {
        let mut cells = vec![paper[ci].0.to_string()];
        for profile in [Profile::Simulation, Profile::Emulation] {
            let mut reductions = Vec::new();
            let mut total_ratio = Vec::new();
            let mut overhead = Vec::new();
            for &b in &benches {
                let (Some(base), Some(r)) = (
                    h.run_opt(b, CollectorKind::PcmOnly, 1, profile),
                    h.run_opt(b, collector, 1, profile),
                ) else {
                    continue;
                };
                reductions.push(r.pcm_write_reduction_vs(&base));
                if collector == CollectorKind::KgB {
                    if let Some(kgn) = h.run_opt(b, CollectorKind::KgN, 1, profile) {
                        let t = r.total_writes().bytes() as f64
                            / kgn.total_writes().bytes().max(1) as f64;
                        total_ratio.push(t);
                    }
                }
                if collector == CollectorKind::KgW {
                    if let Some(kgn) = h.run_opt(b, CollectorKind::KgN, 1, profile) {
                        overhead.push(100.0 * (r.elapsed_seconds / kgn.elapsed_seconds - 1.0));
                    }
                }
            }
            cells.push(if reductions.is_empty() {
                "FAIL".into()
            } else {
                format!("{:.0}%", mean(&reductions))
            });
            if !total_ratio.is_empty() {
                per_profile_total_ratio.push((profile, mean(&total_ratio)));
            }
            if !overhead.is_empty() {
                overheads.push((profile, mean(&overhead)));
            }
        }
        cells.push(format!("{:.0}%", paper[ci].1));
        cells.push(format!("{:.0}%", paper[ci].2));
        rows.push(cells);
    }

    let mut out = format!(
        "Table II: average reduction in PCM writes vs PCM-Only ({} DaCapo benchmarks)\n\n{}",
        benches.len(),
        table(&rows)
    );
    for (p, r) in per_profile_total_ratio {
        out.push_str(&format!(
            "\nKG-B vs KG-N total memory writes ({p:?}): {:.2}x (paper: 1.98x sim / 2.2x emu)",
            r
        ));
    }
    for (p, o) in overheads {
        out.push_str(&format!(
            "\nKG-W time overhead vs KG-N ({p:?}): {o:.0}% (paper: 7% sim / 10% emu)"
        ));
    }
    out.push('\n');
    Ok(out)
}

/// Fig. 3: PCM writes of the GraphChi applications normalized to the C++
/// implementation, for C++, Java (PCM-Only), KG-N and KG-W.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn fig3(h: &mut Harness) -> Result<String> {
    let mut rows = vec![vec![
        "App".to_string(),
        "C++".to_string(),
        "Java".to_string(),
        "KG-N".to_string(),
        "KG-W".to_string(),
    ]];
    for name in ["pr", "cc", "als"] {
        let cpp = h.run_cpp(name, DatasetSize::Default).ok();
        let spec = workload(name)?;
        let java = h.run1_opt(spec, CollectorKind::PcmOnly);
        let kgn = h.run1_opt(spec, CollectorKind::KgN);
        let kgw = h.run1_opt(spec, CollectorKind::KgW);
        let cell = |r: &Option<hemu_core::RunReport>| match (r, &cpp) {
            (Some(r), Some(c)) => ratio(r.pcm_writes_normalized_to(c)),
            _ => "FAIL".into(),
        };
        rows.push(vec![
            name.to_uppercase(),
            if cpp.is_some() {
                "1.00".into()
            } else {
                "FAIL".into()
            },
            cell(&java),
            cell(&kgn),
            cell(&kgw),
        ]);
    }
    Ok(format!(
        "Fig. 3: PCM writes normalized to C++ (PCM-Only system; paper: Java up to 3.2x,\n\
         KG-N below half of C++ on average, KG-W below KG-N)\n\n{}",
        table(&rows)
    ))
}

/// Fig. 4 (a, b): average PCM writes of multiprogrammed workloads relative
/// to one instance, per suite, for PCM-Only and KG-W.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn fig4(h: &mut Harness) -> Result<String> {
    let mut out = String::from(
        "Fig. 4: PCM writes relative to one instance (paper: super-linear growth under\n\
         PCM-Only — avg 2.3x @2, 6.4x @4 — and roughly linear under KG-W)\n",
    );
    for (collector, label) in [
        (CollectorKind::PcmOnly, "(a) PCM-Only"),
        (CollectorKind::KgW, "(b) KG-W"),
    ] {
        let mut rows = vec![vec![
            "Suite".to_string(),
            "N=1".to_string(),
            "N=2".to_string(),
            "N=4".to_string(),
        ]];
        let mut all: Vec<Vec<f64>> = vec![Vec::new(), Vec::new(), Vec::new()];
        for suite in [Suite::DaCapo, Suite::Pjbb, Suite::GraphChi] {
            let apps: Vec<_> = h
                .all_apps()
                .into_iter()
                .filter(|s| s.suite == suite)
                .collect();
            let mut per_n = vec![Vec::new(), Vec::new(), Vec::new()];
            for app in apps {
                let Some(base) = h.run_opt(app, collector, 1, Profile::Emulation) else {
                    continue;
                };
                for (ni, n) in [1usize, 2, 4].into_iter().enumerate() {
                    let r = if n == 1 {
                        base.clone()
                    } else {
                        match h.run_opt(app, collector, n, Profile::Emulation) {
                            Some(r) => r,
                            None => continue,
                        }
                    };
                    let rel = r.pcm_writes.bytes() as f64 / base.pcm_writes.bytes().max(1) as f64;
                    per_n[ni].push(rel);
                    all[ni].push(rel);
                }
            }
            rows.push(vec![
                format!("{suite}"),
                ratio(mean(&per_n[0])),
                ratio(mean(&per_n[1])),
                ratio(mean(&per_n[2])),
            ]);
        }
        rows.push(vec![
            "All".to_string(),
            ratio(mean(&all[0])),
            ratio(mean(&all[1])),
            ratio(mean(&all[2])),
        ]);
        out.push_str(&format!("\n{label}\n{}", table(&rows)));
    }
    Ok(out)
}

/// Fig. 5 (a, b): raw PCM writes and PCM write rates of Pjbb and GraphChi
/// relative to DaCapo, PCM-Only, N ∈ {1, 2, 4}.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn fig5(h: &mut Harness) -> Result<String> {
    let mut writes_rows = vec![vec![
        "Suite".to_string(),
        "N=1".to_string(),
        "N=2".to_string(),
        "N=4".to_string(),
    ]];
    let mut rates_rows = writes_rows.clone();
    let mut suite_stats = Vec::new();
    for suite in [Suite::DaCapo, Suite::Pjbb, Suite::GraphChi] {
        let apps: Vec<_> = h
            .all_apps()
            .into_iter()
            .filter(|s| s.suite == suite)
            .collect();
        let mut writes = [0.0f64; 3];
        let mut rates = [0.0f64; 3];
        for app in &apps {
            for (ni, n) in [1usize, 2, 4].into_iter().enumerate() {
                let Some(r) = h.run_opt(*app, CollectorKind::PcmOnly, n, Profile::Emulation) else {
                    continue;
                };
                writes[ni] += r.pcm_writes.bytes() as f64 / apps.len() as f64;
                rates[ni] += r.pcm_write_rate_mbs / apps.len() as f64;
            }
        }
        suite_stats.push((suite, writes, rates));
    }
    let dacapo = suite_stats[0].clone();
    for (suite, writes, rates) in &suite_stats[1..] {
        writes_rows.push(vec![
            format!("{suite}"),
            ratio(writes[0] / dacapo.1[0]),
            ratio(writes[1] / dacapo.1[1]),
            ratio(writes[2] / dacapo.1[2]),
        ]);
        rates_rows.push(vec![
            format!("{suite}"),
            ratio(rates[0] / dacapo.2[0]),
            ratio(rates[1] / dacapo.2[1]),
            ratio(rates[2] / dacapo.2[2]),
        ]);
    }
    Ok(format!(
        "Fig. 5: Pjbb and GraphChi relative to DaCapo (PCM-Only; paper: Pjbb writes 2x,\n\
         GraphChi 46x at N=1; write rates 1.7x and 4.7x)\n\n(a) PCM writes relative to DaCapo\n{}\n\
         (b) PCM write rates relative to DaCapo\n{}",
        table(&writes_rows),
        table(&rates_rows)
    ))
}

/// Fig. 6: PCM write rates in MB/s per benchmark for PCM-Only, KG-N, KG-B
/// and KG-W, against the 140 MB/s recommended rate.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn fig6(h: &mut Harness) -> Result<String> {
    let mut rows = vec![vec![
        "Benchmark".to_string(),
        "PCM-Only".to_string(),
        "KG-N".to_string(),
        "KG-B".to_string(),
        "KG-W".to_string(),
        ">140?".to_string(),
    ]];
    let mut over = 0;
    for app in h.all_apps() {
        let mut cells = vec![app.to_string()];
        let mut pcm_only_rate = 0.0;
        for collector in [
            CollectorKind::PcmOnly,
            CollectorKind::KgN,
            CollectorKind::KgB,
            CollectorKind::KgW,
        ] {
            match h.run1_opt(app, collector) {
                Some(r) => {
                    if collector == CollectorKind::PcmOnly {
                        pcm_only_rate = r.pcm_write_rate_mbs;
                    }
                    cells.push(format!("{:.1}", r.pcm_write_rate_mbs));
                }
                None => cells.push("FAIL".into()),
            }
        }
        let flag = pcm_only_rate > 140.0;
        if flag {
            over += 1;
        }
        cells.push(if flag { "YES".into() } else { "".into() });
        rows.push(cells);
    }
    Ok(format!(
        "Fig. 6: PCM write rates in MB/s (recommended max 140 MB/s from a 30-DWPD,\n\
         375 GB prototype; paper: graph apps and two DaCapo exceed it under PCM-Only)\n\n{}\n\
         {over} of {} benchmarks exceed the recommended rate under PCM-Only.\n",
        table(&rows),
        h.all_apps().len(),
    ))
}

/// Fig. 7: PCM writes of the seven Kingsguard configurations for the
/// GraphChi applications, normalized to PCM-Only.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn fig7(h: &mut Harness) -> Result<String> {
    let collectors = [
        CollectorKind::KgN,
        CollectorKind::KgB,
        CollectorKind::KgNLoo,
        CollectorKind::KgBLoo,
        CollectorKind::KgW,
        CollectorKind::KgWMinusLoo,
        CollectorKind::KgWMinusMdo,
    ];
    let mut rows = vec![{
        let mut head = vec!["App".to_string()];
        head.extend(collectors.iter().map(|c| c.name().to_string()));
        head
    }];
    for name in ["pr", "cc", "als"] {
        let spec = workload(name)?;
        let base = h.run1_opt(spec, CollectorKind::PcmOnly);
        let mut cells = vec![name.to_uppercase()];
        for c in collectors {
            cells.push(match (&base, h.run1_opt(spec, c)) {
                (Some(base), Some(r)) => format!("{:.3}", r.pcm_writes_normalized_to(base)),
                _ => "FAIL".into(),
            });
        }
        rows.push(cells);
    }
    Ok(format!(
        "Fig. 7: PCM writes normalized to PCM-Only, GraphChi applications\n\
         (paper: KG-N strong; KG-B ~ KG-N; +LOO helps both; KG-W ~ KG-N+LOO;\n\
         removing LOO from KG-W raises writes 1.5-2.3x; removing MDO ~1.14x)\n\n{}",
        table(&rows)
    ))
}

/// Fig. 8: PCM write rates with the large datasets normalized to the
/// default datasets, for PCM-Only, KG-N and KG-W.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn fig8(h: &mut Harness) -> Result<String> {
    let collectors = [
        CollectorKind::PcmOnly,
        CollectorKind::KgN,
        CollectorKind::KgW,
    ];
    let mut rows = vec![vec![
        "Benchmark".to_string(),
        "PCM-Only".to_string(),
        "KG-N".to_string(),
        "KG-W".to_string(),
    ]];
    let mut write_growth = Vec::new();
    // The 10 M-edge graph runs dominate this figure's runtime; allow
    // time-constrained environments to regenerate the DaCapo/Pjbb part
    // alone (documented in EXPERIMENTS.md when used).
    let skip_graphs = std::env::var_os("HEMU_SKIP_LARGE_GRAPHS").is_some();
    let apps: Vec<_> = h
        .all_apps()
        .into_iter()
        .filter(|a| !(skip_graphs && a.suite == Suite::GraphChi))
        .collect();
    for app in apps {
        let mut cells = vec![format!("{app}")];
        for c in collectors {
            let (Some(small), Some(large)) = (
                h.run1_opt(app, c),
                h.run1_opt(app.with_dataset(DatasetSize::Large), c),
            ) else {
                cells.push("FAIL".into());
                continue;
            };
            if c == CollectorKind::PcmOnly {
                write_growth
                    .push(large.pcm_writes.bytes() as f64 / small.pcm_writes.bytes().max(1) as f64);
            }
            cells.push(ratio(if small.pcm_write_rate_mbs > 0.0 {
                large.pcm_write_rate_mbs / small.pcm_write_rate_mbs
            } else {
                f64::INFINITY
            }));
        }
        rows.push(cells);
    }
    Ok(format!(
        "Fig. 8: PCM write rates with large datasets normalized to default datasets\n\
         (paper: rates stay flat, rise up to 1.5x, or drop up to 80%; raw writes grow\n\
         3.4x on average). Raw PCM-Only write growth here: avg {:.1}x.\n\n{}",
        mean(&write_growth),
        table(&rows)
    ))
}

/// Table III: worst-case PCM lifetime in years across the benchmarks, for
/// single-program and four-program workloads, PCM-Only vs KG-W, across the
/// three endurance prototypes.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn table3(h: &mut Harness) -> Result<String> {
    let mut rows = vec![vec![
        "Workload".to_string(),
        "10M PCM-Only".to_string(),
        "10M KG-W".to_string(),
        "30M PCM-Only".to_string(),
        "30M KG-W".to_string(),
        "50M PCM-Only".to_string(),
        "50M KG-W".to_string(),
    ]];
    for n in [1usize, 4] {
        let mut cells = vec![format!("N={n}")];
        for endurance in ENDURANCE_PROTOTYPES {
            let model = LifetimeModel::paper(endurance);
            for collector in [CollectorKind::PcmOnly, CollectorKind::KgW] {
                let mut worst = f64::INFINITY;
                for app in h.all_apps() {
                    let Some(r) = h.run_opt(app, collector, n, Profile::Emulation) else {
                        continue;
                    };
                    worst = worst.min(model.years(r.pcm_write_rate_mbs * 1e6));
                }
                cells.push(if worst.is_finite() {
                    format!("{worst:.0}")
                } else {
                    "inf".into()
                });
            }
        }
        rows.push(cells);
    }
    Ok(format!(
        "Table III: worst-case PCM lifetime in years (32 GB PCM, 50% wear-levelling;\n\
         paper: N=1 {{10, 31, 52}} PCM-Only / {{18, 54, 90}} KG-W; N=4 {{2, 5, 9}} / {{7, 20, 34}})\n\n{}",
        table(&rows)
    ))
}

/// Ablations of the design choices DESIGN.md calls out: the LLC-size
/// sensitivity behind §V's KG-N result, nursery-size sensitivity, and the
/// two-free-list vs monolithic chunk design of §III.A.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn ablations() -> Result<String> {
    use hemu_core::Experiment;
    use hemu_heap::chunks::ChunkPolicy;
    use hemu_machine::MachineProfile;

    let spec = workload("lu.Fix")?;
    let mut out = String::from("Ablation studies\n");

    // (1) LLC size: the §V mechanism — a large LLC absorbs nursery writes,
    // shrinking KG-N's benefit (81% reported with a 4 MB L3 vs 4-8% with
    // 20 MB).
    out.push_str("\n(1) KG-N benefit vs LLC size (lu.Fix):\n");
    let mut rows = vec![vec![
        "LLC".to_string(),
        "PCM-Only writes".to_string(),
        "KG-N writes".to_string(),
        "KG-N reduction".to_string(),
    ]];
    for llc_mib in [4u64, 8, 20] {
        let profile = MachineProfile::emulation().with_llc(ByteSize::from_mib(llc_mib));
        let base = Experiment::new(spec).profile(profile).run()?;
        let kgn = Experiment::new(spec)
            .profile(profile)
            .collector(CollectorKind::KgN)
            .run()?;
        rows.push(vec![
            format!("{llc_mib} MiB"),
            format!("{}", base.pcm_writes),
            format!("{}", kgn.pcm_writes),
            format!("{:.0}%", kgn.pcm_write_reduction_vs(&base)),
        ]);
    }
    out.push_str(&table(&rows));

    // (2) Nursery size sweep under KG-N (the KG-N → KG-B axis).
    out.push_str("\n(2) Total memory writes vs nursery size (lu.Fix, KG-N):\n");
    let mut rows = vec![vec![
        "Nursery".to_string(),
        "PCM writes".to_string(),
        "Total writes".to_string(),
    ]];
    for nursery_mib in [2u64, 4, 12, 32] {
        let r = Experiment::new(spec)
            .collector(CollectorKind::KgN)
            .nursery(ByteSize::from_mib(nursery_mib))
            .run()?;
        rows.push(vec![
            format!("{nursery_mib} MiB"),
            format!("{}", r.pcm_writes),
            format!("{}", r.total_writes()),
        ]);
    }
    out.push_str(&table(&rows));

    // (1b) §VI.B's isolation analysis: bind the nursery to one socket and
    // everything else to the other (exactly what KG-N does) and watch the
    // two write streams grow separately with multiprogramming. The paper
    // finds nursery writes grow ~30x from 1 to 4 instances while mature
    // writes grow only ~3x.
    out.push_str("\n(1b) Nursery vs mature write growth, 1 -> 4 instances (lu.Fix, KG-N):\n");
    let mut rows = vec![vec![
        "Instances".to_string(),
        "Nursery-side (DRAM) writes".to_string(),
        "Mature-side (PCM) writes".to_string(),
    ]];
    let mut first: Option<(f64, f64)> = None;
    for n in [1usize, 2, 4] {
        let r = Experiment::new(spec)
            .collector(CollectorKind::KgN)
            .instances(n)
            .run()?;
        let (nur, mat) = (r.dram_writes.bytes() as f64, r.pcm_writes.bytes() as f64);
        let (n0, m0) = *first.get_or_insert((nur.max(1.0), mat.max(1.0)));
        rows.push(vec![
            format!("{n}"),
            format!("{} ({:.1}x)", r.dram_writes, nur / n0),
            format!("{} ({:.1}x)", r.pcm_writes, mat / m0),
        ]);
    }
    out.push_str(&table(&rows));

    // (3) Chunk free-list policy: remapping avoided by the two-list design.
    out.push_str("\n(3) Chunk free-list policy (KG-W, lu.Fix):\n");
    let mut rows = vec![vec![
        "Policy".to_string(),
        "PCM writes".to_string(),
        "Virtual time".to_string(),
    ]];
    for (name, policy) in [
        ("two lists", ChunkPolicy::TwoLists),
        ("monolithic", ChunkPolicy::Monolithic),
    ] {
        let r = Experiment::new(spec)
            .collector(CollectorKind::KgW)
            .chunk_policy(policy)
            .run()?;
        rows.push(vec![
            name.to_string(),
            format!("{}", r.pcm_writes),
            format!("{:.4}s", r.elapsed_seconds),
        ]);
    }
    out.push_str(&table(&rows));
    Ok(out)
}

/// Prints the write-rate monitor's time series for one benchmark under
/// one collector — the data behind a Fig. 6-style plot, at sample
/// granularity.
///
/// # Errors
///
/// Propagates experiment failures, and rejects unknown benchmark names.
pub fn series(name: &str, collector: CollectorKind) -> Result<String> {
    use hemu_core::Experiment;
    let spec = workload(name)?;
    let r = Experiment::new(spec)
        .collector(collector)
        .monitor_interval(0.005)
        .run()?;
    let mut rows = vec![vec![
        "t (s)".to_string(),
        "PCM MB/s".to_string(),
        "DRAM MB/s".to_string(),
    ]];
    for s in &r.samples {
        rows.push(vec![
            format!("{:.3}", s.t_seconds),
            format!("{:.1}", s.pcm_write_mbs),
            format!("{:.1}", s.dram_write_mbs),
        ]);
    }
    Ok(format!(
        "Write-rate time series: {name} under {} (avg PCM rate {:.1} MB/s)\n\n{}",
        collector.name(),
        r.pcm_write_rate_mbs,
        table(&rows)
    ))
}

/// GC vs OS page management: PCM writes of representative benchmarks under
/// the write-rationing collectors and under OS-level paging policies,
/// normalized to PCM-Only, followed by the migration activity of each OS
/// run. The paper's thesis is that GC-side write rationing beats OS-level
/// hot/cold page migration because the GC sees object lifetimes before
/// pages get hot — so expect the KG columns well below the OS columns.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn os_baseline(h: &mut Harness, policies: &[OsPolicy]) -> Result<String> {
    let benches = [workload("lusearch")?, workload("avrora")?];
    let mut managers: Vec<Manager> = vec![CollectorKind::KgN.into(), CollectorKind::KgW.into()];
    managers.extend(policies.iter().copied().map(Manager::from));

    let mut header = vec!["Benchmark".to_string(), "PCM-Only".to_string()];
    header.extend(managers.iter().map(|m| m.name().to_string()));
    let mut rows = vec![header];
    for &b in &benches {
        let base = h.run_opt(b, CollectorKind::PcmOnly, 1, Profile::Emulation);
        let mut cells = vec![
            b.to_string(),
            if base.is_some() {
                "1.00".into()
            } else {
                "FAIL".into()
            },
        ];
        for &m in &managers {
            cells.push(match (&base, h.run_opt(b, m, 1, Profile::Emulation)) {
                (Some(base), Some(r)) => {
                    format!("{:.2}", r.pcm_writes_normalized_to(base))
                }
                _ => "FAIL".into(),
            });
        }
        rows.push(cells);
    }

    let tuning = h.os_tuning();
    let mut out = format!(
        "GC vs OS baseline: PCM writes normalized to PCM-Only (lower is better)\n\
         OS tuning: epoch {} lines, budget {} pages/epoch, DRAM {}\n\n{}",
        tuning.epoch_lines,
        tuning.migration_budget,
        tuning
            .dram_limit
            .map_or_else(|| "unlimited".to_string(), |b| b.to_string()),
        table(&rows)
    );

    // Migration activity per OS-managed run. Every migrated page moves one
    // 4 KiB page across the QPI interconnect (64 lines each way charged by
    // the machine), and demotions write PCM.
    let mut mrows = vec![vec![
        "Benchmark".to_string(),
        "Policy".to_string(),
        "Epochs".to_string(),
        "Promoted".to_string(),
        "Demoted".to_string(),
        "Migrated".to_string(),
        "QPI lines".to_string(),
        "Failed".to_string(),
    ]];
    for &b in &benches {
        for &p in policies {
            let Some(r) = h.run_opt(b, p, 1, Profile::Emulation) else {
                continue;
            };
            let Some(os) = r.os_paging else { continue };
            mrows.push(vec![
                b.to_string(),
                os.policy.name().to_string(),
                os.epochs.to_string(),
                os.promotions.to_string(),
                os.demotions.to_string(),
                os.migrated_bytes.to_string(),
                (os.migrated_bytes.bytes() / 64).to_string(),
                os.failed_migrations.to_string(),
            ]);
        }
    }
    if mrows.len() > 1 {
        out.push_str("\nOS page-manager activity (measured iteration):\n\n");
        out.push_str(&table(&mrows));
    }
    Ok(out)
}

/// Write-attribution breakdown (the profiler's headline figure): for two
/// representative benchmarks, every PCM controller write-back is attributed
/// to its cause (mutator store, nursery evacuation, mature copy, metadata,
/// OS migration, wear remap) and its heap space, across the collectors and
/// the OS paging policies. The paper's motivating observation drops out of
/// table (a): under generational collectors the nursery/mutator write
/// stream dominates PCM writes — exactly the stream write rationing (KG-N,
/// KG-W) moves to DRAM, and the stream OS-level paging cannot see early
/// enough.
///
/// Runs its (profiled) experiments directly rather than through the
/// harness, so the shared run cache never mixes profiled and unprofiled
/// reports.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn write_breakdown(os_tuning: OsPagingConfig, policies: &[OsPolicy]) -> Result<String> {
    use hemu_core::Experiment;
    use hemu_types::{SpaceTag, WriteCause};

    let benches = [workload("lusearch")?, workload("avrora")?];
    let mut managers: Vec<Manager> = vec![
        CollectorKind::PcmOnly.into(),
        CollectorKind::KgN.into(),
        CollectorKind::KgW.into(),
    ];
    managers.extend(policies.iter().copied().map(Manager::from));

    let mut head = vec![
        "Benchmark".to_string(),
        "Manager".to_string(),
        "PCM writes".to_string(),
    ];
    head.extend(WriteCause::ALL.iter().map(|c| c.name().to_string()));
    let mut cause_rows = vec![head];
    let mut head = vec![
        "Benchmark".to_string(),
        "Manager".to_string(),
        "PCM writes".to_string(),
    ];
    head.extend(SpaceTag::ALL.iter().map(|s| s.name().to_string()));
    let mut space_rows = vec![head];

    let mut young_share: Vec<(&'static str, f64)> = Vec::new();
    for &b in &benches {
        for &m in &managers {
            let mut e = Experiment::new(b).profiling();
            match m {
                Manager::Gc(c) => e = e.collector(c),
                Manager::Os(p) => {
                    let mut cfg = os_tuning;
                    cfg.policy = p;
                    e = e.os_paging(cfg);
                }
            }
            let arts = e.run_full()?;
            let Some(prov) = arts.report.provenance.as_ref() else {
                continue;
            };
            let pct = |lines: u64| 100.0 * lines as f64 / prov.pcm_total().max(1) as f64;

            let mut cells = vec![
                b.to_string(),
                m.name().to_string(),
                format!("{}", arts.report.pcm_writes),
            ];
            cells.extend(
                WriteCause::ALL
                    .iter()
                    .map(|&c| format!("{:.1}%", pct(prov.pcm_cause(c)))),
            );
            cause_rows.push(cells);

            let mut cells = vec![
                b.to_string(),
                m.name().to_string(),
                format!("{}", arts.report.pcm_writes),
            ];
            cells.extend(
                SpaceTag::ALL
                    .iter()
                    .map(|&s| format!("{:.1}%", pct(prov.pcm_space(s)))),
            );
            space_rows.push(cells);

            young_share.push((
                m.name(),
                pct(prov.pcm_cause(WriteCause::Mutator))
                    + pct(prov.pcm_cause(WriteCause::NurseryEvac)),
            ));
        }
    }

    let share_of = |name: &str| {
        let xs: Vec<f64> = young_share
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .collect();
        mean(&xs)
    };
    Ok(format!(
        "Write-attribution breakdown: percent of PCM controller write-backs by cause\n\
         and by heap space (profiler attribution; every write-back carries a tag)\n\n\
         (a) by cause\n{}\n(b) by heap space\n{}\n\
         Mutator+nursery-evac share of PCM writes: {:.0}% under PCM-Only vs {:.0}% under\n\
         KG-W — the dominant young-generation write stream is what write rationing\n\
         moves off PCM, and what an OS pager only sees after the page is already hot.\n",
        table(&cause_rows),
        table(&space_rows),
        share_of("PCM-Only"),
        share_of("KG-W"),
    ))
}

/// `smoke`: a deliberately tiny sweep — three small DaCapo benchmarks
/// crossed with PCM-Only and KG-N on the emulation profile (6 runs) — used
/// by the crash-safety CI smoke (`--chaos-kill-after` + `--resume`) and as
/// a fast end-to-end sanity target. Runs through the harness, so it
/// exercises the full plan/execute/commit/journal/export machinery at a
/// cost of seconds rather than minutes.
///
/// # Errors
///
/// Propagates workload registry lookup failures; individual run failures
/// render as `FAIL` cells instead.
pub fn smoke(h: &mut Harness) -> Result<String> {
    let apps = ["avrora", "fop", "luindex"];
    let mut rows = vec![vec![
        "Benchmark".to_string(),
        "PCM-Only writes".to_string(),
        "KG-N writes".to_string(),
        "KG-N reduction".to_string(),
    ]];
    for name in apps {
        let spec = workload(name)?;
        let base = h.run_opt(spec, CollectorKind::PcmOnly, 1, Profile::Emulation);
        let kgn = h.run_opt(spec, CollectorKind::KgN, 1, Profile::Emulation);
        let cell = |r: &Option<hemu_core::RunReport>| {
            r.as_ref()
                .map_or_else(|| "FAIL".to_string(), |r| r.pcm_writes.to_string())
        };
        let reduction = match (&base, &kgn) {
            (Some(b), Some(k)) => format!("{:.0}%", k.pcm_write_reduction_vs(b)),
            _ => "FAIL".to_string(),
        };
        rows.push(vec![name.to_string(), cell(&base), cell(&kgn), reduction]);
    }
    Ok(format!(
        "Smoke sweep: PCM writes, PCM-Only vs KG-N (tiny CI/crash-safety target)\n\n{}",
        table(&rows)
    ))
}

/// Consolidation density sweep: N tenants from `mix` co-scheduled onto the
/// shared emulated machine, N doubling from 1 (the normalization baseline)
/// up to `max_tenants`. The figure plots normalized PCM writes *per
/// tenant* against density: flat while the tenants' combined hot sets fit
/// the shared LLC, then super-linear once the LLC saturates and every
/// tenant's evictions start landing on the PCM controller.
///
/// # Errors
///
/// Propagates experiment failures only when *every* density fails; a
/// partially failed sweep renders `FAIL` rows.
pub fn consolidation(h: &mut Harness, mix: Mix, slice: u64, max_tenants: usize) -> Result<String> {
    let mut densities = Vec::new();
    let mut n = 1usize;
    while n < max_tenants {
        densities.push(n);
        n *= 2;
    }
    densities.push(max_tenants.max(1));
    densities.dedup();

    let mut rows = vec![vec![
        "Tenants".to_string(),
        "PCM writes".to_string(),
        "PCM lines/tenant".to_string(),
        "x 1 tenant".to_string(),
        "Unattributed".to_string(),
    ]];
    let mut baseline: Option<f64> = None;
    let mut any_ok = false;
    for &tenants in &densities {
        let report = h.run_consolidated_opt(
            mix,
            tenants,
            slice,
            CollectorKind::PcmOnly,
            Profile::Emulation,
        );
        match report.as_ref().and_then(|r| r.consolidation.as_ref()) {
            Some(c) => {
                any_ok = true;
                let per_tenant = c.pcm_lines_per_tenant();
                if baseline.is_none() && per_tenant > 0.0 {
                    baseline = Some(per_tenant);
                }
                let norm = baseline
                    .map(|b| ratio(per_tenant / b))
                    .unwrap_or_else(|| "-".into());
                rows.push(vec![
                    tenants.to_string(),
                    report
                        .as_ref()
                        .map(|r| r.pcm_writes.to_string())
                        .unwrap_or_default(),
                    format!("{per_tenant:.0}"),
                    norm,
                    (c.unattributed_pcm_lines + c.unattributed_dram_lines).to_string(),
                ]);
            }
            None => rows.push(vec![
                tenants.to_string(),
                "FAIL".into(),
                "FAIL".into(),
                "FAIL".into(),
                "-".into(),
            ]),
        }
    }
    if !any_ok {
        return Err(hemu_types::HemuError::InvalidConfig(format!(
            "every density of the {mix} consolidation sweep failed"
        )));
    }
    Ok(format!(
        "Consolidation: normalized PCM writes per tenant vs density ({mix} mix,\n\
         slice {slice}, PCM-Only; expect ~flat while the combined hot set fits the\n\
         shared LLC, then super-linear growth once it saturates)\n\n{}",
        table(&rows)
    ))
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_needs_no_experiments() {
        let t = table1();
        assert!(t.contains("KG-W-MDO"));
        assert!(t.contains("Nursery"));
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
