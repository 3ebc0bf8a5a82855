//! Attribution completeness: per-tenant write counters must sum *exactly*
//! to the global controller counters in every mix run's report — the
//! tenant analog of the provenance-completeness invariant.

use hemu_core::{Experiment, RunReport};
use hemu_obs::ToJson;
use hemu_obs::Tracer;
use hemu_types::CACHE_LINE;
use hemu_workloads::Mix;

fn assert_complete(report: &RunReport) {
    let c = report
        .consolidation
        .as_ref()
        .expect("consolidated runs carry a consolidation block");
    let line = CACHE_LINE as u64;
    assert_eq!(
        c.attributed_pcm_lines() + c.unattributed_pcm_lines,
        report.pcm_writes.bytes() / line,
        "per-tenant PCM lines + unattributed must equal the controller counter"
    );
    assert_eq!(
        c.attributed_dram_lines() + c.unattributed_dram_lines,
        report.dram_writes.bytes() / line,
        "per-tenant DRAM lines + unattributed must equal the controller counter"
    );
    // Every frame written during a well-formed consolidation run was
    // demand-faulted by some tenant, so nothing is unattributed and the
    // per-tenant sum is *exact* — the invariant the CI smoke greps for.
    assert_eq!(c.unattributed_pcm_lines, 0, "no orphan PCM writes");
    assert_eq!(c.unattributed_dram_lines, 0, "no orphan DRAM writes");
    // Shares are real, not a degenerate single-tenant attribution.
    let active = c
        .per_tenant
        .iter()
        .filter(|t| t.pcm_write_lines > 0)
        .count();
    assert!(active >= 2, "at least two tenants wrote PCM, got {active}");
}

#[test]
fn per_tenant_writes_sum_to_global_counters() {
    let report = Experiment::mix(Mix::Mixed, 3)
        .slice(64)
        .run()
        .expect("3-tenant mixed run");
    assert_complete(&report);
    // The measured iteration actually wrote memory.
    assert!(report.pcm_writes.bytes() > 0);
}

/// Attribution is exact whether or not the run is traced, and tracing
/// leaves the report byte-identical.
#[test]
fn attribution_is_complete_under_oversubscription_traced_or_not() {
    let profile = hemu_machine::MachineProfile::emulation().with_contexts(2);
    let run = Experiment::mix(Mix::Dacapo, 5)
        .profile(profile)
        .slice(64)
        .without_warmup();
    let plain = run.run().expect("oversubscribed run");
    let traced = run
        .run_traced(Tracer::bounded(1 << 10))
        .expect("oversubscribed traced run")
        .report;
    assert_complete(&plain);
    assert_complete(&traced);
    assert_eq!(plain.to_json(), traced.to_json());
}

#[test]
fn consolidated_reports_are_deterministic_and_restorable() {
    let run = || {
        Experiment::mix(Mix::Dacapo, 2)
            .slice(64)
            .without_warmup()
            .run()
            .expect("2-tenant run")
            .to_json()
    };
    let a = run();
    assert_eq!(a, run(), "same config, byte-identical report");
    // The consolidation block survives the strict restore round-trip.
    let restored = hemu_core::restore_run_report(&a).expect("restores");
    assert_eq!(restored.to_json(), a);
    assert!(restored.consolidation.is_some());
}
