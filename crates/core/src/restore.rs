//! Rebuilding a [`RunReport`] from its exported JSON — the read half of
//! crash-safe sweep resume.
//!
//! The export side ([`crate::report`]) renders every field in a fixed
//! order with deterministic formatting, so restoring is strict: this
//! module parses the per-run JSON artifact back into a `RunReport`,
//! re-serializes it, and only returns the report when the round-trip
//! reproduces the input byte-for-byte. Anything else — unknown schema,
//! missing field, formatting drift between binary versions — returns
//! `None`, and the resuming harness simply re-executes the run. Because
//! runs are deterministic, re-execution yields identical artifacts, so
//! the round-trip gate turns any conceivable parser bug into wasted work
//! rather than silently divergent output.

use crate::monitor::RateSample;
use crate::report::{
    ConsolidationSummary, EnduranceSummary, ProvenanceSummary, RunReport, TenantShare, WearSummary,
};
use hemu_heap::GcStats;
use hemu_machine::MachineStats;
use hemu_malloc::NativeStats;
use hemu_obs::{BucketCount, HistogramSnapshot, JsonValue, ToJson};
use hemu_os::OsStats;
use hemu_types::{ByteSize, OsPolicy, SpaceTag, WriteCause};

/// Parses the JSON text of a per-run report artifact back into a
/// [`RunReport`], verifying the round-trip: the restored report must
/// re-serialize to exactly the input (modulo one optional trailing
/// newline). Returns `None` when the text is not a faithful export of
/// this binary's report schema; the caller re-executes the run instead.
pub fn restore_run_report(text: &str) -> Option<RunReport> {
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let v = JsonValue::parse(trimmed).ok()?;
    let report = report_from_value(&v)?;
    if report.to_json() == trimmed {
        Some(report)
    } else {
        None
    }
}

fn get_u64(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn get_f64(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key)?.as_f64()
}

fn get_bytes(v: &JsonValue, key: &str) -> Option<ByteSize> {
    Some(ByteSize::new(get_u64(v, key)?))
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Option<&'a str> {
    v.get(key)?.as_str()
}

/// Applies `f` to an optional field: `null` restores to `None`, a present
/// value must parse, a *missing* key is a schema mismatch (fails).
fn optional<T>(
    v: &JsonValue,
    key: &str,
    f: impl FnOnce(&JsonValue) -> Option<T>,
) -> Option<Option<T>> {
    let field = v.get(key)?;
    if field.is_null() {
        Some(None)
    } else {
        Some(Some(f(field)?))
    }
}

fn report_from_value(v: &JsonValue) -> Option<RunReport> {
    Some(RunReport {
        workload: get_str(v, "workload")?.to_string(),
        collector: get_str(v, "collector")?.to_string(),
        profile: get_str(v, "profile")?.to_string(),
        instances: usize::try_from(get_u64(v, "instances")?).ok()?,
        pcm_writes: get_bytes(v, "pcm_writes")?,
        pcm_reads: get_bytes(v, "pcm_reads")?,
        dram_writes: get_bytes(v, "dram_writes")?,
        dram_reads: get_bytes(v, "dram_reads")?,
        elapsed_seconds: get_f64(v, "elapsed_seconds")?,
        pcm_write_rate_mbs: get_f64(v, "pcm_write_rate_mbs")?,
        allocated: get_bytes(v, "allocated")?,
        gc: optional(v, "gc", gc_from_value)?,
        native: optional(v, "native", native_from_value)?,
        machine: machine_from_value(v.get("machine")?)?,
        samples: v
            .get("samples")?
            .as_array()?
            .iter()
            .map(sample_from_value)
            .collect::<Option<Vec<_>>>()?,
        wear: optional(v, "wear", wear_from_value)?,
        endurance: optional(v, "endurance", endurance_from_value)?,
        gc_pause_histogram: optional(v, "gc_pause_histogram", histogram_from_value)?,
        os_paging: optional(v, "os_paging", os_from_value)?,
        provenance: optional(v, "provenance", provenance_from_value)?,
        consolidation: optional(v, "consolidation", consolidation_from_value)?,
    })
}

fn gc_from_value(v: &JsonValue) -> Option<GcStats> {
    Some(GcStats {
        minor_gcs: get_u64(v, "minor_gcs")?,
        observer_gcs: get_u64(v, "observer_gcs")?,
        full_gcs: get_u64(v, "full_gcs")?,
        pause_cycles: get_u64(v, "pause_cycles")?,
        allocated_bytes: get_u64(v, "allocated_bytes")?,
        allocated_objects: get_u64(v, "allocated_objects")?,
        large_allocated_bytes: get_u64(v, "large_allocated_bytes")?,
        loo_nursery_large: get_u64(v, "loo_nursery_large")?,
        copied_minor_bytes: get_u64(v, "copied_minor_bytes")?,
        copied_observer_bytes: get_u64(v, "copied_observer_bytes")?,
        promoted_dram_objects: get_u64(v, "promoted_dram_objects")?,
        promoted_pcm_objects: get_u64(v, "promoted_pcm_objects")?,
        large_rescued: get_u64(v, "large_rescued")?,
        mark_writes: get_u64(v, "mark_writes")?,
        remset_entries: get_u64(v, "remset_entries")?,
        monitor_marks: get_u64(v, "monitor_marks")?,
    })
}

fn native_from_value(v: &JsonValue) -> Option<NativeStats> {
    Some(NativeStats {
        allocated_bytes: get_u64(v, "allocated_bytes")?,
        allocated_objects: get_u64(v, "allocated_objects")?,
        freed_bytes: get_u64(v, "freed_bytes")?,
        in_use: get_u64(v, "in_use")?,
        peak: get_u64(v, "peak")?,
    })
}

fn machine_from_value(v: &JsonValue) -> Option<MachineStats> {
    Some(MachineStats {
        line_accesses: get_u64(v, "line_accesses")?,
        local_fills: get_u64(v, "local_fills")?,
        remote_fills: get_u64(v, "remote_fills")?,
    })
}

fn sample_from_value(v: &JsonValue) -> Option<RateSample> {
    Some(RateSample {
        t_seconds: get_f64(v, "t_seconds")?,
        pcm_write_mbs: get_f64(v, "pcm_write_mbs")?,
        dram_write_mbs: get_f64(v, "dram_write_mbs")?,
    })
}

fn wear_from_value(v: &JsonValue) -> Option<WearSummary> {
    Some(WearSummary {
        pcm_lines_touched: get_u64(v, "pcm_lines_touched")?,
        max_line_writes: get_u64(v, "max_line_writes")?,
        levelling_efficiency: get_f64(v, "levelling_efficiency")?,
    })
}

fn endurance_from_value(v: &JsonValue) -> Option<EnduranceSummary> {
    Some(EnduranceSummary {
        budget_writes: get_u64(v, "budget_writes")?,
        failed_lines: get_u64(v, "failed_lines")?,
        retired_pages: get_u64(v, "retired_pages")?,
        remapped_pages: get_u64(v, "remapped_pages")?,
        effective_capacity: get_bytes(v, "effective_capacity")?,
    })
}

fn histogram_from_value(v: &JsonValue) -> Option<HistogramSnapshot> {
    // mean/p50/p95/p99 are derived from the stored fields at serialization
    // time; parsing skips them and the round-trip gate re-derives them.
    Some(HistogramSnapshot {
        count: get_u64(v, "count")?,
        sum: get_u64(v, "sum")?,
        min: get_u64(v, "min")?,
        max: get_u64(v, "max")?,
        buckets: v
            .get("buckets")?
            .as_array()?
            .iter()
            .map(|b| {
                Some(BucketCount {
                    lo: get_u64(b, "lo")?,
                    hi: get_u64(b, "hi")?,
                    count: get_u64(b, "count")?,
                })
            })
            .collect::<Option<Vec<_>>>()?,
    })
}

fn os_from_value(v: &JsonValue) -> Option<OsStats> {
    let policy_name = get_str(v, "policy")?;
    let policy = OsPolicy::ALL
        .into_iter()
        .find(|p| p.name() == policy_name)?;
    Some(OsStats {
        policy,
        epochs: get_u64(v, "epochs")?,
        migrations: get_u64(v, "migrations")?,
        promotions: get_u64(v, "promotions")?,
        demotions: get_u64(v, "demotions")?,
        migrated_bytes: get_bytes(v, "migrated_bytes")?,
        failed_migrations: get_u64(v, "failed_migrations")?,
    })
}

fn tag_counts<const N: usize>(v: &JsonValue, names: [&str; N]) -> Option<[u64; N]> {
    let mut out = [0u64; N];
    for (slot, name) in out.iter_mut().zip(names) {
        *slot = get_u64(v, name)?;
    }
    Some(out)
}

fn provenance_from_value(v: &JsonValue) -> Option<ProvenanceSummary> {
    let cause_names = WriteCause::ALL.map(WriteCause::name);
    let space_names = SpaceTag::ALL.map(SpaceTag::name);
    let pcm = v.get("pcm")?;
    let dram = v.get("dram")?;
    Some(ProvenanceSummary {
        pcm_by_cause: tag_counts(pcm.get("by_cause")?, cause_names)?,
        pcm_by_space: tag_counts(pcm.get("by_space")?, space_names)?,
        dram_by_cause: tag_counts(dram.get("by_cause")?, cause_names)?,
        dram_by_space: tag_counts(dram.get("by_space")?, space_names)?,
        spans_recorded: get_u64(v, "spans_recorded")?,
        spans_dropped: get_u64(v, "spans_dropped")?,
    })
}

fn tenant_share_from_value(v: &JsonValue) -> Option<TenantShare> {
    Some(TenantShare {
        id: usize::try_from(get_u64(v, "id")?).ok()?,
        workload: get_str(v, "workload")?.to_string(),
        pcm_write_lines: get_u64(v, "pcm_write_lines")?,
        dram_write_lines: get_u64(v, "dram_write_lines")?,
        minor_gcs: get_u64(v, "minor_gcs")?,
        full_gcs: get_u64(v, "full_gcs")?,
        pause_cycles: get_u64(v, "pause_cycles")?,
        allocated_bytes: get_u64(v, "allocated_bytes")?,
        page_faults: get_u64(v, "page_faults")?,
    })
}

fn consolidation_from_value(v: &JsonValue) -> Option<ConsolidationSummary> {
    Some(ConsolidationSummary {
        mix: get_str(v, "mix")?.to_string(),
        tenants: usize::try_from(get_u64(v, "tenants")?).ok()?,
        contexts: usize::try_from(get_u64(v, "contexts")?).ok()?,
        slice: get_u64(v, "slice")?,
        unattributed_pcm_lines: get_u64(v, "unattributed_pcm_lines")?,
        unattributed_dram_lines: get_u64(v, "unattributed_dram_lines")?,
        per_tenant: v
            .get("per_tenant")?
            .as_array()?
            .iter()
            .map(tenant_share_from_value)
            .collect::<Option<Vec<_>>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report with every optional block populated, so the round-trip
    /// covers all nested schemas.
    fn full_report() -> RunReport {
        let gc_pause_histogram = {
            let mut h = hemu_obs::Histogram::default();
            for v in [120, 450, 451, 9000] {
                h.observe(v);
            }
            Some(h.snapshot())
        };
        let mut provenance = ProvenanceSummary::default();
        provenance.pcm_by_cause[WriteCause::Mutator as usize] = 11;
        provenance.pcm_by_space[SpaceTag::Nursery as usize] = 7;
        provenance.dram_by_cause[WriteCause::Mutator as usize] = 4;
        provenance.dram_by_space[SpaceTag::MatureDram as usize] = 4;
        provenance.spans_recorded = 32;
        RunReport {
            workload: "pr.cpp.large".to_string(),
            collector: "KG-W".to_string(),
            profile: "emulation".to_string(),
            instances: 2,
            pcm_writes: ByteSize::new(123_456_789),
            pcm_reads: ByteSize::new(987),
            dram_writes: ByteSize::new(55),
            dram_reads: ByteSize::new(0),
            elapsed_seconds: 12.75,
            pcm_write_rate_mbs: 9.68288,
            allocated: ByteSize::from_kib(8192),
            gc: Some(GcStats {
                minor_gcs: 3,
                observer_gcs: 1,
                full_gcs: 1,
                pause_cycles: 123_456,
                allocated_bytes: 1 << 30,
                allocated_objects: 1_000_000,
                large_allocated_bytes: 1 << 20,
                loo_nursery_large: 2,
                copied_minor_bytes: 4096,
                copied_observer_bytes: 2048,
                promoted_dram_objects: 17,
                promoted_pcm_objects: 13,
                large_rescued: 1,
                mark_writes: 99,
                remset_entries: 7,
                monitor_marks: 21,
            }),
            native: Some(NativeStats {
                allocated_bytes: 1024,
                allocated_objects: 10,
                freed_bytes: 512,
                in_use: 512,
                peak: 768,
            }),
            machine: MachineStats {
                line_accesses: 1 << 40,
                local_fills: 5,
                remote_fills: 6,
            },
            samples: vec![
                RateSample {
                    t_seconds: 0.5,
                    pcm_write_mbs: 1.25,
                    dram_write_mbs: 0.0,
                },
                RateSample {
                    t_seconds: 1.0,
                    pcm_write_mbs: 2.5,
                    dram_write_mbs: 0.125,
                },
            ],
            wear: Some(WearSummary {
                pcm_lines_touched: 42,
                max_line_writes: 9,
                levelling_efficiency: 0.5,
            }),
            endurance: Some(EnduranceSummary {
                budget_writes: 10_000_000,
                failed_lines: 3,
                retired_pages: 1,
                remapped_pages: 1,
                effective_capacity: ByteSize::from_kib(1 << 20),
            }),
            gc_pause_histogram,
            os_paging: Some(OsStats {
                policy: OsPolicy::HotCold,
                epochs: 4,
                migrations: 8,
                promotions: 5,
                demotions: 3,
                migrated_bytes: ByteSize::from_kib(32),
                failed_migrations: 1,
            }),
            provenance: Some(provenance),
            consolidation: Some(ConsolidationSummary {
                mix: "mixed".to_string(),
                tenants: 2,
                contexts: 16,
                slice: 64,
                unattributed_pcm_lines: 0,
                unattributed_dram_lines: 0,
                per_tenant: vec![
                    TenantShare {
                        id: 0,
                        workload: "avrora".to_string(),
                        pcm_write_lines: 1_000,
                        dram_write_lines: 2_000,
                        minor_gcs: 3,
                        full_gcs: 1,
                        pause_cycles: 999,
                        allocated_bytes: 1 << 24,
                        page_faults: 512,
                    },
                    TenantShare {
                        id: 1,
                        workload: "pjbb".to_string(),
                        pcm_write_lines: 929_012,
                        dram_write_lines: 55,
                        minor_gcs: 0,
                        full_gcs: 0,
                        pause_cycles: 0,
                        allocated_bytes: 0,
                        page_faults: 7,
                    },
                ],
            }),
        }
    }

    /// A minimal report: every optional block absent.
    fn sparse_report() -> RunReport {
        RunReport {
            gc: None,
            native: None,
            samples: Vec::new(),
            wear: None,
            endurance: None,
            gc_pause_histogram: None,
            os_paging: None,
            provenance: None,
            consolidation: None,
            ..full_report()
        }
    }

    #[test]
    fn fully_populated_report_round_trips() {
        let original = full_report();
        let json = original.to_json();
        let restored = restore_run_report(&json).expect("restore");
        assert_eq!(restored.to_json(), json);
        // Spot-check a few deep fields survived semantically, not just
        // textually.
        assert_eq!(restored.gc.expect("gc").monitor_marks, 21);
        assert_eq!(restored.os_paging.expect("os").policy, OsPolicy::HotCold);
        assert_eq!(
            restored
                .provenance
                .expect("prov")
                .pcm_cause(WriteCause::Mutator),
            11
        );
        assert_eq!(restored.machine.line_accesses, 1 << 40);
        let c = restored.consolidation.expect("consolidation");
        assert_eq!(c.per_tenant.len(), 2);
        assert_eq!(c.per_tenant[1].pcm_write_lines, 929_012);
        assert_eq!(c.attributed_pcm_lines(), 930_012);
    }

    #[test]
    fn sparse_report_round_trips() {
        let json = sparse_report().to_json();
        let restored = restore_run_report(&json).expect("restore");
        assert_eq!(restored.to_json(), json);
        assert!(restored.gc.is_none());
        assert!(restored.samples.is_empty());
    }

    #[test]
    fn trailing_newline_is_accepted() {
        let mut json = sparse_report().to_json();
        json.push('\n');
        assert!(restore_run_report(&json).is_some());
    }

    #[test]
    fn tampered_or_foreign_text_is_rejected() {
        let json = full_report().to_json();
        // Truncated file (torn write that bypassed the atomic committer).
        assert!(restore_run_report(&json[..json.len() - 2]).is_none());
        // Valid JSON, wrong schema.
        assert!(restore_run_report(r#"{"workload":"x"}"#).is_none());
        assert!(restore_run_report("not json at all").is_none());
        // Unknown OS policy name.
        let bad = json.replace("OS-hot-cold", "OS-mystery");
        assert!(restore_run_report(&bad).is_none());
    }

    #[test]
    fn reformatted_but_equivalent_json_is_rejected() {
        // Same data, different whitespace: the round-trip gate refuses,
        // forcing deterministic re-execution instead of trusting the
        // restore path to reproduce formatting.
        let json = sparse_report().to_json();
        let spaced = json.replacen("\":", "\": ", 1);
        assert!(restore_run_report(&spaced).is_none());
    }
}
