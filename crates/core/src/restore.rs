//! Rebuilding a [`RunReport`] from its exported JSON — the read half of
//! crash-safe sweep resume.
//!
//! The export side ([`crate::report`]) renders every field in a fixed
//! order with deterministic formatting, so restoring is strict: this
//! module parses the per-run JSON artifact back into a `RunReport`
//! through its [`FromJson`] reader, re-serializes it, and only returns the
//! report when the round-trip reproduces the input byte-for-byte.
//! Anything else — unknown schema, missing field, formatting drift between
//! binary versions — returns `None`, and the resuming harness simply
//! re-executes the run. Because runs are deterministic, re-execution
//! yields identical artifacts, so the round-trip gate turns any
//! conceivable parser bug into wasted work rather than silently divergent
//! output.

use crate::report::RunReport;
use hemu_obs::{FromJson, JsonValue, ToJson};

/// Parses the JSON text of a per-run report artifact back into a
/// [`RunReport`], verifying the round-trip: the restored report must
/// re-serialize to exactly the input (modulo one optional trailing
/// newline). Returns `None` when the text is not a faithful export of
/// this binary's report schema; the caller re-executes the run instead.
pub fn restore_run_report(text: &str) -> Option<RunReport> {
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let report = RunReport::from_json(&JsonValue::parse(trimmed).ok()?)?;
    if report.to_json() == trimmed {
        Some(report)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::RateSample;
    use crate::report::{
        ConsolidationSummary, EnduranceSummary, ProvenanceSummary, TenantShare, WearSummary,
    };
    use hemu_heap::GcStats;
    use hemu_machine::MachineStats;
    use hemu_malloc::NativeStats;
    use hemu_os::OsStats;
    use hemu_types::{ByteSize, OsPolicy, SpaceTag, WriteCause};

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

    /// Byte ranges of every object member (`"key":value`) of compact JSON,
    /// at every depth, each widened by one adjacent comma so that cutting
    /// it out leaves valid JSON.
    fn member_spans(json: &str) -> Vec<(String, std::ops::Range<usize>)> {
        let bytes = json.as_bytes();
        let mut spans = Vec::new();
        // Open containers: (is an object, start of its current element).
        let mut open: Vec<(bool, usize)> = Vec::new();
        let (mut in_string, mut escaped) = (false, false);
        for (i, &b) in bytes.iter().enumerate() {
            if in_string {
                match b {
                    _ if escaped => escaped = false,
                    b'\\' => escaped = true,
                    b'"' => in_string = false,
                    _ => {}
                }
                continue;
            }
            match b {
                b'"' => in_string = true,
                b'{' | b'[' => open.push((b == b'{', i + 1)),
                b',' | b'}' | b']' => {
                    let (is_object, start) = open.pop().expect("balanced JSON");
                    if is_object && i > start {
                        let key = json[start + 1..].split('"').next().expect("key");
                        let span = if b == b',' {
                            start..i + 1
                        } else if bytes[start - 1] == b',' {
                            start - 1..i
                        } else {
                            start..i
                        };
                        spans.push((key.to_string(), span));
                    }
                    if b == b',' {
                        open.push((is_object, i + 1));
                    }
                }
                _ => {}
            }
        }
        spans
    }

    fn count_members(v: &JsonValue) -> usize {
        match v {
            JsonValue::Object(m) => m.len() + m.values().map(count_members).sum::<usize>(),
            JsonValue::Array(a) => a.iter().map(count_members).sum(),
            _ => 0,
        }
    }

    #[test]
    fn a_missing_member_fails_at_every_depth() {
        // Written but never read: the round-trip gate alone catches their
        // loss, because the writer derives them again.
        const HISTOGRAM_DERIVED: [&str; 4] = ["mean", "p50", "p95", "p99"];
        let json = full_report().to_json();
        let spans = member_spans(&json);
        let parsed = JsonValue::parse(&json).expect("parse");
        assert_eq!(spans.len(), count_members(&parsed));
        for (key, span) in spans {
            let pruned = format!("{}{}", &json[..span.start], &json[span.end..]);
            let value = JsonValue::parse(&pruned)
                .unwrap_or_else(|e| panic!("cutting {key:?} broke the JSON: {e}"));
            assert!(
                restore_run_report(&pruned).is_none(),
                "restored without {key:?}"
            );
            // The gate would also refuse a reader that defaulted the key,
            // so the reader itself must fail too.
            if !HISTOGRAM_DERIVED.contains(&key.as_str()) {
                assert!(
                    RunReport::from_json(&value).is_none(),
                    "read without {key:?}"
                );
            }
        }
    }
}
