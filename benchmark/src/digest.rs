//! `sim_digest`: FNV-1a over simulated statistics, field by field.
//!
//! The digest hashes the numbers, not the exported JSON, so a change that
//! adds a report block leaves it alone while any changed count, byte total
//! or virtual time changes it. A speed-only change must keep every digest.

use hemu_cache::CacheStats;
use hemu_core::RunReport;
use hemu_machine::MachineStats;
use hemu_obs::fnv1a64;

/// Expected `sim_digest` per (workload, seed), recorded from this
/// benchmark's own output. Any other seed is checked for determinism and
/// round trips only.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("kernel", 42, 0xbb61_7ad9_0474_8842),
    ("dacapo", 42, 0xdeff_3ded_96fe_6e94),
    ("graphchi", 42, 0x7f61_3922_016f_1b86),
    ("multiprog", 42, 0x96af_2e54_8fba_bdb1),
    ("kernel", 7, 0xb950_e8bc_1caf_9da1),
    ("dacapo", 7, 0x66fd_3e34_5c5c_7c7e),
    ("graphchi", 7, 0x54d9_2f81_9b1f_a7a6),
    ("multiprog", 7, 0x6cbe_ec50_c17c_426a),
];

/// The recorded digest for `workload` at `seed`, if one is stored.
pub fn expected(workload: &str, seed: u64) -> Option<u64> {
    EXPECTED
        .iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
        .map(|&(_, _, d)| d)
}

/// FNV-1a over the little-endian bytes of `fields`. Per-run digests are
/// folded into a workload's digest the same way, in run order.
pub fn digest(fields: &[u64]) -> u64 {
    let bytes: Vec<u8> = fields.iter().flat_map(|f| f.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// Every simulated statistic of a run report: controller traffic, virtual
/// time, machine counters, allocation, and each GC, native-heap and OS
/// paging counter. An absent block contributes a 0 marker, a present one a
/// 1 followed by its fields, so a block cannot vanish unnoticed.
pub fn report_fields(r: &RunReport) -> Vec<u64> {
    let mut f = vec![
        r.pcm_reads.bytes(),
        r.pcm_writes.bytes(),
        r.dram_reads.bytes(),
        r.dram_writes.bytes(),
        r.elapsed_seconds.to_bits(),
        r.machine.line_accesses,
        r.machine.local_fills,
        r.machine.remote_fills,
        r.allocated.bytes(),
    ];
    match &r.gc {
        None => f.push(0),
        Some(g) => f.extend([
            1,
            g.minor_gcs,
            g.observer_gcs,
            g.full_gcs,
            g.pause_cycles,
            g.allocated_bytes,
            g.allocated_objects,
            g.large_allocated_bytes,
            g.loo_nursery_large,
            g.copied_minor_bytes,
            g.copied_observer_bytes,
            g.promoted_dram_objects,
            g.promoted_pcm_objects,
            g.large_rescued,
            g.mark_writes,
            g.remset_entries,
            g.monitor_marks,
        ]),
    }
    match &r.native {
        None => f.push(0),
        Some(n) => f.extend([
            1,
            n.allocated_bytes,
            n.allocated_objects,
            n.freed_bytes,
            n.in_use,
            n.peak,
        ]),
    }
    match &r.os_paging {
        None => f.push(0),
        Some(o) => f.extend([
            1,
            fnv1a64(o.policy.name().as_bytes()),
            o.epochs,
            o.migrations,
            o.promotions,
            o.demotions,
            o.migrated_bytes.bytes(),
            o.failed_migrations,
        ]),
    }
    f
}

/// The kernel's simulated statistics: machine counters and LLC counters.
pub fn kernel_fields(stats: &MachineStats, llc: &CacheStats) -> Vec<u64> {
    vec![
        stats.line_accesses,
        stats.local_fills,
        stats.remote_fills,
        llc.hits,
        llc.misses,
        llc.evictions,
        llc.writebacks,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemu_heap::GcStats;
    use hemu_malloc::NativeStats;
    use hemu_os::OsStats;
    use hemu_types::{ByteSize, OsPolicy};

    fn report() -> RunReport {
        RunReport {
            workload: "x".into(),
            collector: "KG-W".into(),
            profile: "emulation".into(),
            instances: 1,
            pcm_writes: ByteSize::new(1),
            pcm_reads: ByteSize::new(2),
            dram_writes: ByteSize::new(3),
            dram_reads: ByteSize::new(4),
            elapsed_seconds: 0.5,
            pcm_write_rate_mbs: 0.0,
            allocated: ByteSize::new(5),
            gc: Some(GcStats::default()),
            native: Some(NativeStats::default()),
            machine: MachineStats::default(),
            samples: Vec::new(),
            wear: None,
            endurance: None,
            gc_pause_histogram: None,
            os_paging: Some(OsStats {
                policy: OsPolicy::HotCold,
                epochs: 0,
                migrations: 0,
                promotions: 0,
                demotions: 0,
                migrated_bytes: ByteSize::ZERO,
                failed_migrations: 0,
            }),
            provenance: None,
            consolidation: None,
        }
    }

    #[test]
    fn digest_is_stable_and_moves_with_every_single_count() {
        let base = report();
        let d = digest(&report_fields(&base));
        assert_eq!(d, digest(&report_fields(&report())));
        // Derived and descriptive fields are not simulated statistics.
        let mut cosmetic = report();
        cosmetic.pcm_write_rate_mbs = 9.0;
        cosmetic.workload = "y".into();
        assert_eq!(digest(&report_fields(&cosmetic)), d);

        let n = report_fields(&base).len();
        for i in 0..n {
            let mut fields = report_fields(&base);
            fields[i] = fields[i].wrapping_add(1);
            assert_ne!(digest(&fields), d, "field {i} does not reach the digest");
        }
        // Each struct field lands in the field list (a sample per block).
        let bumps: [fn(&mut RunReport); 6] = [
            |r| r.machine.remote_fills += 1,
            |r| r.elapsed_seconds += 1e-12,
            |r| r.gc.as_mut().unwrap().monitor_marks += 1,
            |r| r.native.as_mut().unwrap().peak += 1,
            |r| r.os_paging.as_mut().unwrap().failed_migrations += 1,
            |r| r.gc = None,
        ];
        for bump in bumps {
            let mut r = report();
            bump(&mut r);
            assert_ne!(digest(&report_fields(&r)), d);
        }
        assert_ne!(
            digest(&[d, 1]),
            digest(&[1, d]),
            "folding is order-sensitive"
        );
    }
}
