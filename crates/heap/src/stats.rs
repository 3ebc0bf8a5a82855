//! Garbage collection and mutator statistics.

use hemu_types::ByteSize;
use std::fmt;

hemu_obs::record! {
    /// Counters accumulated by one managed heap.
    #[counters]
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct GcStats {
        /// Nursery (minor) collections.
        pub minor_gcs: u64,
        /// Minor collections that also evacuated the observer space.
        pub observer_gcs: u64,
        /// Full-heap (mature) collections.
        pub full_gcs: u64,
        /// Virtual cycles spent inside stop-the-world collection pauses.
        pub pause_cycles: u64,
        /// Total bytes allocated by the mutator (including zeroing).
        pub allocated_bytes: u64,
        /// Objects allocated.
        pub allocated_objects: u64,
        /// Bytes allocated directly into large object spaces.
        pub large_allocated_bytes: u64,
        /// Large objects that the LOO heuristic routed through the nursery.
        pub loo_nursery_large: u64,
        /// Bytes copied by minor collections (nursery → survivor target).
        pub copied_minor_bytes: u64,
        /// Bytes copied out of the observer space.
        pub copied_observer_bytes: u64,
        /// Observer objects found written (promoted to DRAM mature).
        pub promoted_dram_objects: u64,
        /// Observer objects found unwritten (promoted to PCM mature).
        pub promoted_pcm_objects: u64,
        /// Large objects copied from PCM to DRAM during mature collections.
        pub large_rescued: u64,
        /// Object mark-byte writes performed by full collections.
        pub mark_writes: u64,
        /// Remembered-set entries recorded by the write barrier.
        pub remset_entries: u64,
        /// First-write monitoring bits set in the observer space.
        pub monitor_marks: u64,
    }
}

impl GcStats {
    /// Total bytes the mutator allocated.
    pub fn allocated(&self) -> ByteSize {
        ByteSize::new(self.allocated_bytes)
    }

    /// Total collections of any kind.
    pub fn total_gcs(&self) -> u64 {
        self.minor_gcs + self.full_gcs
    }
}

impl fmt::Display for GcStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} allocated in {} objects; {} minor ({} w/ observer), {} full GCs; \
             {} copied young, {}/{} promoted DRAM/PCM",
            self.allocated(),
            self.allocated_objects,
            self.minor_gcs,
            self.observer_gcs,
            self.full_gcs,
            ByteSize::new(self.copied_minor_bytes),
            self.promoted_dram_objects,
            self.promoted_pcm_objects,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemu_obs::ToJson;

    #[test]
    fn totals_combine_minor_and_full() {
        let s = GcStats {
            minor_gcs: 3,
            full_gcs: 2,
            ..Default::default()
        };
        assert_eq!(s.total_gcs(), 5);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = GcStats {
            allocated_bytes: 1024,
            minor_gcs: 7,
            ..Default::default()
        };
        let text = format!("{s}");
        assert!(text.contains("7 minor"));
        assert!(text.contains("1.00 KiB"));
    }

    #[test]
    fn json_includes_pause_cycles() {
        let s = GcStats {
            pause_cycles: 1234,
            ..Default::default()
        };
        assert!(s.to_json().contains("\"pause_cycles\":1234"));
    }
}
