//! Per-cache hit/miss/write-back statistics.

use hemu_obs::json::{JsonObject, ToJson};
use std::fmt;

/// Counters kept by every cache in the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Accesses that missed and allocated a line.
    pub misses: u64,
    /// Valid lines evicted to make room.
    pub evictions: u64,
    /// Evicted lines that were dirty (write-backs to the next level).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub(crate) fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; zero if there were no accesses.
    pub(crate) fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Resets all counters.
    pub(crate) fn reset(&mut self) {
        *self = Self::default();
    }
}

impl ToJson for CacheStats {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .field("writebacks", &self.writebacks)
            .field("hit_ratio", &self.hit_ratio());
        obj.finish();
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {:.1}% hits, {} evictions ({} dirty)",
            self.accesses(),
            self.hit_ratio() * 100.0,
            self.evictions,
            self.writebacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_zero_accesses() {
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn hit_ratio_counts() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            writebacks: 0,
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(s.accesses(), 4);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            writebacks: 4,
        };
        s.reset();
        assert_eq!(s, CacheStats::default());
    }
}
