//! Log₂-bucketed histograms of `u64` samples (GC pause lengths), and the
//! immutable snapshot a run report carries.

use crate::json::{FromJson, JsonObject, ToJson};
use crate::value::JsonValue;

/// Number of log₂ buckets: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`, up to the full `u64` range.
const BUCKETS: usize = 65;

/// Log₂-bucketed distribution of `u64` samples.
///
/// Bucketing is exponent-based: sample `v` lands in bucket
/// `64 - v.leading_zeros()` (zeros in bucket 0), so the full 64-bit range is
/// covered by 65 fixed buckets with no configuration.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

/// Index of the log₂ bucket `v` falls into.
pub(crate) fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i` (0 for buckets 0 and 1).
pub(crate) fn bucket_lo(i: usize) -> u64 {
    if i <= 1 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
pub(crate) fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Immutable copy of the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| BucketCount {
                    lo: bucket_lo(i),
                    hi: bucket_hi(i),
                    count: c,
                })
                .collect(),
        }
    }
}

crate::record! {
    /// One non-empty bucket of a [`HistogramSnapshot`]: samples in `[lo, hi]`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct BucketCount {
        /// Inclusive lower bound of the bucket.
        pub lo: u64,
        /// Inclusive upper bound of the bucket.
        pub hi: u64,
        /// Number of samples that landed in the bucket.
        pub count: u64,
    }
}

/// Point-in-time copy of a [`Histogram`]; only non-empty buckets are kept.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty log₂ buckets, ascending.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples (0.0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// inside the log₂ bucket holding the target rank, tightened by the
    /// exact `min`/`max`. The estimate is exact at the extremes and
    /// accurate to within one bucket's width elsewhere, erring toward the
    /// bucket's upper edge (the conservative direction for pause-time
    /// quantiles). Returns 0 when empty.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample that answers the quantile.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for b in &self.buckets {
            if seen + b.count >= target {
                // The bucket's true value range, tightened by the observed
                // extrema (exact when the bucket is first/last).
                let lo = b.lo.max(self.min).min(self.max);
                let hi = b.hi.min(self.max).max(lo);
                let into = (target - seen) as f64 / b.count as f64;
                return lo + ((hi - lo) as f64 * into).round() as u64;
            }
            seen += b.count;
        }
        self.max
    }

    /// Median (50th percentile) estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl ToJson for HistogramSnapshot {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .field("buckets", &self.buckets);
        obj.finish();
    }
}

/// Reads only the stored fields: `mean` and the quantiles are derived when
/// writing, so the resume round-trip gate re-derives and checks them.
impl FromJson for HistogramSnapshot {
    fn from_json(v: &JsonValue) -> Option<Self> {
        Some(HistogramSnapshot {
            count: v.field("count")?,
            sum: v.field("sum")?,
            min: v.field("min")?,
            max: v.field("max")?,
            buckets: v.field("buckets")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        assert_eq!((bucket_lo(0), bucket_hi(0)), (0, 0));
        assert_eq!((bucket_lo(1), bucket_hi(1)), (0, 1));
        assert_eq!((bucket_lo(2), bucket_hi(2)), (2, 3));
        for i in 2..64 {
            assert_eq!(bucket_lo(i + 1), bucket_hi(i) + 1, "gap after bucket {i}");
        }
        assert_eq!(bucket_hi(64), u64::MAX);
        // Every value falls inside its own bucket's bounds.
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(
                bucket_lo(i) <= v && v <= bucket_hi(i),
                "{v} outside bucket {i}"
            );
        }
    }

    #[test]
    fn histogram_tracks_count_sum_extrema() {
        let mut h = Histogram::default();
        for v in [0u64, 3, 3, 900] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 906);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 900);
        assert!((snap.mean() - 226.5).abs() < 1e-9);
        // Buckets: one zero, two threes (bucket [2,3]), one 900 (bucket [512,1023]).
        assert_eq!(
            snap.buckets,
            vec![
                BucketCount {
                    lo: 0,
                    hi: 0,
                    count: 1
                },
                BucketCount {
                    lo: 2,
                    hi: 3,
                    count: 2
                },
                BucketCount {
                    lo: 512,
                    hi: 1023,
                    count: 1
                },
            ]
        );
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let mut h = Histogram::default();
        h.observe(1);
        assert_eq!(
            h.snapshot().to_json(),
            r#"{"count":1,"sum":1,"min":1,"max":1,"mean":1,"p50":1,"p95":1,"p99":1,"buckets":[{"lo":0,"hi":1,"count":1}]}"#
        );
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::default();
        // 100 samples 1..=100: p50 ≈ 50, p95 ≈ 95, p99 ≈ 99, within one
        // log₂ bucket's interpolation error.
        for v in 1..=100u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), 1);
        assert_eq!(snap.quantile(1.0), 100);
        let p50 = snap.p50();
        assert!((33..=67).contains(&p50), "p50 estimate {p50} off");
        let p95 = snap.p95();
        assert!((85..=100).contains(&p95), "p95 estimate {p95} off");
        assert!(snap.p99() >= p95, "quantiles must be monotone");
    }

    #[test]
    fn quantiles_clamp_to_observed_extrema() {
        let mut h = Histogram::default();
        for v in [4u64, 70, 3000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        // The top quantiles hit the exact max (not the bucket's upper
        // bound, 4095); the median stays within its bucket.
        assert_eq!(snap.quantile(1.0), 3000);
        assert_eq!(snap.p99(), 3000);
        let p50 = snap.p50();
        assert!((64..=127).contains(&p50), "p50 estimate {p50} off");
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
    }
}
