//! The fault plan: a declarative, parseable description of what to inject.

use hemu_types::{HemuError, Result};

/// A periodic stall burst on the QPI interconnect: after every
/// `period_lines` remote line transfers, the link stalls for `stall_cycles`
/// cycles (emulating, e.g., thermal throttling or a retrained link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpiBurst {
    /// Remote line transfers between consecutive stalls.
    pub period_lines: u64,
    /// Extra latency charged per stall, in cycles.
    pub stall_cycles: u64,
}

/// A deterministic fault-injection plan.
///
/// The default plan is inert — every field off — so installing
/// `FaultPlan::default()` is observationally identical to installing no
/// plan at all. Plans are usually built from a spec string via
/// [`FaultPlan::parse`]:
///
/// - `none` — the inert plan;
/// - `smoke` — a light preset used by the CI smoke run: a small transient
///   frame-allocation failure probability plus a mild QPI stall burst;
/// - a comma-separated `key=value` list with keys `seed`, `alloc_p`
///   (transient frame-allocation failure probability), `oom_at` (force an
///   out-of-memory error at the Nth managed allocation), `qpi_period` /
///   `qpi_cycles` (stall burst shape), and `only` (apply the plan only to
///   runs whose harness key contains this substring).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injection randomness stream (independent from the
    /// workload seed, so adding faults never perturbs workload shapes).
    pub seed: u64,
    /// Probability that any single physical-frame allocation transiently
    /// fails. `0.0` disables the injection point.
    pub frame_alloc_p: f64,
    /// Force a persistent out-of-memory error at the Nth managed-heap
    /// allocation (1-based). `None` disables.
    pub oom_at_alloc: Option<u64>,
    /// Periodic QPI stall bursts. `None` disables.
    pub qpi_burst: Option<QpiBurst>,
    /// Restrict the plan to harness run keys containing this substring.
    pub only: Option<String>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA17,
            frame_alloc_p: 0.0,
            oom_at_alloc: None,
            qpi_burst: None,
            only: None,
        }
    }
}

impl FaultPlan {
    /// The inert plan: nothing is injected.
    pub fn none() -> Self {
        Self::default()
    }

    /// The CI smoke preset: exercises the transient-failure retry path and
    /// the QPI stall path without making any run fail persistently.
    pub(crate) fn smoke() -> Self {
        FaultPlan {
            frame_alloc_p: 1e-6,
            qpi_burst: Some(QpiBurst {
                period_lines: 1 << 16,
                stall_cycles: 10_000,
            }),
            ..Self::default()
        }
    }

    /// Parses a plan spec string (see the type-level docs for the format).
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::InvalidConfig`] on unknown keys or malformed
    /// values.
    pub fn parse(spec: &str) -> Result<FaultPlan> {
        match spec.trim() {
            "none" | "off" | "" => return Ok(Self::none()),
            "smoke" => return Ok(Self::smoke()),
            _ => {}
        }
        let mut plan = Self::none();
        let mut qpi_period: Option<u64> = None;
        let mut qpi_cycles: Option<u64> = None;
        for item in spec.split(',') {
            let item = item.trim();
            let Some((key, value)) = item.split_once('=') else {
                return Err(HemuError::InvalidConfig(format!(
                    "fault plan item `{item}` is not `key=value`"
                )));
            };
            let bad = |what: &str| {
                HemuError::InvalidConfig(format!("fault plan `{key}`: invalid {what} `{value}`"))
            };
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| bad("integer"))?,
                "alloc_p" => {
                    let p: f64 = value.parse().map_err(|_| bad("probability"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(bad("probability"));
                    }
                    plan.frame_alloc_p = p;
                }
                "oom_at" => {
                    let n: u64 = value.parse().map_err(|_| bad("integer"))?;
                    if n == 0 {
                        return Err(bad("allocation index (must be >= 1)"));
                    }
                    plan.oom_at_alloc = Some(n);
                }
                "qpi_period" => qpi_period = Some(value.parse().map_err(|_| bad("integer"))?),
                "qpi_cycles" => qpi_cycles = Some(value.parse().map_err(|_| bad("integer"))?),
                "only" => plan.only = Some(value.to_string()),
                _ => {
                    return Err(HemuError::InvalidConfig(format!(
                        "unknown fault plan key `{key}`"
                    )));
                }
            }
        }
        match (qpi_period, qpi_cycles) {
            (None, None) => {}
            (Some(p), Some(c)) if p > 0 => {
                plan.qpi_burst = Some(QpiBurst {
                    period_lines: p,
                    stall_cycles: c,
                });
            }
            _ => {
                return Err(HemuError::InvalidConfig(
                    "qpi burst needs both qpi_period (>= 1) and qpi_cycles".into(),
                ));
            }
        }
        Ok(plan)
    }

    /// Returns `true` if the plan injects nothing.
    pub fn is_inert(&self) -> bool {
        self.frame_alloc_p == 0.0 && self.oom_at_alloc.is_none() && self.qpi_burst.is_none()
    }

    /// Returns `true` if the plan applies to a harness run with this key.
    pub fn applies_to(&self, run_key: &str) -> bool {
        match &self.only {
            Some(needle) => run_key.contains(needle.as_str()),
            None => true,
        }
    }

    /// Derives the plan for the given retry attempt (1-based).
    ///
    /// Attempt 1 keeps the base seed; later attempts mix the attempt index
    /// into the injection seed so a retried run does not deterministically
    /// hit the identical transient fault again. Everything else is
    /// unchanged, keeping retries comparable.
    pub fn for_attempt(&self, attempt: u32) -> FaultPlan {
        let mut plan = self.clone();
        plan.seed = self
            .seed
            .wrapping_add((attempt as u64 - 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        assert!(FaultPlan::none().is_inert());
        assert!(FaultPlan::parse("none").unwrap().is_inert());
        assert!(FaultPlan::parse("off").unwrap().is_inert());
    }

    #[test]
    fn smoke_preset_is_active_but_not_fatal() {
        let p = FaultPlan::smoke();
        assert!(!p.is_inert());
        assert!(p.oom_at_alloc.is_none(), "smoke must not force failures");
    }

    #[test]
    fn key_value_parsing_round_trips() {
        let p = FaultPlan::parse("seed=9,alloc_p=0.25,oom_at=40,qpi_period=128,qpi_cycles=500")
            .unwrap();
        assert_eq!(p.seed, 9);
        assert_eq!(p.frame_alloc_p, 0.25);
        assert_eq!(p.oom_at_alloc, Some(40));
        assert_eq!(
            p.qpi_burst,
            Some(QpiBurst {
                period_lines: 128,
                stall_cycles: 500
            })
        );
    }

    #[test]
    fn only_restricts_by_substring() {
        let p = FaultPlan::parse("oom_at=1,only=avrora").unwrap();
        assert!(p.applies_to("avrora|gen-immix|1|None"));
        assert!(!p.applies_to("lusearch|gen-immix|1|None"));
        assert!(FaultPlan::none().applies_to("anything"));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("alloc_p=2.0").is_err());
        assert!(FaultPlan::parse("oom_at=0").is_err());
        assert!(FaultPlan::parse("qpi_period=10").is_err());
        assert!(FaultPlan::parse("qpi_period=0,qpi_cycles=5").is_err());
    }

    #[test]
    fn attempt_mixing_changes_only_the_seed() {
        let base = FaultPlan::parse("alloc_p=0.5,seed=3").unwrap();
        let first = base.for_attempt(1);
        let second = base.for_attempt(2);
        assert_eq!(first, base, "attempt 1 is the base plan");
        assert_ne!(second.seed, base.seed);
        assert_eq!(second.frame_alloc_p, base.frame_alloc_p);
    }

    #[test]
    fn attempt_reseeding_never_reuses_the_original_seed() {
        // The mix constant is odd, so (attempt-1) * C is never 0 mod 2^64
        // for attempt > 1 below the full 2^64 cycle; spot-check a broad
        // range of attempt numbers, including the extremes the retry
        // budget could conceivably reach.
        for seed in [0u64, 1, 0xFA17, u64::MAX] {
            let base = FaultPlan {
                seed,
                ..FaultPlan::none()
            };
            for attempt in (2u32..=64).chain([1000, u32::MAX - 1, u32::MAX]) {
                let derived = base.for_attempt(attempt);
                assert_ne!(
                    derived.seed, base.seed,
                    "attempt {attempt} reused the base seed {seed:#x}"
                );
            }
        }
    }

    #[test]
    fn attempt_reseeding_is_unique_per_attempt() {
        // Distinct attempts get distinct fault streams: a retried run
        // never re-rolls an earlier attempt's exact failures.
        let base = FaultPlan::parse("alloc_p=0.5,seed=3").unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for attempt in 1u32..=256 {
            assert!(
                seen.insert(base.for_attempt(attempt).seed),
                "attempt {attempt} collided with an earlier attempt's seed"
            );
        }
    }
}
