//! Per-line PCM write-endurance budgets.

use hemu_types::{DeterministicRng, HemuError, LineAddr, Result};

/// Configuration of the PCM endurance model.
///
/// Real PCM cells endure a bounded number of writes (the paper's lifetime
/// analysis assumes 10⁶–10⁸ depending on technology); manufacturing
/// variability makes some cells fail well before the mean. Both knobs are
/// captured here, and the whole model is deterministic in `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceConfig {
    /// Mean per-line write budget before the line fails.
    pub budget_writes: u64,
    /// Relative cell-to-cell spread in `[0, 1]`: a line's actual budget is
    /// uniform in `budget_writes * [1 - variability, 1 + variability]`.
    pub variability: f64,
    /// Seed of the per-line budget sampling.
    pub seed: u64,
}

impl Default for EnduranceConfig {
    fn default() -> Self {
        EnduranceConfig {
            budget_writes: 1_000_000,
            variability: 0.1,
            seed: 0x0E9D,
        }
    }
}

impl EnduranceConfig {
    /// A deliberately tiny budget so tests and smoke runs retire pages
    /// within seconds of simulated work.
    pub(crate) fn smoke() -> Self {
        EnduranceConfig {
            budget_writes: 64,
            variability: 0.25,
            ..Self::default()
        }
    }

    /// Parses an endurance spec string: `smoke`, or a comma-separated
    /// `key=value` list with keys `budget`, `variability`, `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::InvalidConfig`] on unknown keys or malformed
    /// values.
    pub fn parse(spec: &str) -> Result<EnduranceConfig> {
        if spec.trim() == "smoke" {
            return Ok(Self::smoke());
        }
        let mut cfg = Self::default();
        for item in spec.split(',') {
            let item = item.trim();
            let Some((key, value)) = item.split_once('=') else {
                return Err(HemuError::InvalidConfig(format!(
                    "endurance item `{item}` is not `key=value`"
                )));
            };
            let bad = |what: &str| {
                HemuError::InvalidConfig(format!("endurance `{key}`: invalid {what} `{value}`"))
            };
            match key {
                "budget" => {
                    let b: u64 = value.parse().map_err(|_| bad("integer"))?;
                    if b == 0 {
                        return Err(bad("budget (must be >= 1)"));
                    }
                    cfg.budget_writes = b;
                }
                "variability" => {
                    let v: f64 = value.parse().map_err(|_| bad("fraction"))?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err(bad("fraction"));
                    }
                    cfg.variability = v;
                }
                "seed" => cfg.seed = value.parse().map_err(|_| bad("integer"))?,
                _ => {
                    return Err(HemuError::InvalidConfig(format!(
                        "unknown endurance key `{key}`"
                    )));
                }
            }
        }
        Ok(cfg)
    }
}

/// Samples each line's write budget deterministically from the config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceModel {
    cfg: EnduranceConfig,
}

impl EnduranceModel {
    /// Creates the model.
    pub fn new(cfg: EnduranceConfig) -> Self {
        EnduranceModel { cfg }
    }

    /// The write budget of one line: a pure function of `(seed, line)`.
    ///
    /// Budgets are clamped to at least 2 so that the writes performed while
    /// migrating a retired page to its replacement frame cannot immediately
    /// wear the replacement out and cascade retirement across the socket.
    pub fn line_budget(&self, line: LineAddr) -> u64 {
        let mut rng = DeterministicRng::seeded(
            self.cfg.seed ^ line.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let spread = 1.0 + self.cfg.variability * (2.0 * rng.unit_f64() - 1.0);
        ((self.cfg.budget_writes as f64 * spread).round() as u64).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_budget_is_deterministic_and_in_range() {
        let m = EnduranceModel::new(EnduranceConfig {
            budget_writes: 1000,
            variability: 0.2,
            seed: 42,
        });
        for i in 0..500u64 {
            let line = LineAddr::new(i * 37);
            let b = m.line_budget(line);
            assert_eq!(b, m.line_budget(line), "budget must be stable");
            assert!((800..=1200).contains(&b), "line {i}: budget {b}");
        }
    }

    #[test]
    fn zero_variability_gives_uniform_budgets() {
        let m = EnduranceModel::new(EnduranceConfig {
            budget_writes: 512,
            variability: 0.0,
            seed: 1,
        });
        assert_eq!(m.line_budget(LineAddr::new(3)), 512);
        assert_eq!(m.line_budget(LineAddr::new(999)), 512);
    }

    #[test]
    fn budgets_never_drop_below_two() {
        let m = EnduranceModel::new(EnduranceConfig {
            budget_writes: 1,
            variability: 1.0,
            seed: 7,
        });
        for i in 0..200u64 {
            assert!(m.line_budget(LineAddr::new(i)) >= 2);
        }
    }

    #[test]
    fn parse_presets_and_keys() {
        assert_eq!(EnduranceConfig::parse("smoke").unwrap().budget_writes, 64);
        let c = EnduranceConfig::parse("budget=5000,variability=0.5,seed=11").unwrap();
        assert_eq!(c.budget_writes, 5000);
        assert_eq!(c.variability, 0.5);
        assert_eq!(c.seed, 11);
        assert!(EnduranceConfig::parse("budget=0").is_err());
        assert!(EnduranceConfig::parse("variability=1.5").is_err());
        assert!(EnduranceConfig::parse("wat=1").is_err());
    }
}
