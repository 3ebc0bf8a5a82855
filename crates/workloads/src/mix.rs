//! Run rosters: which workloads co-run in one experiment, and with what
//! seeds.

use crate::WorkloadSpec;
use hemu_types::{HemuError, Result};

/// Who co-runs in one experiment: N copies of one workload sharing a seed
/// (the paper's multiprogrammed runs, Fig. 4), or N tenants drawn from a
/// [`Mix`] with per-tenant seeds (consolidation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roster {
    /// Identical instances of one workload, all with the run's seed.
    Copies(WorkloadSpec),
    /// Tenants drawn round-robin from a mix, tenant `i` with `seed + i`.
    Mix(Mix),
}

impl Roster {
    /// The `n` workloads of a run with base seed `seed`, in context order.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::InvalidConfig`] if a mix roster name does not
    /// resolve to a workload.
    pub fn tenant_specs(&self, n: usize, seed: u64) -> Result<Vec<TenantSpec>> {
        match self {
            Roster::Copies(workload) => Ok((0..n)
                .map(|id| TenantSpec {
                    id,
                    workload: *workload,
                    seed,
                })
                .collect()),
            Roster::Mix(mix) => mix.tenant_specs(n, seed),
        }
    }
}

/// A named roster of workloads tenants are drawn from, round-robin: tenant
/// `i` runs `roster[i % roster.len()]` with seed `base_seed + i`, so a
/// density sweep only ever *adds* tenants — the first K tenants of an
/// N-tenant run are identical to the K-tenant run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The cheap DaCapo trio (`avrora`, `fop`, `luindex`) — small heaps,
    /// so high densities stay tractable.
    Dacapo,
    /// Homogeneous `pjbb` tenants (the paper's server workload).
    Pjbb,
    /// The GraphChi analytics roster (`pr`, `cc`, `als`).
    Graphchi,
    /// A heterogeneous mix (`avrora`, `pjbb`, `pr`, `luindex`) — the
    /// realistic consolidation scenario.
    Mixed,
}

impl Mix {
    /// Every mix, in stable order.
    pub(crate) const ALL: [Mix; 4] = [Mix::Dacapo, Mix::Pjbb, Mix::Graphchi, Mix::Mixed];

    /// The mix's flag-value / display name.
    pub fn name(&self) -> &'static str {
        match self {
            Mix::Dacapo => "dacapo",
            Mix::Pjbb => "pjbb",
            Mix::Graphchi => "graphchi",
            Mix::Mixed => "mixed",
        }
    }

    /// Parses a `--mix` flag value.
    pub fn parse(s: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.name() == s)
    }

    /// The workload names tenants cycle through.
    pub(crate) fn roster(&self) -> &'static [&'static str] {
        match self {
            Mix::Dacapo => &["avrora", "fop", "luindex"],
            Mix::Pjbb => &["pjbb"],
            Mix::Graphchi => &["pr", "cc", "als"],
            Mix::Mixed => &["avrora", "pjbb", "pr", "luindex"],
        }
    }

    /// Builds the tenant roster for a run of `tenants` tenants.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::InvalidConfig`] if a roster name does not
    /// resolve to a workload (a programming error surfaced as a config
    /// error rather than a panic).
    pub(crate) fn tenant_specs(&self, tenants: usize, base_seed: u64) -> Result<Vec<TenantSpec>> {
        let roster = self.roster();
        (0..tenants)
            .map(|id| {
                let name = roster[id % roster.len()];
                let workload = WorkloadSpec::by_name(name).ok_or_else(|| {
                    HemuError::InvalidConfig(format!("mix {} names unknown workload {name}", self))
                })?;
                Ok(TenantSpec {
                    id,
                    workload,
                    seed: base_seed.wrapping_add(id as u64),
                })
            })
            .collect()
    }
}

impl std::fmt::Display for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One co-running workload's identity: which workload it runs and with
/// what seed.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Position in the roster (0-based; also the attribution index and,
    /// modulo the context count, the hardware context).
    pub id: usize,
    /// The workload this tenant runs.
    pub workload: WorkloadSpec,
    /// The tenant's RNG seed: `base_seed + id` for mix tenants, so
    /// homogeneous mixes still diverge per tenant; the shared base seed
    /// for copies.
    pub seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mix_roster_resolves() {
        for mix in Mix::ALL {
            let specs = mix.tenant_specs(8, 42).expect("roster resolves");
            assert_eq!(specs.len(), 8);
            // Round-robin assignment with distinct seeds.
            let roster = mix.roster();
            for s in &specs {
                assert_eq!(format!("{}", s.workload), roster[s.id % roster.len()]);
                assert_eq!(s.seed, 42 + s.id as u64);
            }
        }
    }

    #[test]
    fn density_sweeps_share_a_prefix() {
        let small = Mix::Mixed.tenant_specs(3, 7).expect("3 tenants");
        let large = Mix::Mixed.tenant_specs(9, 7).expect("9 tenants");
        for (a, b) in small.iter().zip(&large) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(format!("{}", a.workload), format!("{}", b.workload));
        }
    }

    #[test]
    fn copies_share_one_seed() {
        let spec = WorkloadSpec::by_name("pjbb").expect("pjbb registered");
        let specs = Roster::Copies(spec).tenant_specs(3, 7).expect("copies");
        assert_eq!(specs.len(), 3);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!((s.id, s.seed, s.workload), (i, 7, spec));
        }
    }

    #[test]
    fn parse_round_trips_names() {
        for mix in Mix::ALL {
            assert_eq!(Mix::parse(mix.name()), Some(mix));
        }
        assert_eq!(Mix::parse("specjvm"), None);
    }
}
