//! Machine profiles: the hardware parameter sets the platform can emulate.

use hemu_cache::{CacheConfig, HierarchyConfig, MAX_CONTEXTS};
use hemu_numa::{NumaConfig, QpiLink};
use hemu_types::{ByteSize, Cycles, HemuError, Result, CACHE_LINE};

/// Per-level access latencies in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Private L2 hit.
    pub l2_hit: Cycles,
    /// Shared LLC hit.
    pub llc_hit: Cycles,
    /// Local-socket memory fill.
    pub local_fill: Cycles,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // ~2.2 ns L2, ~17 ns LLC, ~75 ns local DRAM at 1.8 GHz.
        LatencyModel {
            l2_hit: Cycles::new(4),
            llc_hit: Cycles::new(30),
            local_fill: Cycles::new(135),
        }
    }
}

/// A complete hardware configuration for the emulated machine.
///
/// Two presets reproduce the paper's §V methodology comparison:
/// [`MachineProfile::emulation`] models the NUMA platform (Intel E5-2650L:
/// 8 cores × 2 SMT = 16 contexts per socket, 20 MB LLC), and
/// [`MachineProfile::simulation`] models the Sniper configuration (8
/// out-of-order cores, no SMT, 256 KB private L2s, shared 20 MB L3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineProfile {
    /// Profile name for reports.
    pub name: &'static str,
    /// Hardware contexts available to software (all on socket 0).
    pub contexts: usize,
    /// Private L2 capacity.
    pub l2_size: ByteSize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Shared LLC capacity.
    pub llc_size: ByteSize,
    /// LLC associativity.
    pub llc_assoc: usize,
    /// Core frequency in Hz.
    pub freq_hz: u64,
    /// Physical memory configuration.
    pub numa: NumaConfig,
    /// Socket interconnect model.
    pub qpi: QpiLink,
    /// Cache/memory latencies.
    pub latency: LatencyModel,
}

impl MachineProfile {
    /// The paper's emulation platform: one E5-2650L socket of 16 logical
    /// cores runs all threads; the second socket provides the PCM memory.
    pub fn emulation() -> Self {
        MachineProfile {
            name: "emulation",
            contexts: 16,
            l2_size: ByteSize::from_kib(256),
            l2_assoc: 8,
            llc_size: ByteSize::from_mib(20),
            llc_assoc: 20,
            freq_hz: 1_800_000_000,
            numa: NumaConfig::default(),
            qpi: QpiLink::e5_2650l(),
            latency: LatencyModel::default(),
        }
    }

    /// The paper's simulation reference (Sniper): 8 cores, no SMT, same
    /// cache sizes. Timing constants differ slightly, as a high-level core
    /// model's do.
    pub fn simulation() -> Self {
        MachineProfile {
            name: "simulation",
            contexts: 8,
            latency: LatencyModel {
                l2_hit: Cycles::new(6),
                llc_hit: Cycles::new(36),
                local_fill: Cycles::new(150),
            },
            ..Self::emulation()
        }
    }

    /// Returns this profile with a different LLC capacity. The
    /// associativity is kept when the new capacity splits into a
    /// power-of-two number of sets at it, and otherwise drops to the
    /// largest that does (20 MiB keeps 20 ways; 4 and 8 MiB get 16). A
    /// capacity no associativity fits keeps the old one and fails
    /// [`MachineProfile::validate`]. Used by the §V analysis of KG-N's
    /// sensitivity to LLC size.
    pub fn with_llc(mut self, llc_size: ByteSize) -> Self {
        let lines = llc_size.bytes() / CACHE_LINE as u64;
        let fits = |ways: u64| lines.is_multiple_of(ways) && (lines / ways).is_power_of_two();
        if let Some(ways) = (1..=self.llc_assoc as u64).rev().find(|&w| fits(w)) {
            self.llc_assoc = ways as usize;
        }
        self.llc_size = llc_size;
        self
    }

    /// Checks that this profile describes a machine the model can build: 1
    /// to [`MAX_CONTEXTS`] hardware contexts, and L2 and LLC geometries that
    /// [`CacheConfig::try_new`] accepts. [`Machine::new`](crate::Machine::new)
    /// panics on a profile this rejects.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::InvalidConfig`] naming the first broken rule.
    pub fn validate(&self) -> Result<()> {
        if self.contexts == 0 {
            return Err(HemuError::InvalidConfig(
                "a machine needs at least one hardware context".into(),
            ));
        }
        if self.contexts > MAX_CONTEXTS {
            return Err(HemuError::InvalidConfig(format!(
                "{} hardware contexts is more than the {MAX_CONTEXTS} the caches track",
                self.contexts
            )));
        }
        CacheConfig::try_new("L2", self.l2_size, self.l2_assoc)?;
        CacheConfig::try_new("LLC", self.llc_size, self.llc_assoc)?;
        Ok(())
    }

    /// Returns this profile with a different context count.
    pub fn with_contexts(mut self, contexts: usize) -> Self {
        self.contexts = contexts;
        self
    }

    /// The cache-hierarchy geometry of this profile.
    pub fn hierarchy_config(&self) -> HierarchyConfig {
        HierarchyConfig {
            contexts: self.contexts,
            l2_size: self.l2_size,
            l2_assoc: self.l2_assoc,
            llc_size: self.llc_size,
            llc_assoc: self.llc_assoc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_hardware() {
        let emu = MachineProfile::emulation();
        assert_eq!(emu.contexts, 16);
        assert_eq!(emu.llc_size, ByteSize::from_mib(20));
        let sim = MachineProfile::simulation();
        assert_eq!(sim.contexts, 8);
        assert_eq!(sim.llc_size, emu.llc_size);
    }

    #[test]
    fn with_llc_overrides_only_llc() {
        let p = MachineProfile::emulation().with_llc(ByteSize::from_mib(4));
        assert_eq!(p.llc_size, ByteSize::from_mib(4));
        assert_eq!(p.contexts, 16);
    }

    #[test]
    fn with_llc_picks_power_of_two_sets() {
        for (mib, ways) in [(4, 16), (8, 16), (20, 20)] {
            let p = MachineProfile::emulation().with_llc(ByteSize::from_mib(mib));
            assert_eq!(p.llc_assoc, ways, "{mib} MiB");
            assert!(p.validate().is_ok(), "{mib} MiB must validate");
        }
    }

    #[test]
    fn bad_geometry_is_a_typed_error() {
        // 4 MiB does not split into 20-way sets.
        let p = MachineProfile {
            llc_size: ByteSize::from_mib(4),
            ..MachineProfile::emulation()
        };
        assert!(matches!(p.validate(), Err(HemuError::InvalidConfig(_))));
        // No associativity gives 65537 lines (a prime) power-of-two sets.
        let p = MachineProfile::emulation().with_llc(ByteSize::new(65_537 * 64));
        assert!(matches!(p.validate(), Err(HemuError::InvalidConfig(_))));
        let p = MachineProfile::emulation().with_contexts(0);
        assert!(matches!(p.validate(), Err(HemuError::InvalidConfig(_))));
        let p = MachineProfile::emulation().with_contexts(MAX_CONTEXTS + 1);
        assert!(matches!(p.validate(), Err(HemuError::InvalidConfig(_))));
        assert!(MachineProfile::simulation().validate().is_ok());
    }

    #[test]
    fn hierarchy_config_is_consistent() {
        let p = MachineProfile::simulation();
        let h = p.hierarchy_config();
        assert_eq!(h.contexts, 8);
        assert_eq!(h.llc_assoc, 20);
    }
}
