//! The [`OsPageManager`]: first-touch placement plus the epoch-driven
//! hot/cold page migrator.

use hemu_machine::{Machine, ProcId};
use hemu_types::{
    ByteSize, HemuError, OsPagingConfig, OsPolicy, PageNum, Result, SocketId, PAGE_SIZE,
};

/// OS-side owner of page placement for one experiment.
///
/// Installed on a [`Machine`] before any workload memory is touched, the
/// manager (a) overrides the per-process `mbind` policy with first-touch
/// placement per [`OsPolicy`], and (b) — for [`OsPolicy::HotCold`] — runs a
/// migration epoch every [`OsPagingConfig::epoch_lines`] machine line
/// accesses when polled from the scheduler loop.
///
/// All activity is counted in an [`OsStats`] the manager owns. The
/// experiment driver zeroes it with [`OsPageManager::reset_stats`] right
/// after [`Machine::start_measured_iteration`], so end-of-run values cover
/// exactly the measured iteration.
#[derive(Debug)]
pub struct OsPageManager {
    cfg: OsPagingConfig,
    /// Machine line-access count at the start of the current epoch.
    epoch_base: u64,
    stats: OsStats,
}

hemu_obs::record! {
    /// Snapshot of a manager's activity, for run reports.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct OsStats {
        /// The placement policy that ran.
        pub policy: OsPolicy,
        /// Migration epochs executed.
        pub epochs: u64,
        /// Pages moved in either direction.
        pub migrations: u64,
        /// PCM pages promoted to DRAM.
        pub promotions: u64,
        /// DRAM pages demoted to PCM.
        pub demotions: u64,
        /// Bytes copied between sockets by migration.
        pub migrated_bytes: ByteSize,
        /// Promotions abandoned because DRAM stayed full within the epoch's
        /// budget.
        pub failed_migrations: u64,
    }
}

impl OsStats {
    /// No activity yet under `policy`.
    fn new(policy: OsPolicy) -> Self {
        OsStats {
            policy,
            epochs: 0,
            migrations: 0,
            promotions: 0,
            demotions: 0,
            migrated_bytes: ByteSize::ZERO,
            failed_migrations: 0,
        }
    }
}

impl OsPageManager {
    /// Installs OS paging on `machine`: clamps DRAM capacity when
    /// [`OsPagingConfig::dram_limit`] is set, enables per-page heat
    /// sampling for the hot/cold migrator, and starts its counts at zero.
    /// Call before any workload memory is touched, then
    /// [`attach_process`](OsPageManager::attach_process) each process as it
    /// is created.
    pub fn install(machine: &mut Machine, cfg: OsPagingConfig) -> Self {
        if let Some(limit) = cfg.dram_limit {
            machine.restrict_socket_capacity(SocketId::DRAM, limit);
        }
        if cfg.policy == OsPolicy::HotCold {
            machine.enable_page_heat();
        }
        OsPageManager {
            epoch_base: machine.stats().line_accesses,
            stats: OsStats::new(cfg.policy),
            cfg,
        }
    }

    /// The config the manager was installed with.
    pub fn config(&self) -> &OsPagingConfig {
        &self.cfg
    }

    /// Hands `proc`'s page placement to this manager: faults ignore
    /// `mbind` and first-touch onto the policy's primary socket, spilling
    /// to the other one under memory pressure.
    pub fn attach_process(&self, machine: &mut Machine, proc: ProcId) {
        let (primary, spill) = match self.cfg.policy {
            OsPolicy::DramFirst | OsPolicy::HotCold => (SocketId::DRAM, SocketId::PCM),
            OsPolicy::PcmFirst => (SocketId::PCM, SocketId::DRAM),
        };
        machine.set_os_placement(proc, primary, Some(spill));
    }

    /// Scheduler hook: runs a migration epoch when
    /// [`OsPagingConfig::epoch_lines`] machine line accesses have elapsed
    /// since the last one. A no-op for the non-migrating policies, so the
    /// driver can poll unconditionally.
    ///
    /// # Errors
    ///
    /// Propagates machine invariant violations from the migration engine;
    /// an epoch that merely cannot find room in DRAM is not an error (it
    /// counts a failed migration and moves on).
    pub fn poll(&mut self, machine: &mut Machine) -> Result<()> {
        if self.cfg.policy != OsPolicy::HotCold {
            return Ok(());
        }
        let now = machine.stats().line_accesses;
        if now < self.epoch_base {
            // Counters were reset (measured iteration started); rebase.
            self.epoch_base = now;
        }
        if now - self.epoch_base < self.cfg.epoch_lines {
            return Ok(());
        }
        self.epoch_base = now;
        self.run_epoch(machine)
    }

    /// One migration epoch: sample page heat, promote write-hot PCM pages
    /// to DRAM (demoting cold DRAM pages when DRAM is full), close the
    /// sampling epoch.
    fn run_epoch(&mut self, machine: &mut Machine) -> Result<()> {
        self.stats.epochs += 1;
        let t0 = machine.elapsed();
        machine.spans_mut().begin("os_epoch", "os", t0);
        let result = self.run_epoch_inner(machine);
        let t1 = machine.elapsed();
        machine.spans_mut().end(t1);
        result
    }

    fn run_epoch_inner(&mut self, machine: &mut Machine) -> Result<()> {
        let (hot, cold) = self.sample(machine);
        let mut cold = cold.into_iter();
        let mut budget = self.cfg.migration_budget;
        for frame in hot {
            if budget == 0 {
                break;
            }
            match machine.migrate_frame(frame, SocketId::DRAM) {
                Ok(Some(_)) => {
                    budget -= 1;
                    self.stats.promotions += 1;
                    self.note_move();
                }
                Ok(None) => {} // freed or already moved since sampling
                Err(HemuError::OutOfPhysicalMemory { .. }) => {
                    // DRAM is full: demote the coldest remaining DRAM page
                    // to make room, then retry this promotion once. The
                    // pair costs two budget units.
                    if budget < 2 || !self.demote_one(machine, &mut cold)? {
                        self.stats.failed_migrations += 1;
                        break;
                    }
                    budget -= 1;
                    match machine.migrate_frame(frame, SocketId::DRAM) {
                        Ok(Some(_)) => {
                            budget -= 1;
                            self.stats.promotions += 1;
                            self.note_move();
                        }
                        Ok(None) => {}
                        Err(HemuError::OutOfPhysicalMemory { .. }) => {
                            self.stats.failed_migrations += 1;
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        machine.reset_page_heat_epoch();
        Ok(())
    }

    /// Deterministic candidate selection from the page heat: write-hot
    /// PCM frames (hottest first) and cold DRAM frames (coldest first),
    /// ties broken by ascending frame number.
    fn sample(&self, machine: &Machine) -> (Vec<PageNum>, Vec<PageNum>) {
        let mem = machine.memory();
        let Some(heat) = mem.page_heat() else {
            return (Vec::new(), Vec::new());
        };
        let mut hot = Vec::new();
        let mut cold = Vec::new();
        for (frame, h) in heat {
            match mem.socket_of_frame(frame) {
                SocketId::PCM if h.epoch_writes >= self.cfg.hot_write_threshold => {
                    hot.push((frame, h));
                }
                SocketId::DRAM if h.epoch_writes == 0 => cold.push((frame, h)),
                _ => {}
            }
        }
        hot.sort_by(|a, b| {
            b.1.epoch_writes
                .cmp(&a.1.epoch_writes)
                .then(a.0.raw().cmp(&b.0.raw()))
        });
        cold.sort_by(|a, b| {
            a.1.epoch_reads
                .cmp(&b.1.epoch_reads)
                .then(a.0.raw().cmp(&b.0.raw()))
        });
        (
            hot.into_iter().map(|(f, _)| f).collect(),
            cold.into_iter().map(|(f, _)| f).collect(),
        )
    }

    /// Demotes the next still-mapped cold candidate to PCM. `Ok(false)`
    /// when no candidate could be moved (DRAM stays full).
    fn demote_one(
        &mut self,
        machine: &mut Machine,
        cold: &mut impl Iterator<Item = PageNum>,
    ) -> Result<bool> {
        for frame in cold {
            match machine.migrate_frame(frame, SocketId::PCM)? {
                Some(_) => {
                    self.stats.demotions += 1;
                    self.note_move();
                    return Ok(true);
                }
                None => continue, // freed since sampling; try the next one
            }
        }
        Ok(false)
    }

    /// Accounts one completed page move, in either direction.
    fn note_move(&mut self) {
        self.stats.migrations += 1;
        self.stats.migrated_bytes += ByteSize::new(PAGE_SIZE as u64);
    }

    /// The manager's activity since installation or the last
    /// [`OsPageManager::reset_stats`] (the measured iteration in the
    /// standard protocol).
    pub fn stats(&self) -> OsStats {
        self.stats
    }

    /// Zeroes the activity counts, keeping the policy; the start of a
    /// measured iteration.
    pub fn reset_stats(&mut self) {
        self.stats = OsStats::new(self.cfg.policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemu_machine::{CtxId, MachineProfile};
    use hemu_obs::ToJson;
    use hemu_types::{Addr, MemoryAccess};

    fn machine() -> Machine {
        Machine::new(MachineProfile::emulation())
    }

    #[test]
    fn non_migrating_policies_never_run_epochs() {
        let mut m = machine();
        let mut os = OsPageManager::install(&mut m, OsPagingConfig::new(OsPolicy::DramFirst));
        let p = m.add_process(SocketId::DRAM);
        os.attach_process(&mut m, p);
        m.access(CtxId(0), p, MemoryAccess::write(Addr::new(0), 1 << 20))
            .unwrap();
        os.poll(&mut m).unwrap();
        assert_eq!(os.stats().epochs, 0);
        assert!(
            m.memory().page_heat().is_none(),
            "no sampling cost without migration"
        );
    }

    #[test]
    fn epoch_fires_once_per_epoch_lines() {
        let mut m = machine();
        let mut cfg = OsPagingConfig::new(OsPolicy::HotCold);
        cfg.epoch_lines = 100;
        let mut os = OsPageManager::install(&mut m, cfg);
        let p = m.add_process(SocketId::DRAM);
        os.attach_process(&mut m, p);
        // 50 lines: below the epoch threshold.
        m.access(CtxId(0), p, MemoryAccess::write(Addr::new(0), 50 * 64))
            .unwrap();
        os.poll(&mut m).unwrap();
        assert_eq!(os.stats().epochs, 0);
        // 60 more lines crosses it exactly once.
        m.access(
            CtxId(0),
            p,
            MemoryAccess::write(Addr::new(1 << 20), 60 * 64),
        )
        .unwrap();
        os.poll(&mut m).unwrap();
        os.poll(&mut m).unwrap();
        assert_eq!(os.stats().epochs, 1, "no work, no second epoch");
    }

    #[test]
    fn poll_rebases_after_measured_iteration_reset() {
        let mut m = machine();
        let mut cfg = OsPagingConfig::new(OsPolicy::HotCold);
        cfg.epoch_lines = 100;
        let mut os = OsPageManager::install(&mut m, cfg);
        let p = m.add_process(SocketId::DRAM);
        os.attach_process(&mut m, p);
        m.access(CtxId(0), p, MemoryAccess::write(Addr::new(0), 90 * 64))
            .unwrap();
        m.start_measured_iteration();
        // line_accesses went 90 -> 0; a naive subtraction would underflow
        // or fire immediately. The rebase means we need a full epoch again.
        os.poll(&mut m).unwrap();
        assert_eq!(os.stats().epochs, 0);
        m.access(
            CtxId(0),
            p,
            MemoryAccess::write(Addr::new(1 << 20), 110 * 64),
        )
        .unwrap();
        os.poll(&mut m).unwrap();
        assert_eq!(os.stats().epochs, 1);
    }

    #[test]
    fn stats_serialize_to_json() {
        let s = OsStats {
            policy: OsPolicy::HotCold,
            epochs: 2,
            migrations: 3,
            promotions: 2,
            demotions: 1,
            migrated_bytes: ByteSize::new(3 * PAGE_SIZE as u64),
            failed_migrations: 0,
        };
        assert_eq!(
            s.to_json(),
            r#"{"policy":"OS-hot-cold","epochs":2,"migrations":3,"promotions":2,"demotions":1,"migrated_bytes":12288,"failed_migrations":0}"#
        );
    }
}
