//! The runtime fault injector consulted at each injection point.

use crate::plan::FaultPlan;
use hemu_types::{DeterministicRng, HemuError, Result};

/// Executes a [`FaultPlan`] against a running experiment.
///
/// The injector owns its own [`DeterministicRng`] stream seeded from the
/// plan, so injected faults are a pure function of the plan — independent
/// of the workload's randomness and of wall-clock time.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: DeterministicRng,
    managed_allocs: u64,
    qpi_line_phase: u64,
    frame_faults_injected: u64,
    stall_cycles_injected: u64,
}

impl FaultInjector {
    /// Creates an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = DeterministicRng::seeded(plan.seed);
        FaultInjector {
            plan,
            rng,
            managed_allocs: 0,
            qpi_line_phase: 0,
            frame_faults_injected: 0,
            stall_cycles_injected: 0,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection point: one physical-frame allocation is about to happen.
    ///
    /// # Errors
    ///
    /// Returns a transient [`HemuError::FaultInjected`] with probability
    /// `plan.frame_alloc_p`.
    pub fn on_frame_alloc(&mut self) -> Result<()> {
        if self.plan.frame_alloc_p > 0.0 && self.rng.chance(self.plan.frame_alloc_p) {
            self.frame_faults_injected += 1;
            return Err(HemuError::FaultInjected {
                kind: "frame-alloc",
                transient: true,
            });
        }
        Ok(())
    }

    /// Injection point: one managed-heap allocation is about to happen.
    ///
    /// # Errors
    ///
    /// Returns a persistent [`HemuError::FaultInjected`] from the Nth
    /// allocation onward when the plan sets `oom_at_alloc = Some(n)`. The
    /// error persists for later allocations so GC-and-retry slow paths
    /// cannot mask the injected exhaustion.
    pub fn on_managed_alloc(&mut self) -> Result<()> {
        self.managed_allocs += 1;
        if let Some(n) = self.plan.oom_at_alloc {
            if self.managed_allocs >= n {
                return Err(HemuError::FaultInjected {
                    kind: "forced-oom",
                    transient: false,
                });
            }
        }
        Ok(())
    }

    /// Injection point: `lines` cache lines just crossed the QPI link.
    ///
    /// Returns the extra stall cycles to charge (0 when no burst is due).
    pub fn on_remote_lines(&mut self, lines: u64) -> u64 {
        let Some(burst) = self.plan.qpi_burst else {
            return 0;
        };
        self.qpi_line_phase += lines;
        let mut stall = 0;
        while self.qpi_line_phase >= burst.period_lines {
            self.qpi_line_phase -= burst.period_lines;
            stall += burst.stall_cycles;
        }
        self.stall_cycles_injected += stall;
        stall
    }

    /// Transient frame-allocation faults injected so far.
    pub fn frame_faults_injected(&self) -> u64 {
        self.frame_faults_injected
    }

    /// QPI stall cycles injected so far.
    pub fn stall_cycles_injected(&self) -> u64 {
        self.stall_cycles_injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::QpiBurst;

    #[test]
    fn inert_plan_never_injects() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        for _ in 0..10_000 {
            assert!(inj.on_frame_alloc().is_ok());
            assert!(inj.on_managed_alloc().is_ok());
            assert_eq!(inj.on_remote_lines(64), 0);
        }
        assert_eq!(inj.frame_faults_injected(), 0);
        assert_eq!(inj.stall_cycles_injected(), 0);
    }

    #[test]
    fn same_plan_injects_identically() {
        let plan = FaultPlan::parse("alloc_p=0.1,seed=5").unwrap();
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for _ in 0..2000 {
            assert_eq!(a.on_frame_alloc().is_ok(), b.on_frame_alloc().is_ok());
        }
        assert!(a.frame_faults_injected() > 0, "p=0.1 must fire in 2000");
    }

    #[test]
    fn forced_oom_fires_at_nth_and_persists() {
        let plan = FaultPlan::parse("oom_at=3").unwrap();
        let mut inj = FaultInjector::new(plan);
        assert!(inj.on_managed_alloc().is_ok());
        assert!(inj.on_managed_alloc().is_ok());
        let err = inj.on_managed_alloc().unwrap_err();
        assert!(matches!(
            err,
            HemuError::FaultInjected {
                kind: "forced-oom",
                transient: false
            }
        ));
        assert!(inj.on_managed_alloc().is_err(), "error must persist");
    }

    #[test]
    fn qpi_bursts_fire_every_period() {
        let mut plan = FaultPlan::none();
        plan.qpi_burst = Some(QpiBurst {
            period_lines: 100,
            stall_cycles: 7,
        });
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.on_remote_lines(99), 0);
        assert_eq!(inj.on_remote_lines(1), 7);
        // A large batch can span multiple periods.
        assert_eq!(inj.on_remote_lines(250), 14);
        assert_eq!(inj.stall_cycles_injected(), 21);
    }
}
