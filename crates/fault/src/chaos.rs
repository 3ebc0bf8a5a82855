//! Process-exit chaos: abrupt kills for crash-safety self-tests.
//!
//! The crash-safe sweep layer in `hemu-bench` claims that a sweep killed
//! at any instant can be resumed to byte-identical artifacts. The other
//! injectors in this crate exercise *in-process* failures (allocation
//! faults, OOM, stalls) that the harness catches and retries; this one
//! exercises the failure the harness cannot catch — the process dying.
//!
//! [`ChaosKill`] counts committed runs and, when armed with
//! `--chaos-kill-after <n>`, tells the harness to terminate the process
//! abruptly (no destructors, no export finalization) right after the Nth
//! run commits. CI uses it to prove run → kill → resume → identical-diff
//! end-to-end.

/// Exit code used for a chaos-induced abrupt exit. Matches the exit code
/// a SIGKILLed process reports through the shell (128 + 9), so scripts
/// can treat a chaos exit like a real kill.
pub const CHAOS_EXIT_CODE: i32 = 137;

/// Counts run commits and fires once after a configured number.
///
/// Disarmed by default; [`ChaosKill::after`] arms it. The decision to
/// actually exit the process is left to the caller (the bench harness),
/// keeping this crate free of process-global side effects.
#[derive(Debug, Clone, Default)]
pub struct ChaosKill {
    /// Remaining commits before the kill fires; `None` = disarmed.
    remaining: Option<u64>,
}

impl ChaosKill {
    /// Arms the hook to fire after `n` commits. `n = 0` fires on the
    /// very first commit.
    pub fn after(n: u64) -> Self {
        ChaosKill { remaining: Some(n) }
    }

    /// Records one committed run. Returns `true` when the caller must
    /// now kill the process (with [`CHAOS_EXIT_CODE`]); at most one call
    /// ever returns `true`.
    pub fn on_commit(&mut self) -> bool {
        match &mut self.remaining {
            None => false,
            Some(0) => {
                self.remaining = None;
                true
            }
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    self.remaining = None;
                    true
                } else {
                    false
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_never_fires() {
        let mut c = ChaosKill::default();
        for _ in 0..100 {
            assert!(!c.on_commit());
        }
    }

    #[test]
    fn fires_exactly_once_after_n_commits() {
        let mut c = ChaosKill::after(3);
        assert!(!c.on_commit());
        assert!(!c.on_commit());
        assert!(c.on_commit(), "third commit must fire");
        // Never fires again, even if the caller ignores the signal.
        for _ in 0..10 {
            assert!(!c.on_commit());
        }
    }

    #[test]
    fn zero_fires_on_first_commit() {
        let mut c = ChaosKill::after(0);
        assert!(c.on_commit());
        assert!(!c.on_commit());
    }
}
