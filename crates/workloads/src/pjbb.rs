//! A pseudojbb2005 model: warehouse-resident order processing.
//!
//! Pjbb is SPECjbb2005 with a fixed amount of work. Its memory behaviour
//! differs from DaCapo's in ways the paper highlights (§VI.C): a much
//! larger live heap (warehouse item tables and order history), about 2× the
//! PCM writes of the average DaCapo benchmark, and steady transactional
//! churn. The model keeps per-warehouse item tables as long-lived arrays,
//! processes transactions that allocate short-lived order objects, and
//! retains a rolling history of completed orders.

use crate::memapi::{Memory, Obj, Root};
use crate::spec::{DatasetSize, Suite};
use crate::{StepResult, Workload};
use hemu_machine::Machine;
use hemu_types::{ByteSize, Cycles, DeterministicRng, Result};
use std::collections::VecDeque;

const WAREHOUSES: usize = 6;
/// Item-table entries per warehouse (long-lived array objects of 32 KiB).
const ITEM_CHUNKS_PER_WAREHOUSE: usize = 128; // 128 × 32 KiB = 4 MiB each
const ITEM_CHUNK_BYTES: u32 = 32 * 1024;
/// Orders retained in the rolling history.
const HISTORY_CAP: usize = 20_000;
/// Transactions per step.
const STEP_TXNS: u32 = 96;

/// A running Pjbb instance.
#[derive(Debug)]
pub(crate) struct PjbbWorkload {
    rng: DeterministicRng,
    phase: Phase,
    /// Item tables: `WAREHOUSES × ITEM_CHUNKS` long-lived arrays.
    items: Vec<(Obj, Root)>,
    history: VecDeque<(Obj, Root)>,
    txns_done: u64,
    txn_target: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Populating the warehouses.
    Build { chunk: usize },
    /// Processing transactions.
    Run,
}

impl PjbbWorkload {
    /// Creates a Pjbb instance.
    pub(crate) fn new(dataset: DatasetSize, seed: u64) -> Self {
        let scale = match dataset {
            DatasetSize::Default => 1,
            DatasetSize::Large => 3,
        };
        PjbbWorkload {
            rng: DeterministicRng::seeded(seed ^ 0x50_4a_42_42),
            phase: Phase::Build { chunk: 0 },
            items: Vec::new(),
            history: VecDeque::new(),
            txns_done: 0,
            txn_target: 60_000 * scale,
        }
    }
}

impl Workload for PjbbWorkload {
    fn name(&self) -> &str {
        "pjbb"
    }

    fn suite(&self) -> Suite {
        Suite::Pjbb
    }

    fn heap_size(&self) -> ByteSize {
        // ~24 MiB of warehouses + history; twice the minimum.
        ByteSize::from_mib(100)
    }

    fn step(&mut self, machine: &mut Machine, mem: &mut Memory) -> Result<StepResult> {
        match self.phase {
            Phase::Build { chunk } => {
                let total = WAREHOUSES * ITEM_CHUNKS_PER_WAREHOUSE;
                // Build a handful of item chunks per step.
                let end = (chunk + 8).min(total);
                for _ in chunk..end {
                    let o = mem.alloc(machine, 0, ITEM_CHUNK_BYTES as usize)?;
                    mem.write_data(machine, o, 0, ITEM_CHUNK_BYTES)?;
                    let r = mem.add_root(o);
                    self.items.push((o, r));
                }
                self.phase = if end == total {
                    Phase::Run
                } else {
                    Phase::Build { chunk: end }
                };
                Ok(StepResult::Running)
            }
            Phase::Run => {
                for _ in 0..STEP_TXNS {
                    // An order: a header object plus a few line items. The
                    // order is rooted immediately — it lives in a local
                    // variable, which is a stack root in the real VM — so
                    // a collection triggered by a line-item allocation
                    // cannot reclaim it.
                    let order = mem.alloc(machine, 4, 96)?;
                    let root = mem.add_root(order);
                    mem.write_data(machine, order, 0, 96)?;
                    let lines = self.rng.range(2, 6);
                    for l in 0..lines {
                        let line = mem.alloc(machine, 0, 64)?;
                        mem.write_data(machine, line, 0, 64)?;
                        if l < 4 {
                            mem.write_ref(machine, order, l as usize, Some(line))?;
                        }
                        // Look up the item table: read a random entry and
                        // update stock (read-modify-write).
                        let (chunk, _) =
                            self.items[self.rng.below(self.items.len() as u64) as usize];
                        let off = self.rng.below((ITEM_CHUNK_BYTES - 16) as u64) as u32;
                        mem.read_data(machine, chunk, off, 16)?;
                        mem.write_data(machine, chunk, off, 8)?;
                    }
                    // Retain the order in the rolling history.
                    self.history.push_back((order, root));
                    if self.history.len() > HISTORY_CAP {
                        if let Some((old, r)) = self.history.pop_front() {
                            mem.drop_root(r);
                            mem.free(old);
                        }
                    }
                    mem.compute(machine, Cycles::new(400));
                    self.txns_done += 1;
                }
                if self.txns_done >= self.txn_target {
                    Ok(StepResult::IterationDone)
                } else {
                    Ok(StepResult::Running)
                }
            }
        }
    }

    fn start_iteration(&mut self) {
        self.txns_done = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemu_heap::{CollectorKind, ManagedHeap};
    use hemu_machine::{CtxId, MachineProfile};
    use hemu_types::SocketId;

    #[test]
    fn pjbb_builds_then_processes_transactions() {
        let mut m = Machine::new(MachineProfile::emulation());
        let p = m.add_process(SocketId::DRAM);
        let cfg = CollectorKind::KgN.config(ByteSize::from_mib(4), ByteSize::from_mib(100));
        let heap = ManagedHeap::new(&mut m, p, CtxId(0), cfg).unwrap();
        let mut mem = Memory::managed(heap);
        let mut w = PjbbWorkload::new(DatasetSize::Default, 7);
        // Run enough steps to finish building (768 item chunks at 8 per
        // step = 96 steps) and then process transactions.
        for _ in 0..120 {
            if w.step(&mut m, &mut mem).unwrap() == StepResult::IterationDone {
                break;
            }
        }
        assert!(matches!(w.phase, Phase::Run));
        assert!(w.txns_done > 0);
        assert!(mem.allocated_bytes() > 12 << 20, "warehouses built");
    }
}
