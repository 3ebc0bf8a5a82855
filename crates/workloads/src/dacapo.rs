//! Synthetic DaCapo mutators.
//!
//! One parameter set per benchmark, derived from each application's
//! published memory behaviour: allocation volume, object-size mix,
//! survival, mutation and read intensity, large-object fraction and
//! compute density. The model allocates through the real heap API, links
//! objects (exercising the write barrier), keeps a bounded survivor window
//! (exercising promotion), and mutates and reads live objects — producing
//! the nursery/mature access stream a generational heap sees from the real
//! benchmark.

use crate::memapi::{Memory, Obj, Root};
use crate::spec::{DatasetSize, Suite};
use crate::{StepResult, Workload};
use hemu_machine::Machine;
use hemu_types::{ByteSize, Cycles, DeterministicRng, Result};
use std::collections::VecDeque;

/// Names of the 11 DaCapo benchmarks in the evaluation (§IV), including
/// the updated `lu.Fix` (useless allocation removed) and `pmd.S`
/// (scalability bottleneck removed) variants.
pub(crate) const NAMES: [&str; 11] = [
    "avrora", "bloat", "eclipse", "fop", "hsqldb", "luindex", "lusearch", "lu.Fix", "pmd", "pmd.S",
    "xalan",
];

/// Behavioural parameters of one synthetic DaCapo benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DacapoParams {
    /// Benchmark name.
    pub name: &'static str,
    /// Bytes allocated per iteration (default dataset).
    pub total_alloc: ByteSize,
    /// Smallest object payload.
    pub size_min: u64,
    /// Largest small-object payload.
    pub size_max: u64,
    /// Fraction of allocations that survive into the live window.
    pub survival: f64,
    /// Capacity of the live window in bytes (the benchmark's steady live
    /// set; roughly half its minimum heap).
    pub live_window: ByteSize,
    /// Writes to random live objects per allocated object.
    pub mutations_per_alloc: f64,
    /// Reads of random live objects per allocated object.
    pub reads_per_alloc: f64,
    /// Fraction of allocations that are large (16–64 KiB).
    pub large_frac: f64,
    /// Reference slots per object (barrier pressure).
    pub ref_slots: usize,
    /// Compute cycles per allocated object (compute-to-memory balance).
    pub compute_per_alloc: u64,
    /// Heap budget (twice the minimum heap, §IV).
    pub heap: ByteSize,
    /// Allocation multiplier for the large dataset.
    pub large_scale: u64,
}

/// Looks up the parameter set for a DaCapo benchmark name.
pub(crate) fn params_for(name: &str) -> Option<DacapoParams> {
    let mib = ByteSize::from_mib;
    let p = |name,
             total_alloc,
             size_min,
             size_max,
             survival,
             live_window,
             mutations_per_alloc,
             reads_per_alloc,
             large_frac,
             ref_slots,
             compute_per_alloc,
             heap,
             large_scale| DacapoParams {
        name,
        total_alloc,
        size_min,
        size_max,
        survival,
        live_window,
        mutations_per_alloc,
        reads_per_alloc,
        large_frac,
        ref_slots,
        compute_per_alloc,
        heap,
        large_scale,
    };
    Some(match name {
        // avrora: AVR simulator — tiny allocation, compute heavy, small
        // steady state.
        "avrora" => p(
            "avrora",
            mib(12),
            16,
            96,
            0.04,
            mib(3),
            1.5,
            4.0,
            0.0,
            1,
            900,
            mib(50),
            2,
        ),
        // bloat: bytecode optimizer — moderate churn, pointer rich.
        "bloat" => p(
            "bloat",
            mib(40),
            24,
            256,
            0.05,
            mib(6),
            1.0,
            2.0,
            0.002,
            3,
            250,
            mib(50),
            3,
        ),
        // eclipse: IDE workload — biggest DaCapo, large live set.
        "eclipse" => p(
            "eclipse",
            mib(80),
            24,
            512,
            0.08,
            mib(20),
            0.8,
            2.0,
            0.004,
            3,
            220,
            mib(90),
            2,
        ),
        // fop: XSL-FO to PDF — short run, document tree survives.
        "fop" => p(
            "fop",
            mib(20),
            24,
            384,
            0.12,
            mib(8),
            0.7,
            1.5,
            0.006,
            2,
            200,
            mib(50),
            2,
        ),
        // hsqldb: in-memory database — big live tables, mutation heavy.
        "hsqldb" => p(
            "hsqldb",
            mib(28),
            32,
            256,
            0.25,
            mib(24),
            2.0,
            2.5,
            0.002,
            2,
            180,
            mib(100),
            3,
        ),
        // luindex: Lucene indexing — streaming, modest survival.
        "luindex" => p(
            "luindex",
            mib(24),
            24,
            192,
            0.06,
            mib(4),
            0.9,
            2.0,
            0.003,
            1,
            260,
            mib(40),
            4,
        ),
        // lusearch: Lucene search — extreme allocation churn, almost
        // nothing survives; one of the high write-rate DaCapos (Fig. 6).
        "lusearch" => p(
            "lusearch",
            mib(140),
            32,
            512,
            0.01,
            mib(4),
            0.5,
            1.2,
            0.001,
            1,
            60,
            mib(40),
            3,
        ),
        // lu.Fix: lusearch with the useless allocation eliminated [55].
        "lu.Fix" => p(
            "lu.Fix",
            mib(48),
            32,
            512,
            0.03,
            mib(4),
            0.5,
            1.2,
            0.001,
            1,
            170,
            mib(40),
            3,
        ),
        // pmd: source analyser — AST heavy; the original input includes a
        // large file that becomes big mature objects [16].
        "pmd" => p(
            "pmd",
            mib(52),
            24,
            320,
            0.07,
            mib(10),
            0.9,
            1.8,
            0.010,
            4,
            200,
            mib(60),
            3,
        ),
        // pmd.S: the scalability-fixed variant without the large file.
        "pmd.S" => p(
            "pmd.S",
            mib(52),
            24,
            320,
            0.07,
            mib(10),
            0.9,
            1.8,
            0.002,
            4,
            180,
            mib(60),
            3,
        ),
        // xalan: XSLT processor — high churn and mutation (string
        // buffers); the other high write-rate DaCapo.
        "xalan" => p(
            "xalan",
            mib(110),
            32,
            448,
            0.04,
            mib(8),
            2.2,
            2.0,
            0.003,
            2,
            90,
            mib(60),
            3,
        ),
        _ => return None,
    })
}

/// Allocation batch processed per [`Workload::step`] call.
const STEP_OBJECTS: u32 = 256;

/// A running synthetic DaCapo benchmark.
#[derive(Debug)]
pub(crate) struct DacapoWorkload {
    params: DacapoParams,
    rng: DeterministicRng,
    /// Live window of (object, root) pairs with their sizes.
    live: VecDeque<(Obj, Root, u32)>,
    live_bytes: u64,
    allocated_this_iter: u64,
    target_alloc: u64,
}

impl DacapoWorkload {
    /// Creates the benchmark with a deterministic seed.
    pub(crate) fn new(params: DacapoParams, dataset: DatasetSize, seed: u64) -> Self {
        let scale = match dataset {
            DatasetSize::Default => 1,
            DatasetSize::Large => params.large_scale,
        };
        DacapoWorkload {
            params,
            rng: DeterministicRng::seeded(seed ^ fxhash(params.name)),
            live: VecDeque::new(),
            live_bytes: 0,
            allocated_this_iter: 0,
            target_alloc: params.total_alloc.bytes() * scale,
        }
    }

    fn touch_live(&mut self, machine: &mut Machine, mem: &mut Memory, write: bool) -> Result<()> {
        if self.live.is_empty() {
            return Ok(());
        }
        let idx = self.rng.below(self.live.len() as u64) as usize;
        let (obj, _, size) = self.live[idx];
        let span = (self.rng.range(8, 65) as u32).min(size);
        let off = if size > span {
            self.rng.below((size - span) as u64) as u32
        } else {
            0
        };
        if write {
            mem.write_data(machine, obj, off, span)
        } else {
            mem.read_data(machine, obj, off, span)
        }
    }
}

fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

impl Workload for DacapoWorkload {
    fn name(&self) -> &str {
        self.params.name
    }

    fn suite(&self) -> Suite {
        Suite::DaCapo
    }

    fn heap_size(&self) -> ByteSize {
        self.params.heap
    }

    fn step(&mut self, machine: &mut Machine, mem: &mut Memory) -> Result<StepResult> {
        let p = self.params;
        for _ in 0..STEP_OBJECTS {
            // Pick a size: mostly small, occasionally large.
            let data = if self.rng.chance(p.large_frac) {
                self.rng.range(16 * 1024, 64 * 1024)
            } else {
                self.rng.skewed(p.size_min, p.size_max)
            } as usize;
            let obj = mem.alloc(machine, p.ref_slots, data)?;
            let size = data as u32;
            self.allocated_this_iter += size as u64;

            // Initialise the object's payload (constructors write fields).
            mem.write_data(machine, obj, 0, size.min(64))?;

            // Link into the live graph occasionally: exercises the write
            // barrier with old→young pointers.
            if p.ref_slots > 0 && !self.live.is_empty() && self.rng.chance(0.3) {
                let idx = self.rng.below(self.live.len() as u64) as usize;
                let (holder, _, _) = self.live[idx];
                let slot = self.rng.below(p.ref_slots as u64) as usize;
                mem.write_ref(machine, holder, slot, Some(obj))?;
            }

            // Survival: root it into the live window.
            if self.rng.chance(p.survival) {
                let root = mem.add_root(obj);
                self.live.push_back((obj, root, size));
                self.live_bytes += size as u64;
                while self.live_bytes > p.live_window.bytes() {
                    let Some((dead, root, sz)) = self.live.pop_front() else {
                        break;
                    };
                    mem.drop_root(root);
                    mem.free(dead); // explicit free is a no-op when managed
                    self.live_bytes -= sz as u64;
                }
            } else if !mem.is_managed() {
                mem.free(obj);
            }

            // Mutations and reads against the live set.
            let mut writes = p.mutations_per_alloc;
            while writes >= 1.0 || self.rng.chance(writes) {
                self.touch_live(machine, mem, true)?;
                writes -= 1.0;
                if writes < 0.0 {
                    break;
                }
            }
            let mut reads = p.reads_per_alloc;
            while reads >= 1.0 || self.rng.chance(reads) {
                self.touch_live(machine, mem, false)?;
                reads -= 1.0;
                if reads < 0.0 {
                    break;
                }
            }

            mem.compute(machine, Cycles::new(p.compute_per_alloc));
        }
        if self.allocated_this_iter >= self.target_alloc {
            Ok(StepResult::IterationDone)
        } else {
            Ok(StepResult::Running)
        }
    }

    fn start_iteration(&mut self) {
        self.allocated_this_iter = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eleven_benchmarks_have_parameters() {
        for name in NAMES {
            let p = params_for(name).unwrap();
            assert_eq!(p.name, name);
            assert!(p.total_alloc.bytes() > 0);
            assert!(
                p.heap > p.live_window,
                "{name}: heap must exceed live window"
            );
            assert!(p.survival > 0.0 && p.survival < 1.0);
        }
        assert!(params_for("jython").is_none(), "jython was dropped (§IV)");
    }

    #[test]
    fn lusearch_fix_allocates_much_less() {
        // lu.Fix eliminates useless allocation [55].
        let lu = params_for("lusearch").unwrap();
        let luf = params_for("lu.Fix").unwrap();
        assert!(luf.total_alloc.bytes() * 2 < lu.total_alloc.bytes());
    }

    #[test]
    fn pmd_s_differs_only_in_input_related_parameters() {
        let pmd = params_for("pmd").unwrap();
        let pmds = params_for("pmd.S").unwrap();
        assert_eq!(pmd.total_alloc, pmds.total_alloc);
        assert!(
            pmds.large_frac < pmd.large_frac,
            "pmd.S drops the large input file"
        );
    }

    #[test]
    fn large_dataset_scales_target_allocation() {
        let p = params_for("luindex").unwrap();
        let d = DacapoWorkload::new(p, DatasetSize::Default, 1);
        let l = DacapoWorkload::new(p, DatasetSize::Large, 1);
        assert_eq!(l.target_alloc, d.target_alloc * p.large_scale);
    }
}
