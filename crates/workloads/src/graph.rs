//! The GraphChi applications: PageRank, Connected Components and ALS
//! matrix factorisation, implemented for real over synthetic datasets.
//!
//! The paper processes 1 M edges of the LiveJournal social network (PR,
//! CC) and 1 M ratings of the Netflix Challenge training set (ALS); the
//! large dataset is 10 M edges / 10 M ratings. Both datasets are
//! proprietary or impractically large to ship, so we generate synthetic
//! equivalents with the same shape: power-law degree distributions from a
//! Zipf sampler (social graphs) and Zipf-popular items (ratings).
//!
//! Each application runs in two modes over the same algorithm code:
//!
//! * **Java** ([`Memory::Managed`]): vertex/edge state lives in chunked
//!   arrays that are *reallocated each iteration* (as the Java GraphChi
//!   engine does), and per-edge updates box temporary values — the
//!   allocation-heavy behaviour behind Fig. 3;
//! * **C++** ([`Memory::Native`]): the same arrays are allocated once and
//!   updated in place, and temporaries stay in registers.

use crate::memapi::{Memory, Obj, Root};
use crate::spec::{DatasetSize, Suite};
use crate::{StepResult, Workload};
use hemu_machine::Machine;
use hemu_types::{ByteSize, Cycles, DeterministicRng, Result};

/// Chunk size for application arrays (a GraphChi shard buffer).
const ARRAY_CHUNK: u32 = 32 * 1024;

/// A synthetic power-law graph.
#[derive(Debug, Clone)]
pub(crate) struct GraphDataset {
    /// Number of vertices.
    pub vertices: u32,
    /// Directed edges (source, destination).
    pub edges: Vec<(u32, u32)>,
}

/// Generates a power-law graph with `n` vertices and `m` edges.
///
/// Sources and destinations are drawn from Zipf distributions and
/// scattered with a multiplicative hash so the hot vertices are not
/// address-adjacent — matching the locality profile of a real social
/// graph.
pub(crate) fn generate_graph(n: u32, m: u64, seed: u64) -> GraphDataset {
    let mut rng = DeterministicRng::seeded(seed);
    let scatter = |v: u64, n: u64| -> u32 { ((v.wrapping_mul(0x9E37_79B9) + 7) % n) as u32 };
    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let u = scatter(rng.zipf(n as u64, 0.8), n as u64);
        let mut v = scatter(rng.zipf(n as u64, 0.8), n as u64);
        if u == v {
            v = (v + 1) % n;
        }
        edges.push((u, v));
    }
    GraphDataset { vertices: n, edges }
}

/// A synthetic ratings dataset (Netflix-Challenge shaped).
#[derive(Debug, Clone)]
pub(crate) struct RatingsDataset {
    /// Number of users.
    pub users: u32,
    /// Number of items.
    pub items: u32,
    /// (user, item) rating pairs.
    pub ratings: Vec<(u32, u32)>,
}

/// Generates `m` ratings over `users × items` with Zipf-popular items.
pub(crate) fn generate_ratings(users: u32, items: u32, m: u64, seed: u64) -> RatingsDataset {
    let mut rng = DeterministicRng::seeded(seed ^ 0xA15);
    let mut ratings = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let u = rng.below(users as u64) as u32;
        let i = rng.zipf(items as u64, 0.8) as u32;
        ratings.push((u, i));
    }
    RatingsDataset {
        users,
        items,
        ratings,
    }
}

/// An application array stored as rooted 32 KiB chunks, with per-entry
/// read/write traffic helpers.
#[derive(Debug, Default)]
struct ChunkedArray {
    chunks: Vec<(Obj, Root)>,
    entry_bytes: u32,
    entries_per_chunk: u32,
}

impl ChunkedArray {
    fn build(
        machine: &mut Machine,
        mem: &mut Memory,
        entries: u64,
        entry_bytes: u32,
        initialise: bool,
    ) -> Result<Self> {
        let entries_per_chunk = ARRAY_CHUNK / entry_bytes;
        let chunk_count = entries.div_ceil(entries_per_chunk as u64);
        let mut chunks = Vec::with_capacity(chunk_count as usize);
        for _ in 0..chunk_count {
            let o = mem.alloc(machine, 0, ARRAY_CHUNK as usize)?;
            if initialise {
                mem.write_data(machine, o, 0, ARRAY_CHUNK)?;
            }
            let r = mem.add_root(o);
            chunks.push((o, r));
        }
        Ok(ChunkedArray {
            chunks,
            entry_bytes,
            entries_per_chunk,
        })
    }

    fn locate(&self, index: u64) -> (Obj, u32) {
        let chunk = (index / self.entries_per_chunk as u64) as usize;
        let off = (index % self.entries_per_chunk as u64) as u32 * self.entry_bytes;
        (self.chunks[chunk].0, off)
    }

    fn read(&self, machine: &mut Machine, mem: &mut Memory, index: u64) -> Result<()> {
        let (obj, off) = self.locate(index);
        mem.read_data(machine, obj, off, self.entry_bytes)
    }

    fn write(&self, machine: &mut Machine, mem: &mut Memory, index: u64) -> Result<()> {
        let (obj, off) = self.locate(index);
        mem.write_data(machine, obj, off, self.entry_bytes)
    }

    /// Streams the whole array: one read (and optionally one write) per
    /// chunk, as an end-of-iteration sweep does.
    fn sweep(&self, machine: &mut Machine, mem: &mut Memory, write_back: bool) -> Result<()> {
        for &(obj, _) in &self.chunks {
            mem.read_data(machine, obj, 0, ARRAY_CHUNK)?;
            if write_back {
                mem.write_data(machine, obj, 0, ARRAY_CHUNK)?;
            }
        }
        Ok(())
    }

    /// Sequentially writes `entries` entries starting at `start_entry`
    /// (wrapping), chunk segment by chunk segment — a GraphChi shard
    /// write-back. Sequential write-back dirties each cache line once,
    /// unlike scattered in-place updates.
    fn flush_region(
        &self,
        machine: &mut Machine,
        mem: &mut Memory,
        start_entry: u64,
        entries: u64,
    ) -> Result<()> {
        if self.chunks.is_empty() || entries == 0 {
            return Ok(());
        }
        let total = self.chunks.len() as u64 * self.entries_per_chunk as u64;
        let mut remaining = entries.min(total);
        let mut pos = start_entry % total;
        while remaining > 0 {
            let chunk = (pos / self.entries_per_chunk as u64) as usize;
            let entry_in_chunk = pos % self.entries_per_chunk as u64;
            let n = remaining.min(self.entries_per_chunk as u64 - entry_in_chunk);
            mem.write_data(
                machine,
                self.chunks[chunk].0,
                (entry_in_chunk * self.entry_bytes as u64) as u32,
                (n * self.entry_bytes as u64) as u32,
            )?;
            pos = (pos + n) % total;
            remaining -= n;
        }
        Ok(())
    }
}

/// Replaces the per-interval shard buffer: the old one (if any) dies, a
/// fresh one is allocated and partially written. GraphChi's engine
/// allocates such short-lived large buffers per execution interval; they
/// are the main beneficiaries of the Large Object Optimization.
fn replace_interval_buffer(
    machine: &mut Machine,
    mem: &mut Memory,
    slot: &mut Option<(Obj, Root)>,
) -> Result<()> {
    if let Some((old, root)) = slot.take() {
        mem.drop_root(root);
        mem.free(old);
    }
    let buf = mem.alloc(machine, 0, 32 * 1024)?;
    mem.write_data(machine, buf, 0, 8 * 1024)?;
    let root = mem.add_root(buf);
    *slot = Some((buf, root));
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Build { pos: u64 },
    Iterate { iteration: u32, pos: u64 },
    Done,
}

/// Edges (or ratings) processed per step call.
const STEP_EDGES: u64 = 8192;
/// Entries of the on-heap edge array per build step.
const BUILD_EDGES: u64 = 65_536;

fn dataset_edges(dataset: DatasetSize) -> (u32, u64) {
    // The vertex universe is LiveJournal-shaped (millions of vertices), so
    // the per-iteration vertex arrays alone exceed the 20 MiB LLC; the
    // default dataset processes 1 M edges and the large one 10 M (§IV).
    match dataset {
        DatasetSize::Default => (1 << 22, 1_000_000),
        DatasetSize::Large => (1 << 22, 10_000_000),
    }
}

// ---------------------------------------------------------------------
// PageRank
// ---------------------------------------------------------------------

/// GraphChi PageRank (PR).
#[derive(Debug)]
pub(crate) struct PageRank {
    graph: GraphDataset,
    phase: Phase,
    iterations: u32,
    edge_array: ChunkedArray,
    ranks: ChunkedArray,
    next: ChunkedArray,
    interval_buffer: Option<(Obj, Root)>,
    heap: ByteSize,
}

impl PageRank {
    /// Creates a PageRank run over the chosen dataset.
    pub(crate) fn new(dataset: DatasetSize, seed: u64) -> Self {
        let (n, m) = dataset_edges(dataset);
        PageRank {
            graph: generate_graph(n, m, seed ^ 0x47),
            phase: Phase::Build { pos: 0 },
            iterations: 2,
            edge_array: ChunkedArray::default(),
            ranks: ChunkedArray::default(),
            next: ChunkedArray::default(),
            interval_buffer: None,
            heap: match dataset {
                DatasetSize::Default => ByteSize::from_mib(160),
                DatasetSize::Large => ByteSize::from_mib(384),
            },
        }
    }
}

impl Workload for PageRank {
    fn name(&self) -> &str {
        "pr"
    }

    fn suite(&self) -> Suite {
        Suite::GraphChi
    }

    fn heap_size(&self) -> ByteSize {
        self.heap
    }

    fn step(&mut self, machine: &mut Machine, mem: &mut Memory) -> Result<StepResult> {
        match self.phase {
            Phase::Build { pos } => {
                if pos == 0 {
                    self.edge_array = ChunkedArray::build(
                        machine, mem, 0, // chunks appended below as edges stream in
                        8, false,
                    )?;
                    self.edge_array.entry_bytes = 8;
                    self.edge_array.entries_per_chunk = ARRAY_CHUNK / 8;
                    self.ranks =
                        ChunkedArray::build(machine, mem, self.graph.vertices as u64, 8, true)?;
                    self.next =
                        ChunkedArray::build(machine, mem, self.graph.vertices as u64, 8, true)?;
                }
                // Stream a slab of edges into the on-heap edge array.
                let end = (pos + BUILD_EDGES).min(self.graph.edges.len() as u64);
                let need_chunks = end.div_ceil(self.edge_array.entries_per_chunk as u64) as usize;
                while self.edge_array.chunks.len() < need_chunks {
                    let o = mem.alloc(machine, 0, ARRAY_CHUNK as usize)?;
                    mem.write_data(machine, o, 0, ARRAY_CHUNK)?;
                    let r = mem.add_root(o);
                    self.edge_array.chunks.push((o, r));
                }
                self.phase = if end == self.graph.edges.len() as u64 {
                    Phase::Iterate {
                        iteration: 0,
                        pos: 0,
                    }
                } else {
                    Phase::Build { pos: end }
                };
                Ok(StepResult::Running)
            }
            Phase::Iterate { iteration, pos } => {
                let m = self.graph.edges.len() as u64;
                let end = (pos + STEP_EDGES).min(m);
                let managed = mem.is_managed();
                for e in pos..end {
                    let (u, v) = self.graph.edges[e as usize];
                    self.edge_array.read(machine, mem, e)?;
                    self.ranks.read(machine, mem, u as u64)?;
                    if managed {
                        // Java: per-edge updates accumulate in freshly
                        // allocated interval objects (ChiVertex wrappers
                        // and boxed floats); the shard is written back
                        // sequentially at the end of the interval.
                        let wrapper = mem.alloc(machine, 0, 40)?;
                        mem.write_data(machine, wrapper, 0, 32)?;
                        if e % 2 == 0 {
                            let boxed = mem.alloc(machine, 0, 8)?;
                            mem.write_data(machine, boxed, 0, 8)?;
                        }
                    } else {
                        // C++: in-place scattered accumulation.
                        self.next.write(machine, mem, v as u64)?;
                    }
                    machine.compute(mem.ctx(), Cycles::new(12));
                }
                if managed {
                    // Sequential shard write-back of this interval.
                    self.next.flush_region(machine, mem, pos, end - pos)?;
                    // The engine's sliding-shard buffer: a short-lived
                    // large object per interval (the LOO's main target).
                    replace_interval_buffer(machine, mem, &mut self.interval_buffer)?;
                }
                if end < m {
                    self.phase = Phase::Iterate {
                        iteration,
                        pos: end,
                    };
                    return Ok(StepResult::Running);
                }
                // End of super-step: fold `next` into `ranks`. Java swaps
                // the managed array references after a read-only
                // normalisation pass; C++ copies the accumulator back into
                // the rank array in place.
                self.next.sweep(machine, mem, false)?;
                if managed {
                    std::mem::swap(&mut self.ranks, &mut self.next);
                } else {
                    self.ranks.sweep(machine, mem, true)?;
                }
                if iteration + 1 == self.iterations {
                    self.phase = Phase::Done;
                    Ok(StepResult::IterationDone)
                } else {
                    self.phase = Phase::Iterate {
                        iteration: iteration + 1,
                        pos: 0,
                    };
                    Ok(StepResult::Running)
                }
            }
            Phase::Done => {
                self.phase = Phase::Iterate {
                    iteration: 0,
                    pos: 0,
                };
                self.step(machine, mem)
            }
        }
    }

    fn start_iteration(&mut self) {
        if !matches!(self.phase, Phase::Build { .. }) {
            self.phase = Phase::Iterate {
                iteration: 0,
                pos: 0,
            };
        }
    }
}

// ---------------------------------------------------------------------
// Connected Components
// ---------------------------------------------------------------------

/// GraphChi Connected Components (CC): label propagation to a fixpoint.
#[derive(Debug)]
pub(crate) struct ConnectedComponents {
    graph: GraphDataset,
    phase: Phase,
    iterations: u32,
    labels: Vec<u32>,
    edge_array: ChunkedArray,
    label_array: ChunkedArray,
    interval_buffer: Option<(Obj, Root)>,
    heap: ByteSize,
    changes_this_sweep: u64,
}

impl ConnectedComponents {
    /// Creates a CC run over the chosen dataset.
    pub(crate) fn new(dataset: DatasetSize, seed: u64) -> Self {
        let (n, m) = dataset_edges(dataset);
        let graph = generate_graph(n, m, seed ^ 0xCC);
        ConnectedComponents {
            labels: (0..graph.vertices).collect(),
            graph,
            phase: Phase::Build { pos: 0 },
            iterations: 3,
            edge_array: ChunkedArray::default(),
            label_array: ChunkedArray::default(),
            interval_buffer: None,
            heap: match dataset {
                DatasetSize::Default => ByteSize::from_mib(96),
                DatasetSize::Large => ByteSize::from_mib(288),
            },
            changes_this_sweep: 0,
        }
    }
}

impl Workload for ConnectedComponents {
    fn name(&self) -> &str {
        "cc"
    }

    fn suite(&self) -> Suite {
        Suite::GraphChi
    }

    fn heap_size(&self) -> ByteSize {
        self.heap
    }

    fn step(&mut self, machine: &mut Machine, mem: &mut Memory) -> Result<StepResult> {
        match self.phase {
            Phase::Build { pos } => {
                if pos == 0 {
                    self.edge_array =
                        ChunkedArray::build(machine, mem, self.graph.edges.len() as u64, 8, true)?;
                    self.label_array =
                        ChunkedArray::build(machine, mem, self.graph.vertices as u64, 8, true)?;
                }
                self.phase = Phase::Iterate {
                    iteration: 0,
                    pos: 0,
                };
                Ok(StepResult::Running)
            }
            Phase::Iterate { iteration, pos } => {
                let m = self.graph.edges.len() as u64;
                let end = (pos + STEP_EDGES).min(m);
                let managed = mem.is_managed();
                let mut changes_this_quantum = 0u64;
                for e in pos..end {
                    let (u, v) = self.graph.edges[e as usize];
                    self.edge_array.read(machine, mem, e)?;
                    self.label_array.read(machine, mem, u as u64)?;
                    self.label_array.read(machine, mem, v as u64)?;
                    let (lu, lv) = (self.labels[u as usize], self.labels[v as usize]);
                    if lu != lv {
                        let min = lu.min(lv);
                        self.labels[u as usize] = min;
                        self.labels[v as usize] = min;
                        changes_this_quantum += 2;
                        self.changes_this_sweep += 1;
                        if managed {
                            // Java: every propagated label is a boxed
                            // message object in the GraphChi-Java engine.
                            let boxed = mem.alloc(machine, 0, 24)?;
                            mem.write_data(machine, boxed, 0, 16)?;
                        } else {
                            // C++: in-place scattered label stores.
                            self.label_array.write(machine, mem, u as u64)?;
                            self.label_array.write(machine, mem, v as u64)?;
                        }
                    }
                    machine.compute(mem.ctx(), Cycles::new(10));
                }
                if managed {
                    self.label_array
                        .flush_region(machine, mem, pos, changes_this_quantum)?;
                    replace_interval_buffer(machine, mem, &mut self.interval_buffer)?;
                }
                if end < m {
                    self.phase = Phase::Iterate {
                        iteration,
                        pos: end,
                    };
                    return Ok(StepResult::Running);
                }
                let converged = self.changes_this_sweep == 0;
                self.changes_this_sweep = 0;
                if converged || iteration + 1 == self.iterations {
                    self.phase = Phase::Done;
                    Ok(StepResult::IterationDone)
                } else {
                    self.phase = Phase::Iterate {
                        iteration: iteration + 1,
                        pos: 0,
                    };
                    Ok(StepResult::Running)
                }
            }
            Phase::Done => {
                self.phase = Phase::Iterate {
                    iteration: 0,
                    pos: 0,
                };
                self.step(machine, mem)
            }
        }
    }

    fn start_iteration(&mut self) {
        if !matches!(self.phase, Phase::Build { .. }) {
            self.phase = Phase::Iterate {
                iteration: 0,
                pos: 0,
            };
        }
        // A fresh benchmark iteration recomputes components from scratch.
        self.labels = (0..self.graph.vertices).collect();
        self.changes_this_sweep = 0;
    }
}

// ---------------------------------------------------------------------
// ALS matrix factorisation
// ---------------------------------------------------------------------

/// GraphChi ALS matrix factorisation over a ratings matrix.
#[derive(Debug)]
pub(crate) struct Als {
    ratings: RatingsDataset,
    phase: Phase,
    sweeps: u32,
    rating_array: ChunkedArray,
    user_vecs: ChunkedArray,
    item_vecs: ChunkedArray,
    interval_buffer: Option<(Obj, Root)>,
    heap: ByteSize,
}

impl Als {
    /// Creates an ALS run: 64-byte latent-factor vectors per user and
    /// item, alternating user and item sweeps.
    pub(crate) fn new(dataset: DatasetSize, seed: u64) -> Self {
        // Netflix-Challenge shaped: ~half a million users, a small item
        // catalogue, 1 M (default) or 10 M (large) ratings.
        let (users, items, m) = match dataset {
            DatasetSize::Default => (1 << 19, 1 << 14, 1_000_000),
            DatasetSize::Large => (1 << 19, 1 << 14, 10_000_000),
        };
        Als {
            ratings: generate_ratings(users, items, m, seed),
            phase: Phase::Build { pos: 0 },
            sweeps: 1,
            rating_array: ChunkedArray::default(),
            user_vecs: ChunkedArray::default(),
            item_vecs: ChunkedArray::default(),
            interval_buffer: None,
            heap: match dataset {
                DatasetSize::Default => ByteSize::from_mib(128),
                DatasetSize::Large => ByteSize::from_mib(288),
            },
        }
    }
}

impl Workload for Als {
    fn name(&self) -> &str {
        "als"
    }

    fn suite(&self) -> Suite {
        Suite::GraphChi
    }

    fn heap_size(&self) -> ByteSize {
        self.heap
    }

    fn step(&mut self, machine: &mut Machine, mem: &mut Memory) -> Result<StepResult> {
        match self.phase {
            Phase::Build { pos } => {
                if pos == 0 {
                    self.rating_array = ChunkedArray::build(
                        machine,
                        mem,
                        self.ratings.ratings.len() as u64,
                        8,
                        true,
                    )?;
                    self.user_vecs =
                        ChunkedArray::build(machine, mem, self.ratings.users as u64, 64, true)?;
                    self.item_vecs =
                        ChunkedArray::build(machine, mem, self.ratings.items as u64, 64, true)?;
                }
                self.phase = Phase::Iterate {
                    iteration: 0,
                    pos: 0,
                };
                Ok(StepResult::Running)
            }
            Phase::Iterate { iteration, pos } => {
                let m = self.ratings.ratings.len() as u64;
                let end = (pos + STEP_EDGES).min(m);
                let user_sweep = iteration % 2 == 0;
                let managed = mem.is_managed();
                for e in pos..end {
                    let (u, i) = self.ratings.ratings[e as usize];
                    self.rating_array.read(machine, mem, e)?;
                    self.user_vecs.read(machine, mem, u as u64)?;
                    self.item_vecs.read(machine, mem, i as u64)?;
                    if managed {
                        // Java: the solver accumulates into a temporary
                        // factor vector object and boxes the rating; the
                        // updated factors are written back sequentially
                        // per interval.
                        let tmp = mem.alloc(machine, 0, 64)?;
                        mem.write_data(machine, tmp, 0, 64)?;
                        if e % 2 == 0 {
                            let boxed = mem.alloc(machine, 0, 8)?;
                            mem.write_data(machine, boxed, 0, 8)?;
                        }
                    } else if user_sweep {
                        self.user_vecs.write(machine, mem, u as u64)?;
                    } else {
                        self.item_vecs.write(machine, mem, i as u64)?;
                    }
                    machine.compute(mem.ctx(), Cycles::new(60));
                }
                if managed {
                    // Interval write-back: roughly one factor update per
                    // two ratings survives deduplication.
                    let updates = (end - pos) / 2;
                    if user_sweep {
                        self.user_vecs.flush_region(machine, mem, pos, updates)?;
                    } else {
                        self.item_vecs.flush_region(machine, mem, pos, updates)?;
                    }
                    replace_interval_buffer(machine, mem, &mut self.interval_buffer)?;
                }
                if end < m {
                    self.phase = Phase::Iterate {
                        iteration,
                        pos: end,
                    };
                    return Ok(StepResult::Running);
                }
                if iteration + 1 == 2 * self.sweeps {
                    self.phase = Phase::Done;
                    Ok(StepResult::IterationDone)
                } else {
                    self.phase = Phase::Iterate {
                        iteration: iteration + 1,
                        pos: 0,
                    };
                    Ok(StepResult::Running)
                }
            }
            Phase::Done => {
                self.phase = Phase::Iterate {
                    iteration: 0,
                    pos: 0,
                };
                self.step(machine, mem)
            }
        }
    }

    fn start_iteration(&mut self) {
        if !matches!(self.phase, Phase::Build { .. }) {
            self.phase = Phase::Iterate {
                iteration: 0,
                pos: 0,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_generator_is_deterministic_and_power_law() {
        let a = generate_graph(1024, 10_000, 7);
        let b = generate_graph(1024, 10_000, 7);
        assert_eq!(a.edges, b.edges);
        // Power law: the top 10% of destinations receive a clear majority
        // of edges.
        let mut indeg = vec![0u32; 1024];
        for &(_, v) in &a.edges {
            indeg[v as usize] += 1;
        }
        indeg.sort_unstable_by(|x, y| y.cmp(x));
        let top: u32 = indeg[..102].iter().sum();
        assert!(
            top as f64 > 0.4 * a.edges.len() as f64,
            "top-decile share = {top}"
        );
        // No self loops.
        assert!(a.edges.iter().all(|&(u, v)| u != v));
    }

    #[test]
    fn ratings_generator_respects_bounds() {
        let r = generate_ratings(100, 50, 5000, 3);
        assert!(r.ratings.iter().all(|&(u, i)| u < 100 && i < 50));
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let a = generate_graph(256, 1000, 1);
        let b = generate_graph(256, 1000, 2);
        assert_ne!(a.edges, b.edges);
    }
}
