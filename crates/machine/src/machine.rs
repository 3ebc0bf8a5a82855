//! The [`Machine`]: the single object the runtime layers talk to.

use crate::profile::MachineProfile;
use hemu_cache::{CacheStats, Hierarchy, HitLevel};
use hemu_fault::{EnduranceConfig, FaultInjector, FaultPlan};
use hemu_numa::{AddressSpace, NumaMemory};
use hemu_obs::json::ToJson;
use hemu_obs::{Histogram, SpanRecorder, TraceEvent, Tracer};
use hemu_types::{
    AccessKind, Addr, ByteSize, Cycles, HemuError, LineAddr, MemoryAccess, PageNum, Result,
    SocketId, VirtualClock, WriteCause, WriteTag, CACHE_LINE, PAGE_SIZE,
};

/// Remote fills are coalesced into one aggregate [`TraceEvent::QpiTransfer`]
/// per this many lines, so tracing stays cheap on the access fast path.
const QPI_TRACE_BATCH: u64 = 1024;

/// Cache lines per page: the traffic of one page copy.
const LINES_PER_PAGE: u64 = (PAGE_SIZE / CACHE_LINE) as u64;

/// Index of a hardware context (logical core) on the local socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxId(pub usize);

/// Index of an emulated process (one address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

/// Bounded capacity of the span ring installed by
/// [`Machine::enable_profiling`]: enough for every GC phase of a full run
/// at a few hundred collections, small enough to stay cheap.
const PROFILE_SPAN_CAPACITY: usize = 1 << 15;

hemu_obs::record! {
    /// Aggregate machine statistics for a measured interval.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MachineStats {
        /// Line-granularity accesses issued to the hierarchy.
        pub line_accesses: u64,
        /// Fills served by the local (DRAM) socket.
        pub local_fills: u64,
        /// Fills served by the remote (PCM) socket, i.e. over QPI.
        pub remote_fills: u64,
    }
}

/// The emulated machine.
///
/// Owns the memory system, the cache hierarchy, one address space per
/// process, and one virtual clock per hardware context. All mutator and
/// collector work flows through [`Machine::access`] and
/// [`Machine::compute`], so memory traffic and virtual time are accounted
/// in exactly one place.
///
/// Every access is resolved when it is issued: its lines walk the cache
/// hierarchy one at a time, and each line's fill, write-backs and cost are
/// accounted before the next line is issued. Machine state is therefore
/// current whenever a caller reads it.
#[derive(Debug)]
pub struct Machine {
    profile: MachineProfile,
    mem: NumaMemory,
    caches: Hierarchy,
    spaces: Vec<AddressSpace>,
    clocks: Vec<VirtualClock>,
    stats: MachineStats,
    /// Structured event tracer; disabled (a no-op) by default.
    tracer: Tracer,
    /// Profiler span recorder; disabled unless profiling.
    spans: SpanRecorder,
    /// Every GC pause of the interval, in cycles, across all heaps on the
    /// machine.
    gc_pauses: Histogram,
    qpi_pending: u64,
    /// Pages transparently remapped after wear-out frame retirement.
    pages_remapped: u64,
    /// Reusable write-back scratch for the access fast path, so the
    /// hierarchy never allocates a fresh `Vec` per line access. Each entry
    /// carries the provenance tag of the store that dirtied the line (0
    /// unless profiling is on).
    wb_scratch: Vec<(LineAddr, u8)>,
    /// Provenance tag stamped on subsequent write accesses; runtime layers
    /// set it via [`Machine::set_write_tag`] just before issuing writes.
    write_tag: u8,
}

impl Machine {
    /// Builds a machine from a profile.
    pub fn new(profile: MachineProfile) -> Self {
        Machine {
            mem: NumaMemory::new(profile.numa),
            caches: Hierarchy::new(profile.hierarchy_config()),
            spaces: Vec::new(),
            clocks: (0..profile.contexts)
                .map(|_| VirtualClock::new(profile.freq_hz))
                .collect(),
            stats: MachineStats::default(),
            tracer: Tracer::disabled(),
            spans: SpanRecorder::default(),
            gc_pauses: Histogram::default(),
            qpi_pending: 0,
            pages_remapped: 0,
            wb_scratch: Vec::with_capacity(4),
            write_tag: WriteTag::OTHER.raw(),
            profile,
        }
    }

    /// Turns on the phase-and-provenance profiler: cache provenance tags,
    /// per-cause / per-space write counters ([`NumaMemory::provenance`]),
    /// and a bounded span recorder (2^15 spans).
    /// Idempotent; off by default, in which case none of the machinery
    /// costs more than one branch per write-back.
    pub fn enable_profiling(&mut self) {
        if self.profiling_enabled() {
            return;
        }
        self.caches.enable_tags();
        self.mem.enable_provenance();
        self.spans = SpanRecorder::bounded(PROFILE_SPAN_CAPACITY);
    }

    /// Whether [`Machine::enable_profiling`] has been called. Runtime
    /// layers use this to skip tag computation entirely when off.
    #[inline]
    pub(crate) fn profiling_enabled(&self) -> bool {
        self.mem.provenance().is_some()
    }

    /// Sets the provenance tag stamped on subsequent write accesses (until
    /// changed again). A no-op in effect when profiling is off: the tag is
    /// stored but never consulted.
    #[inline]
    pub fn set_write_tag(&mut self, tag: WriteTag) {
        self.write_tag = tag.raw();
    }

    /// The machine's span recorder; disabled unless
    /// [`Machine::enable_profiling`] was called.
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// The span recorder, for runtime layers that open and close spans.
    pub fn spans_mut(&mut self) -> &mut SpanRecorder {
        &mut self.spans
    }

    /// Records one GC pause of `cycles` in the machine-wide pause
    /// histogram.
    pub fn record_gc_pause(&mut self, cycles: u64) {
        self.gc_pauses.observe(cycles);
    }

    /// Every GC pause recorded since the measured iteration began.
    pub fn gc_pauses(&self) -> &Histogram {
        &self.gc_pauses
    }

    /// The machine's event tracer (disabled unless one was installed);
    /// runtime layers record events through it.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Installs an event tracer (replacing the current one, which is
    /// disabled by default).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Creates a new process; unbound pages fault onto `default_socket`.
    ///
    /// The paper binds all threads to socket 0, except in the PCM-Only
    /// reference setup where they run on socket 1 — `default_socket`
    /// captures where that process's anonymous memory lands by default.
    pub fn add_process(&mut self, default_socket: SocketId) -> ProcId {
        self.spaces
            .push(AddressSpace::with_default_socket(default_socket));
        ProcId(self.spaces.len() - 1)
    }

    /// Number of hardware contexts.
    pub fn contexts(&self) -> usize {
        self.clocks.len()
    }

    /// Binds a virtual range of `proc` to a socket (the `mbind` call the
    /// modified chunk allocator makes after `mmap`).
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range or `len` is zero.
    pub fn mbind(&mut self, proc: ProcId, start: Addr, len: ByteSize, socket: SocketId) {
        self.spaces[proc.0].mbind(start, len, socket);
    }

    /// Which socket a fault at `addr` in `proc` would allocate on.
    pub fn socket_of(&self, proc: ProcId, addr: Addr) -> SocketId {
        self.spaces[proc.0].socket_of(addr)
    }

    /// The address space of `proc` (for inspection in tests).
    pub fn address_space(&self, proc: ProcId) -> &AddressSpace {
        &self.spaces[proc.0]
    }

    /// Issues a memory access from hardware context `ctx` in process
    /// `proc`'s address space, advancing `ctx`'s clock by the access cost.
    ///
    /// The access is split into cache-line accesses; the page table is
    /// consulted once per *page* the stream crosses (the in-page line
    /// addresses follow arithmetically), each line is sent through the
    /// hierarchy, and any fills and write-backs are recorded at the owning
    /// memory controllers. The access is fully accounted when this returns.
    ///
    /// # Errors
    ///
    /// Returns an error if physical memory is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` or `proc` is out of range.
    pub fn access(&mut self, ctx: CtxId, proc: ProcId, access: MemoryAccess) -> Result<()> {
        if access.size == 0 {
            return Ok(());
        }
        self.walk_lines(ctx, proc, access)?;
        // PCM writes above may have spent a line's endurance budget;
        // retire and remap outside the walk's destructured borrow.
        if self.mem.has_pending_retirements() {
            self.process_retirements(Some(ctx))?;
        }
        Ok(())
    }

    /// Issues a batch of accesses in order, exactly as one
    /// [`Machine::access`] call per entry.
    ///
    /// # Errors
    ///
    /// Returns an error if physical memory is exhausted; later entries are
    /// not issued.
    ///
    /// # Panics
    ///
    /// Panics if a context or process index is out of range.
    pub fn access_batch(&mut self, batch: &[(CtxId, ProcId, MemoryAccess)]) -> Result<()> {
        for &(ctx, proc, access) in batch {
            self.access(ctx, proc, access)?;
        }
        Ok(())
    }

    /// Resolves and accounts each line of `access` before issuing the
    /// next, so observers of per-line order (trace timestamps, provenance
    /// tags, injected QPI stalls, wear retirement) see every line in issue
    /// order.
    fn walk_lines(&mut self, ctx: CtxId, proc: ProcId, access: MemoryAccess) -> Result<()> {
        let Machine {
            profile,
            mem,
            caches,
            spaces,
            clocks,
            stats,
            tracer,
            qpi_pending,
            wb_scratch,
            write_tag,
            ..
        } = self;
        let space = &mut spaces[proc.0];
        let clock = &mut clocks[ctx.0];
        let lat = &profile.latency;
        let kind = access.kind;

        const PAGE: u64 = PAGE_SIZE as u64;
        const LINE: u64 = CACHE_LINE as u64;
        // Byte addresses of the first and last line touched.
        let first = access.addr.line().raw();
        let last = access.addr.offset(access.size as u64 - 1).line().raw();

        let mut v = first;
        while v <= last {
            // One translation covers every line up to the page end.
            let page_end = (v / PAGE + 1) * PAGE;
            let chunk_last = last.min(page_end - LINE);
            let frame = space.frame_of(Addr::new(v), mem)?;
            let chunk_line0 = frame.phys_base().line().raw() + (v % PAGE) / LINE;
            let nlines = (chunk_last - v) / LINE + 1;
            stats.line_accesses += nlines;

            for i in 0..nlines {
                let line = LineAddr::new(chunk_line0 + i);
                let (level, fill) = caches.access_into(ctx.0, line, kind, *write_tag, wb_scratch);

                // Timing: the requesting core stalls for the fill path.
                let cost = match level {
                    HitLevel::L2 => lat.l2_hit,
                    HitLevel::Llc => lat.llc_hit,
                    HitLevel::Memory => {
                        let socket = mem.socket_of_line(line);
                        if socket == SocketId::DRAM {
                            stats.local_fills += 1;
                            lat.local_fill
                        } else {
                            stats.remote_fills += 1;
                            // Individual remote fills are too frequent to trace;
                            // emit one aggregate event per batch of lines.
                            *qpi_pending += 1;
                            if *qpi_pending >= QPI_TRACE_BATCH {
                                tracer.record(
                                    clock.now(),
                                    TraceEvent::QpiTransfer {
                                        lines: *qpi_pending,
                                    },
                                );
                                *qpi_pending = 0;
                            }
                            // An installed fault injector may stall the link
                            // (QPI burst injection); 0 cycles otherwise.
                            let stall = mem.qpi_stall_cycles(1);
                            lat.local_fill + profile.qpi.transfer_cost(1) + Cycles::new(stall)
                        }
                    }
                };
                clock.advance(cost);

                // Traffic: fills read from memory; write-backs write to
                // memory. Write-backs drain through write buffers and do
                // not stall the requesting core, so they cost no time
                // here.
                if let Some(fill) = fill {
                    mem.record_line_access(fill, AccessKind::Read, *write_tag);
                }
                for &(wb, tag) in wb_scratch.iter() {
                    mem.record_line_access(wb, AccessKind::Write, tag);
                }
            }
            v = page_end;
        }
        Ok(())
    }

    /// Drains the retirement queue: every worn-out frame's page moves to a
    /// healthy replacement on the same socket ([`Machine::move_page`]), so
    /// the application keeps its virtual addresses.
    ///
    /// `ctx`, when given, is the context whose access triggered the
    /// retirement; it stalls for the copy.
    fn process_retirements(&mut self, ctx: Option<CtxId>) -> Result<()> {
        // Migration writes wear the replacement frame too; budgets are
        // clamped >= 2, so a single copy pass cannot re-retire it, but the
        // queue is drained in a loop for robustness.
        loop {
            let pending = self.mem.take_pending_retirements();
            if pending.is_empty() {
                return Ok(());
            }
            for old in pending {
                let socket = self.mem.socket_of_frame(old);
                match self.move_page(old, socket, WriteCause::WearRemap) {
                    Ok(Some(_)) => self.pages_remapped += 1,
                    // The dead frame was free or already unmapped.
                    Ok(None) => continue,
                    Err(HemuError::OutOfPhysicalMemory { .. }) => {
                        return Err(HemuError::WornOut {
                            socket,
                            retired_pages: self.mem.retired_pages(socket),
                        });
                    }
                    Err(e) => return Err(e),
                }
                if let Some(ctx) = ctx {
                    // The faulting context stalls for a read+write pass
                    // over the page, at fill latency per line.
                    let copy = self.profile.latency.local_fill.raw() * 2 * LINES_PER_PAGE;
                    self.clocks[ctx.0].advance(Cycles::new(copy));
                }
            }
        }
    }

    /// Moves the page in frame `old` to a fresh frame on socket `to`,
    /// allocated past the fault injector: every address space's mapping is
    /// rewritten and [`NumaMemory::copy_page`] charges the copy, attributed
    /// to `cause`. `old` is left to the caller. Returns `Ok(None)`, with the
    /// replacement freed again, when no process maps `old`.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::OutOfPhysicalMemory`] when `to` has no free
    /// frame, and propagates internal invariant violations.
    fn move_page(
        &mut self,
        old: PageNum,
        to: SocketId,
        cause: WriteCause,
    ) -> Result<Option<PageNum>> {
        let new = self.mem.allocate_frame_uninjected(to)?;
        if !self.spaces.iter_mut().any(|s| s.remap_frame(old, new) > 0) {
            self.mem.free_frame(new)?;
            return Ok(None);
        }
        self.mem.copy_page(old, new, cause);
        Ok(Some(new))
    }

    /// Migrates the physical page in frame `old` to a fresh frame on
    /// socket `to`, the primitive under OS hot/cold page migration: the
    /// page moves through `Machine::move_page` (a read of the old frame,
    /// a write of the new — wearing PCM when `to` is the PCM socket, and
    /// moving the page's owner and heat), a [`TraceEvent::PageMigrated`]
    /// is emitted, and the old frame is freed.
    ///
    /// Returns `Ok(None)` without side effects when the frame already
    /// lives on `to` or is not mapped by any process, and `Ok(Some(new))`
    /// after a successful move.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::OutOfPhysicalMemory`] when the target socket
    /// has no free frame (the caller may demote something first and
    /// retry), and propagates internal invariant violations.
    pub fn migrate_frame(&mut self, old: PageNum, to: SocketId) -> Result<Option<PageNum>> {
        let from = self.mem.socket_of_frame(old);
        if from == to {
            return Ok(None);
        }
        let Some(new) = self.move_page(old, to, WriteCause::OsMigration)? else {
            return Ok(None);
        };
        self.tracer.record(
            self.elapsed(),
            TraceEvent::PageMigrated {
                frame: old.raw(),
                from,
                to,
            },
        );
        self.mem.free_frame(old)?;
        // Demotion writes wear PCM and may retire a line's frame.
        if self.mem.has_pending_retirements() {
            self.process_retirements(None)?;
        }
        Ok(Some(new))
    }

    /// Hands page placement of `proc` to the OS: faults allocate on
    /// `primary` and spill to `spill` when it is full, ignoring `mbind`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn set_os_placement(&mut self, proc: ProcId, primary: SocketId, spill: Option<SocketId>) {
        self.spaces[proc.0].set_os_placement(primary, spill);
    }

    /// Enables per-page read/write sampling ([`NumaMemory::page_heat`], the
    /// OS hot-page migration input). Off by default; GC runs pay nothing.
    pub fn enable_page_heat(&mut self) {
        self.mem.enable_page_heat();
    }

    /// Enables per-tenant write attribution for `tenants` co-scheduled
    /// tenants (consolidated runs). Off by default; single-tenant runs pay
    /// nothing.
    pub fn enable_tenancy(&mut self, tenants: usize) {
        self.mem.enable_tenancy(tenants);
    }

    /// Binds process `proc` to `tenant`: frames it demand-faults from now
    /// on are attributed to that tenant. Call right after
    /// [`Machine::add_process`], before the process touches memory.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn set_proc_tenant(&mut self, proc: ProcId, tenant: u16) {
        self.spaces[proc.0].set_tenant(tenant);
    }

    /// Closes the heat-sampling epoch (per-page deltas restart at zero).
    pub fn reset_page_heat_epoch(&mut self) {
        self.mem.reset_page_heat_epoch();
    }

    /// Caps one socket's allocatable capacity (OS-paging experiments need
    /// a DRAM small enough to actually fill). Call before any allocation.
    pub fn restrict_socket_capacity(&mut self, socket: SocketId, limit: ByteSize) {
        self.mem.restrict_socket(socket, limit);
    }

    /// Advances `ctx`'s clock by pure compute work (no memory traffic).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn compute(&mut self, ctx: CtxId, cycles: Cycles) {
        self.clocks[ctx.0].advance(cycles);
    }

    /// The virtual clock of one context.
    pub fn clock(&self, ctx: CtxId) -> &VirtualClock {
        &self.clocks[ctx.0]
    }

    /// The latest clock across all contexts — elapsed virtual time of the
    /// whole (parallel) machine.
    pub fn elapsed(&self) -> Cycles {
        self.clocks
            .iter()
            .map(|c| c.now())
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// Elapsed virtual time in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed().as_seconds(self.profile.freq_hz)
    }

    /// Synchronizes all context clocks to the latest one (the barrier that
    /// multiprogrammed instances hit before the measured iteration).
    pub fn barrier(&mut self) {
        let latest = self.elapsed();
        for c in &mut self.clocks {
            c.sync_to(latest);
        }
    }

    /// Writes back every dirty line in the hierarchy to memory, so that all
    /// stores issued so far are visible in the controller counters.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::WornOut`] if the write-backs wear out a PCM
    /// line and no healthy frame is left to remap the page to.
    pub fn flush_caches(&mut self) -> Result<()> {
        let Machine { mem, caches, .. } = self;
        caches.flush(|line, tag| mem.record_line_access(line, AccessKind::Write, tag));
        if self.mem.has_pending_retirements() {
            self.process_retirements(None)?;
        }
        Ok(())
    }

    /// Total bytes written at a socket's memory controller.
    pub fn socket_writes(&self, socket: SocketId) -> ByteSize {
        self.mem.counters(socket).written()
    }

    /// Total bytes read at a socket's memory controller.
    pub fn socket_reads(&self, socket: SocketId) -> ByteSize {
        self.mem.counters(socket).read()
    }

    /// Shorthand: bytes written to the PCM socket — the paper's headline
    /// metric.
    pub fn pcm_writes(&self) -> ByteSize {
        self.socket_writes(SocketId::PCM)
    }

    /// Interval machine statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The memory system (for inspection).
    pub fn memory(&self) -> &NumaMemory {
        &self.mem
    }

    /// Enables per-line wear tracking on the PCM socket ([`NumaMemory::wear`],
    /// an analysis extension; one frame-record update per PCM line write).
    pub fn enable_wear_tracking(&mut self) {
        self.mem.enable_wear_tracking();
    }

    /// Enables PCM endurance modeling: per-line write budgets, frame
    /// retirement, and transparent page remapping. Implies wear tracking.
    pub fn enable_endurance(&mut self, cfg: EnduranceConfig) {
        self.mem.enable_endurance(cfg);
    }

    /// Installs a deterministic fault injector executing `plan`.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.mem.set_fault_injector(FaultInjector::new(plan));
    }

    /// Injection point the managed heap consults before each allocation.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::FaultInjected`] when an installed plan forces
    /// an out-of-memory at this allocation; always `Ok` otherwise.
    pub fn fault_on_managed_alloc(&mut self) -> Result<()> {
        self.mem.fault_on_managed_alloc()
    }

    /// Pages transparently remapped after wear-out retirement.
    pub fn pages_remapped(&self) -> u64 {
        self.pages_remapped
    }

    /// Aggregate shared-LLC statistics (for inspection).
    pub fn llc_stats(&self) -> CacheStats {
        *self.caches.llc().stats()
    }

    /// Resets measurement state — controller counters, cache stats, machine
    /// stats and clocks — *without* touching cache or memory contents.
    ///
    /// This is the replay-compilation measurement protocol: run the warm-up
    /// iteration, reset, then measure the steady-state iteration.
    pub fn start_measured_iteration(&mut self) {
        self.mem.reset_counters();
        self.caches.reset_stats();
        self.stats = MachineStats::default();
        self.qpi_pending = 0;
        self.gc_pauses = Histogram::default();
        self.spans.reset();
        for c in &mut self.clocks {
            c.reset();
        }
        self.tracer.record(
            Cycles::ZERO,
            TraceEvent::Phase {
                name: "measured_iteration",
            },
        );
    }
}

impl ToJson for CtxId {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

impl ToJson for ProcId {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemu_types::SpaceTag;

    fn machine() -> Machine {
        Machine::new(MachineProfile::emulation())
    }

    #[test]
    fn writes_to_pcm_bound_region_reach_pcm_counter() {
        let mut m = machine();
        let p = m.add_process(SocketId::DRAM);
        m.mbind(
            p,
            Addr::new(0x1000_0000),
            ByteSize::from_mib(64),
            SocketId::PCM,
        );
        // Write 32 MiB (larger than the 20 MiB LLC) so most lines spill.
        m.access(
            CtxId(0),
            p,
            MemoryAccess::write(Addr::new(0x1000_0000), 32 << 20),
        )
        .unwrap();
        m.flush_caches().unwrap();
        let written = m.pcm_writes();
        assert_eq!(
            written.bytes(),
            32 << 20,
            "every written line reaches PCM after flush"
        );
        assert_eq!(m.socket_writes(SocketId::DRAM), ByteSize::ZERO);
    }

    #[test]
    fn small_working_set_is_absorbed_by_cache() {
        let mut m = machine();
        let p = m.add_process(SocketId::DRAM);
        m.mbind(
            p,
            Addr::new(0x1000_0000),
            ByteSize::from_mib(4),
            SocketId::PCM,
        );
        // Overwrite the same 1 MiB a hundred times without flushing.
        for _ in 0..100 {
            m.access(
                CtxId(0),
                p,
                MemoryAccess::write(Addr::new(0x1000_0000), 1 << 20),
            )
            .unwrap();
        }
        // Only the cold fill traffic has reached memory; writes stay cached.
        assert_eq!(m.pcm_writes(), ByteSize::ZERO);
        m.flush_caches().unwrap();
        assert_eq!(
            m.pcm_writes().bytes(),
            1 << 20,
            "one working set, not one hundred"
        );
    }

    #[test]
    fn remote_fills_cost_more_time_than_local() {
        let mut ml = machine();
        let pl = ml.add_process(SocketId::DRAM);
        ml.access(CtxId(0), pl, MemoryAccess::read(Addr::new(0), 1 << 20))
            .unwrap();
        let local_time = ml.clock(CtxId(0)).now();

        let mut mr = machine();
        let pr = mr.add_process(SocketId::PCM);
        mr.access(CtxId(0), pr, MemoryAccess::read(Addr::new(0), 1 << 20))
            .unwrap();
        let remote_time = mr.clock(CtxId(0)).now();

        assert!(remote_time > local_time);
    }

    #[test]
    fn compute_advances_only_that_context() {
        let mut m = machine();
        m.compute(CtxId(3), Cycles::new(1000));
        assert_eq!(m.clock(CtxId(3)).now(), Cycles::new(1000));
        assert_eq!(m.clock(CtxId(0)).now(), Cycles::ZERO);
        assert_eq!(m.elapsed(), Cycles::new(1000));
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let mut m = machine();
        m.compute(CtxId(0), Cycles::new(500));
        m.barrier();
        assert_eq!(m.clock(CtxId(7)).now(), Cycles::new(500));
    }

    #[test]
    fn measured_iteration_reset_preserves_cache_contents() {
        let mut m = machine();
        let p = m.add_process(SocketId::DRAM);
        m.mbind(
            p,
            Addr::new(0x1000_0000),
            ByteSize::from_mib(1),
            SocketId::PCM,
        );
        m.access(
            CtxId(0),
            p,
            MemoryAccess::write(Addr::new(0x1000_0000), 4096),
        )
        .unwrap();
        m.start_measured_iteration();
        assert_eq!(m.pcm_writes(), ByteSize::ZERO);
        // Lines are still cached: re-reading them is free of memory fills.
        m.access(
            CtxId(0),
            p,
            MemoryAccess::read(Addr::new(0x1000_0000), 4096),
        )
        .unwrap();
        assert_eq!(m.stats().local_fills + m.stats().remote_fills, 0);
    }

    #[test]
    fn fills_are_counted_as_reads_at_the_controller() {
        let mut m = machine();
        let p = m.add_process(SocketId::PCM);
        m.access(CtxId(0), p, MemoryAccess::read(Addr::new(0), 64 * 10))
            .unwrap();
        assert_eq!(m.socket_reads(SocketId::PCM).bytes(), 640);
        assert_eq!(m.pcm_writes(), ByteSize::ZERO);
    }

    #[test]
    fn migrate_frame_moves_page_charges_traffic_and_keeps_translation() {
        let mut m = machine();
        let p = m.add_process(SocketId::PCM);
        m.access(CtxId(0), p, MemoryAccess::write(Addr::new(0x7000), 64))
            .unwrap();
        let old = m
            .address_space(p)
            .translate_existing(Addr::new(0x7000))
            .unwrap()
            .frame();
        assert_eq!(m.memory().socket_of_frame(old), SocketId::PCM);
        let pcm_reads_before = m.socket_reads(SocketId::PCM).bytes();
        let dram_writes_before = m.socket_writes(SocketId::DRAM).bytes();

        let new = m
            .migrate_frame(old, SocketId::DRAM)
            .unwrap()
            .expect("mapped page migrates");
        assert_eq!(m.memory().socket_of_frame(new), SocketId::DRAM);
        // Translation is preserved, now pointing at the DRAM frame.
        let after = m
            .address_space(p)
            .translate_existing(Addr::new(0x7000))
            .unwrap();
        assert_eq!(after.frame(), new);
        // The copy shows as one page read at PCM and one page written at
        // DRAM.
        let page = PAGE_SIZE as u64;
        assert_eq!(
            m.socket_reads(SocketId::PCM).bytes() - pcm_reads_before,
            page
        );
        assert_eq!(
            m.socket_writes(SocketId::DRAM).bytes() - dram_writes_before,
            page
        );
    }

    #[test]
    fn migrate_frame_is_a_no_op_for_same_socket_or_unmapped_frames() {
        let mut m = machine();
        let p = m.add_process(SocketId::PCM);
        m.access(CtxId(0), p, MemoryAccess::write(Addr::new(0x7000), 64))
            .unwrap();
        let old = m
            .address_space(p)
            .translate_existing(Addr::new(0x7000))
            .unwrap()
            .frame();
        assert_eq!(m.migrate_frame(old, SocketId::PCM).unwrap(), None);
        // A frame nobody maps is not migrated either.
        let stray = PageNum::new(17);
        assert_eq!(m.migrate_frame(stray, SocketId::PCM).unwrap(), None);
    }

    #[test]
    fn migration_demotion_wears_pcm() {
        let mut m = machine();
        m.enable_wear_tracking();
        let p = m.add_process(SocketId::DRAM);
        m.access(CtxId(0), p, MemoryAccess::write(Addr::new(0x3000), 64))
            .unwrap();
        let old = m
            .address_space(p)
            .translate_existing(Addr::new(0x3000))
            .unwrap()
            .frame();
        m.migrate_frame(old, SocketId::PCM).unwrap().unwrap();
        let wear = m.memory().wear().unwrap();
        assert_eq!(
            wear.lines_touched(),
            (PAGE_SIZE / CACHE_LINE) as u64,
            "the demotion copy wears every line of the PCM frame"
        );
    }

    #[test]
    fn profiling_attributes_pcm_writes_to_cause_and_space() {
        let mut m = machine();
        m.enable_profiling();
        let p = m.add_process(SocketId::DRAM);
        m.mbind(
            p,
            Addr::new(0x1000_0000),
            ByteSize::from_mib(64),
            SocketId::PCM,
        );
        m.set_write_tag(WriteTag::new(WriteCause::Mutator, SpaceTag::Nursery));
        m.access(
            CtxId(0),
            p,
            MemoryAccess::write(Addr::new(0x1000_0000), 32 << 20),
        )
        .unwrap();
        m.flush_caches().unwrap();
        let lines = (32u64 << 20) / CACHE_LINE as u64;
        let prov = m.memory().provenance().unwrap();
        assert_eq!(prov.pcm_by_cause[WriteCause::Mutator as usize], lines);
        assert_eq!(prov.pcm_by_space[SpaceTag::Nursery as usize], lines);
        assert_eq!(prov.pcm_by_cause[WriteCause::NurseryEvac as usize], 0);
        assert_eq!(prov.dram_by_cause[WriteCause::Mutator as usize], 0);
    }

    #[test]
    fn profiling_disabled_records_no_attribution() {
        let mut m = machine();
        let p = m.add_process(SocketId::PCM);
        m.set_write_tag(WriteTag::new(WriteCause::Mutator, SpaceTag::Nursery));
        m.access(CtxId(0), p, MemoryAccess::write(Addr::new(0), 1 << 20))
            .unwrap();
        m.flush_caches().unwrap();
        assert!(!m.profiling_enabled());
        assert!(m.memory().provenance().is_none());
    }

    #[test]
    fn migration_writes_are_attributed_to_os_migration() {
        let mut m = machine();
        m.enable_profiling();
        let p = m.add_process(SocketId::DRAM);
        m.access(CtxId(0), p, MemoryAccess::write(Addr::new(0x3000), 64))
            .unwrap();
        let old = m
            .address_space(p)
            .translate_existing(Addr::new(0x3000))
            .unwrap()
            .frame();
        m.migrate_frame(old, SocketId::PCM).unwrap().unwrap();
        let per_page = (PAGE_SIZE / CACHE_LINE) as u64;
        assert_eq!(
            m.memory().provenance().unwrap().pcm_by_cause[WriteCause::OsMigration as usize],
            per_page
        );
    }

    /// Every controller write is attributed exactly once, whichever path
    /// wrote it: an eviction write-back, a cache flush, an OS migration in
    /// either direction or a wear-out remap. Per socket, the per-cause and
    /// the per-space line counts each sum to the controller's write lines.
    #[test]
    fn provenance_sums_to_controller_writes_on_every_write_path() {
        let mut m = Machine::new(MachineProfile::emulation().with_llc(ByteSize::from_kib(640)));
        m.enable_profiling();
        m.enable_endurance(EnduranceConfig {
            budget_writes: 4,
            variability: 0.0,
            seed: 1,
        });
        let p = m.add_process(SocketId::DRAM);
        let (a, b) = (Addr::new(0), Addr::new(0x1000_0000));
        m.mbind(p, b, ByteSize::from_kib(4), SocketId::PCM);
        m.set_write_tag(WriteTag::new(WriteCause::Mutator, SpaceTag::Nursery));
        let write = |addr| MemoryAccess::write(addr, CACHE_LINE as u32);
        m.access(CtxId(0), p, write(a)).unwrap();
        m.access(CtxId(0), p, write(b)).unwrap();
        // Twice the LLC's worth of DRAM stores: evictions write back.
        let region = MemoryAccess::write(Addr::new(1 << 20), 1280 << 10);
        m.access(CtxId(0), p, region).unwrap();
        assert!(m.memory().counters(SocketId::DRAM).write_lines() > 0);
        let frame = |m: &Machine, addr| m.address_space(p).translate_existing(addr).unwrap();
        let (fa, fb) = (frame(&m, a).frame(), frame(&m, b).frame());
        m.migrate_frame(fa, SocketId::PCM).unwrap().unwrap();
        m.migrate_frame(fb, SocketId::DRAM).unwrap().unwrap();
        // Page `a` now lives on PCM, its lines worn once by the copy: three
        // more flushed writes spend line 0's budget and retire the frame.
        for _ in 0..3 {
            m.access(CtxId(0), p, write(a)).unwrap();
            m.flush_caches().unwrap();
        }
        assert_eq!(m.pages_remapped(), 1);

        let prov = *m.memory().provenance().unwrap();
        let per_page = (PAGE_SIZE / CACHE_LINE) as u64;
        let (os, wear) = (
            WriteCause::OsMigration as usize,
            WriteCause::WearRemap as usize,
        );
        assert_eq!(prov.pcm_by_cause[os], per_page);
        assert_eq!(prov.dram_by_cause[os], per_page);
        assert_eq!(prov.pcm_by_cause[wear], per_page);
        assert!(prov.pcm_by_cause[WriteCause::Mutator as usize] >= 3);
        let sockets = [
            (SocketId::PCM, prov.pcm_by_cause, prov.pcm_by_space),
            (SocketId::DRAM, prov.dram_by_cause, prov.dram_by_space),
        ];
        for (socket, by_cause, by_space) in sockets {
            let lines = m.memory().counters(socket).write_lines();
            assert_eq!(by_cause.iter().sum::<u64>(), lines, "{socket:?} by cause");
            assert_eq!(by_space.iter().sum::<u64>(), lines, "{socket:?} by space");
        }
    }

    /// The machine owns its observers by value, so a whole machine can
    /// move to another thread.
    const _: fn() = || {
        fn send<T: Send>() {}
        send::<Machine>();
    };

    /// The access route at machine level: a mixed stream of word-sized and
    /// multi-line accesses from two contexts leaves the same fills,
    /// write-backs and LLC statistics as the same physical-line stream
    /// replayed on a bare hierarchy.
    #[test]
    fn access_matches_a_bare_hierarchy_on_the_same_line_stream() {
        // A 640 KiB LLC, so an 8 MiB region evicts (and writes back) often.
        let profile = MachineProfile::emulation().with_llc(ByteSize::from_kib(640));
        let mut m = Machine::new(profile);
        let p = m.add_process(SocketId::DRAM);
        m.mbind(p, Addr::new(4 << 20), ByteSize::from_mib(8), SocketId::PCM);
        let mut h = Hierarchy::new(profile.hierarchy_config());
        let mut wbs = Vec::new();
        // Per-socket line counts of the replay, indexed DRAM = 0, PCM = 1.
        let (mut fills, mut writes) = ([0u64; 2], [0u64; 2]);
        let idx = |s: SocketId| usize::from(s == SocketId::PCM);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..40_000u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let addr = Addr::new((x >> 16) % (8 << 20));
            let size = if i % 16 == 0 { 9 * 64 + 17 } else { 8 };
            let acc = if x & 1 == 0 {
                MemoryAccess::write(addr, size)
            } else {
                MemoryAccess::read(addr, size)
            };
            let ctx = CtxId((i % 2) as usize);
            m.access(ctx, p, acc).unwrap();
            // Replay the access's lines, translated by the page table the
            // access just populated.
            let last = addr.offset(size as u64 - 1).line().raw();
            for v in (addr.line().raw()..=last).step_by(CACHE_LINE) {
                let space = m.address_space(p);
                let line = space.translate_existing(Addr::new(v)).unwrap().line();
                let (_, fill) = h.access_into(ctx.0, line, acc.kind, 0, &mut wbs);
                if let Some(f) = fill {
                    fills[idx(m.memory().socket_of_line(f))] += 1;
                }
                for &(wb, _) in &wbs {
                    writes[idx(m.memory().socket_of_line(wb))] += 1;
                }
            }
        }
        assert!(
            writes[0] > 0 && writes[1] > 0,
            "both sockets see write-backs"
        );
        assert_eq!(m.llc_stats(), *h.llc().stats());
        m.flush_caches().unwrap();
        h.flush(|wb, _| writes[idx(m.memory().socket_of_line(wb))] += 1);
        let line = CACHE_LINE as u64;
        assert_eq!(
            (m.stats().local_fills, m.stats().remote_fills),
            (fills[0], fills[1])
        );
        assert_eq!(m.socket_reads(SocketId::DRAM).bytes(), fills[0] * line);
        assert_eq!(m.socket_reads(SocketId::PCM).bytes(), fills[1] * line);
        assert_eq!(m.socket_writes(SocketId::DRAM).bytes(), writes[0] * line);
        assert_eq!(m.socket_writes(SocketId::PCM).bytes(), writes[1] * line);
    }

    /// The access right after a page migration observes the new frame.
    #[test]
    fn migration_is_visible_to_the_next_access() {
        let mut m = machine();
        let p = m.add_process(SocketId::PCM);
        m.access(CtxId(0), p, MemoryAccess::write(Addr::new(0x7000), 64))
            .unwrap();
        let old = m
            .address_space(p)
            .translate_existing(Addr::new(0x7000))
            .unwrap()
            .frame();
        m.migrate_frame(old, SocketId::DRAM).unwrap().unwrap();
        // Post-migration traffic lands on DRAM: the stale PCM translation
        // is gone.
        let before = m.stats().local_fills;
        m.access(CtxId(0), p, MemoryAccess::read(Addr::new(0x7040), 64))
            .unwrap();
        assert_eq!(m.stats().local_fills, before + 1);
    }

    /// Tenancy at machine level: two tenant processes write PCM-bound
    /// memory; per-tenant line counts sum exactly to the controller
    /// counter, and migration keeps the owner with the page.
    #[test]
    fn tenancy_attributes_controller_writes_per_tenant() {
        let mut m = machine();
        m.enable_tenancy(2);
        let a = m.add_process(SocketId::PCM);
        m.set_proc_tenant(a, 0);
        let b = m.add_process(SocketId::PCM);
        m.set_proc_tenant(b, 1);
        // Tenant 0 writes 2 MiB, tenant 1 writes 1 MiB; flush so every
        // dirty line reaches the controller.
        m.access(CtxId(0), a, MemoryAccess::write(Addr::new(0), 2 << 20))
            .unwrap();
        m.access(CtxId(1), b, MemoryAccess::write(Addr::new(0), 1 << 20))
            .unwrap();
        m.flush_caches().unwrap();
        let t = m.memory().tenancy().unwrap();
        let (t0, t1) = (t.pcm_lines(0), t.pcm_lines(1));
        assert!(t0 > t1, "tenant 0 wrote twice as much");
        assert_eq!(t.unattributed_pcm(), 0, "every frame has an owner");
        assert_eq!(
            (t0 + t1) * CACHE_LINE as u64,
            m.pcm_writes().bytes(),
            "per-tenant counts sum exactly to the PCM controller counter"
        );

        // Migration keeps ownership with the page: the copy writes to the
        // DRAM frame charge tenant 0.
        let old = m
            .address_space(a)
            .translate_existing(Addr::new(0))
            .unwrap()
            .frame();
        m.migrate_frame(old, SocketId::DRAM).unwrap().unwrap();
        let t = m.memory().tenancy().unwrap();
        assert_eq!(
            t.dram_lines(0),
            (PAGE_SIZE / CACHE_LINE) as u64,
            "the migration copy is attributed to the page's owner"
        );
        assert_eq!(t.unattributed_dram(), 0);
    }

    #[test]
    fn processes_are_isolated_in_physical_memory() {
        let mut m = machine();
        let a = m.add_process(SocketId::DRAM);
        let b = m.add_process(SocketId::DRAM);
        // Same VA in both processes: the second process's access must not
        // hit the first one's cached line.
        m.access(CtxId(0), a, MemoryAccess::read(Addr::new(0x5000), 64))
            .unwrap();
        let fills_before = m.stats().local_fills;
        m.access(CtxId(1), b, MemoryAccess::read(Addr::new(0x5000), 64))
            .unwrap();
        assert_eq!(m.stats().local_fills, fills_before + 1);
    }
}
