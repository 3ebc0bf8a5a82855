//! The physical side of the machine: sockets, frames, and controllers.

use crate::counters::MemoryCounters;
use crate::frames::{Frame, FrameTable, PageHeat, Wear, LINES};
use crate::provenance::WriteProvenance;
use crate::tenancy::TenancyTracker;
use hemu_fault::{EnduranceConfig, EnduranceModel, FaultInjector};
use hemu_types::{
    AccessKind, ByteSize, HemuError, LineAddr, PageNum, Result, SocketId, SpaceTag, WriteCause,
    WriteTag, PAGE_SIZE,
};

/// Configuration of the physical memory system.
///
/// Defaults mirror the paper's platform: two sockets, memory evenly split
/// (66 GiB each on the real machine; we default to a smaller but still
/// never-exhausted 8 GiB per socket since the simulator allocates frames
/// lazily).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumaConfig {
    /// Number of sockets. The emulation platform requires two.
    pub sockets: usize,
    /// Physical capacity per socket.
    pub capacity_per_socket: ByteSize,
}

impl Default for NumaConfig {
    fn default() -> Self {
        NumaConfig {
            sockets: 2,
            capacity_per_socket: ByteSize::from_gib(8),
        }
    }
}

impl hemu_obs::ToJson for NumaConfig {
    fn write_json(&self, out: &mut String) {
        let mut obj = hemu_obs::json::JsonObject::new(out);
        obj.field("sockets", &self.sockets)
            .field("capacity_per_socket_bytes", &self.capacity_per_socket);
        obj.finish();
    }
}

/// One socket's physical memory: a frame allocator, controller counters
/// and the per-frame records of its observers.
#[derive(Debug, Clone)]
pub struct SocketMemory {
    id: SocketId,
    first_frame: u64,
    frame_count: u64,
    next_fresh: u64,
    free: Vec<PageNum>,
    frames: FrameTable,
    counters: MemoryCounters,
}

impl SocketMemory {
    fn new(id: SocketId, first_frame: u64, frame_count: u64) -> Self {
        SocketMemory {
            id,
            first_frame,
            frame_count,
            next_fresh: first_frame,
            free: Vec::new(),
            frames: FrameTable::new(first_frame),
            counters: MemoryCounters::new(),
        }
    }

    /// Total number of frames this socket owns.
    pub fn frame_count(&self) -> u64 {
        self.frame_count
    }

    /// Number of frames currently handed out.
    pub fn frames_in_use(&self) -> u64 {
        (self.next_fresh - self.first_frame) - self.free.len() as u64
    }

    /// Traffic counters of this socket's memory controller.
    pub(crate) fn counters(&self) -> &MemoryCounters {
        &self.counters
    }

    /// Allocates one physical frame.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::OutOfPhysicalMemory`] when the socket is full.
    pub(crate) fn allocate_frame(&mut self) -> Result<PageNum> {
        // Retired frames can reach the free list (e.g. a page is unmapped
        // after its frame wore out); they must never be handed out again.
        while let Some(f) = self.free.pop() {
            let record = self.frames.get_mut(f);
            record.free = false;
            if !record.retired {
                return Ok(f);
            }
        }
        while self.next_fresh < self.first_frame + self.frame_count {
            let f = PageNum::new(self.next_fresh);
            self.next_fresh += 1;
            if !self.frames.is_retired(f) {
                return Ok(f);
            }
        }
        Err(HemuError::OutOfPhysicalMemory {
            socket: self.id,
            requested: ByteSize::new(PAGE_SIZE as u64),
        })
    }

    /// Returns a frame to the socket's free pool. Retired frames are
    /// silently dropped instead of recycled.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::InvalidConfig`] if the frame does not belong to
    /// this socket, was never handed out, or is already free.
    pub(crate) fn free_frame(&mut self, frame: PageNum) -> Result<()> {
        let why = if !self.owns_frame(frame) {
            "does not belong to"
        } else if frame.raw() >= self.next_fresh {
            "was never allocated on"
        } else if self.frames.get(frame).is_some_and(|f| f.free) {
            "is already free on"
        } else {
            let record = self.frames.get_mut(frame);
            if !record.retired {
                record.free = true;
                self.free.push(frame);
            }
            return Ok(());
        };
        let socket = self.id;
        Err(HemuError::InvalidConfig(format!(
            "frame {frame} {why} socket {socket}"
        )))
    }

    /// Returns `true` if `frame` lies in this socket's physical range.
    pub fn owns_frame(&self, frame: PageNum) -> bool {
        (self.first_frame..self.first_frame + self.frame_count).contains(&frame.raw())
    }

    /// Caps this socket's allocatable capacity at `frames` (no-op when it
    /// is already smaller). Intended for OS-paging experiments that need a
    /// DRAM small enough to actually fill; call it before any allocation —
    /// frames already handed out are unaffected but never reclaimed.
    fn restrict_frames(&mut self, frames: u64) {
        self.frame_count = self.frame_count.min(frames.max(1));
    }
}

/// Endurance bookkeeping: the budget model plus the queue of frames that
/// failed but have not yet been remapped by the machine layer.
#[derive(Debug, Clone)]
struct EnduranceState {
    model: EnduranceModel,
    failed_lines: u64,
    /// Frames retired by a budget-exceeding write, awaiting transparent
    /// remapping (drained by `take_pending_retirements`).
    pending: Vec<PageNum>,
}

/// The whole physical memory system: all sockets plus the routing of
/// physical line addresses to the owning controller.
///
/// Physical address space is statically partitioned: socket `i` owns frames
/// `[i * frames_per_socket, (i + 1) * frames_per_socket)`, so the owning
/// socket of any physical address is a division, exactly like a real
/// system's SAD (source address decoder) with one contiguous range per
/// socket.
#[derive(Debug, Clone)]
pub struct NumaMemory {
    config: NumaConfig,
    sockets: Vec<SocketMemory>,
    frames_per_socket: u64,
    /// `log2(frames_per_socket)` when it is a power of two (the common
    /// case: capacities are powers of two), letting the per-line address
    /// decode shift instead of divide. `None` falls back to division.
    frames_shift: Option<u32>,
    /// Opt-in per-line wear tracking on the PCM socket.
    wear: bool,
    /// Opt-in per-page read/write sampling (OS hot-page migration input).
    heat: bool,
    /// Opt-in endurance modeling (implies wear tracking).
    endurance: Option<EnduranceState>,
    /// Opt-in deterministic fault injection.
    injector: Option<FaultInjector>,
    /// Opt-in per-tenant write attribution (consolidated runs).
    tenancy: Option<TenancyTracker>,
    /// Opt-in per-cause / per-space write attribution (the profiler).
    provenance: Option<WriteProvenance>,
}

impl NumaMemory {
    /// Creates the memory system.
    ///
    /// # Panics
    ///
    /// Panics if `config.sockets` is zero.
    pub fn new(config: NumaConfig) -> Self {
        assert!(config.sockets > 0, "need at least one socket");
        let frames_per_socket = config.capacity_per_socket.bytes() / PAGE_SIZE as u64;
        let sockets = (0..config.sockets)
            .map(|i| {
                SocketMemory::new(
                    SocketId::new(i as u8),
                    i as u64 * frames_per_socket,
                    frames_per_socket,
                )
            })
            .collect();
        NumaMemory {
            config,
            sockets,
            frames_per_socket,
            frames_shift: (frames_per_socket.is_power_of_two())
                .then(|| frames_per_socket.trailing_zeros()),
            wear: false,
            heat: false,
            endurance: None,
            injector: None,
            tenancy: None,
            provenance: None,
        }
    }

    /// Enables per-tenant write attribution for `tenants` tenants. Costs
    /// one frame-record read per controller line write; off by default so
    /// single-tenant runs pay nothing.
    pub fn enable_tenancy(&mut self, tenants: usize) {
        if self.tenancy.is_none() {
            self.tenancy = Some(TenancyTracker::new(tenants));
        }
    }

    /// The tenancy tracker, if enabled.
    pub fn tenancy(&self) -> Option<&TenancyTracker> {
        self.tenancy.as_ref()
    }

    /// Enables per-cause / per-space write attribution: every controller
    /// line write is counted under its provenance tag. Off by default.
    pub fn enable_provenance(&mut self) {
        self.provenance.get_or_insert_with(WriteProvenance::default);
    }

    /// The write attribution since the last counter reset, if enabled.
    pub fn provenance(&self) -> Option<&WriteProvenance> {
        self.provenance.as_ref()
    }

    /// Records `frame` as owned by `tenant` (called from the demand-fault
    /// path). No-op when tenancy is off; out-of-range tenant ids are
    /// ignored.
    pub fn tenancy_assign(&mut self, frame: PageNum, tenant: u16) {
        let tenants = self.tenancy.as_ref().map_or(0, TenancyTracker::tenants);
        if (tenant as usize) < tenants {
            self.frame_mut(frame).set_owner(Some(tenant));
        }
    }

    /// Enables per-page read/write sampling on every socket. Costs one
    /// frame-record update per line transfer; off by default so
    /// GC-managed runs pay nothing.
    pub fn enable_page_heat(&mut self) {
        self.heat = true;
    }

    /// Every sampled frame's heat in ascending frame order — the
    /// deterministic order migration policies rely on — or `None` when
    /// sampling is off. A frame is sampled once any line of it reached a
    /// controller, until its heat moves away.
    pub fn page_heat(&self) -> Option<impl Iterator<Item = (PageNum, PageHeat)> + '_> {
        let frames = self.sockets.iter().flat_map(|s| s.frames.iter());
        let sampled = frames.filter(|(_, f)| f.heat.sampled());
        self.heat.then(|| sampled.map(|(p, f)| (p, f.heat)))
    }

    /// The heat of one frame (zeroes if it was never touched).
    pub fn heat(&self, frame: PageNum) -> PageHeat {
        self.frame(frame).map(|f| f.heat).unwrap_or_default()
    }

    /// Closes the heat-sampling epoch: per-page epoch deltas restart at
    /// zero, cumulative totals stay.
    pub fn reset_page_heat_epoch(&mut self) {
        self.sockets.iter_mut().for_each(|s| s.frames.reset_epoch());
    }

    fn frame(&self, frame: PageNum) -> Option<&Frame> {
        let s = self.socket_of_frame(frame).index();
        self.sockets[s].frames.get(frame)
    }

    fn frame_mut(&mut self, frame: PageNum) -> &mut Frame {
        let s = self.socket_of_frame(frame).index();
        self.sockets[s].frames.get_mut(frame)
    }

    /// Copies the page in frame `old` to frame `new` as controller
    /// traffic: a DMA-like read of every line of `old` and a write of the
    /// same line of `new`, bypassing the caches. Page migration and
    /// wear-out retirement both move a page through here, so this is the
    /// one place a frame's state follows a remap:
    /// - the owning tenant moves first, so the copy writes are charged to
    ///   it;
    /// - page heat moves last, keeping its cumulative totals with epoch
    ///   deltas restarted, so the copy makes neither frame look hot;
    /// - wear and retirement stay with the physical frame.
    ///
    /// The copy writes are attributed to `cause`.
    pub fn copy_page(&mut self, old: PageNum, new: PageNum, cause: WriteCause) {
        if let Some(t) = self.frame(old).and_then(Frame::owner) {
            self.frame_mut(old).set_owner(None);
            self.frame_mut(new).set_owner(Some(t));
        }
        let (old0, new0) = (old.phys_base().line().raw(), new.phys_base().line().raw());
        let tag = WriteTag::new(cause, SpaceTag::Other).raw();
        for i in 0..LINES as u64 {
            self.record_line_access(LineAddr::new(old0 + i), AccessKind::Read, tag);
            self.record_line_access(LineAddr::new(new0 + i), AccessKind::Write, tag);
        }
        let heat = self.heat(old);
        if heat.sampled() {
            self.frame_mut(old).heat = PageHeat::default();
            self.frame_mut(new).heat = PageHeat {
                epoch_reads: 0,
                epoch_writes: 0,
                ..heat
            };
        }
    }

    /// Caps one socket's allocatable capacity (see the OS-paging
    /// experiments: the default 8 GiB DRAM never fills, so first-touch
    /// placement would face no pressure). Call before any allocation.
    pub fn restrict_socket(&mut self, socket: SocketId, limit: ByteSize) {
        let frames = limit.bytes() / PAGE_SIZE as u64;
        self.sockets[socket.index()].restrict_frames(frames);
    }

    /// Enables per-line wear tracking on the PCM socket (socket 1). Costs
    /// one frame-record update per PCM line write; off by default.
    pub fn enable_wear_tracking(&mut self) {
        self.wear = true;
    }

    /// The PCM socket's per-line write counts, if wear tracking is on.
    pub fn wear(&self) -> Option<Wear<'_>> {
        self.wear
            .then(|| Wear(&self.sockets[SocketId::PCM.index()].frames))
    }

    /// Enables endurance modeling on the PCM socket: every PCM line gets a
    /// deterministic write budget, and the write that exceeds it retires
    /// the containing frame. Implies wear tracking.
    pub fn enable_endurance(&mut self, cfg: EnduranceConfig) {
        self.enable_wear_tracking();
        self.endurance = Some(EnduranceState {
            model: EnduranceModel::new(cfg),
            failed_lines: 0,
            pending: Vec::new(),
        });
    }

    /// Lines that exceeded their write budget so far.
    pub fn failed_lines(&self) -> u64 {
        self.endurance.as_ref().map_or(0, |e| e.failed_lines)
    }

    /// Installs a deterministic fault injector. Replaces any previous one.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Injection point for managed-heap allocations (forwarded by the
    /// machine layer so the heap does not depend on `hemu-fault` directly).
    ///
    /// # Errors
    ///
    /// Returns the injector's verdict; always `Ok` without an injector.
    pub fn fault_on_managed_alloc(&mut self) -> Result<()> {
        match self.injector.as_mut() {
            Some(inj) => inj.on_managed_alloc(),
            None => Ok(()),
        }
    }

    /// Reports `lines` remote transfers to the injector and returns the
    /// extra QPI stall cycles to charge (0 without an injector or burst).
    pub fn qpi_stall_cycles(&mut self, lines: u64) -> u64 {
        match self.injector.as_mut() {
            Some(inj) => inj.on_remote_lines(lines),
            None => 0,
        }
    }

    /// Returns `true` if wear-out retired frames that still await
    /// remapping. Cheap: one `Option` + `Vec::is_empty` check.
    pub fn has_pending_retirements(&self) -> bool {
        self.endurance
            .as_ref()
            .is_some_and(|e| !e.pending.is_empty())
    }

    /// Drains the queue of newly retired frames for the machine layer to
    /// remap.
    pub fn take_pending_retirements(&mut self) -> Vec<PageNum> {
        match self.endurance.as_mut() {
            Some(e) => std::mem::take(&mut e.pending),
            None => Vec::new(),
        }
    }

    /// The configuration this memory was built with.
    pub fn config(&self) -> &NumaConfig {
        &self.config
    }

    /// Immutable access to one socket.
    ///
    /// # Panics
    ///
    /// Panics if `socket` is out of range.
    pub fn socket(&self, socket: SocketId) -> &SocketMemory {
        &self.sockets[socket.index()]
    }

    /// Shorthand for `self.socket(socket).counters()`.
    pub fn counters(&self, socket: SocketId) -> &MemoryCounters {
        self.sockets[socket.index()].counters()
    }

    /// Pages (frames) retired by wear-out on one socket.
    pub fn retired_pages(&self, socket: SocketId) -> u64 {
        self.sockets[socket.index()].frames.retired
    }

    /// Capacity still in service on one socket after wear-out retirement.
    pub fn effective_capacity(&self, socket: SocketId) -> ByteSize {
        let s = &self.sockets[socket.index()];
        ByteSize::new((s.frame_count - s.frames.retired) * PAGE_SIZE as u64)
    }

    /// Which socket owns the given physical frame.
    #[inline]
    pub fn socket_of_frame(&self, frame: PageNum) -> SocketId {
        match self.frames_shift {
            Some(s) => SocketId::new((frame.raw() >> s) as u8),
            None => SocketId::new((frame.raw() / self.frames_per_socket) as u8),
        }
    }

    /// Which socket owns the given physical line.
    #[inline]
    pub fn socket_of_line(&self, line: LineAddr) -> SocketId {
        self.socket_of_frame(line.frame())
    }

    /// Allocates a frame on the requested socket.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::OutOfPhysicalMemory`] when that socket is full,
    /// or a transient [`HemuError::FaultInjected`] when an installed fault
    /// injector decides this allocation fails.
    pub fn allocate_frame(&mut self, socket: SocketId) -> Result<PageNum> {
        if let Some(inj) = self.injector.as_mut() {
            inj.on_frame_alloc()?;
        }
        self.sockets[socket.index()].allocate_frame()
    }

    /// Allocates a frame bypassing fault injection, for internal recovery
    /// paths (page retirement must not be re-faulted while handling a
    /// fault).
    pub fn allocate_frame_uninjected(&mut self, socket: SocketId) -> Result<PageNum> {
        self.sockets[socket.index()].allocate_frame()
    }

    /// Frees a frame back to its owning socket.
    ///
    /// # Errors
    ///
    /// Returns [`HemuError::InvalidConfig`] if the frame lies outside every
    /// socket's range, was never handed out, or is already free.
    pub fn free_frame(&mut self, frame: PageNum) -> Result<()> {
        let s = self.socket_of_frame(frame);
        if s.index() >= self.sockets.len() {
            return Err(HemuError::InvalidConfig(format!(
                "frame {frame} lies outside physical memory"
            )));
        }
        self.sockets[s.index()].free_frame(frame)?;
        // Heat survives the free: a reallocated frame inherits it.
        if self.frame(frame).and_then(Frame::owner).is_some() {
            self.frame_mut(frame).set_owner(None);
        }
        Ok(())
    }

    /// Records one cache-line transfer arriving at the memory controller
    /// that owns `line`. This is the single point where all memory traffic
    /// is counted — and therefore the single point where write
    /// attribution and PCM wear accumulate. `tag` is the raw
    /// [`WriteTag`] of a write; reads ignore it.
    pub fn record_line_access(&mut self, line: LineAddr, kind: AccessKind, tag: u8) {
        let s = self.socket_of_line(line);
        let frame = line.frame();
        let socket = &mut self.sockets[s.index()];
        socket.counters.record(kind);
        if self.heat {
            socket.frames.get_mut(frame).heat.record(kind);
        }
        if !kind.is_write() {
            return;
        }
        // Tenancy and provenance see exactly the writes the controller
        // counters see, so their counts sum to the global counters by
        // construction.
        if let Some(t) = self.tenancy.as_mut() {
            t.record_write(socket.frames.get(frame).and_then(Frame::owner), s);
        }
        if let Some(p) = self.provenance.as_mut() {
            p.record(s, tag);
        }
        if self.wear && s == SocketId::PCM {
            let count = socket.frames.wear_line(line);
            if let Some(e) = self.endurance.as_mut() {
                // `wear_line` increments by exactly 1, so the comparison
                // fires exactly once per line: on the write that spends the
                // line's last budgeted cycle.
                if count == e.model.line_budget(line) {
                    e.failed_lines += 1;
                    if socket.frames.retire(frame) {
                        e.pending.push(frame);
                    }
                }
            }
        }
    }

    /// Resets all controllers' counters (start of a measured iteration).
    /// Per-tenant and provenance write counts reset with them — frame
    /// ownership does not, since the tenants keep their memory across the
    /// reset.
    pub fn reset_counters(&mut self) {
        for s in &mut self.sockets {
            s.counters.reset();
        }
        if let Some(t) = self.tenancy.as_mut() {
            t.reset_counts();
        }
        if let Some(p) = self.provenance.as_mut() {
            *p = WriteProvenance::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NumaMemory {
        NumaMemory::new(NumaConfig {
            sockets: 2,
            capacity_per_socket: ByteSize::from_kib(16), // 4 frames each
        })
    }

    #[test]
    fn frames_partition_by_socket() {
        let mut m = small();
        let f0 = m.allocate_frame(SocketId::DRAM).unwrap();
        let f1 = m.allocate_frame(SocketId::PCM).unwrap();
        assert_eq!(m.socket_of_frame(f0), SocketId::DRAM);
        assert_eq!(m.socket_of_frame(f1), SocketId::PCM);
        assert_ne!(f0, f1);
    }

    #[test]
    fn exhaustion_errors_with_socket() {
        let mut m = small();
        for _ in 0..4 {
            m.allocate_frame(SocketId::PCM).unwrap();
        }
        let err = m.allocate_frame(SocketId::PCM).unwrap_err();
        assert!(
            matches!(err, HemuError::OutOfPhysicalMemory { socket, .. } if socket == SocketId::PCM)
        );
        // The other socket is unaffected.
        assert!(m.allocate_frame(SocketId::DRAM).is_ok());
    }

    #[test]
    fn freed_frames_are_recycled() {
        let mut m = small();
        let f = m.allocate_frame(SocketId::DRAM).unwrap();
        m.free_frame(f).unwrap();
        let again = m.allocate_frame(SocketId::DRAM).unwrap();
        assert_eq!(f, again);
    }

    #[test]
    fn line_access_routes_to_owning_controller() {
        let mut m = small();
        let f = m.allocate_frame(SocketId::PCM).unwrap();
        let line = f.phys_base().line();
        m.record_line_access(line, AccessKind::Write, 0);
        assert_eq!(m.counters(SocketId::PCM).write_lines(), 1);
        assert_eq!(m.counters(SocketId::DRAM).write_lines(), 0);
    }

    #[test]
    fn frames_in_use_tracks_alloc_and_free() {
        let mut m = small();
        let f = m.allocate_frame(SocketId::DRAM).unwrap();
        let _g = m.allocate_frame(SocketId::DRAM).unwrap();
        assert_eq!(m.socket(SocketId::DRAM).frames_in_use(), 2);
        m.free_frame(f).unwrap();
        assert_eq!(m.socket(SocketId::DRAM).frames_in_use(), 1);
    }

    #[test]
    fn freeing_foreign_frame_is_an_error() {
        let mut m = small();
        let f = m.allocate_frame(SocketId::PCM).unwrap();
        let err = m.sockets[SocketId::DRAM.index()].free_frame(f).unwrap_err();
        assert!(format!("{err}").contains("does not belong"));
    }

    /// A frame freed twice, or never handed out, is rejected; one frame
    /// can therefore never back two pages.
    #[test]
    fn double_free_and_unallocated_free_are_errors() {
        let mut m = small();
        let f = m.allocate_frame(SocketId::DRAM).unwrap();
        m.free_frame(f).unwrap();
        let err = m.free_frame(f).unwrap_err();
        assert!(matches!(err, HemuError::InvalidConfig(_)), "{err}");
        assert_eq!(m.socket(SocketId::DRAM).frames_in_use(), 0);
        let err = m.free_frame(PageNum::new(f.raw() + 1)).unwrap_err();
        assert!(format!("{err}").contains("never allocated"), "{err}");
        // The free list keeps its LIFO order and hands `f` out once.
        let g = m.allocate_frame(SocketId::DRAM).unwrap();
        let h = m.allocate_frame(SocketId::DRAM).unwrap();
        assert_eq!(g, f);
        assert_ne!(h, f);
        m.free_frame(g).unwrap();
    }

    #[test]
    fn retired_frames_are_never_reissued() {
        let mut m = small();
        let f = m.allocate_frame(SocketId::PCM).unwrap();
        assert!(m.sockets[SocketId::PCM.index()].frames.retire(f));
        assert!(
            !m.sockets[SocketId::PCM.index()].frames.retire(f),
            "idempotent"
        );
        m.free_frame(f).unwrap(); // silently dropped, not recycled
        for _ in 0..3 {
            let g = m.allocate_frame(SocketId::PCM).unwrap();
            assert_ne!(g, f, "retired frame must stay out of service");
        }
        assert!(m.allocate_frame(SocketId::PCM).is_err(), "3 of 4 left");
        assert_eq!(m.retired_pages(SocketId::PCM), 1);
        assert_eq!(
            m.effective_capacity(SocketId::PCM),
            ByteSize::new(3 * PAGE_SIZE as u64)
        );
    }

    #[test]
    fn endurance_retires_frame_when_budget_spent() {
        let mut m = small();
        m.enable_endurance(EnduranceConfig {
            budget_writes: 4,
            variability: 0.0,
            seed: 1,
        });
        let f = m.allocate_frame(SocketId::PCM).unwrap();
        let line = f.phys_base().line();
        for _ in 0..3 {
            m.record_line_access(line, AccessKind::Write, 0);
        }
        assert!(!m.has_pending_retirements(), "budget not yet spent");
        m.record_line_access(line, AccessKind::Write, 0);
        assert_eq!(m.failed_lines(), 1);
        assert!(m.has_pending_retirements());
        assert_eq!(m.take_pending_retirements(), vec![f]);
        assert!(!m.has_pending_retirements(), "drained");
        // Further writes to the same dead line do not re-retire anything.
        m.record_line_access(line, AccessKind::Write, 0);
        assert!(!m.has_pending_retirements());
        assert_eq!(m.failed_lines(), 1);
    }

    #[test]
    fn injector_can_fail_frame_allocation() {
        use hemu_fault::{FaultInjector, FaultPlan};
        let mut m = small();
        let plan = FaultPlan::parse("alloc_p=1.0").unwrap();
        m.set_fault_injector(FaultInjector::new(plan));
        let err = m.allocate_frame(SocketId::DRAM).unwrap_err();
        assert!(matches!(
            err,
            HemuError::FaultInjected {
                transient: true,
                ..
            }
        ));
        // The recovery path bypasses injection.
        assert!(m.allocate_frame_uninjected(SocketId::DRAM).is_ok());
    }

    #[test]
    fn page_heat_attributes_lines_to_frames() {
        let mut m = small();
        m.enable_page_heat();
        let f = m.allocate_frame(SocketId::PCM).unwrap();
        let line = f.phys_base().line();
        m.record_line_access(line, AccessKind::Write, 0);
        m.record_line_access(line, AccessKind::Write, 0);
        m.record_line_access(line, AccessKind::Read, 0);
        let h = m.heat(f);
        assert_eq!((h.writes, h.reads), (2, 1));
        m.reset_page_heat_epoch();
        let h = m.heat(f);
        assert_eq!((h.writes, h.epoch_writes), (2, 0));
    }

    fn owner(m: &NumaMemory, frame: PageNum) -> Option<u16> {
        m.frame(frame).and_then(Frame::owner)
    }

    fn touch(m: &mut NumaMemory, frame: u64, kind: AccessKind, n: usize) {
        for _ in 0..n {
            m.record_line_access(PageNum::new(frame).phys_base().line(), kind, 0);
        }
    }

    #[test]
    fn heat_tracks_cumulative_and_epoch_counts() {
        let mut m = small();
        m.enable_page_heat();
        touch(&mut m, 4, AccessKind::Write, 3);
        touch(&mut m, 4, AccessKind::Read, 1);
        touch(&mut m, 1, AccessKind::Read, 1);
        let h = m.heat(PageNum::new(4));
        assert_eq!((h.writes, h.reads), (3, 1));
        assert_eq!((h.epoch_writes, h.epoch_reads), (3, 1));
        m.reset_page_heat_epoch();
        touch(&mut m, 4, AccessKind::Write, 1);
        let h = m.heat(PageNum::new(4));
        assert_eq!((h.writes, h.epoch_writes), (4, 1));
        assert_eq!(m.page_heat().unwrap().count(), 2);
        assert_eq!(m.heat(PageNum::new(6)), PageHeat::default());
    }

    #[test]
    fn heat_is_off_by_default() {
        let mut m = small();
        touch(&mut m, 4, AccessKind::Write, 1);
        assert!(m.page_heat().is_none());
        assert_eq!(m.heat(PageNum::new(4)), PageHeat::default());
    }

    #[test]
    fn iteration_is_in_ascending_frame_order() {
        let mut m = small();
        m.enable_page_heat();
        for f in [7u64, 2, 5] {
            touch(&mut m, f, AccessKind::Write, 1);
        }
        let order: Vec<u64> = m.page_heat().unwrap().map(|(f, _)| f.raw()).collect();
        assert_eq!(order, vec![2, 5, 7]);
    }

    #[test]
    fn copy_page_moves_totals_and_restarts_epoch_deltas() {
        let mut m = small();
        m.enable_page_heat();
        let (old, new) = (PageNum::new(3), PageNum::new(6));
        touch(&mut m, 3, AccessKind::Write, 5);
        touch(&mut m, 3, AccessKind::Read, 1);
        touch(&mut m, 6, AccessKind::Read, 2);
        m.copy_page(old, new, WriteCause::Other);
        assert_eq!(m.heat(old), PageHeat::default(), "vacated");
        let h = m.heat(new);
        // The copy reads the old frame's 64 lines before the heat moves.
        assert_eq!((h.writes, h.reads), (5, 1 + 64), "cumulative totals follow");
        assert_eq!((h.epoch_writes, h.epoch_reads), (0, 0), "epoch restarts");
        let order: Vec<u64> = m.page_heat().unwrap().map(|(f, _)| f.raw()).collect();
        assert_eq!(order, vec![6], "the vacated frame is not sampled");
        // The copy itself is controller traffic.
        assert_eq!(m.counters(SocketId::PCM).write_lines(), 64);
        assert_eq!(m.counters(SocketId::DRAM).read().lines(), 1 + 64);
    }

    #[test]
    fn heat_survives_free_and_a_copy_without_heat_is_traffic_only() {
        let mut m = small();
        m.enable_page_heat();
        let f = m.allocate_frame(SocketId::DRAM).unwrap();
        touch(&mut m, f.raw(), AccessKind::Write, 2);
        m.free_frame(f).unwrap();
        assert_eq!(m.allocate_frame(SocketId::DRAM).unwrap(), f);
        assert_eq!(m.heat(f).writes, 2, "a reallocated frame inherits its heat");

        let mut m = small();
        m.copy_page(PageNum::new(1), PageNum::new(5), WriteCause::Other);
        assert!(m.page_heat().is_none());
        assert_eq!(m.heat(PageNum::new(5)), PageHeat::default());
        assert_eq!(m.counters(SocketId::PCM).write_lines(), 64);
    }

    #[test]
    fn writes_are_charged_to_the_owning_tenant() {
        let mut m = small();
        m.enable_tenancy(2);
        let (p, d) = (PageNum::new(5), PageNum::new(1));
        m.tenancy_assign(p, 1);
        m.tenancy_assign(d, 1);
        touch(&mut m, 5, AccessKind::Write, 2);
        touch(&mut m, 1, AccessKind::Write, 1);
        let t = m.tenancy().unwrap();
        assert_eq!((t.pcm_lines(1), t.dram_lines(1)), (2, 1));
        assert_eq!(t.pcm_lines(0), 0);
        assert_eq!(t.unattributed_pcm() + t.unattributed_dram(), 0);
        assert_eq!(owner(&m, p), Some(1));
    }

    #[test]
    fn unowned_frames_fall_into_the_unattributed_bucket() {
        let mut m = small();
        m.enable_tenancy(1);
        touch(&mut m, 5, AccessKind::Write, 1);
        touch(&mut m, 1, AccessKind::Write, 1);
        let t = m.tenancy().unwrap();
        assert_eq!((t.unattributed_pcm(), t.unattributed_dram()), (1, 1));
    }

    #[test]
    fn copy_page_moves_ownership_and_free_drops_it() {
        let mut m = small();
        m.enable_tenancy(1);
        let frames: Vec<_> = (0..3)
            .map(|_| m.allocate_frame(SocketId::PCM).unwrap())
            .collect();
        let (old, new) = (frames[1], frames[2]);
        assert_eq!((old, new), (PageNum::new(5), PageNum::new(6)));
        m.tenancy_assign(old, 0);
        m.copy_page(old, new, WriteCause::Other);
        let t = m.tenancy().unwrap();
        assert_eq!(
            t.pcm_lines(0),
            64,
            "the copy writes are charged to the owner"
        );
        assert_eq!((owner(&m, old), owner(&m, new)), (None, Some(0)));
        touch(&mut m, 6, AccessKind::Write, 1);
        touch(&mut m, 5, AccessKind::Write, 1);
        let t = m.tenancy().unwrap();
        assert_eq!(t.pcm_lines(0), 65, "the replacement frame is owned");
        assert_eq!(t.unattributed_pcm(), 1, "the vacated frame is not");
        m.free_frame(new).unwrap();
        touch(&mut m, 6, AccessKind::Write, 1);
        assert_eq!(m.tenancy().unwrap().pcm_lines(0), 65);
        assert_eq!(owner(&m, new), None);
        // Copying an unowned page moves no owner.
        m.tenancy_assign(new, 0);
        m.copy_page(old, new, WriteCause::Other);
        assert_eq!(owner(&m, new), Some(0));
    }

    #[test]
    fn reset_zeroes_counts_but_keeps_ownership() {
        let mut m = small();
        m.enable_tenancy(1);
        m.tenancy_assign(PageNum::new(5), 0);
        touch(&mut m, 5, AccessKind::Write, 1);
        m.reset_counters();
        assert_eq!(m.tenancy().unwrap().pcm_lines(0), 0);
        touch(&mut m, 5, AccessKind::Write, 1);
        assert_eq!(m.tenancy().unwrap().pcm_lines(0), 1, "ownership survived");
    }

    #[test]
    fn out_of_range_tenant_ids_are_ignored() {
        let mut m = small();
        m.enable_tenancy(1);
        m.tenancy_assign(PageNum::new(5), 5);
        touch(&mut m, 5, AccessKind::Write, 1);
        assert_eq!(m.tenancy().unwrap().unattributed_pcm(), 1);
        assert_eq!(owner(&m, PageNum::new(5)), None);
        // Without tenancy nothing is owned at all.
        let mut m = small();
        m.tenancy_assign(PageNum::new(5), 0);
        assert_eq!(owner(&m, PageNum::new(5)), None);
    }

    fn worn() -> NumaMemory {
        let mut m = NumaMemory::new(NumaConfig::default());
        m.enable_wear_tracking();
        m
    }

    fn pcm_line(i: u64) -> LineAddr {
        LineAddr::new(PageNum::new(1 << 21).phys_base().line().raw() + i)
    }

    #[test]
    fn wear_counts_accumulate_per_pcm_line() {
        let mut m = worn();
        m.record_line_access(pcm_line(1), AccessKind::Write, 0);
        m.record_line_access(pcm_line(1), AccessKind::Write, 0);
        m.record_line_access(pcm_line(2), AccessKind::Write, 0);
        // Reads and DRAM writes do not wear PCM.
        m.record_line_access(pcm_line(3), AccessKind::Read, 0);
        m.record_line_access(LineAddr::new(0), AccessKind::Write, 0);
        let w = m.wear().unwrap();
        assert_eq!(w.lines_touched(), 2);
        assert_eq!(w.max_line_writes(), 2);
        let pages: Vec<_> = w.pages().map(|(f, l)| (f, l[..4].to_vec())).collect();
        assert_eq!(pages, vec![(PageNum::new(1 << 21), vec![0, 2, 1, 0])]);
        assert!(small().wear().is_none(), "off by default");
    }

    #[test]
    fn uniform_stream_levels_perfectly_in_the_limit() {
        let mut m = worn();
        for i in 0..1000u64 {
            m.record_line_access(pcm_line(i), AccessKind::Write, 0);
        }
        // 1000 lines, device of 1000 lines, one write each: fully even.
        let eff = m.wear().unwrap().levelling_efficiency(1000);
        assert!(eff > 0.45, "uniform stream should level well, got {eff}");
    }

    #[test]
    fn single_hot_line_levels_poorly() {
        let mut m = worn();
        for _ in 0..10_000 {
            m.record_line_access(pcm_line(7), AccessKind::Write, 0);
        }
        let eff = m.wear().unwrap().levelling_efficiency(1_000_000);
        assert!(eff < 0.01, "one hot line must defeat rotation, got {eff}");
    }

    #[test]
    fn empty_wear_is_perfect() {
        assert_eq!(worn().wear().unwrap().levelling_efficiency(100), 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = worn().wear().unwrap().levelling_efficiency(0);
    }

    #[test]
    fn restrict_socket_caps_allocatable_frames() {
        let mut m = small(); // 4 frames per socket
        m.restrict_socket(SocketId::DRAM, ByteSize::from_kib(8)); // 2 frames
        assert!(m.allocate_frame(SocketId::DRAM).is_ok());
        assert!(m.allocate_frame(SocketId::DRAM).is_ok());
        assert!(matches!(
            m.allocate_frame(SocketId::DRAM),
            Err(HemuError::OutOfPhysicalMemory { socket, .. }) if socket == SocketId::DRAM
        ));
        // PCM keeps its full capacity, and address decoding is unchanged.
        for _ in 0..4 {
            let f = m.allocate_frame(SocketId::PCM).unwrap();
            assert_eq!(m.socket_of_frame(f), SocketId::PCM);
        }
    }

    #[test]
    fn tenancy_charges_controller_writes_to_the_owning_tenant() {
        let mut m = small();
        m.enable_tenancy(2);
        let f0 = m.allocate_frame(SocketId::PCM).unwrap();
        let f1 = m.allocate_frame(SocketId::DRAM).unwrap();
        m.tenancy_assign(f0, 0);
        m.tenancy_assign(f1, 1);
        m.record_line_access(f0.phys_base().line(), AccessKind::Write, 0);
        m.record_line_access(f1.phys_base().line(), AccessKind::Write, 0);
        m.record_line_access(f0.phys_base().line(), AccessKind::Read, 0);
        let t = m.tenancy().unwrap();
        assert_eq!((t.pcm_lines(0), t.dram_lines(1)), (1, 1));
        assert_eq!(t.unattributed_pcm() + t.unattributed_dram(), 0);
        // Per-tenant counts sum to the controller counters.
        assert_eq!(
            t.pcm_lines(0) + t.pcm_lines(1) + t.unattributed_pcm(),
            m.counters(SocketId::PCM).write_lines()
        );
        // Freeing a frame drops its ownership; later writes (stale
        // write-backs) land in the unattributed bucket.
        m.free_frame(f0).unwrap();
        m.record_line_access(f0.phys_base().line(), AccessKind::Write, 0);
        assert_eq!(m.tenancy().unwrap().unattributed_pcm(), 1);
        // The measured-iteration reset zeroes counts, keeps ownership.
        m.reset_counters();
        let t = m.tenancy().unwrap();
        assert_eq!((t.dram_lines(1), t.unattributed_pcm()), (0, 0));
        m.record_line_access(f1.phys_base().line(), AccessKind::Write, 0);
        assert_eq!(m.tenancy().unwrap().dram_lines(1), 1);
    }

    #[test]
    fn reset_clears_all_sockets() {
        let mut m = small();
        let f = m.allocate_frame(SocketId::DRAM).unwrap();
        m.record_line_access(f.phys_base().line(), AccessKind::Write, 0);
        m.reset_counters();
        assert_eq!(m.counters(SocketId::DRAM).write_lines(), 0);
    }

    #[test]
    fn provenance_counts_writes_by_tag_and_copies_by_cause() {
        let mut m = small();
        m.record_line_access(LineAddr::new(0), AccessKind::Write, 0x00);
        assert!(m.provenance().is_none(), "off by default");
        m.enable_provenance();
        let (dram, pcm) = (
            m.allocate_frame(SocketId::DRAM).unwrap(),
            m.allocate_frame(SocketId::PCM).unwrap(),
        );
        let tag = WriteTag::new(WriteCause::Metadata, SpaceTag::Meta).raw();
        m.record_line_access(pcm.phys_base().line(), AccessKind::Write, tag);
        m.record_line_access(pcm.phys_base().line(), AccessKind::Read, tag);
        m.copy_page(pcm, dram, WriteCause::OsMigration);
        let p = *m.provenance().unwrap();
        assert_eq!(p.pcm_by_cause[WriteCause::Metadata as usize], 1);
        assert_eq!(p.pcm_by_space[SpaceTag::Meta as usize], 1);
        assert_eq!(
            p.pcm_by_cause.iter().sum::<u64>(),
            1,
            "reads are not counted"
        );
        assert_eq!(
            p.dram_by_cause[WriteCause::OsMigration as usize],
            LINES as u64
        );
        assert_eq!(p.dram_by_space[SpaceTag::Other as usize], LINES as u64);
        m.reset_counters();
        let p = m.provenance().unwrap();
        assert_eq!(
            p.pcm_by_cause.iter().chain(&p.dram_by_space).sum::<u64>(),
            0
        );
    }
}
