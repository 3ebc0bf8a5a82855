//! Address newtypes: virtual addresses, physical addresses, page numbers,
//! cache-line addresses and socket identifiers.
//!
//! Newtypes keep the different address spaces statically distinct
//! (C-NEWTYPE): a [`PhysAddr`] produced by the page table can never be
//! accidentally fed back in where a virtual [`Addr`] is expected.

use crate::size::{CACHE_LINE, PAGE_SIZE};
use std::fmt;

/// A virtual address in an emulated process address space.
///
/// # Examples
///
/// ```
/// use hemu_types::Addr;
/// let a = Addr::new(0x1234);
/// assert_eq!(a.offset(0x10).raw(), 0x1244);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// The null virtual address.
    pub const NULL: Addr = Addr(0);

    /// Creates a virtual address from a raw value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw numeric value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    ///
    /// # Panics
    ///
    /// Panics on overflow of the 64-bit address space (debug builds).
    pub const fn offset(self, bytes: u64) -> Self {
        Addr(self.0 + bytes)
    }

    /// Returns the address of the cache line containing `self`.
    pub const fn line(self) -> Addr {
        Addr(self.0 & !(CACHE_LINE as u64 - 1))
    }

    /// Returns the virtual page number containing `self`.
    pub const fn page(self) -> PageNum {
        PageNum(self.0 / PAGE_SIZE as u64)
    }

    /// Returns `true` if the address is aligned to `align` bytes.
    ///
    /// `align` must be a power of two.
    pub const fn is_aligned(self, align: u64) -> bool {
        self.0 & (align - 1) == 0
    }

    /// Rounds the address up to the next multiple of `align` (a power of two).
    pub const fn align_up(self, align: u64) -> Addr {
        Addr((self.0 + align - 1) & !(align - 1))
    }

    /// Byte distance from `earlier` to `self`, or `None` if `earlier` is
    /// the greater address.
    pub fn distance_from(self, earlier: Addr) -> Option<u64> {
        self.0.checked_sub(earlier.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A physical address in the emulated machine's memory.
///
/// Physical addresses are produced by page-table translation and identify a
/// location inside one socket's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw value.
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// Returns the raw numeric value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the physical cache-line address containing `self`.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / CACHE_LINE as u64)
    }

    /// Returns the physical frame (page) number containing `self`.
    pub const fn frame(self) -> PageNum {
        PageNum(self.0 / PAGE_SIZE as u64)
    }

    /// Returns the address advanced by `bytes`.
    pub const fn offset(self, bytes: u64) -> Self {
        PhysAddr(self.0 + bytes)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "phys:0x{:x}", self.0)
    }
}

/// A physical cache-line number (physical address divided by the line size).
///
/// Cache tags and memory-controller write-back records are keyed by
/// `LineAddr` so a 64-byte line has exactly one identity everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line number from a raw value.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the first physical byte address of this line.
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 * CACHE_LINE as u64)
    }

    /// Returns the physical frame containing this line.
    pub const fn frame(self) -> PageNum {
        PageNum(self.0 * CACHE_LINE as u64 / PAGE_SIZE as u64)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{}", self.0)
    }
}

/// A page (or frame) number: address divided by the 4 KiB page size.
///
/// Used both for virtual page numbers and for physical frame numbers; the
/// page table maps one to the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageNum(u64);

impl PageNum {
    /// Creates a page number from a raw value.
    pub const fn new(raw: u64) -> Self {
        PageNum(raw)
    }

    /// Returns the raw page number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the first byte address of this page (virtual interpretation).
    pub const fn base(self) -> Addr {
        Addr(self.0 * PAGE_SIZE as u64)
    }

    /// Returns the first byte address of this page (physical interpretation).
    pub const fn phys_base(self) -> PhysAddr {
        PhysAddr(self.0 * PAGE_SIZE as u64)
    }

    /// Returns the page number advanced by `n` pages.
    pub const fn offset(self, n: u64) -> PageNum {
        PageNum(self.0 + n)
    }
}

impl fmt::Display for PageNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page:{}", self.0)
    }
}

/// Identifies one socket (NUMA node) of the emulated machine.
///
/// The emulation platform uses [`SocketId::DRAM`] (socket 0, local — the
/// threads run here) to emulate DRAM and [`SocketId::PCM`] (socket 1,
/// remote) to emulate PCM, exactly as the paper's Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(u8);

impl SocketId {
    /// Socket 0: the local socket, emulating DRAM.
    pub const DRAM: SocketId = SocketId(0);
    /// Socket 1: the remote socket, emulating PCM.
    pub const PCM: SocketId = SocketId(1);

    /// Creates a socket id from a raw index.
    pub const fn new(raw: u8) -> Self {
        SocketId(raw)
    }

    /// Returns the raw socket index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if this is the (emulated) PCM socket.
    pub const fn is_pcm(self) -> bool {
        self.0 == 1
    }
}

impl Default for SocketId {
    fn default() -> Self {
        SocketId::DRAM
    }
}

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SocketId::DRAM => write!(f, "S0(DRAM)"),
            SocketId::PCM => write!(f, "S1(PCM)"),
            SocketId(n) => write!(f, "S{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_alignment_masks_low_bits() {
        assert_eq!(Addr::new(0x1003f).line(), Addr::new(0x10000));
        assert_eq!(Addr::new(0x10040).line(), Addr::new(0x10040));
    }

    #[test]
    fn page_round_trip() {
        let a = Addr::new(0x12345);
        assert_eq!(a.page().raw(), 0x12);
        assert_eq!(a.page().base(), Addr::new(0x12000));
    }

    #[test]
    fn align_up_is_idempotent_on_aligned() {
        let a = Addr::new(4096);
        assert_eq!(a.align_up(4096), a);
        assert_eq!(Addr::new(1).align_up(4096), Addr::new(4096));
    }

    #[test]
    fn phys_line_and_frame() {
        let p = PhysAddr::new(0x1fff);
        assert_eq!(p.line().raw(), 0x1fff / 64);
        assert_eq!(p.frame().raw(), 1);
        assert_eq!(p.line().base().raw() % 64, 0);
    }

    #[test]
    fn socket_roles() {
        assert!(SocketId::PCM.is_pcm());
        assert!(!SocketId::DRAM.is_pcm());
        assert_eq!(SocketId::DRAM.index(), 0);
        assert_eq!(format!("{}", SocketId::PCM), "S1(PCM)");
    }

    #[test]
    fn distance_from_counts_bytes() {
        assert_eq!(Addr::new(100).distance_from(Addr::new(40)), Some(60));
    }

    #[test]
    fn distance_from_is_none_when_reversed() {
        assert_eq!(Addr::new(40).distance_from(Addr::new(100)), None);
    }

    #[test]
    fn line_addr_frame_relation() {
        // 64 lines per 4 KiB page.
        assert_eq!(LineAddr::new(63).frame().raw(), 0);
        assert_eq!(LineAddr::new(64).frame().raw(), 1);
    }
}
