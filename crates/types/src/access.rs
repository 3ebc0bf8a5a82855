//! Memory access records: what a core issues to the memory hierarchy.

use crate::addr::Addr;
use std::fmt;

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "R"),
            AccessKind::Write => write!(f, "W"),
        }
    }
}

/// One memory access issued by an emulated thread: a virtual address range
/// plus a read/write kind.
///
/// The machine splits a `MemoryAccess` into per-cache-line accesses before
/// it reaches the cache hierarchy.
///
/// # Examples
///
/// ```
/// use hemu_types::{Addr, AccessKind, MemoryAccess};
/// let a = MemoryAccess::write(Addr::new(0x100), 256);
/// assert_eq!(a.kind, AccessKind::Write);
/// assert_eq!(a.lines().count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryAccess {
    /// First byte touched.
    pub addr: Addr,
    /// Number of bytes touched.
    pub size: u32,
    /// Read or write.
    pub kind: AccessKind,
}

impl MemoryAccess {
    /// Creates a read access of `size` bytes at `addr`.
    pub const fn read(addr: Addr, size: u32) -> Self {
        MemoryAccess {
            addr,
            size,
            kind: AccessKind::Read,
        }
    }

    /// Creates a write access of `size` bytes at `addr`.
    pub const fn write(addr: Addr, size: u32) -> Self {
        MemoryAccess {
            addr,
            size,
            kind: AccessKind::Write,
        }
    }

    /// Iterates over the (virtual) cache-line base addresses this access
    /// touches, in ascending order.
    ///
    /// A zero-sized access touches no lines.
    pub fn lines(&self) -> LineIter {
        let first = self.addr.line().raw();
        let last = if self.size == 0 {
            0
        } else {
            self.addr.offset(self.size as u64 - 1).line().raw()
        };
        LineIter {
            next: first,
            last,
            done: self.size == 0,
        }
    }
}

impl fmt::Display for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}+{}", self.kind, self.addr, self.size)
    }
}

/// Iterator over virtual line base addresses of a [`MemoryAccess`];
/// produced by [`MemoryAccess::lines`].
#[derive(Debug, Clone)]
pub struct LineIter {
    next: u64,
    last: u64,
    done: bool,
}

impl Iterator for LineIter {
    type Item = Addr;

    fn next(&mut self) -> Option<Addr> {
        if self.done {
            return None;
        }
        let cur = self.next;
        if cur >= self.last {
            self.done = true;
        }
        self.next = cur + crate::size::CACHE_LINE as u64;
        Some(Addr::new(cur))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_byte_touches_one_line() {
        let a = MemoryAccess::read(Addr::new(0x7f), 1);
        let lines: Vec<_> = a.lines().collect();
        assert_eq!(lines, vec![Addr::new(0x40)]);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let a = MemoryAccess::write(Addr::new(0x3e), 4);
        let lines: Vec<_> = a.lines().collect();
        assert_eq!(lines, vec![Addr::new(0x0), Addr::new(0x40)]);
    }

    #[test]
    fn large_access_touches_every_line_once() {
        let a = MemoryAccess::write(Addr::new(0), 64 * 10);
        assert_eq!(a.lines().count(), 10);
    }

    #[test]
    fn zero_size_touches_nothing() {
        let a = MemoryAccess::read(Addr::new(0x40), 0);
        assert_eq!(a.lines().count(), 0);
    }

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }
}
