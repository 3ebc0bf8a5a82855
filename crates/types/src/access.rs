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
}

impl fmt::Display for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}+{}", self.kind, self.addr, self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }
}
