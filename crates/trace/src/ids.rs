//! Strongly-typed identifiers used throughout `aprof-rs`.

use std::fmt;

/// Identifier of a guest thread.
///
/// Threads are numbered densely starting from 0 (the main thread). The
/// operating-system kernel is *not* a thread: kernel-mediated accesses are
/// modelled by the [`Event::KernelRead`](crate::Event::KernelRead) and
/// [`Event::KernelWrite`](crate::Event::KernelWrite) events instead.
///
/// # Example
///
/// ```
/// use aprof_trace::ThreadId;
/// let main = ThreadId::MAIN;
/// assert_eq!(main, ThreadId::new(0));
/// assert_eq!(main.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(u32);

impl ThreadId {
    /// The main (initial) thread of a guest program.
    pub const MAIN: ThreadId = ThreadId(0);

    /// Creates a thread id from a dense index.
    pub const fn new(index: u32) -> Self {
        ThreadId(index)
    }

    /// Returns the dense index of this thread.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl From<u32> for ThreadId {
    fn from(v: u32) -> Self {
        ThreadId(v)
    }
}

/// Identifier of a routine (function) of the guest program.
///
/// Routine ids are produced by interning names in a
/// [`RoutineTable`](crate::RoutineTable); they are dense indices, so tools
/// can use them directly as `Vec` indices.
///
/// # Example
///
/// ```
/// use aprof_trace::RoutineTable;
/// let mut table = RoutineTable::new();
/// let f = table.intern("f");
/// assert_eq!(table.name(f), "f");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoutineId(u32);

impl RoutineId {
    /// Creates a routine id from a dense index.
    ///
    /// Normally ids come from [`RoutineTable::intern`](crate::RoutineTable::intern);
    /// this constructor exists for synthetic traces and tests.
    pub const fn new(index: u32) -> Self {
        RoutineId(index)
    }

    /// Returns the dense index of this routine.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RoutineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u32> for RoutineId {
    fn from(v: u32) -> Self {
        RoutineId(v)
    }
}

/// A guest memory location.
///
/// The guest machine of `aprof-vm` is word-granular: one `Addr` names one
/// memory cell (a 64-bit word). This mirrors the paper's treatment of
/// "distinct memory cells" while keeping shadow memories compact.
///
/// # Example
///
/// ```
/// use aprof_trace::Addr;
/// let a = Addr::new(100);
/// assert_eq!(a.offset(4), Addr::new(104));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address naming the given memory cell.
    pub const fn new(cell: u64) -> Self {
        Addr(cell)
    }

    /// Returns the raw cell index of this address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address `delta` cells past this one.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the addition overflows `u64`.
    pub const fn offset(self, delta: u64) -> Self {
        Addr(self.0 + delta)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_roundtrip() {
        let t = ThreadId::new(7);
        assert_eq!(t.index(), 7);
        assert_eq!(t.to_string(), "T7");
        assert_eq!(ThreadId::from(7u32), t);
    }

    #[test]
    fn main_thread_is_zero() {
        assert_eq!(ThreadId::MAIN.index(), 0);
        assert_eq!(ThreadId::default(), ThreadId::MAIN);
    }

    #[test]
    fn addr_offset() {
        assert_eq!(Addr::new(10).offset(5).raw(), 15);
        assert_eq!(Addr::new(3).to_string(), "0x3");
    }

    #[test]
    fn routine_id_display() {
        assert_eq!(RoutineId::new(2).to_string(), "r2");
        assert_eq!(RoutineId::from(2u32).index(), 2);
    }
}
