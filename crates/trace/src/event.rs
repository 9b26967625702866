//! Trace events: the operations a dynamic-analysis tool observes.

use crate::{Addr, RoutineId, ThreadId};

/// One operation of the execution trace (§4 of the paper).
///
/// A trace contains routine activations ([`Call`](Event::Call)) and
/// completions ([`Return`](Event::Return)), read/write memory accesses, and
/// read/write operations performed through kernel system calls
/// ([`KernelRead`](Event::KernelRead) / [`KernelWrite`](Event::KernelWrite)),
/// plus the bookkeeping events produced by the guest machine:
/// [`BasicBlock`](Event::BasicBlock) (the cost metric) and
/// [`ThreadSwitch`](Event::ThreadSwitch) / thread lifecycle events.
///
/// Memory events are cell-granular: an access spanning `n` cells appears as
/// `n` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// A routine activation: the thread entered `routine`.
    Call {
        /// The routine being activated.
        routine: RoutineId,
    },
    /// A routine completion: the topmost activation of the thread returned.
    Return {
        /// The routine whose activation completed.
        routine: RoutineId,
    },
    /// The thread read one memory cell.
    Read {
        /// The cell that was read.
        addr: Addr,
    },
    /// The thread wrote one memory cell.
    Write {
        /// The cell that was written.
        addr: Addr,
    },
    /// The kernel *read* one memory cell on behalf of the thread, e.g. while
    /// servicing a `write(2)`-like system call that sends guest memory to an
    /// external device. Treated as a read performed by the thread (§4.3).
    KernelRead {
        /// The cell the kernel read.
        addr: Addr,
    },
    /// The kernel *wrote* one memory cell on behalf of the thread, e.g. while
    /// servicing a `read(2)`-like system call that fills a guest buffer with
    /// data from an external device (§4.3).
    KernelWrite {
        /// The cell the kernel wrote.
        addr: Addr,
    },
    /// One basic block of the guest program completed; `cost` cost units
    /// (basic blocks, so normally 1) are charged to the executing thread.
    BasicBlock {
        /// Cost units to charge (normally 1).
        cost: u64,
    },
    /// The scheduler switched execution to this event's thread.
    ThreadSwitch,
    /// A new thread began execution.
    ThreadStart,
    /// A thread finished execution.
    ThreadExit,
}

impl Event {
    /// Returns the memory cell this event touches, if it is a memory event.
    ///
    /// # Example
    ///
    /// ```
    /// use aprof_trace::{Addr, Event};
    /// assert_eq!(Event::Read { addr: Addr::new(1) }.addr(), Some(Addr::new(1)));
    /// assert_eq!(Event::ThreadSwitch.addr(), None);
    /// ```
    pub fn addr(&self) -> Option<Addr> {
        match *self {
            Event::Read { addr }
            | Event::Write { addr }
            | Event::KernelRead { addr }
            | Event::KernelWrite { addr } => Some(addr),
            _ => None,
        }
    }

    /// Returns the coarse kind of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Call { .. } => EventKind::Call,
            Event::Return { .. } => EventKind::Return,
            Event::Read { .. } => EventKind::Read,
            Event::Write { .. } => EventKind::Write,
            Event::KernelRead { .. } => EventKind::KernelRead,
            Event::KernelWrite { .. } => EventKind::KernelWrite,
            Event::BasicBlock { .. } => EventKind::BasicBlock,
            Event::ThreadSwitch => EventKind::ThreadSwitch,
            Event::ThreadStart => EventKind::ThreadStart,
            Event::ThreadExit => EventKind::ThreadExit,
        }
    }
}

/// Coarse classification of [`Event`]s, useful for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Routine activation.
    Call,
    /// Routine completion.
    Return,
    /// Memory read by a thread.
    Read,
    /// Memory write by a thread.
    Write,
    /// Kernel-mediated read of guest memory.
    KernelRead,
    /// Kernel-mediated write of guest memory.
    KernelWrite,
    /// Basic-block completion (cost).
    BasicBlock,
    /// Scheduler switch.
    ThreadSwitch,
    /// Thread creation.
    ThreadStart,
    /// Thread termination.
    ThreadExit,
}

impl EventKind {
    /// All event kinds, in declaration order.
    pub const ALL: [EventKind; 10] = [
        EventKind::Call,
        EventKind::Return,
        EventKind::Read,
        EventKind::Write,
        EventKind::KernelRead,
        EventKind::KernelWrite,
        EventKind::BasicBlock,
        EventKind::ThreadSwitch,
        EventKind::ThreadStart,
        EventKind::ThreadExit,
    ];
}

/// An [`Event`] paired with the thread that issued it, as stored in a
/// [`Trace`](crate::Trace).
///
/// The record carries no timestamp: an event's position in the totally
/// ordered trace is its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// The issuing thread.
    pub thread: ThreadId,
    /// The operation.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_extraction() {
        let a = Addr::new(42);
        assert_eq!(Event::Write { addr: a }.addr(), Some(a));
        assert_eq!(Event::KernelRead { addr: a }.addr(), Some(a));
        assert_eq!(Event::KernelWrite { addr: a }.addr(), Some(a));
        assert_eq!(Event::Call { routine: RoutineId::new(0) }.addr(), None);
        assert_eq!(Event::BasicBlock { cost: 1 }.addr(), None);
    }

    #[test]
    fn kinds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for k in EventKind::ALL {
            assert!(seen.insert(k), "duplicate kind {k:?}");
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn kind_matches_event() {
        assert_eq!(Event::ThreadSwitch.kind(), EventKind::ThreadSwitch);
        assert_eq!(Event::Return { routine: RoutineId::new(3) }.kind(), EventKind::Return);
    }
}
