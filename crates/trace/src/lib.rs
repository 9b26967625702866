//! Event model for input-sensitive profiling.
//!
//! This crate defines the vocabulary shared by every other `aprof-rs` crate:
//!
//! * [`ThreadId`], [`RoutineId`], [`Addr`] — strongly-typed identifiers for
//!   the entities a dynamic-analysis tool observes.
//! * [`Event`] — the operations recorded in an execution trace: routine
//!   activations and completions, read/write memory accesses, and read/write
//!   operations performed through kernel system calls (`kernelRead` /
//!   `kernelWrite`), exactly as in §4 of the paper.
//! * [`Tool`] — a Valgrind-style instrumentation callback interface. The
//!   guest machine in `aprof-vm` drives a `Tool` while it executes a program;
//!   the profilers in `aprof-core` and the comparator analyses in
//!   `aprof-tools` all implement it.
//! * [`Trace`] — a recorded event stream: one totally ordered trace of all
//!   threads, in which `switchThread` events separate operations of
//!   different threads, exactly as the serialized guest machine issues it.
//!   An event's position in the trace is its time; no event carries a
//!   timestamp. A trace is [replayed](Trace::replay) into any `Tool`.
//! * [`replay`] — the replay of an event stream that is not in memory (a
//!   wire trace being decoded, or any other fallible source). Like
//!   [`Trace::replay`] and the guest machine, it hands each event to
//!   [`Tool::dispatch`] as it arrives, so a tool cannot tell them apart.
//!
//! # Example
//!
//! Build a tiny trace by hand and replay it into a recording sink:
//!
//! ```
//! use aprof_trace::{Addr, Event, RoutineTable, ThreadId, Trace};
//!
//! let mut table = RoutineTable::new();
//! let f = table.intern("f");
//! let t0 = ThreadId::new(0);
//!
//! let mut trace = Trace::new();
//! trace.push(t0, Event::Call { routine: f });
//! trace.push(t0, Event::Read { addr: Addr::new(0x10) });
//! trace.push(t0, Event::Return { routine: f });
//!
//! let mut sink = aprof_trace::RecordingTool::new();
//! trace.replay(&mut sink);
//! assert_eq!(sink.trace().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod event;
mod ids;
mod table;
pub mod textio;
mod tool;
mod trace;

pub use event::{Event, EventKind, TimedEvent};
pub use ids::{Addr, RoutineId, ThreadId};
pub use table::RoutineTable;
pub use tool::{NullTool, RecordingTool, Tool};
pub use trace::{replay, Trace, TraceStats};
