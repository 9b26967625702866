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
//! * [`Trace`] and [`ThreadTrace`] — recorded event streams. Thread-specific
//!   traces can be [merged](Trace::merge) into a single totally-ordered trace
//!   (ties broken arbitrarily but deterministically), with `switchThread`
//!   events inserted between operations of different threads, and then
//!   [replayed](Trace::replay) into any `Tool`.
//! * [`replay`] — the replay of an event stream that is not in memory (a
//!   wire trace being decoded, or any other fallible source), in batches
//!   through [`Tool::on_batch`]. [`Trace::replay_batched`] runs it over
//!   an in-memory trace, so a tool cannot tell the two apart.
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
pub use ids::{Addr, RoutineId, ThreadId, Timestamp};
pub use table::RoutineTable;
pub use tool::{NullTool, RecordingTool, Tool};
pub use trace::{replay, ThreadTrace, Trace, TraceStats};
