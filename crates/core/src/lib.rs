//! Input-sensitive profiling: the rms and trms metrics.
//!
//! This crate implements the paper's contribution: profilers that estimate,
//! for every routine activation, the **size of the input** the activation
//! worked on, and aggregate `(input size, cost)` pairs into per-routine cost
//! curves from a *single* run.
//!
//! Two metrics are provided:
//!
//! * **read memory size** (rms, Definition 1 — the PLDI 2012 metric): the
//!   number of distinct memory cells first accessed by a routine activation,
//!   or by one of its descendants in the call tree, with a *read* operation.
//!   Computed by [`RmsProfiler`], which is thread-oblivious (each thread is
//!   profiled as an independent sequential computation).
//! * **threaded read memory size** (trms, Definitions 2–3): additionally
//!   counts *induced first-accesses* — reads of cells whose latest write was
//!   performed by a different thread or by the OS kernel (I/O) and that the
//!   activation had not accessed since. Computed by [`TrmsProfiler`] with
//!   the read/write timestamping algorithm of §4.2–4.3: a global counter
//!   bumped on calls and thread switches, a global write-timestamp shadow
//!   memory, per-thread access-timestamp shadow memories, and per-thread
//!   shadow stacks holding *partial* metric values such that the metric of
//!   the i-th pending activation equals the suffix sum of partials
//!   (Invariant 2).
//!
//! [`TrmsProfiler`] computes **both** metrics in one pass (they share the
//! per-thread timestamp shadow), so rms-vs-trms comparisons — the heart of
//! the paper's case studies — come from one profiling session. The
//! [`InputPolicy`] selects which induced accesses count towards the trms,
//! reproducing the rms / external-only / external+thread panels of Fig. 7.
//!
//! Counter overflow is handled by the renumbering procedure of §4.4
//! (see [`renumber`]); a configurable counter limit makes overflow
//! exercisable in tests.
//!
//! The set-based naive algorithm of Fig. 10 is implemented in
//! [`NaiveProfiler`] and serves as a differential-testing oracle.
//!
//! # Example
//!
//! Profile the producer/consumer pattern of Fig. 2: after the producer has
//! written `n` values to the shared cell, the consumer's reads are all
//! induced first-accesses, so `rms = 1` but `trms = n`.
//!
//! ```
//! use aprof_core::TrmsProfiler;
//! use aprof_trace::{Addr, Event, RoutineTable, ThreadId, Trace};
//!
//! let mut names = RoutineTable::new();
//! let (produce, consume) = (names.intern("produceData"), names.intern("consumeData"));
//! let (prod, cons) = (ThreadId::new(0), ThreadId::new(1));
//! let x = Addr::new(0x100);
//!
//! let mut trace = Trace::new();
//! trace.push(cons, Event::Call { routine: consume });
//! for _ in 0..5 {
//!     trace.push(prod, Event::ThreadSwitch);
//!     trace.push(prod, Event::Call { routine: produce });
//!     trace.push(prod, Event::Write { addr: x });
//!     trace.push(prod, Event::Return { routine: produce });
//!     trace.push(cons, Event::ThreadSwitch);
//!     trace.push(cons, Event::Read { addr: x });
//! }
//! trace.push(cons, Event::Return { routine: consume });
//!
//! let mut profiler = TrmsProfiler::new();
//! trace.replay(&mut profiler);
//! let report = profiler.into_report(&names);
//! let consumer = report.routine(consume).unwrap();
//! assert_eq!(consumer.trms_curve()[0].0, 5); // trms = n = 5
//! assert_eq!(consumer.rms_curve()[0].0, 1);  // rms = 1
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cct;
mod naive;
mod policy;
mod profile;
pub mod renumber;
mod rms;
mod trms;

pub use naive::NaiveProfiler;
pub use policy::InputPolicy;
pub use profile::{
    ActivationRecord, CostStats, GlobalStats, ProfileReport, RoutineReport, RoutineThreadProfile,
};
pub use renumber::RenumberScheme;
pub use rms::RmsProfiler;
pub use trms::{TrmsBuilder, TrmsProfiler, DEFAULT_STREAM_BATCH};
