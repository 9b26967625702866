//! # aprof-rs — input-sensitive profiling
//!
//! A Rust reproduction of the input-sensitive profiling methodology of
//! Coppa, Demetrescu and Finocchi (PLDI 2012) and its multithreaded
//! extension: per-routine *cost-versus-input-size* profiles computed from a
//! single run, with the input size of every routine activation measured
//! automatically via the **read memory size** (rms) and **threaded read
//! memory size** (trms) metrics.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`trace`] — events, ids, traces, and the [`trace::Tool`] callback trait.
//! * [`shadow`] — arena-paged shadow memories.
//! * [`core`] — the rms/trms profilers (the paper's contribution).
//! * [`vm`] — the instrumented guest machine (the Valgrind substitute).
//! * [`tools`] — comparator analysis tools (nulgrind/memcheck/callgrind/helgrind analogs).
//! * [`workloads`] — benchmark guest programs.
//! * [`analysis`] — cost plots, curve fitting, richness/volume metrics.
//! * [`mod@bench`] — the experiment harness and its parallel measurement driver.
//! * [`wire`] — the chunked binary trace format (streaming capture,
//!   O(chunk)-memory replay).
//! * [`check`] — the static verifier and lint pass over guest IR.
//! * [`bound`] — static symbolic cost-bound inference (loop trip
//!   classification, recursion size-change analysis) and the
//!   static-vs-dynamic growth differential.
//! * [`obs`] — profiler self-metrics: counters, tracing spans, `obs.json`.
//! * [`faults`] — seeded, replayable fault injection for robustness tests.
//! * [`corpus`] — the fuzzed CFG corpus: seeded program generation, four
//!   differential oracles, and shrinking of failures to minimal programs.
//! * [`serve`] — the multi-tenant streaming profiling service daemon
//!   (`aprof-cli serve` / `submit`).
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture.

pub use aprof_analysis as analysis;
pub use aprof_obs as obs;
pub use aprof_bench as bench;
pub use aprof_bound as bound;
pub use aprof_check as check;
pub use aprof_core as core;
pub use aprof_corpus as corpus;
pub use aprof_faults as faults;
pub use aprof_serve as serve;
pub use aprof_shadow as shadow;
pub use aprof_tools as tools;
pub use aprof_trace as trace;
pub use aprof_vm as vm;
pub use aprof_wire as wire;
pub use aprof_workloads as workloads;
