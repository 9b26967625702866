//! Fuzzed guest-CFG corpus, verified differentially end-to-end.
//!
//! This crate closes the loop between the subsystems of the workspace: a
//! seeded, deterministic generator ([`gen`]) emits random-but-interesting
//! guest programs — nested loops, irreducible-ish diamonds, recursion with
//! data-dependent depth, fork/join worker pools over locks and shared
//! cells, kernel-input read/write mixes — and a differential harness
//! ([`harness`]) runs every one of them through four independent oracles
//! ([`oracle`]):
//!
//! 1. the rms/trms profiling engines against the naive set-based
//!    re-execution oracle (Fig. 10 of the paper),
//! 2. the wire-format round-trip against the directly captured stream,
//! 3. the static verifier's verdict against the dynamic VM behaviour,
//! 4. the static cost bounds against the growth fitted to the profile.
//!
//! Failures shrink to a (locally) minimal CFG through the vendored
//! proptest's [`Shrink`](proptest::shrink::Shrink) machinery, and the
//! harness is `--jobs`-invariant: the rendered report and its digest are
//! byte-identical whatever the worker count.
//!
//! # Example
//!
//! ```
//! use aprof_corpus::{FuzzConfig, run_fuzz};
//!
//! let outcome = run_fuzz(&FuzzConfig { seed: 1, cases: 8, ..FuzzConfig::default() });
//! assert!(outcome.failures.is_empty(), "{}", outcome.report);
//! assert_eq!(outcome.cases, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod harness;
pub mod oracle;

pub use gen::{CaseSpec, FuncSpec, GenConfig, Stmt};
pub use harness::{crash_recovery_round, run_fuzz, FuzzConfig, FuzzFailure, FuzzOutcome};
pub use oracle::{run_case, run_case_mutated, CaseReport, Mutation, Oracle, OracleFailure};
