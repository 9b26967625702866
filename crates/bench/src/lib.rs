//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§6) on the `aprof-rs` substrate.
//!
//! Each `fig*`/`table1` function runs the relevant workloads under the
//! relevant tools and returns a [`FigureOutput`]: rendered text (tables and
//! ASCII plots) plus CSV files. The `repro` binary dispatches to them and
//! writes the CSVs under `results/`.
//!
//! Absolute numbers differ from the paper (the substrate is a deterministic
//! guest interpreter, not Valgrind on a 32-core Opteron); what is expected
//! to reproduce is every *shape*: tool ordering in Table 1, the rms-vs-trms
//! plot contrasts of Figs. 4–8, the input-attribution splits of Figs. 9 and
//! 17, the scaling trends of Fig. 14, and the distribution curves of
//! Figs. 15, 16, 18 and 19. `EXPERIMENTS.md` records paper-vs-measured for
//! each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound_bench;
pub mod check_bench;
pub mod corpus_bench;
pub mod driver;
pub mod chaos_bench;
pub mod faults_bench;
pub mod figures;
pub mod gate;
pub mod obs_bench;
pub mod suite;
pub mod wire_bench;

pub use bound_bench::bound_report;
pub use check_bench::check_report;
pub use corpus_bench::{corpus_smoke, corpus_smoke_with, DEFAULT_CORPUS_SEED};
pub use driver::{
    default_jobs, jobs, parallel_driver_report, run_indexed_isolated, set_jobs, FailureCause,
    JobOutcome, RetryPolicy,
};
pub use chaos_bench::{chaos_smoke, chaos_smoke_with, DEFAULT_CHAOS_SEED};
pub use faults_bench::{fault_smoke, DEFAULT_FAULT_SEED};
pub use figures::{clear_profile_cache, FigureOutput};
pub use gate::{bench_gate, DEFAULT_GATE_TOLERANCE};
pub use obs_bench::obs_report;
pub use suite::{measure, Measurement, ToolKind};
pub use wire_bench::wire_report;

/// All experiment identifiers known to the harness, in presentation order.
pub const EXPERIMENTS: &[&str] = &[
    "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "synthetic", "complexity",
];

/// Runs one experiment by id.
///
/// # Errors
///
/// Returns an error string for unknown ids or failing guest runs.
pub fn run_experiment(id: &str) -> Result<FigureOutput, String> {
    match id {
        "table1" => Ok(suite::table1()),
        "fig4" => Ok(figures::fig4()),
        "fig5" => Ok(figures::fig5()),
        "fig6" => Ok(figures::fig6()),
        "fig7" => Ok(figures::fig7()),
        "fig8" => Ok(figures::fig8()),
        "fig9" => Ok(figures::fig9()),
        "fig14" => Ok(suite::fig14()),
        "fig15" => Ok(figures::fig15()),
        "fig16" => Ok(figures::fig16()),
        "fig17" => Ok(figures::fig17()),
        "fig18" => Ok(figures::fig18()),
        "fig19" => Ok(figures::fig19()),
        "synthetic" => Ok(figures::synthetic()),
        "complexity" => Ok(figures::complexity()),
        other => Err(format!("unknown experiment `{other}` (known: {EXPERIMENTS:?})")),
    }
}

/// Runs several experiments, sharding them (and their internal measurement
/// loops) across the [`driver`]'s worker pool, and returns the outputs in
/// the order the ids were given.
///
/// Used by both the `repro` binary and `aprof-cli bench`, so the two entry
/// points behave identically for a given `--jobs` setting.
///
/// # Errors
///
/// Returns the first error (unknown id or failing guest run) in id order.
pub fn run_experiments(ids: &[&str]) -> Result<Vec<FigureOutput>, String> {
    let results = driver::par_map(ids, |id| run_experiment(id));
    results.into_iter().collect()
}

/// Workload size of the `BENCH_*.json` measurements and Table 1:
/// `APROF_BENCH_SIZE`, default 192.
pub(crate) fn bench_size() -> u64 {
    std::env::var("APROF_BENCH_SIZE").ok().and_then(|v| v.parse().ok()).unwrap_or(192)
}

/// Best-of-`n` wall-clock for `f`, in seconds: the minimum filters
/// scheduler noise out of the `BENCH_*.json` timings.
pub(crate) fn best_of<F: FnMut()>(n: usize, mut f: F) -> f64 {
    (0..n)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
        .max(1e-9)
}
