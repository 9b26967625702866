//! Tool-overhead experiments: Table 1 and Fig. 14.

use crate::figures::FigureOutput;
use aprof_analysis::render::Table;
use aprof_core::{RmsProfiler, TrmsProfiler};
use aprof_tools::{CallgrindTool, HelgrindTool, MemcheckTool, NullTool};
use aprof_workloads::{family, Family, Workload, WorkloadParams};
use std::time::Instant;

/// The tools compared by Table 1 and Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolKind {
    /// Uninstrumented execution (the baseline).
    Native,
    /// Event dispatch into a do-nothing tool.
    Nulgrind,
    /// Definedness checking.
    Memcheck,
    /// Call-graph profiling.
    Callgrind,
    /// Happens-before race detection.
    Helgrind,
    /// The sequential rms profiler.
    AprofRms,
    /// The multithreaded trms profiler.
    AprofTrms,
}

impl ToolKind {
    /// All instrumented tools, in Table 1 column order.
    pub const INSTRUMENTED: [ToolKind; 6] = [
        ToolKind::Nulgrind,
        ToolKind::Memcheck,
        ToolKind::Callgrind,
        ToolKind::Helgrind,
        ToolKind::AprofRms,
        ToolKind::AprofTrms,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            ToolKind::Native => "native",
            ToolKind::Nulgrind => "nulgrind",
            ToolKind::Memcheck => "memcheck",
            ToolKind::Callgrind => "callgrind",
            ToolKind::Helgrind => "helgrind",
            ToolKind::AprofRms => "aprof-rms",
            ToolKind::AprofTrms => "aprof-trms",
        }
    }
}

/// One timed run of a workload under a tool.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Wall-clock seconds of the guest run.
    pub seconds: f64,
    /// Resident bytes of the tool's analysis state (0 for native/nulgrind).
    pub tool_bytes: u64,
    /// Resident bytes of guest data (the "native" memory footprint).
    pub guest_bytes: u64,
    /// Basic blocks executed (identical across tools — determinism check).
    pub blocks: u64,
}

impl Measurement {
    /// Space overhead factor relative to the guest footprint.
    pub fn space_factor(&self) -> f64 {
        if self.guest_bytes == 0 {
            return 1.0;
        }
        (self.guest_bytes + self.tool_bytes) as f64 / self.guest_bytes as f64
    }
}

/// Runs `workload` once under `kind`, timing the run and measuring the
/// tool's resident analysis state.
///
/// # Panics
///
/// Panics if the guest program fails (registry workloads never should).
pub fn measure(workload: &Workload, params: &WorkloadParams, kind: ToolKind) -> Measurement {
    let mut machine = workload.build(params);
    let start = Instant::now();
    let (outcome, tool_bytes) = match kind {
        ToolKind::Native => {
            let o = machine.run_native().expect("workload runs");
            (o, 0)
        }
        ToolKind::Nulgrind => {
            let mut t = NullTool::new();
            let o = machine.run_with(&mut t).expect("workload runs");
            (o, 0)
        }
        ToolKind::Memcheck => {
            let mut t = MemcheckTool::new();
            let o = machine.run_with(&mut t).expect("workload runs");
            let b = t.approx_bytes();
            (o, b)
        }
        ToolKind::Callgrind => {
            let mut t = CallgrindTool::new();
            let o = machine.run_with(&mut t).expect("workload runs");
            let b = t.approx_bytes();
            (o, b)
        }
        ToolKind::Helgrind => {
            let mut t = HelgrindTool::new();
            let o = machine.run_with(&mut t).expect("workload runs");
            let b = t.approx_bytes();
            (o, b)
        }
        ToolKind::AprofRms => {
            let mut t = RmsProfiler::new();
            let o = machine.run_with(&mut t).expect("workload runs");
            let b = t.shadow_bytes();
            (o, b)
        }
        ToolKind::AprofTrms => {
            let mut t = TrmsProfiler::new();
            let o = machine.run_with(&mut t).expect("workload runs");
            let b = t.shadow_bytes();
            (o, b)
        }
    };
    let seconds = start.elapsed().as_secs_f64();
    Measurement {
        seconds,
        tool_bytes,
        guest_bytes: machine.memory().resident_bytes() as u64,
        blocks: outcome.total_blocks,
    }
}

fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Table 1: per-benchmark slowdown and space overhead of every tool on the
/// OMP2012 suite with four worker threads, plus geometric means.
pub fn table1() -> FigureOutput {
    let params = WorkloadParams::new(crate::bench_size(), 4);
    let suite = family(Family::Omp2012);
    let mut table = Table::new(
        std::iter::once("benchmark".to_owned())
            .chain(ToolKind::INSTRUMENTED.iter().map(|t| format!("{} x", t.label())))
            .chain(ToolKind::INSTRUMENTED.iter().map(|t| format!("{} mem", t.label())))
            .collect(),
    );
    let mut slowdowns = vec![Vec::new(); ToolKind::INSTRUMENTED.len()];
    let mut spaces = vec![Vec::new(); ToolKind::INSTRUMENTED.len()];
    // One job per benchmark row. The native baseline and every tool run of
    // a row execute on the same worker, so within-row slowdown ratios are
    // taken under identical conditions even when rows time concurrently.
    let rows = crate::driver::par_map(&suite, |wl| {
        // Best-of-3 native baseline to dampen timer noise.
        let native = (0..3)
            .map(|_| measure(wl, &params, ToolKind::Native).seconds)
            .fold(f64::INFINITY, f64::min)
            .max(1e-9);
        let per_tool: Vec<(f64, f64)> = ToolKind::INSTRUMENTED
            .iter()
            .map(|kind| {
                let m = measure(wl, &params, *kind);
                (m.seconds / native, m.space_factor())
            })
            .collect();
        (wl.name.to_owned(), per_tool)
    });
    for (name, per_tool) in rows {
        let mut row = vec![name];
        let mut mems = Vec::new();
        for (i, (slowdown, space)) in per_tool.into_iter().enumerate() {
            slowdowns[i].push(slowdown);
            spaces[i].push(space);
            row.push(format!("{slowdown:.1}"));
            mems.push(format!("{space:.2}"));
        }
        row.extend(mems);
        table.row(row);
    }
    let mut mean_row = vec!["geometric-mean".to_owned()];
    for s in &slowdowns {
        mean_row.push(format!("{:.1}", geometric_mean(s)));
    }
    for s in &spaces {
        mean_row.push(format!("{:.2}", geometric_mean(s)));
    }
    table.row(mean_row);
    let text = format!(
        "Table 1 — slowdown (x, vs native) and space overhead (factor vs guest data)\n\
         OMP2012 suite, size={}, 4 worker threads\n\n{}",
        crate::bench_size(),
        table.render()
    );
    FigureOutput {
        id: "table1".into(),
        title: "Tool overhead comparison (Table 1)".into(),
        text,
        csv: vec![("table1.csv".into(), table.to_csv())],
    }
}

/// Fig. 14: time and space overhead relative to nulgrind as a function of
/// the number of worker threads.
pub fn fig14() -> FigureOutput {
    let threads = [1u32, 2, 4, 8, 16];
    let suite = family(Family::Omp2012);
    let kinds = [
        ToolKind::Memcheck,
        ToolKind::Callgrind,
        ToolKind::Helgrind,
        ToolKind::AprofRms,
        ToolKind::AprofTrms,
    ];
    let mut time_table = Table::new(
        std::iter::once("threads".to_owned())
            .chain(kinds.iter().map(|k| k.label().to_owned()))
            .collect(),
    );
    let mut space_table = Table::new(
        std::iter::once("threads".to_owned())
            .chain(kinds.iter().map(|k| k.label().to_owned()))
            .collect(),
    );
    // One job per (thread-count, tool) grid cell; each cell runs its
    // nulgrind baseline and tool measurement back-to-back on one worker so
    // the relative factors are taken under identical conditions. Cells are
    // reassembled in row-major order, keeping the tables deterministic.
    let grid: Vec<(u32, ToolKind)> =
        threads.iter().flat_map(|&t| kinds.iter().map(move |&k| (t, k))).collect();
    let cells = crate::driver::par_map(&grid, |&(t, kind)| {
        let params = WorkloadParams::new(crate::bench_size() / 2, t);
        let mut rel_time = Vec::new();
        let mut rel_space = Vec::new();
        for wl in &suite {
            let nul = measure(wl, &params, ToolKind::Nulgrind);
            let m = measure(wl, &params, kind);
            rel_time.push(m.seconds / nul.seconds.max(1e-9));
            rel_space.push(m.space_factor() / nul.space_factor());
        }
        (
            format!("{:.2}", geometric_mean(&rel_time)),
            format!("{:.2}", geometric_mean(&rel_space)),
        )
    });
    for (row_idx, &t) in threads.iter().enumerate() {
        let mut time_row = vec![t.to_string()];
        let mut space_row = vec![t.to_string()];
        for (time_cell, space_cell) in &cells[row_idx * kinds.len()..(row_idx + 1) * kinds.len()] {
            time_row.push(time_cell.clone());
            space_row.push(space_cell.clone());
        }
        time_table.row(time_row);
        space_table.row(space_row);
    }
    let text = format!(
        "Fig. 14a — mean slowdown vs nulgrind, by worker threads\n\n{}\n\
         Fig. 14b — mean space overhead vs nulgrind, by worker threads\n\n{}",
        time_table.render(),
        space_table.render()
    );
    FigureOutput {
        id: "fig14".into(),
        title: "Overhead as a function of thread count (Fig. 14)".into(),
        text,
        csv: vec![
            ("fig14_time.csv".into(), time_table.to_csv()),
            ("fig14_space.csv".into(), space_table.to_csv()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn measure_is_deterministic_in_blocks() {
        let wl = aprof_workloads::by_name("350.md").unwrap();
        let params = WorkloadParams::new(32, 2);
        let a = measure(&wl, &params, ToolKind::Native);
        let b = measure(&wl, &params, ToolKind::AprofTrms);
        assert_eq!(a.blocks, b.blocks, "instrumentation must not perturb execution");
        assert!(b.tool_bytes > 0);
    }

    #[test]
    fn space_factor_sane() {
        let m = Measurement { seconds: 1.0, tool_bytes: 100, guest_bytes: 100, blocks: 1 };
        assert!((m.space_factor() - 2.0).abs() < 1e-9);
        let z = Measurement { seconds: 1.0, tool_bytes: 5, guest_bytes: 0, blocks: 1 };
        assert_eq!(z.space_factor(), 1.0);
    }
}
