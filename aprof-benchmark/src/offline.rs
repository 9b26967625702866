//! The offline path, driven the way `aprof-cli run --workload W
//! --bottlenecks` drives it: build the guest, run it under the trms
//! profiler with the full input policy, assemble the report and fit the
//! cost curves. Every program also runs natively, for the slowdown ratio.

use crate::spans::SpanId;
use crate::stats::median;
use crate::{layers, peak_rss_mb, set_latency, Ctx, Outcome, Program};
use aprof_analysis::bottleneck;
use aprof_core::{InputPolicy, TrmsProfiler, DEFAULT_STREAM_BATCH};
use aprof_trace::{RecordingTool, Trace};
use aprof_vm::{RunOutcome, VmError};
use aprof_workloads::{by_name, WorkloadParams};
use std::hint::black_box;
use std::time::Instant;

/// kvstore programs per second of `--seconds`: a native plus a profiled
/// run of one program takes about 0.23 s on a 2-core x86-64 VM.
const KVSTORE_PER_S: f64 = 4.0;

/// Suite rounds per second of `--seconds`: one round (every registered
/// workload, native and profiled) takes about 25 ms on the same VM.
const SUITE_ROUNDS_PER_S: f64 = 36.0;

/// Set-up is repeated this many times; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// `run-kvstore`: one long, memory- and call-heavy program, many times.
pub fn run_kvstore(ctx: &Ctx) -> Result<Outcome, String> {
    let workload = by_name("kvstore").ok_or("kvstore is not registered")?;
    let mut rng = ctx.rng(0);
    let mut program =
        || Program { workload, params: WorkloadParams { size: 1024, threads: 2, seed: rng.next_u64() } };
    let warmup = vec![program(), program()];
    let rounds: Vec<Vec<Program>> = (0..ctx.count(KVSTORE_PER_S)).map(|_| vec![program()]).collect();
    drive(ctx, &warmup, &rounds)
}

/// `run-suite`: every registered workload at its default size and thread
/// count, in seeded rounds.
pub fn run_suite(ctx: &Ctx) -> Result<Outcome, String> {
    let workloads = aprof_workloads::all();
    let mut rng = ctx.rng(0);
    let mut round = || {
        let mut r: Vec<Program> = workloads
            .iter()
            .map(|&workload| Program {
                workload,
                params: WorkloadParams { seed: rng.next_u64(), ..WorkloadParams::default() },
            })
            .collect();
        rng.shuffle(&mut r);
        r
    };
    let warmup = round();
    let rounds: Vec<Vec<Program>> = (0..ctx.count(SUITE_ROUNDS_PER_S)).map(|_| round()).collect();
    drive(ctx, &warmup, &rounds)
}

struct Profiled {
    outcome: RunOutcome,
    /// `run_with` alone.
    run_with_s: f64,
    /// Build, profiled run, report and fit: what `aprof-cli run` waits for.
    op_s: f64,
}

fn profile(ctx: &Ctx, p: &Program, op: u64, parent: Option<SpanId>) -> Result<Profiled, VmError> {
    ctx.spans.scope("op.profile", op, parent, |parent| {
        let start = Instant::now();
        let mut machine = ctx.spans.scope("vm.build", op, parent, |_| p.build());
        let names = machine.program().routines().clone();
        let mut profiler = TrmsProfiler::builder().policy(InputPolicy::full()).build();
        let run_start = Instant::now();
        // Event delivery, shadow memory and the profiler all run inside
        // this call; the per-layer probes split it.
        let outcome = ctx.spans.scope("vm.run_with", op, parent, |_| machine.run_with(&mut profiler))?;
        let run_with_s = run_start.elapsed().as_secs_f64();
        let (report, _cct) =
            ctx.spans.scope("core.report", op, parent, |_| profiler.into_report_and_cct(&names));
        black_box(ctx.spans.scope("analysis.fit", op, parent, |_| bottleneck::analyze(&report)));
        Ok(Profiled { outcome, run_with_s, op_s: start.elapsed().as_secs_f64() })
    })
}

fn native(ctx: &Ctx, p: &Program, op: u64, parent: Option<SpanId>) -> Result<(RunOutcome, f64), VmError> {
    let mut machine = p.build();
    let start = Instant::now();
    let outcome = ctx.spans.scope("vm.run_native", op, parent, |_| machine.run_native())?;
    Ok((outcome, start.elapsed().as_secs_f64()))
}

/// A native and a profiled run of `p`, alternating which goes first so
/// slow drift in the machine charges both sides alike.
fn pair(
    ctx: &Ctx,
    p: &Program,
    op: u64,
    parent: Option<SpanId>,
) -> Result<((RunOutcome, f64), Profiled), VmError> {
    if op.is_multiple_of(2) {
        let n = native(ctx, p, op, parent)?;
        Ok((n, profile(ctx, p, op, parent)?))
    } else {
        let pr = profile(ctx, p, op, parent)?;
        Ok((native(ctx, p, op, parent)?, pr))
    }
}

fn drive(ctx: &Ctx, warmup: &[Program], rounds: &[Vec<Program>]) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let start = Instant::now();
        ctx.spans.scope("setup.warmup", 0, None, |parent| {
            warmup.iter().try_for_each(|p| pair(ctx, p, 0, parent).map(drop).map_err(|e| e.to_string()))
        })?;
        setups.push(start.elapsed().as_secs_f64());
    }

    // A round is the unit of work whose latency counts: one program on
    // run-kvstore, the whole suite on run-suite, where single programs
    // take from 10 µs to 5 ms and their pooled percentiles would jump
    // between programs.
    let (mut latencies_ms, mut blocks_per_s, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let mut op = 0;
    for round in rounds {
        let (mut blocks, mut op_s, mut native_s, mut run_with_s) = (0, 0.0, 0.0, 0.0);
        for p in round {
            op += 1;
            match pair(ctx, p, op, None) {
                Ok(((n, n_s), pr)) => {
                    let agree =
                        n.exit_value == pr.outcome.exit_value && n.total_blocks == pr.outcome.total_blocks;
                    out.tally(agree, || {
                        format!(
                            "{} seed {}: native and profiled runs disagree",
                            p.workload.name, p.params.seed
                        )
                    });
                    blocks += pr.outcome.total_blocks;
                    op_s += pr.op_s;
                    native_s += n_s;
                    run_with_s += pr.run_with_s;
                }
                Err(e) => out.tally(false, || format!("{}: {e}", p.workload.name)),
            }
        }
        if op_s > 0.0 && native_s > 0.0 {
            latencies_ms.push(op_s * 1e3);
            blocks_per_s.push(blocks as f64 / op_s);
            slowdowns.push(run_with_s / native_s);
        }
    }
    if blocks_per_s.is_empty() {
        return Err("no program completed".into());
    }
    let peak = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    let first = rounds[0][0];
    let identical = replay_identity(&first)?;
    out.tally(identical, || {
        format!("{}: live profile differs from a replay of its recorded events", first.workload.name)
    });

    out.metrics.insert("setup_s", median(&setups));
    out.metrics.insert("profile_blocks_per_s", median(&blocks_per_s));
    out.metrics.insert("slowdown_vs_native", median(&slowdowns));
    out.metrics.insert("peak_rss_mb", peak);
    set_latency(&mut out, &latencies_ms);
    if ctx.traced() {
        // The workload's aggregate would merge one report per program.
        out.layers.extend(layers::probe(&rounds[0], op as usize, &ctx.tmp)?);
    }
    Ok(out)
}

/// Whether a live `run_with` profile of `p` is byte-identical (as canonical
/// text) to a `replay_batched` of a `RecordingTool` capture of the same
/// program.
pub fn replay_identity(p: &Program) -> Result<bool, String> {
    let mut machine = p.build();
    let names = machine.program().routines().clone();
    let mut live = TrmsProfiler::new();
    machine.run_with(&mut live).map_err(|e| e.to_string())?;
    let live = live.into_report(&names).to_canonical_text();

    let mut rec = RecordingTool::new();
    p.build().run_with(&mut rec).map_err(|e| e.to_string())?;
    let trace: Trace = rec.into_trace().into_iter().map(|te| (te.thread, te.event)).collect();
    let mut replayed = TrmsProfiler::new();
    trace.replay_batched(&mut replayed, DEFAULT_STREAM_BATCH);
    Ok(replayed.into_report(&names).to_canonical_text() == live)
}
