//! Integration tests for calling-context-sensitive profiling.

use aprof_core::cct::CctNodeId;
use aprof_core::TrmsProfiler;
use aprof_trace::{Addr, Event, RoutineTable, ThreadId, Trace};

/// `leaf` is called from two different parents with different input sizes;
/// the flat profile merges them, the CCT keeps them apart.
#[test]
fn contexts_separate_what_flat_profiles_merge() {
    let mut names = RoutineTable::new();
    let main_r = names.intern("main");
    let small_caller = names.intern("small_caller");
    let big_caller = names.intern("big_caller");
    let leaf = names.intern("leaf");
    let t = ThreadId::MAIN;
    let mut trace = Trace::new();
    trace.push(t, Event::Call { routine: main_r });
    // small_caller -> leaf reads 2 cells
    trace.push(t, Event::Call { routine: small_caller });
    trace.push(t, Event::Call { routine: leaf });
    for a in 0..2u64 {
        trace.push(t, Event::Read { addr: Addr::new(a) });
    }
    trace.push(t, Event::Return { routine: leaf });
    trace.push(t, Event::Return { routine: small_caller });
    // big_caller -> leaf reads 50 cells
    trace.push(t, Event::Call { routine: big_caller });
    trace.push(t, Event::Call { routine: leaf });
    for a in 100..150u64 {
        trace.push(t, Event::Read { addr: Addr::new(a) });
    }
    trace.push(t, Event::Return { routine: leaf });
    trace.push(t, Event::Return { routine: big_caller });
    trace.push(t, Event::Return { routine: main_r });

    let mut profiler = TrmsProfiler::builder().calling_contexts(true).build();
    trace.replay(&mut profiler);
    let (report, cct) = profiler.into_report_and_cct(&names);
    let cct = cct.expect("cct enabled");

    // Flat: leaf has both sizes merged under one routine.
    let flat = report.routine(leaf).unwrap();
    assert_eq!(flat.distinct_trms(), 2);
    assert_eq!(flat.merged.calls, 2);

    // CCT: two distinct leaf contexts, each with one size.
    let hot = cct.hottest(&names);
    let leaf_contexts: Vec<_> = hot.iter().filter(|c| c.path.ends_with("-> leaf")).collect();
    assert_eq!(leaf_contexts.len(), 2, "{hot:?}");
    for ctx in &leaf_contexts {
        assert_eq!(ctx.calls, 1);
        assert_eq!(ctx.distinct_trms, 1);
    }
    let big = leaf_contexts.iter().find(|c| c.path.contains("big_caller")).unwrap();
    assert_eq!(big.sum_trms, 50);
    let small = leaf_contexts.iter().find(|c| c.path.contains("small_caller")).unwrap();
    assert_eq!(small.sum_trms, 2);
}

/// Contexts are shared across threads; profiles accumulate from both.
#[test]
fn contexts_shared_across_threads() {
    let mut names = RoutineTable::new();
    let worker = names.intern("worker");
    let step = names.intern("step");
    let mut trace = Trace::new();
    for tid in 0..3u32 {
        let t = ThreadId::new(tid);
        if tid > 0 {
            trace.push(t, Event::ThreadSwitch);
        }
        trace.push(t, Event::Call { routine: worker });
        trace.push(t, Event::Call { routine: step });
        trace.push(t, Event::Read { addr: Addr::new(1000 + tid as u64) });
        trace.push(t, Event::Return { routine: step });
        trace.push(t, Event::Return { routine: worker });
    }
    let mut profiler = TrmsProfiler::builder().calling_contexts(true).build();
    trace.replay(&mut profiler);
    let (_report, cct) = profiler.into_report_and_cct(&names);
    let cct = cct.unwrap();
    // worker and worker->step: exactly two non-root contexts.
    assert_eq!(cct.len(), 3);
    let hot = cct.hottest(&names);
    let step_ctx = hot.iter().find(|c| c.path == "worker -> step").unwrap();
    assert_eq!(step_ctx.calls, 3, "all three threads share the context");
}

/// Disabled by default: no CCT is built.
#[test]
fn cct_off_by_default() {
    let mut names = RoutineTable::new();
    let f = names.intern("f");
    let mut trace = Trace::new();
    trace.push(ThreadId::MAIN, Event::Call { routine: f });
    trace.push(ThreadId::MAIN, Event::Return { routine: f });
    let mut profiler = TrmsProfiler::new();
    trace.replay(&mut profiler);
    assert!(profiler.cct().is_none());
    let (_report, cct) = profiler.into_report_and_cct(&names);
    assert!(cct.is_none());
}

/// The root node never accumulates activations.
#[test]
fn root_stays_empty() {
    let mut names = RoutineTable::new();
    let f = names.intern("f");
    let mut trace = Trace::new();
    for _ in 0..5 {
        trace.push(ThreadId::MAIN, Event::Call { routine: f });
        trace.push(ThreadId::MAIN, Event::Return { routine: f });
    }
    let mut profiler = TrmsProfiler::builder().calling_contexts(true).build();
    trace.replay(&mut profiler);
    let cct = profiler.cct().unwrap();
    assert_eq!(cct.profile(CctNodeId::ROOT).calls, 0);
    assert_eq!(cct.len(), 2);
    assert_eq!(cct.profile(CctNodeId(1)).calls, 5);
}
