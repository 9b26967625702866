//! Differential property tests: the read/write timestamping algorithm
//! (§4.2–4.4) against the naive set-based oracle (Fig. 10) on random
//! multithreaded traces.

use aprof_core::{InputPolicy, NaiveProfiler, RenumberScheme, TrmsProfiler};
use aprof_trace::{Addr, Event, RoutineId, RoutineTable, ThreadId, Trace};
use proptest::prelude::*;

const THREADS: u32 = 3;
const ROUTINES: u32 = 5;
const ADDRS: u64 = 12;

/// An abstract trace operation; the generator keeps per-thread call/return
/// nesting valid by tracking stack depths itself.
#[derive(Debug, Clone, Copy)]
enum Op {
    Call(u32, u32),
    Return(u32),
    Read(u32, u64),
    Write(u32, u64),
    KernelRead(u32, u64),
    KernelWrite(u32, u64),
    Cost(u32, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let t = 0..THREADS;
    let r = 0..ROUTINES;
    let a = 0..ADDRS;
    prop_oneof![
        3 => (t.clone(), r).prop_map(|(t, r)| Op::Call(t, r)),
        3 => t.clone().prop_map(Op::Return),
        6 => (t.clone(), a.clone()).prop_map(|(t, a)| Op::Read(t, a)),
        4 => (t.clone(), a.clone()).prop_map(|(t, a)| Op::Write(t, a)),
        1 => (t.clone(), a.clone()).prop_map(|(t, a)| Op::KernelRead(t, a)),
        2 => (t.clone(), a).prop_map(|(t, a)| Op::KernelWrite(t, a)),
        2 => (t, 1u64..5).prop_map(|(t, c)| Op::Cost(t, c)),
    ]
}

/// Turns a raw op sequence into a well-formed serialized trace: inserts
/// thread switches between ops of different threads and drops returns that
/// would underflow a thread's stack.
fn build_trace(ops: &[Op]) -> (RoutineTable, Trace) {
    let mut names = RoutineTable::new();
    let routines: Vec<RoutineId> = (0..ROUTINES).map(|i| names.intern(&format!("r{i}"))).collect();
    let mut depths = vec![0usize; THREADS as usize];
    let mut stacks: Vec<Vec<RoutineId>> = vec![Vec::new(); THREADS as usize];
    let mut current: Option<u32> = None;
    let mut trace = Trace::new();
    let emit = |trace: &mut Trace, current: &mut Option<u32>, t: u32, e: Event| {
        if current.is_some() && *current != Some(t) {
            trace.push(ThreadId::new(t), Event::ThreadSwitch);
        }
        *current = Some(t);
        trace.push(ThreadId::new(t), e);
    };
    for &op in ops {
        match op {
            Op::Call(t, r) => {
                depths[t as usize] += 1;
                stacks[t as usize].push(routines[r as usize]);
                emit(&mut trace, &mut current, t, Event::Call { routine: routines[r as usize] });
            }
            Op::Return(t) => {
                if depths[t as usize] > 0 {
                    depths[t as usize] -= 1;
                    let r = stacks[t as usize].pop().expect("stack tracked with depth");
                    emit(&mut trace, &mut current, t, Event::Return { routine: r });
                }
            }
            Op::Read(t, a) => emit(&mut trace, &mut current, t, Event::Read { addr: Addr::new(a) }),
            Op::Write(t, a) => emit(&mut trace, &mut current, t, Event::Write { addr: Addr::new(a) }),
            Op::KernelRead(t, a) => {
                emit(&mut trace, &mut current, t, Event::KernelRead { addr: Addr::new(a) })
            }
            Op::KernelWrite(t, a) => {
                emit(&mut trace, &mut current, t, Event::KernelWrite { addr: Addr::new(a) })
            }
            Op::Cost(t, c) => emit(&mut trace, &mut current, t, Event::BasicBlock { cost: c }),
        }
    }
    (names, trace)
}

type Summary = Vec<(ThreadId, RoutineId, u64, u64, u64)>;

fn run_engine(trace: &Trace, policy: InputPolicy, limit: u64, scheme: RenumberScheme) -> Summary {
    let mut p = TrmsProfiler::builder()
        .policy(policy)
        .counter_limit(limit)
        .renumber_scheme(scheme)
        .log_activations(true)
        .build();
    trace.replay(&mut p);
    p.activations().iter().map(|r| (r.thread, r.routine, r.trms, r.rms, r.cost)).collect()
}

fn run_oracle(trace: &Trace, policy: InputPolicy) -> Summary {
    let mut p = NaiveProfiler::with_policy(policy);
    trace.replay(&mut p);
    p.activations().iter().map(|r| (r.thread, r.routine, r.trms, r.rms, r.cost)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Engine == oracle under the full policy.
    #[test]
    fn engine_matches_oracle_full(ops in prop::collection::vec(op_strategy(), 1..250)) {
        let (_names, trace) = build_trace(&ops);
        prop_assert_eq!(
            run_engine(&trace, InputPolicy::full(), u32::MAX as u64, RenumberScheme::Paper),
            run_oracle(&trace, InputPolicy::full())
        );
    }

    /// Engine == oracle under every partial policy.
    #[test]
    fn engine_matches_oracle_all_policies(ops in prop::collection::vec(op_strategy(), 1..150)) {
        let (_names, trace) = build_trace(&ops);
        for policy in [
            InputPolicy::rms_only(),
            InputPolicy::thread_only(),
            InputPolicy::external_only(),
        ] {
            prop_assert_eq!(
                run_engine(&trace, policy, u32::MAX as u64, RenumberScheme::Paper),
                run_oracle(&trace, policy)
            );
        }
    }

    /// Frequent renumbering (both schemes) changes nothing.
    #[test]
    fn renumbering_is_transparent(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let (_names, trace) = build_trace(&ops);
        let baseline = run_engine(
            &trace, InputPolicy::full(), u32::MAX as u64, RenumberScheme::Paper);
        for scheme in [RenumberScheme::Paper, RenumberScheme::Exact] {
            prop_assert_eq!(
                run_engine(&trace, InputPolicy::full(), 64, scheme),
                baseline.clone()
            );
        }
    }

    /// Inequality 1: trms >= rms for every activation.
    #[test]
    fn trms_dominates_rms(ops in prop::collection::vec(op_strategy(), 1..250)) {
        let (_names, trace) = build_trace(&ops);
        for (_, _, trms, rms, _) in
            run_engine(&trace, InputPolicy::full(), u32::MAX as u64, RenumberScheme::Paper)
        {
            prop_assert!(trms >= rms);
        }
    }

    /// The lean RmsProfiler agrees with the engine's rms on kernel-free
    /// traces (the lean tool ignores kernel events by design).
    #[test]
    fn lean_rms_matches_engine(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let kernel_free: Vec<Op> = ops
            .into_iter()
            .filter(|op| !matches!(op, Op::KernelRead(..) | Op::KernelWrite(..)))
            .collect();
        let (_names, trace) = build_trace(&kernel_free);
        let engine: Vec<_> =
            run_engine(&trace, InputPolicy::full(), u32::MAX as u64, RenumberScheme::Paper)
                .into_iter()
                .map(|(t, r, _, rms, cost)| (t, r, rms, cost))
                .collect();
        let mut lean = aprof_core::RmsProfiler::with_activation_log();
        trace.replay(&mut lean);
        let lean: Vec<_> = lean
            .activations()
            .iter()
            .map(|r| (r.thread, r.routine, r.rms, r.cost))
            .collect();
        prop_assert_eq!(engine, lean);
    }
}
