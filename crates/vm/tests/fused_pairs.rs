//! Differential tests for the interpreter's superinstructions. The
//! reference is the unfused, checked decoding that `strict_regs` selects:
//! every simple op runs through its own plain handler, with use-before-def
//! checks on. Every fused pair must produce that reference's exact exit
//! value and instrumentation-event stream, and must trap at the same
//! instruction when a resource budget lands between the two halves of a
//! pair.

use aprof_trace::RecordingTool;
use aprof_vm::{asm, Machine, MachineConfig, ResourceLimits};

/// Runs `src` fused and unfused and asserts identical outcomes and
/// identical recorded traces.
fn assert_fused_matches_unfused(src: &str, expect_exit: Option<i64>) {
    let fused_cfg = MachineConfig::default();
    let unfused_cfg = MachineConfig { strict_regs: true, ..MachineConfig::default() };
    let mut traces = Vec::new();
    for cfg in [fused_cfg, unfused_cfg] {
        let mut m = Machine::new(asm::parse(src).unwrap()).with_config(cfg);
        let mut tool = RecordingTool::new();
        let outcome = m.run_with(&mut tool).unwrap();
        assert_eq!(outcome.exit_value, expect_exit);
        traces.push((outcome, tool.into_trace()));
    }
    let (fused_outcome, fused_trace) = &traces[0];
    let (unfused_outcome, unfused_trace) = &traces[1];
    assert_eq!(fused_outcome.total_blocks, unfused_outcome.total_blocks);
    assert_eq!(fused_trace, unfused_trace, "event streams must be identical");
}

#[test]
fn fused_const_const_matches_unfused() {
    assert_fused_matches_unfused(
        "func main() regs=3 {\n
         bb0:\n
           r0 = const 40\n
           r1 = const 2\n
           r2 = add r0, r1\n
           ret r2\n
         }",
        Some(42),
    );
}

#[test]
fn fused_add_load_matches_unfused() {
    // store→add breaks fusion before the add, so add→load fuses; the load
    // must still emit its read event and see the stored cell.
    assert_fused_matches_unfused(
        "func main() regs=6 {\n
         bb0:\n
           r0 = const 4\n
           r3 = const 2\n
           r1 = alloc r0\n
           r2 = const 7\n
           store r2, r1, 2\n
           r4 = add r1, r3\n
           r5 = load r4, 0\n
           ret r5\n
         }",
        Some(7),
    );
}

#[test]
fn fused_add_add_matches_unfused() {
    assert_fused_matches_unfused(
        "func main() regs=3 {\n
         bb0:\n
           r0 = const 3\n
           r1 = mov r0\n
           r2 = add r0, r1\n
           r2 = add r2, r0\n
           ret r2\n
         }",
        Some(9),
    );
}

#[test]
fn fused_const_add_matches_unfused() {
    assert_fused_matches_unfused(
        "func main() regs=4 {\n
         bb0:\n
           r0 = const 5\n
           r1 = mov r0\n
           r2 = const 10\n
           r3 = add r2, r0\n
           ret r3\n
         }",
        Some(15),
    );
}

#[test]
fn fused_const_cgt_matches_unfused() {
    assert_fused_matches_unfused(
        "func main() regs=4 {\n
         bb0:\n
           r0 = const 5\n
           r1 = mov r0\n
           r2 = const 3\n
           r3 = cgt r0, r2\n
           ret r3\n
         }",
        Some(1),
    );
}

#[test]
fn fusion_survives_control_flow_back_edges() {
    // A counted loop whose body and header both contain fusable pairs;
    // block re-entry must re-dispatch from slot 0, never into a filler.
    assert_fused_matches_unfused(
        "func main() regs=4 {\n
         bb0:\n
           r0 = const 0\n
           r1 = const 10\n
           jmp bb1\n
         bb1:\n
           r2 = const 1\n
           r0 = add r0, r2\n
           r3 = clt r0, r1\n
           br r3, bb1, bb2\n
         bb2:\n
           ret r0\n
         }",
        Some(10),
    );
}

/// A budget that exhausts between the two halves of a fused pair must trap
/// at the same point as the unfused path: the first half's effects applied,
/// the second's not, identical partial traces.
#[test]
fn budget_trap_lands_mid_pair_identically() {
    let src = "func main() regs=6 {\n
         bb0:\n
           r0 = const 4\n
           r3 = const 2\n
           r1 = alloc r0\n
           r2 = const 7\n
           store r2, r1, 2\n
           r4 = add r1, r3\n
           r5 = load r4, 0\n
           ret r5\n
         }";
    // Charges: const, const, alloc, const, store, add (6) — the 7th charge
    // (the load, second half of the fused add→load) exceeds the budget.
    let limits = ResourceLimits { max_instructions: 6, trap: true, ..ResourceLimits::default() };
    let mut traces = Vec::new();
    for strict in [false, true] {
        let cfg = MachineConfig { strict_regs: strict, limits, ..MachineConfig::default() };
        let mut m = Machine::new(asm::parse(src).unwrap()).with_config(cfg);
        let mut tool = RecordingTool::new();
        let outcome = m.run_with(&mut tool).unwrap();
        assert!(outcome.trap.is_some(), "budget must trap (strict={strict})");
        traces.push((outcome.total_blocks, tool.into_trace()));
    }
    assert_eq!(traces[0], traces[1], "trap point must not depend on fusion");
}
