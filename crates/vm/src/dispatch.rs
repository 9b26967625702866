//! Pre-decoded opcode streams for the direct-threaded interpreter.
//!
//! This module flattens each basic block into a contiguous array of
//! fixed-size [`DecodedOp`]s — operands pre-extracted, opcode reduced to a
//! dense table index — which `machine.rs` drives through a
//! function-pointer handler table (see `Tbl` there), one handler per
//! opcode, plus *superinstruction* handlers for the statically fused hot
//! pairs listed in [`fuse_code`].
//!
//! Invariants the interpreter relies on:
//!
//! * **1:1 slots** — `ops[i]` always describes `block.instrs[i]`; fusing a
//!   pair rewrites slot `i` but keeps the plain decoded op in slot `i + 1`
//!   as a *filler*, so `ActFrame::idx` remains an instruction index and the
//!   blocked-instruction protocol (`Exec::advance` by wakers) is untouched.
//! * **No control into a filler** — control enters a block at index 0
//!   (branches) or just past a *blocking* instruction (waker resume).
//!   Only non-blocking ops are fused, so a filler index is never a resume
//!   point.
//! * **Fused = plain ∘ plain** — a fused handler runs the same effect
//!   functions as the two plain handlers, in order, each preceded by its
//!   own instruction-budget charge, so traces, profiles and resource traps
//!   are bit-identical with and without fusion.
//! * Complex opcodes (calls, threading, I/O, allocation) decode to
//!   [`C_COMPLEX`] and take the `match`-based `Exec::instr` path.

use crate::ir::{BinOp, CmpOp, Instr, Program};

/// Dense opcode: register-file constant load.
pub(crate) const C_CONST: u8 = 0;
/// Dense opcode: register-to-register move.
pub(crate) const C_MOV: u8 = 1;
/// Dense opcode: guest memory load (emits a `read` event).
pub(crate) const C_LOAD: u8 = 2;
/// Dense opcode: guest memory store (emits a `write` event).
pub(crate) const C_STORE: u8 = 3;
/// First of the 12 binary-arithmetic opcodes (`BinOp` declaration order).
pub(crate) const C_BIN0: u8 = 4;
/// First of the 6 comparison opcodes (`CmpOp` declaration order).
pub(crate) const C_CMP0: u8 = 16;
/// Number of plain (unfused) table opcodes.
pub(crate) const N_PLAIN: u8 = 22;

/// Superinstruction opcodes — the measured hottest pairs, in table order
/// after the plain opcodes. See [`fuse_code`] for the selection and
/// `DESIGN.md` §14 for the census numbers behind it.
pub(crate) const C_FUSE_CONST_CONST: u8 = N_PLAIN;
pub(crate) const C_FUSE_ADD_LOAD: u8 = N_PLAIN + 1;
pub(crate) const C_FUSE_ADD_ADD: u8 = N_PLAIN + 2;
pub(crate) const C_FUSE_CONST_ADD: u8 = N_PLAIN + 3;
pub(crate) const C_FUSE_CONST_CGT: u8 = N_PLAIN + 4;

/// Total handler-table size (plain + fused opcodes).
pub(crate) const N_CODES: usize = N_PLAIN as usize + 5;

/// Escape opcode: interpret `block.instrs[idx]` through the `match`-based
/// `Exec::instr` path (anything that can block, call, spawn, allocate or
/// touch devices). Deliberately *not* a table index.
pub(crate) const C_COMPLEX: u8 = 0xFF;

/// One pre-decoded instruction slot: a dense opcode plus pre-extracted
/// operands. 16 bytes, `Copy`, one per instruction index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedOp {
    /// Handler-table index, or [`C_COMPLEX`].
    pub code: u8,
    /// Instruction indexes consumed on successful dispatch: 1, or 2 for a
    /// fused pair.
    pub adv: u8,
    /// Destination register.
    pub dst: u16,
    /// First source register (base address for loads/stores).
    pub a: u16,
    /// Second source register (value register for stores).
    pub b: u16,
    /// Immediate: `Const` value or load/store offset.
    pub imm: i64,
}

impl DecodedOp {
    fn complex() -> Self {
        DecodedOp { code: C_COMPLEX, adv: 1, dst: 0, a: 0, b: 0, imm: 0 }
    }
}

/// How a program is decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecodeMode {
    /// Dense opcodes with superinstruction fusion — the production path.
    Fused,
    /// Dense opcodes, no fusion. Used under `strict_regs`, whose checked
    /// run is the unfused reference that fusion is tested against.
    Plain,
}

/// A program flattened into per-block [`DecodedOp`] arrays, indexed
/// `funcs[func][block][instr]` in lockstep with the [`Program`].
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    funcs: Vec<Vec<Box<[DecodedOp]>>>,
}

impl DecodedProgram {
    /// Decodes every block of `program` under `mode`.
    pub(crate) fn build(program: &Program, mode: DecodeMode) -> Self {
        let funcs = program
            .functions()
            .iter()
            .map(|f| f.blocks.iter().map(|b| decode_block(&b.instrs, mode)).collect())
            .collect();
        DecodedProgram { funcs }
    }

    /// The decoded ops of one block (same indexes as `block.instrs`).
    #[inline]
    pub(crate) fn block(&self, func: usize, block: usize) -> &[DecodedOp] {
        &self.funcs[func][block]
    }
}

fn decode_block(instrs: &[Instr], mode: DecodeMode) -> Box<[DecodedOp]> {
    let mut ops: Vec<DecodedOp> = instrs.iter().map(decode).collect();
    if mode == DecodeMode::Fused {
        let mut i = 0;
        while i + 1 < ops.len() {
            if let Some(code) = fuse_code(ops[i].code, ops[i + 1].code) {
                // Slot i becomes the superinstruction; slot i + 1 keeps its
                // plain decoding — the fused handler reads its operands
                // there, and index arithmetic stays 1:1 with `instrs`.
                ops[i].code = code;
                ops[i].adv = 2;
                i += 2;
            } else {
                i += 1;
            }
        }
    }
    ops.into_boxed_slice()
}

fn decode(instr: &Instr) -> DecodedOp {
    let mut op = DecodedOp::complex();
    match instr {
        Instr::Const { dst, value } => {
            op.code = C_CONST;
            op.dst = dst.0;
            op.imm = *value;
        }
        Instr::Mov { dst, src } => {
            op.code = C_MOV;
            op.dst = dst.0;
            op.a = src.0;
        }
        Instr::Bin { op: bin, dst, lhs, rhs } => {
            op.code = C_BIN0 + bin_index(*bin);
            op.dst = dst.0;
            op.a = lhs.0;
            op.b = rhs.0;
        }
        Instr::Cmp { op: cmp, dst, lhs, rhs } => {
            op.code = C_CMP0 + cmp_index(*cmp);
            op.dst = dst.0;
            op.a = lhs.0;
            op.b = rhs.0;
        }
        Instr::Load { dst, addr, offset } => {
            op.code = C_LOAD;
            op.dst = dst.0;
            op.a = addr.0;
            op.imm = *offset;
        }
        Instr::Store { src, addr, offset } => {
            op.code = C_STORE;
            op.a = addr.0;
            op.b = src.0;
            op.imm = *offset;
        }
        // Everything that can block, yield, spawn, allocate, call or touch
        // devices interprets through `Exec::instr`.
        _ => {}
    }
    op
}

fn bin_index(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
        BinOp::Min => 10,
        BinOp::Max => 11,
    }
}

fn cmp_index(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

/// The superinstruction selection: maps a consecutive plain-opcode pair to
/// its fused opcode.
///
/// Chosen from a dynamic pair census over all 31 bundled workloads at
/// size 48 / 2 threads (~405k adjacent simple-op pairs total, `DESIGN.md`
/// §14.1): const→const 16.7%,
/// add→load 12.6%, add→add 10.9%, const→add 8.4%, const→cgt 8.1% —
/// together 56.7% of all dynamically executed simple-op pairs. Only
/// non-blocking register/memory ops appear here — see the module invariants.
fn fuse_code(c1: u8, c2: u8) -> Option<u8> {
    const ADD: u8 = C_BIN0;
    const CGT: u8 = C_CMP0 + 4;
    match (c1, c2) {
        (C_CONST, C_CONST) => Some(C_FUSE_CONST_CONST),
        (ADD, C_LOAD) => Some(C_FUSE_ADD_LOAD),
        (ADD, ADD) => Some(C_FUSE_ADD_ADD),
        (C_CONST, ADD) => Some(C_FUSE_CONST_ADD),
        (C_CONST, CGT) => Some(C_FUSE_CONST_CGT),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;

    #[test]
    fn decode_is_slot_for_slot() {
        let program = asm::parse(
            "func main() regs=4 {\n
             bb0:\n
               r0 = const 10\n
               r1 = const 0\n
               r2 = alloc r0\n
               store r1, r2, 0\n
               r3 = load r2, 0\n
               r3 = add r3, r1\n
               ret r3\n
             }",
        )
        .unwrap();
        for mode in [DecodeMode::Fused, DecodeMode::Plain] {
            let dp = DecodedProgram::build(&program, mode);
            assert_eq!(dp.block(0, 0).len(), 6, "{mode:?} keeps 1:1 slots");
        }
        let plain = DecodedProgram::build(&program, DecodeMode::Plain);
        assert_eq!(plain.block(0, 0)[0].code, C_CONST);
        assert_eq!(plain.block(0, 0)[2].code, C_COMPLEX, "alloc escapes to Exec::instr");
        assert_eq!(plain.block(0, 0)[3].code, C_STORE);
        assert!(plain.block(0, 0).iter().all(|op| op.adv == 1));
    }

    #[test]
    fn fusion_rewrites_head_and_keeps_filler() {
        let program = asm::parse(
            "func main() regs=3 {\n
             bb0:\n
               r0 = const 1\n
               r1 = const 2\n
               r2 = add r0, r1\n
               r2 = add r2, r1\n
               ret r2\n
             }",
        )
        .unwrap();
        let fused = DecodedProgram::build(&program, DecodeMode::Fused);
        let ops = fused.block(0, 0);
        assert_eq!(ops[0].code, C_FUSE_CONST_CONST);
        assert_eq!(ops[0].adv, 2);
        assert_eq!(ops[2].code, C_FUSE_ADD_ADD);
        assert_eq!(ops[2].adv, 2);
        // The fillers keep the second ops' plain decoding.
        assert_eq!(ops[1].code, C_CONST);
        assert_eq!(ops[1].adv, 1);
        assert_eq!(ops[3].code, C_BIN0);
        assert_eq!(ops[3].adv, 1);
    }

    #[test]
    fn fusion_does_not_overlap() {
        // mov keeps the first add unfused; then add,add,add: the first two
        // fuse and the third must stay plain (it would otherwise
        // double-execute as both filler and pair head).
        let program = asm::parse(
            "func main() regs=2 {\n
             bb0:\n
               r0 = const 1\n
               r1 = mov r0\n
               r1 = add r1, r0\n
               r1 = add r1, r0\n
               r1 = add r1, r0\n
               ret r1\n
             }",
        )
        .unwrap();
        let ops_owner = DecodedProgram::build(&program, DecodeMode::Fused);
        let ops = ops_owner.block(0, 0);
        assert_eq!(ops[0].code, C_CONST, "const -> mov is not a fused pair");
        assert_eq!(ops[2].code, C_FUSE_ADD_ADD);
        assert_eq!(ops[3].code, C_BIN0);
        assert_eq!(ops[4].code, C_BIN0);
        assert_eq!(ops[4].adv, 1);
    }
}
