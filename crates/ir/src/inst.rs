//! Instruction set: operands, ALU operations, compares, calls, memory, and
//! block terminators.

use std::fmt;

use crate::function::BlockId;
use crate::module::{FuncId, SeqId};

/// A virtual register.
///
/// Functions use an unbounded supply of virtual registers; the interpreter
/// gives each call frame its own register file. Register 0..k hold the
/// incoming parameters (see [`crate::Function::param_regs`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u32);

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Either a register or an immediate constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Value of a virtual register.
    Reg(Reg),
    /// Immediate signed constant.
    Imm(i64),
}

impl Operand {
    /// The register this operand reads, if any.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }

    /// The immediate this operand carries, if any.
    pub fn imm(self) -> Option<i64> {
        match self {
            Operand::Reg(_) => None,
            Operand::Imm(i) => Some(i),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(i: i64) -> Self {
        Operand::Imm(i)
    }
}

impl fmt::Debug for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Binary ALU operation. All arithmetic is wrapping two's-complement on
/// `i64`; division and remainder by zero trap at run time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

impl BinOp {
    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }

    /// Evaluate the operation on constants. Returns `None` for division or
    /// remainder by zero (which the interpreter treats as a trap).
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return None;
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return None;
                }
                a.wrapping_rem(b)
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        })
    }
}

/// Unary ALU operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement.
    Not,
}

impl UnOp {
    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
        }
    }

    /// Evaluate the operation on a constant.
    pub fn eval(self, a: i64) -> i64 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => !a,
        }
    }
}

/// Condition code tested by a conditional branch, in signed comparison
/// semantics, mirroring SPARC's `be/bne/bl/ble/bg/bge`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cond {
    /// Mnemonic used by the printer (`beq`, `bne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Le => "ble",
            Cond::Gt => "bgt",
            Cond::Ge => "bge",
        }
    }

    /// The condition that is true exactly when `self` is false.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }

    /// The condition with operand order swapped: `a ? b` ⇔ `b ?.swap() a`.
    pub fn swap(self) -> Cond {
        match self {
            Cond::Eq => Cond::Eq,
            Cond::Ne => Cond::Ne,
            Cond::Lt => Cond::Gt,
            Cond::Le => Cond::Ge,
            Cond::Gt => Cond::Lt,
            Cond::Ge => Cond::Le,
        }
    }

    /// Evaluate the condition for `lhs ? rhs`.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Cond::Eq => lhs == rhs,
            Cond::Ne => lhs != rhs,
            Cond::Lt => lhs < rhs,
            Cond::Le => lhs <= rhs,
            Cond::Gt => lhs > rhs,
            Cond::Ge => lhs >= rhs,
        }
    }
}

/// Built-in runtime operations, standing in for the C run-time library
/// calls the paper's benchmark programs make.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Intrinsic {
    /// Read the next byte of input; `-1` at end of input.
    GetChar,
    /// Write one byte of output.
    PutChar,
    /// Write a decimal integer to the output.
    PutInt,
    /// Abort execution with the given error code (run-time trap).
    Abort,
}

impl Intrinsic {
    /// Name used by the printer and the front end.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::GetChar => "getchar",
            Intrinsic::PutChar => "putchar",
            Intrinsic::PutInt => "putint",
            Intrinsic::Abort => "abort",
        }
    }

    /// Number of arguments the intrinsic expects.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::GetChar => 0,
            Intrinsic::PutChar | Intrinsic::PutInt | Intrinsic::Abort => 1,
        }
    }
}

/// Call target: a user function or a runtime intrinsic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Callee {
    Func(FuncId),
    Intrinsic(Intrinsic),
}

/// A non-terminating instruction.
///
/// Memory is word-addressed: addresses index a flat array of `i64` cells.
/// Global data lives at low addresses; each call frame's local arrays are
/// placed above the caller's (see [`crate::Function::frame_size`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// `dst = src`.
    Copy { dst: Reg, src: Operand },
    /// `dst = lhs op rhs`.
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = op src`.
    Un { op: UnOp, dst: Reg, src: Operand },
    /// Set the condition codes from `lhs - rhs` (SPARC `cmp`).
    Cmp { lhs: Operand, rhs: Operand },
    /// `dst = memory[base + index]`.
    Load {
        dst: Reg,
        base: Operand,
        index: Operand,
    },
    /// `memory[base + index] = src`.
    Store {
        base: Operand,
        index: Operand,
        src: Operand,
    },
    /// `dst = &frame[offset]`: address of a local array slot.
    FrameAddr { dst: Reg, offset: u32 },
    /// Call a function or intrinsic; `dst` receives the return value.
    Call {
        dst: Option<Reg>,
        callee: Callee,
        args: Vec<Operand>,
    },
    /// Profiling probe: record which of the registered ranges of sequence
    /// `seq` contains the current value of `var`. Free of architectural
    /// cost; exists only in instrumented builds (the paper's profiling
    /// pass). See [`crate::ProfilePlan`].
    ProfileRanges { seq: SeqId, var: Reg },
}

impl Inst {
    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Copy { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::FrameAddr { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Cmp { .. } | Inst::Store { .. } | Inst::ProfileRanges { .. } => None,
        }
    }

    /// The registers this instruction reads.
    pub fn uses(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        let mut push = |op: &Operand| {
            if let Operand::Reg(r) = op {
                out.push(*r);
            }
        };
        match self {
            Inst::Copy { src, .. } => push(src),
            Inst::Bin { lhs, rhs, .. } => {
                push(lhs);
                push(rhs);
            }
            Inst::Un { src, .. } => push(src),
            Inst::Cmp { lhs, rhs } => {
                push(lhs);
                push(rhs);
            }
            Inst::Load { base, index, .. } => {
                push(base);
                push(index);
            }
            Inst::Store { base, index, src } => {
                push(base);
                push(index);
                push(src);
            }
            Inst::FrameAddr { .. } => {}
            Inst::Call { args, .. } => {
                for a in args {
                    push(a);
                }
            }
            Inst::ProfileRanges { var, .. } => out.push(*var),
        }
        out
    }

    /// Whether the instruction has an effect beyond defining its `def()`
    /// register: memory writes, I/O, traps, or profiling side tables.
    ///
    /// This is the IR-level notion behind the paper's Definition 6 ("side
    /// effect in a range condition"): an instruction whose update can reach
    /// a use outside the range condition. Loads are *pure* here (they only
    /// define a register), but note that moving a load past a store still
    /// requires care — the reordering transformation only moves
    /// instructions en bloc, preserving their relative order, which keeps
    /// load/store ordering intact.
    pub fn has_side_effect(&self) -> bool {
        match self {
            Inst::Store { .. } | Inst::Call { .. } | Inst::ProfileRanges { .. } => true,
            Inst::Copy { .. }
            | Inst::Bin { .. }
            | Inst::Un { .. }
            | Inst::Cmp { .. }
            | Inst::Load { .. }
            | Inst::FrameAddr { .. } => false,
        }
    }

    /// Whether this instruction may trap at run time (division by zero).
    pub fn may_trap(&self) -> bool {
        matches!(
            self,
            Inst::Bin {
                op: BinOp::Div | BinOp::Rem,
                ..
            }
        )
    }
}

/// Block terminator: the single control-transfer at the end of each block.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Terminator {
    /// Conditional branch on the current condition codes.
    Branch {
        cond: Cond,
        taken: BlockId,
        not_taken: BlockId,
    },
    /// Unconditional jump.
    Jump(BlockId),
    /// Indirect jump through a dense table: transfers to
    /// `targets[index_reg]`. Front ends must emit bounds checks; an
    /// out-of-range index traps.
    IndirectJump { index: Reg, targets: Vec<BlockId> },
    /// Return from the function.
    Return(Option<Operand>),
}

impl Terminator {
    /// Convenience constructor for a conditional branch.
    pub fn branch(cond: Cond, taken: BlockId, not_taken: BlockId) -> Terminator {
        Terminator::Branch {
            cond,
            taken,
            not_taken,
        }
    }

    /// All successor blocks, in a deterministic order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Branch {
                taken, not_taken, ..
            } => vec![*taken, *not_taken],
            Terminator::Jump(t) => vec![*t],
            Terminator::IndirectJump { targets, .. } => {
                let mut seen = Vec::new();
                for &t in targets {
                    if !seen.contains(&t) {
                        seen.push(t);
                    }
                }
                seen
            }
            Terminator::Return(_) => Vec::new(),
        }
    }

    /// Rewrite every successor through `f` (used by branch chaining and
    /// block duplication).
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Branch {
                taken, not_taken, ..
            } => {
                *taken = f(*taken);
                *not_taken = f(*not_taken);
            }
            Terminator::Jump(t) => *t = f(*t),
            Terminator::IndirectJump { targets, .. } => {
                for t in targets {
                    *t = f(*t);
                }
            }
            Terminator::Return(_) => {}
        }
    }

    /// The registers this terminator reads.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Terminator::IndirectJump { index, .. } => vec![*index],
            Terminator::Return(Some(Operand::Reg(r))) => vec![*r],
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_wraps_and_traps() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), Some(i64::MIN));
        assert_eq!(BinOp::Div.eval(7, 2), Some(3));
        assert_eq!(BinOp::Div.eval(7, 0), None);
        assert_eq!(BinOp::Rem.eval(7, 0), None);
        assert_eq!(BinOp::Shl.eval(1, 3), Some(8));
    }

    #[test]
    fn cond_negate_is_involution_and_complements() {
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            assert_eq!(c.negate().negate(), c);
            for (a, b) in [(1, 2), (2, 1), (3, 3)] {
                assert_eq!(c.eval(a, b), !c.negate().eval(a, b));
                assert_eq!(c.eval(a, b), c.swap().eval(b, a));
            }
        }
    }

    #[test]
    fn inst_def_use_classification() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Reg(3),
            lhs: Operand::Reg(Reg(1)),
            rhs: Operand::Imm(5),
        };
        assert_eq!(i.def(), Some(Reg(3)));
        assert_eq!(i.uses(), vec![Reg(1)]);
        assert!(!i.has_side_effect());

        let s = Inst::Store {
            base: Operand::Reg(Reg(0)),
            index: Operand::Imm(2),
            src: Operand::Reg(Reg(4)),
        };
        assert_eq!(s.def(), None);
        assert!(s.has_side_effect());
        assert_eq!(s.uses(), vec![Reg(0), Reg(4)]);
    }

    #[test]
    fn terminator_successors_dedup() {
        let t = Terminator::IndirectJump {
            index: Reg(0),
            targets: vec![BlockId(1), BlockId(2), BlockId(1)],
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn terminator_map_successors_rewrites_all() {
        let mut t = Terminator::branch(Cond::Eq, BlockId(1), BlockId(2));
        t.map_successors(|b| BlockId(b.0 + 10));
        assert_eq!(t.successors(), vec![BlockId(11), BlockId(12)]);
    }
}
