//! Side-effect and purity analysis: an independent check of the
//! legality conditions behind the paper's Theorem 2.
//!
//! Reordering a sequence moves the instructions that precede each
//! non-head compare ("side effects in a range condition", the paper's
//! Definition 6) into per-exit bundles. That motion is legal only when
//!
//! 1. no moved instruction redefines the tested variable (later
//!    compares must still see the original value),
//! 2. no moved instruction writes the condition codes (only the final
//!    compare of each condition may), and moved profiling probes would
//!    double-count,
//! 3. no exit target consumes condition codes set inside the sequence —
//!    after reordering a different compare may be the last one executed.
//!
//! The detector enforces these with its own ad-hoc scans
//! (`side_effects_movable`, `targets_cc_clean`); this module re-derives
//! them from first principles — condition 3 as a backward dataflow
//! problem on the [`crate::dataflow`] engine — so the translation
//! validator can cross-check the detector rather than trust it.

use br_ir::{BlockId, Function, Inst, Reg, Terminator};

use crate::dataflow::{solve, Direction, Domain};

/// What a block does to the implicit condition-code register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CcEffect {
    /// No instruction touches the codes: they pass through.
    Transparent,
    /// The last cc event is a `cmp`: incoming codes are dead.
    Defines,
    /// The last cc event is a `call`: incoming codes are dead (and the
    /// codes are garbage at exit).
    Clobbers,
}

fn cc_effect(f: &Function, b: BlockId) -> CcEffect {
    let mut effect = CcEffect::Transparent;
    for inst in &f.block(b).insts {
        match inst {
            Inst::Cmp { .. } => effect = CcEffect::Defines,
            Inst::Call { .. } => effect = CcEffect::Clobbers,
            _ => {}
        }
    }
    effect
}

/// Backward problem: does the condition-code value at a block's *entry*
/// reach a consumer (a conditional branch with no intervening writer)?
struct NeedsCc;

impl Domain for NeedsCc {
    type Value = bool;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self, _f: &Function) -> bool {
        false
    }

    fn boundary(&self, _f: &Function) -> bool {
        false
    }

    fn join(&self, into: &mut bool, from: &bool) -> bool {
        let old = *into;
        *into |= *from;
        *into != old
    }

    fn transfer(&self, f: &Function, b: BlockId, needed_at_exit: &bool) -> bool {
        match cc_effect(f, b) {
            // The body overwrites the codes before anything could read
            // the incoming value (branches test *after* the body).
            CcEffect::Defines | CcEffect::Clobbers => false,
            CcEffect::Transparent => {
                matches!(f.block(b).term, Terminator::Branch { .. }) || *needed_at_exit
            }
        }
    }
}

/// For each block (by index): whether the condition codes on entry may
/// be consumed by a conditional branch before being rewritten.
///
/// A block where this is `true` is *not* cc-clean: jumping to it from
/// freshly reordered code (where a different compare executed last)
/// would change behaviour.
pub fn cc_needed_on_entry(f: &Function) -> Vec<bool> {
    solve(f, &NeedsCc).outputs
}

/// One way a proposed side-effect motion breaks Theorem 2's conditions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MotionViolation {
    /// A moved instruction defines the tested variable.
    DefinesTestedVar {
        /// Block holding the instruction.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
    },
    /// A moved instruction is an extra compare (writes condition codes).
    ExtraCompare {
        /// Block holding the instruction.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
    },
    /// A moved instruction is a profiling probe (would double-count).
    ProfileProbe {
        /// Block holding the instruction.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
    },
    /// An exit target consumes condition codes set inside the sequence.
    TargetNeedsCc {
        /// The offending target block.
        target: BlockId,
    },
}

impl std::fmt::Display for MotionViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MotionViolation::DefinesTestedVar { block, inst } => {
                write!(
                    f,
                    "instruction {inst} of {block} redefines the tested variable"
                )
            }
            MotionViolation::ExtraCompare { block, inst } => {
                write!(f, "instruction {inst} of {block} is a second compare")
            }
            MotionViolation::ProfileProbe { block, inst } => {
                write!(f, "instruction {inst} of {block} is a profiling probe")
            }
            MotionViolation::TargetNeedsCc { target } => {
                write!(f, "exit target {target} consumes incoming condition codes")
            }
        }
    }
}

/// Check Theorem 2's legality conditions for moving the side effects of
/// `moved_blocks` (the sequence's non-head condition blocks, whose every
/// instruction except a trailing `cmp` gets bundled) given the
/// sequence's `exit_targets`. Returns every violation found; an empty
/// vector means the motion is legal.
pub fn check_motion(
    f: &Function,
    tested_var: Reg,
    moved_blocks: &[BlockId],
    exit_targets: &[BlockId],
) -> Vec<MotionViolation> {
    let mut violations = Vec::new();
    for &b in moved_blocks {
        let insts = &f.block(b).insts;
        let trailing_cmp = matches!(insts.last(), Some(Inst::Cmp { .. }));
        let moved = if trailing_cmp {
            &insts[..insts.len() - 1]
        } else {
            &insts[..]
        };
        for (i, inst) in moved.iter().enumerate() {
            if inst.def() == Some(tested_var) {
                violations.push(MotionViolation::DefinesTestedVar { block: b, inst: i });
            }
            match inst {
                Inst::Cmp { .. } => {
                    violations.push(MotionViolation::ExtraCompare { block: b, inst: i })
                }
                Inst::ProfileRanges { .. } => {
                    violations.push(MotionViolation::ProfileProbe { block: b, inst: i })
                }
                _ => {}
            }
        }
    }
    let needs = cc_needed_on_entry(f);
    let mut flagged = Vec::new();
    for &t in exit_targets {
        if needs.get(t.index()).copied().unwrap_or(false) && !flagged.contains(&t) {
            flagged.push(t);
            violations.push(MotionViolation::TargetNeedsCc { target: t });
        }
    }
    violations
}

/// Coarse effect summary of one block, for diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EffectSummary {
    /// Contains a store.
    pub writes_memory: bool,
    /// Contains a call (I/O, arbitrary effects).
    pub calls: bool,
    /// Contains a profiling probe.
    pub profiles: bool,
    /// Contains an instruction that may trap (division).
    pub may_trap: bool,
}

impl EffectSummary {
    /// Whether the block body is free of observable effects.
    pub fn is_pure(&self) -> bool {
        !self.writes_memory && !self.calls && !self.profiles && !self.may_trap
    }
}

/// Summarize the observable effects of `b`'s body.
pub fn block_effects(f: &Function, b: BlockId) -> EffectSummary {
    let mut s = EffectSummary::default();
    for inst in &f.block(b).insts {
        match inst {
            Inst::Store { .. } => s.writes_memory = true,
            Inst::Call { .. } => s.calls = true,
            Inst::ProfileRanges { .. } => s.profiles = true,
            _ => {}
        }
        s.may_trap |= inst.may_trap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::{Block, Cond, Operand};

    /// target consumes cc set by its predecessor: must be flagged.
    #[test]
    fn cc_needed_detects_inherited_consumers() {
        let mut f = Function::new("t");
        let r0 = f.new_reg();
        let done = f.add_block(Block::new(Terminator::Return(None)));
        // `tail` branches without a compare of its own.
        let tail = f.add_block(Block::new(Terminator::branch(Cond::Eq, done, done)));
        let e = f.entry;
        f.block_mut(e).insts.push(Inst::Cmp {
            lhs: Operand::Reg(r0),
            rhs: Operand::Imm(1),
        });
        f.block_mut(e).term = Terminator::Jump(tail);
        let needs = cc_needed_on_entry(&f);
        assert!(needs[tail.index()], "tail consumes inherited codes");
        assert!(!needs[done.index()]);
        assert!(!needs[e.index()], "entry defines before any consumer");
    }

    #[test]
    fn cc_needed_stops_at_own_compare() {
        let mut f = Function::new("t");
        let r0 = f.new_reg();
        let done = f.add_block(Block::new(Terminator::Return(None)));
        let own = f.add_block(Block::new(Terminator::branch(Cond::Lt, done, done)));
        f.block_mut(own).insts.push(Inst::Cmp {
            lhs: Operand::Reg(r0),
            rhs: Operand::Imm(5),
        });
        f.block_mut(f.entry).term = Terminator::Jump(own);
        let needs = cc_needed_on_entry(&f);
        assert!(!needs[own.index()], "block compares for itself");
    }

    #[test]
    fn motion_check_flags_var_def_and_cc_target() {
        let mut f = Function::new("t");
        let var = f.new_reg();
        let done = f.add_block(Block::new(Terminator::Return(None)));
        let target = f.add_block(Block::new(Terminator::branch(Cond::Eq, done, done)));
        let cond = f.add_block(Block::new(Terminator::branch(Cond::Eq, target, done)));
        f.block_mut(cond).insts.push(Inst::Copy {
            dst: var,
            src: Operand::Imm(7),
        });
        f.block_mut(cond).insts.push(Inst::Cmp {
            lhs: Operand::Reg(var),
            rhs: Operand::Imm(3),
        });
        f.block_mut(f.entry).term = Terminator::Jump(cond);

        let v = check_motion(&f, var, &[cond], &[target, done]);
        assert!(v.contains(&MotionViolation::DefinesTestedVar {
            block: cond,
            inst: 0
        }));
        assert!(v.contains(&MotionViolation::TargetNeedsCc { target }));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn motion_check_accepts_pure_movable_effects() {
        let mut f = Function::new("t");
        let var = f.new_reg();
        let tmp = f.new_reg();
        let done = f.add_block(Block::new(Terminator::Return(None)));
        let cond = f.add_block(Block::new(Terminator::branch(Cond::Eq, done, done)));
        f.block_mut(cond).insts.push(Inst::Copy {
            dst: tmp,
            src: Operand::Imm(1),
        });
        f.block_mut(cond).insts.push(Inst::Cmp {
            lhs: Operand::Reg(var),
            rhs: Operand::Imm(3),
        });
        f.block_mut(f.entry).term = Terminator::Jump(cond);
        assert!(check_motion(&f, var, &[cond], &[done]).is_empty());
        assert!(block_effects(&f, cond).is_pure());
    }
}
