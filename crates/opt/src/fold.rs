//! Local constant propagation and folding.

use std::collections::HashMap;

use br_ir::{Function, Inst, Operand, Reg, Terminator};

/// Propagate constants within each block, fold constant ALU operations to
/// copies, and fold conditional branches whose compare has two known
/// constants into unconditional jumps. Returns whether anything changed.
///
/// Division/remainder by a constant zero is *not* folded away: the trap is
/// an observable effect the interpreter must still reach.
pub fn fold_constants(f: &mut Function) -> bool {
    let mut changed = false;
    for b in 0..f.blocks.len() {
        let block = &mut f.blocks[b];
        let mut consts: HashMap<Reg, i64> = HashMap::new();
        let mut last_cmp_consts: Option<(i64, i64)> = None;
        for inst in &mut block.insts {
            // Substitute known-constant registers into operands.
            let subst = |op: &mut Operand, consts: &HashMap<Reg, i64>, changed: &mut bool| {
                if let Operand::Reg(r) = op {
                    if let Some(&v) = consts.get(r) {
                        *op = Operand::Imm(v);
                        *changed = true;
                    }
                }
            };
            match inst {
                Inst::Copy { src, .. } => subst(src, &consts, &mut changed),
                Inst::Bin { lhs, rhs, .. } => {
                    subst(lhs, &consts, &mut changed);
                    subst(rhs, &consts, &mut changed);
                }
                Inst::Un { src, .. } => subst(src, &consts, &mut changed),
                Inst::Cmp { lhs, rhs } => {
                    subst(lhs, &consts, &mut changed);
                    subst(rhs, &consts, &mut changed);
                }
                Inst::Load { base, index, .. } => {
                    subst(base, &consts, &mut changed);
                    subst(index, &consts, &mut changed);
                }
                Inst::Store { base, index, src } => {
                    subst(base, &consts, &mut changed);
                    subst(index, &consts, &mut changed);
                    subst(src, &consts, &mut changed);
                }
                Inst::Call { args, .. } => {
                    for a in args {
                        subst(a, &consts, &mut changed);
                    }
                }
                Inst::FrameAddr { .. } | Inst::ProfileRanges { .. } => {}
            }
            // Fold fully-constant operations into copies.
            if let Inst::Bin {
                op,
                dst,
                lhs: Operand::Imm(a),
                rhs: Operand::Imm(b),
            } = inst
            {
                if let Some(v) = op.eval(*a, *b) {
                    *inst = Inst::Copy {
                        dst: *dst,
                        src: Operand::Imm(v),
                    };
                    changed = true;
                }
            }
            if let Inst::Un {
                op,
                dst,
                src: Operand::Imm(a),
            } = inst
            {
                *inst = Inst::Copy {
                    dst: *dst,
                    src: Operand::Imm(op.eval(*a)),
                };
                changed = true;
            }
            // Track the constant environment.
            match inst {
                Inst::Copy {
                    dst,
                    src: Operand::Imm(v),
                } => {
                    consts.insert(*dst, *v);
                }
                Inst::Cmp { lhs, rhs } => {
                    last_cmp_consts = match (lhs, rhs) {
                        (Operand::Imm(a), Operand::Imm(b)) => Some((*a, *b)),
                        _ => None,
                    };
                }
                Inst::Call { .. } => {
                    // Condition codes clobbered; a following branch would
                    // be malformed anyway, but stay conservative.
                    last_cmp_consts = None;
                    if let Some(d) = inst.def() {
                        consts.remove(&d);
                    }
                }
                _ => {
                    if let Some(d) = inst.def() {
                        consts.remove(&d);
                    }
                }
            }
        }
        if let Terminator::Branch {
            cond,
            taken,
            not_taken,
        } = block.term
        {
            // Only fold when the *last* compare of this very block is
            // constant; with cc flowing across blocks anything else would
            // need a global analysis.
            if let Some((a, b2)) = last_cmp_consts {
                block.term = Terminator::Jump(if cond.eval(a, b2) { taken } else { not_taken });
                changed = true;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::{BinOp, Cond, FuncBuilder};

    #[test]
    fn folds_constant_arithmetic_chains() {
        let mut b = FuncBuilder::new("f");
        let x = b.new_reg();
        let y = b.new_reg();
        let e = b.entry();
        b.copy(e, x, 6i64);
        b.bin(e, BinOp::Mul, y, x, 7i64);
        b.set_term(e, Terminator::Return(Some(Operand::Reg(y))));
        let mut f = b.finish();
        assert!(fold_constants(&mut f));
        assert_eq!(
            f.blocks[0].insts[1],
            Inst::Copy {
                dst: Reg(1),
                src: Operand::Imm(42)
            }
        );
    }

    #[test]
    fn folds_constant_branch_to_jump() {
        let mut b = FuncBuilder::new("f");
        let e = b.entry();
        let t = b.new_block();
        let n = b.new_block();
        b.cmp_branch(e, 3i64, 3i64, Cond::Eq, t, n);
        b.set_term(t, Terminator::Return(Some(Operand::Imm(1))));
        b.set_term(n, Terminator::Return(Some(Operand::Imm(0))));
        let mut f = b.finish();
        assert!(fold_constants(&mut f));
        assert_eq!(f.blocks[0].term, Terminator::Jump(br_ir::BlockId(1)));
    }

    #[test]
    fn does_not_fold_divide_by_zero() {
        let mut b = FuncBuilder::new("f");
        let x = b.new_reg();
        let e = b.entry();
        b.bin(e, BinOp::Div, x, 1i64, 0i64);
        b.set_term(e, Terminator::Return(None));
        let mut f = b.finish();
        fold_constants(&mut f);
        assert!(matches!(f.blocks[0].insts[0], Inst::Bin { .. }));
    }

    #[test]
    fn constants_do_not_survive_redefinition() {
        let mut b = FuncBuilder::new("f");
        let x = b.new_reg();
        let y = b.new_reg();
        let e = b.entry();
        b.copy(e, x, 5i64);
        b.push(
            e,
            Inst::Call {
                dst: Some(x),
                callee: br_ir::Callee::Intrinsic(br_ir::Intrinsic::GetChar),
                args: vec![],
            },
        );
        b.bin(e, BinOp::Add, y, x, 1i64);
        b.set_term(e, Terminator::Return(Some(Operand::Reg(y))));
        let mut f = b.finish();
        fold_constants(&mut f);
        // x is no longer the constant 5 after the call.
        assert!(matches!(
            f.blocks[0].insts[2],
            Inst::Bin {
                lhs: Operand::Reg(_),
                ..
            }
        ));
    }
}
