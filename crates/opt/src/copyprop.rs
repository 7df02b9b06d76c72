//! Local copy propagation.

use std::collections::HashMap;

use br_ir::{Function, Inst, Operand, Reg, Terminator};

/// Within each block, replace uses of a register that was last written by
/// `mov dst, src` with `src`, as long as neither side has been redefined
/// since. Returns whether anything changed.
pub fn propagate_copies(f: &mut Function) -> bool {
    let mut changed = false;
    for block in &mut f.blocks {
        // dst -> current operand to use instead.
        let mut copies: HashMap<Reg, Operand> = HashMap::new();
        let kill = |copies: &mut HashMap<Reg, Operand>, dead: Reg| {
            copies.remove(&dead);
            copies.retain(|_, v| v.reg() != Some(dead));
        };
        for inst in &mut block.insts {
            let subst = |op: &mut Operand, copies: &HashMap<Reg, Operand>, changed: &mut bool| {
                if let Operand::Reg(r) = op {
                    if let Some(&replacement) = copies.get(r) {
                        *op = replacement;
                        *changed = true;
                    }
                }
            };
            match inst {
                Inst::Copy { src, .. } => subst(src, &copies, &mut changed),
                Inst::Bin { lhs, rhs, .. } => {
                    subst(lhs, &copies, &mut changed);
                    subst(rhs, &copies, &mut changed);
                }
                Inst::Un { src, .. } => subst(src, &copies, &mut changed),
                Inst::Cmp { lhs, rhs } => {
                    subst(lhs, &copies, &mut changed);
                    subst(rhs, &copies, &mut changed);
                }
                Inst::Load { base, index, .. } => {
                    subst(base, &copies, &mut changed);
                    subst(index, &copies, &mut changed);
                }
                Inst::Store { base, index, src } => {
                    subst(base, &copies, &mut changed);
                    subst(index, &copies, &mut changed);
                    subst(src, &copies, &mut changed);
                }
                Inst::Call { args, .. } => {
                    for a in args {
                        subst(a, &copies, &mut changed);
                    }
                }
                // Profiling probes must keep watching the original
                // register: the probe's variable is not an Operand by
                // design, so nothing to do.
                Inst::FrameAddr { .. } | Inst::ProfileRanges { .. } => {}
            }
            if let Some(d) = inst.def() {
                kill(&mut copies, d);
                if let Inst::Copy { dst, src } = inst {
                    if src.reg() != Some(*dst) {
                        copies.insert(*dst, *src);
                    }
                }
            }
        }
        match &mut block.term {
            Terminator::Return(Some(op)) => {
                if let Operand::Reg(r) = op {
                    if let Some(&replacement) = copies.get(r) {
                        *op = replacement;
                        changed = true;
                    }
                }
            }
            Terminator::IndirectJump { index, .. } => {
                if let Some(&Operand::Reg(replacement)) = copies.get(index) {
                    *index = replacement;
                    changed = true;
                }
            }
            _ => {}
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::{BinOp, FuncBuilder};

    #[test]
    fn propagates_through_a_chain() {
        let mut b = FuncBuilder::new("f");
        let x = b.new_reg();
        let y = b.new_reg();
        let z = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        b.copy(e, y, x);
        b.bin(e, BinOp::Add, z, y, 1i64);
        b.set_term(e, Terminator::Return(Some(Operand::Reg(z))));
        let mut f = b.finish();
        assert!(propagate_copies(&mut f));
        assert_eq!(
            f.blocks[0].insts[1],
            Inst::Bin {
                op: BinOp::Add,
                dst: z,
                lhs: Operand::Reg(x),
                rhs: Operand::Imm(1)
            }
        );
    }

    #[test]
    fn redefinition_of_source_kills_copy() {
        let mut b = FuncBuilder::new("f");
        let x = b.new_reg();
        let y = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        b.copy(e, y, x); // y = x
        b.bin(e, BinOp::Add, x, x, 1i64); // x changes
        b.cmp(e, y, 0i64); // must still compare y, not x
        b.set_term(e, Terminator::Return(Some(Operand::Reg(y))));
        let mut f = b.finish();
        propagate_copies(&mut f);
        assert_eq!(
            f.blocks[0].insts[2],
            Inst::Cmp {
                lhs: Operand::Reg(y),
                rhs: Operand::Imm(0)
            }
        );
    }

    #[test]
    fn propagates_into_return() {
        let mut b = FuncBuilder::new("f");
        let x = b.new_reg();
        let y = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        b.copy(e, y, x);
        b.set_term(e, Terminator::Return(Some(Operand::Reg(y))));
        let mut f = b.finish();
        propagate_copies(&mut f);
        assert_eq!(f.blocks[0].term, Terminator::Return(Some(Operand::Reg(x))));
    }

    #[test]
    fn self_copy_is_not_recorded() {
        let mut b = FuncBuilder::new("f");
        let x = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        b.copy(e, x, x);
        b.cmp(e, x, 0i64);
        b.set_term(e, Terminator::Return(Some(Operand::Reg(x))));
        let mut f = b.finish();
        propagate_copies(&mut f);
        assert_eq!(
            f.blocks[0].insts[1],
            Inst::Cmp {
                lhs: Operand::Reg(x),
                rhs: Operand::Imm(0)
            }
        );
    }
}
