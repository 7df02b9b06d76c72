//! Straight-line block merging: a block ending in `jmp t` absorbs `t`
//! when that jump is `t`'s only incoming edge.

use br_ir::{predecessors, Function, Terminator};

/// Merge single-predecessor straight-line pairs. Returns whether anything
/// changed. (Leaves unreachable husks behind; run
/// [`crate::dce::remove_unreachable_blocks`] afterwards.)
///
/// One pass in block order. A merge moves the absorbed block's outgoing
/// edges to the host, so every other block keeps its predecessor count,
/// and only the host can become mergeable again: it is re-tested before
/// the pass moves on. This gives the same merges, in the same order, as
/// restarting from block 0 after each one.
pub fn merge_blocks(f: &mut Function) -> bool {
    let mut pred_count: Vec<usize> = predecessors(f).iter().map(Vec::len).collect();
    let mut changed = false;
    for b in 0..f.blocks.len() {
        while let Terminator::Jump(t) = f.blocks[b].term {
            if t.index() == b || t == f.entry || pred_count[t.index()] != 1 {
                break;
            }
            // Absorb t into b.
            let absorbed = std::mem::replace(
                &mut f.blocks[t.index()],
                br_ir::Block::new(Terminator::Return(None)),
            );
            let host = &mut f.blocks[b];
            host.insts.extend(absorbed.insts);
            host.term = absorbed.term;
            // The husk at t is now unreachable (its only pred was b).
            pred_count[t.index()] = 0;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::{BinOp, Cond, FuncBuilder, Operand};

    #[test]
    fn merges_a_linear_chain() {
        let mut b = FuncBuilder::new("f");
        let x = b.new_reg();
        let e = b.entry();
        let m1 = b.new_block();
        let m2 = b.new_block();
        b.copy(e, x, 1i64);
        b.set_term(e, Terminator::Jump(m1));
        b.bin(m1, BinOp::Add, x, x, 1i64);
        b.set_term(m1, Terminator::Jump(m2));
        b.bin(m2, BinOp::Add, x, x, 1i64);
        b.set_term(m2, Terminator::Return(Some(Operand::Reg(x))));
        let mut f = b.finish();
        assert!(merge_blocks(&mut f));
        assert_eq!(f.blocks[0].insts.len(), 3);
        assert_eq!(f.blocks[0].term, Terminator::Return(Some(Operand::Reg(x))));
    }

    #[test]
    fn join_points_are_not_merged() {
        let mut b = FuncBuilder::new("f");
        let x = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        let a = b.new_block();
        let join = b.new_block();
        b.cmp_branch(e, x, 0i64, Cond::Eq, a, join);
        b.set_term(a, Terminator::Jump(join)); // join has two preds
        b.set_term(join, Terminator::Return(None));
        let mut f = b.finish();
        assert!(!merge_blocks(&mut f));
    }

    #[test]
    fn self_loop_not_merged() {
        let mut b = FuncBuilder::new("f");
        let e = b.entry();
        let lp = b.new_block();
        b.set_term(e, Terminator::Jump(lp));
        b.copy(lp, br_ir::Reg(0), 1i64);
        let mut f = b.finish();
        f.num_regs = 1;
        f.blocks[lp.index()].term = Terminator::Jump(lp);
        // e -> lp is lp's only *external* edge but lp also loops to itself;
        // preds(lp) has two entries so no merge happens.
        assert!(!merge_blocks(&mut f));
    }
}
