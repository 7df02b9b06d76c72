//! Loop-invariant code motion (conservative, non-SSA-safe).
//!
//! Hoists an instruction out of a natural loop into a fresh preheader
//! when *all* of the following hold — conditions chosen so the move is
//! sound even though the IR is not SSA:
//!
//! * the instruction is pure and cannot trap (no loads: a store or call
//!   elsewhere in the loop could change what they read);
//! * every register it reads has **no definition anywhere in the loop**;
//! * its destination register is defined **exactly once in the whole
//!   function** (hoisting cannot interleave with another definition);
//! * every use of the destination is inside the loop (executing the
//!   instruction when the loop runs zero times only writes a register
//!   nobody else reads).

use std::collections::{HashMap, HashSet};

use br_ir::dom::{natural_loops, Dominators};
use br_ir::{predecessors, Block, BlockId, Function, Inst, Reg, Terminator};

/// Hoist loop-invariant instructions. Returns whether anything changed.
pub fn hoist_loop_invariants(f: &mut Function) -> bool {
    let doms = Dominators::compute(f);
    let loops = natural_loops(f, &doms);
    if loops.is_empty() {
        return false;
    }
    // Definition counts per register, and use-site blocks per register,
    // over the whole function.
    let mut def_count: HashMap<Reg, usize> = HashMap::new();
    let mut use_blocks: HashMap<Reg, HashSet<BlockId>> = HashMap::new();
    for b in f.block_ids() {
        let block = f.block(b);
        for inst in &block.insts {
            if let Some(d) = inst.def() {
                *def_count.entry(d).or_default() += 1;
            }
            for u in inst.uses() {
                use_blocks.entry(u).or_default().insert(b);
            }
        }
        for u in block.term.uses() {
            use_blocks.entry(u).or_default().insert(b);
        }
    }

    // A header's incoming edges are only ever rewritten by its own
    // loop's preheader (loops have distinct headers), so one map serves
    // every loop below.
    let preds = predecessors(f);
    let mut changed = false;
    // Innermost-last ordering is not tracked; process each loop
    // independently (a second pass of the optimizer pipeline catches
    // anything newly exposed).
    for lp in &loops {
        // Registers defined anywhere in the loop.
        let mut defined_in_loop: HashSet<Reg> = HashSet::new();
        for &b in &lp.blocks {
            for inst in &f.block(b).insts {
                if let Some(d) = inst.def() {
                    defined_in_loop.insert(d);
                }
            }
        }
        // Collect hoistable instructions.
        let mut hoisted: Vec<Inst> = Vec::new();
        for &b in &lp.blocks {
            let block = f.block_mut(b);
            let mut kept = Vec::with_capacity(block.insts.len());
            for inst in block.insts.drain(..) {
                let hoistable = is_hoistable(&inst, lp, &defined_in_loop, &def_count, &use_blocks);
                if hoistable {
                    hoisted.push(inst);
                } else {
                    kept.push(inst);
                }
            }
            block.insts = kept;
        }
        if hoisted.is_empty() {
            continue;
        }
        changed = true;
        // Build a preheader: a fresh block holding the hoisted code,
        // jumping to the header; all non-back-edge predecessors are
        // redirected to it.
        let header = lp.header;
        let preheader = f.add_block(Block {
            insts: hoisted,
            term: Terminator::Jump(header),
        });
        for &p in &preds[header.index()] {
            if lp.contains(p) {
                continue; // back edges stay on the header
            }
            f.block_mut(p)
                .term
                .map_successors(|s| if s == header { preheader } else { s });
        }
        if f.entry == header {
            f.entry = preheader;
        }
    }
    changed
}

fn is_hoistable(
    inst: &Inst,
    lp: &br_ir::dom::NaturalLoop,
    defined_in_loop: &HashSet<Reg>,
    def_count: &HashMap<Reg, usize>,
    use_blocks: &HashMap<Reg, HashSet<BlockId>>,
) -> bool {
    // Pure, non-trapping, non-memory.
    let pure = matches!(
        inst,
        Inst::Copy { .. } | Inst::Bin { .. } | Inst::Un { .. } | Inst::FrameAddr { .. }
    );
    if !pure || inst.may_trap() || inst.has_side_effect() {
        return false;
    }
    let Some(dst) = inst.def() else { return false };
    if def_count.get(&dst).copied().unwrap_or(0) != 1 {
        return false;
    }
    // Operands must not be defined in the loop (the single def of `dst`
    // is this instruction, so a self-reference also fails here).
    if inst.uses().iter().any(|u| defined_in_loop.contains(u)) {
        return false;
    }
    // All uses of dst stay inside the loop.
    match use_blocks.get(&dst) {
        None => true, // dead; DCE will remove it, hoisting is harmless
        Some(blocks) => blocks.iter().all(|b| lp.contains(*b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::{BinOp, Cond, FuncBuilder, Operand};
    use br_vm::{run, VmOptions};

    /// while (i < n) { t = k * 8; s += t; i += 1 }  — t is invariant.
    fn invariant_loop() -> (br_ir::Module, Reg) {
        let mut b = FuncBuilder::new("main");
        let i = b.new_reg();
        let n = b.new_reg();
        let k = b.new_reg();
        let t = b.new_reg();
        let s = b.new_reg();
        let e = b.entry();
        let head = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.copy(e, i, 0i64);
        b.copy(e, n, 100i64);
        b.copy(e, k, 7i64);
        b.copy(e, s, 0i64);
        b.set_term(e, Terminator::Jump(head));
        b.cmp_branch(head, i, n, Cond::Ge, done, body);
        b.bin(body, BinOp::Mul, t, k, 8i64); // invariant
        b.bin(body, BinOp::Add, s, s, t);
        b.bin(body, BinOp::Add, i, i, 1i64);
        b.set_term(body, Terminator::Jump(head));
        b.set_term(done, Terminator::Return(Some(Operand::Reg(s))));
        let mut m = br_ir::Module::new();
        m.main = Some(m.add_function(b.finish()));
        (m, t)
    }

    #[test]
    fn hoists_invariant_multiply() {
        let (mut m, t) = invariant_loop();
        let before = run(&m, b"", &VmOptions::default()).unwrap();
        assert!(hoist_loop_invariants(&mut m.functions[0]));
        br_ir::verify_function(&m.functions[0], None).unwrap();
        let after = run(&m, b"", &VmOptions::default()).unwrap();
        assert_eq!(before.exit, after.exit);
        assert!(
            after.stats.insts < before.stats.insts,
            "hoisting must reduce dynamic work: {} -> {}",
            before.stats.insts,
            after.stats.insts
        );
        // The multiply now executes once, not 100 times.
        let muls_in_loop: usize = m.functions[0]
            .blocks
            .iter()
            .take(4) // original blocks
            .map(|b| b.insts.iter().filter(|i| i.def() == Some(t)).count())
            .sum();
        assert_eq!(muls_in_loop, 0, "multiply must have left the loop body");
    }

    #[test]
    fn variant_operands_stay_put() {
        // t = i * 8 depends on the induction variable: not hoistable.
        let mut b = FuncBuilder::new("main");
        let i = b.new_reg();
        let t = b.new_reg();
        let s = b.new_reg();
        let e = b.entry();
        let head = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.copy(e, i, 0i64);
        b.copy(e, s, 0i64);
        b.set_term(e, Terminator::Jump(head));
        b.cmp_branch(head, i, 10i64, Cond::Ge, done, body);
        b.bin(body, BinOp::Mul, t, i, 8i64);
        b.bin(body, BinOp::Add, s, s, t);
        b.bin(body, BinOp::Add, i, i, 1i64);
        b.set_term(body, Terminator::Jump(head));
        b.set_term(done, Terminator::Return(Some(Operand::Reg(s))));
        let mut f = b.finish();
        assert!(!hoist_loop_invariants(&mut f));
    }

    #[test]
    fn division_is_never_hoisted() {
        // q = 100 / n is invariant but may trap (n could be 0 and the
        // loop may never run with n == 0 guarding it).
        let mut b = FuncBuilder::new("main");
        let i = b.new_reg();
        let n = b.new_reg();
        let q = b.new_reg();
        let s = b.new_reg();
        b.set_param_regs(vec![n]);
        let e = b.entry();
        let head = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.copy(e, i, 0i64);
        b.copy(e, s, 0i64);
        b.set_term(e, Terminator::Jump(head));
        b.cmp_branch(head, i, n, Cond::Ge, done, body);
        b.bin(body, BinOp::Div, q, 100i64, n);
        b.bin(body, BinOp::Add, s, s, q);
        b.bin(body, BinOp::Add, i, i, 1i64);
        b.set_term(body, Terminator::Jump(head));
        b.set_term(done, Terminator::Return(Some(Operand::Reg(s))));
        let mut f = b.finish();
        assert!(!hoist_loop_invariants(&mut f));
    }

    #[test]
    fn uses_outside_the_loop_block_hoisting() {
        // t = k * 8 is invariant but read after the loop: with the
        // loop possibly running zero times, hoisting would change the
        // observed value (non-SSA safety rule).
        let mut b = FuncBuilder::new("main");
        let i = b.new_reg();
        let k = b.new_reg();
        let t = b.new_reg();
        b.set_param_regs(vec![k]);
        let e = b.entry();
        let head = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.copy(e, i, 0i64);
        b.copy(e, t, -1i64);
        b.set_term(e, Terminator::Jump(head));
        b.cmp_branch(head, i, k, Cond::Ge, done, body);
        b.bin(body, BinOp::Mul, t, k, 8i64);
        b.bin(body, BinOp::Add, i, i, 1i64);
        b.set_term(body, Terminator::Jump(head));
        b.set_term(done, Terminator::Return(Some(Operand::Reg(t))));
        let mut f = b.finish();
        // t has TWO defs (init + loop), so the def-count rule also
        // rejects it; this test pins the behaviour.
        assert!(!hoist_loop_invariants(&mut f));
    }

    #[test]
    fn entry_header_loops_get_a_preheader() {
        // A loop whose header IS the entry block.
        let mut b = FuncBuilder::new("main");
        let i = b.new_reg();
        let t = b.new_reg();
        let e = b.entry();
        let done = b.new_block();
        b.bin(e, BinOp::Mul, t, 21i64, 2i64);
        b.bin(e, BinOp::Add, i, i, t);
        b.cmp(e, i, 420i64);
        b.set_term(e, Terminator::branch(Cond::Lt, e, done));
        b.set_term(done, Terminator::Return(Some(Operand::Reg(i))));
        let mut m = br_ir::Module::new();
        m.main = Some(m.add_function(b.finish()));
        let before = run(&m, b"", &VmOptions::default()).unwrap();
        let changed = hoist_loop_invariants(&mut m.functions[0]);
        br_ir::verify_function(&m.functions[0], None).unwrap();
        let after = run(&m, b"", &VmOptions::default()).unwrap();
        assert_eq!(before.exit, after.exit);
        assert!(changed);
        assert_ne!(m.functions[0].entry, BlockId(0), "entry moved to preheader");
    }
}
