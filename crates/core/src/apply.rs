//! Applying the transformation to the control flow (the paper's
//! Section 8, Figure 10): the sequence is replicated in reordered form,
//! the predecessors of the original head are redirected to the replica,
//! and dead-code elimination reclaims the unreferenced originals.
//!
//! Redirecting is done by rewriting the head *in place*: its pre-compare
//! prefix stays (entering the sequence still runs it), the compare is
//! dropped, and the head then jumps to the replica — every predecessor,
//! including fall-through ones, follows automatically, while entries into
//! the *middle* of the original sequence keep their original code.

use br_ir::{BlockId, Function, Inst, Terminator};

use crate::detect::DetectedSequence;
use crate::emit::{emit_reordered, EmitResult};
use crate::order::{OrderItem, Ordering};

/// Splice the reordered replica of `seq` into `f`.
///
/// The caller is expected to run the post-reordering clean-up pipeline
/// (`br_opt::cleanup_function`) once all of the function's sequences have
/// been applied; block ids stay valid until then, because this only
/// appends blocks and rewrites the head in place.
pub fn apply_reordering(
    f: &mut Function,
    seq: &DetectedSequence,
    items: &[OrderItem],
    ordering: &Ordering,
) -> EmitResult {
    let result = emit_reordered(f, seq, items, ordering);
    splice_head(f, seq.head, result.entry);
    result
}

/// Point a sequence head at a replica's entry: a fresh head (compare and
/// branch) loses its compare, a spliced one (a jump) is retargeted.
pub(crate) fn splice_head(f: &mut Function, head: BlockId, entry: BlockId) {
    let head = f.block_mut(head);
    if matches!(head.term, Terminator::Branch { .. }) {
        let popped = head.insts.pop();
        debug_assert!(
            matches!(popped, Some(Inst::Cmp { .. })),
            "sequence head must end in its compare"
        );
    }
    head.term = Terminator::Jump(entry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_sequences;
    use crate::order::select_ordering;
    use crate::profile::{order_items, SequenceProfile};
    use br_ir::{BlockId, Cond, FuncBuilder, Operand, Reg};
    use br_vm::{run, VmOptions};

    /// Classify-loop module:
    /// while ((c = getchar()) != EOF) count[class(c)]++, where class is
    /// an if/else chain. Returns a checksum.
    fn classify_module() -> br_ir::Module {
        let mut m = br_ir::Module::new();
        let mut b = FuncBuilder::new("main");
        let c = b.new_reg();
        let acc = b.new_reg();
        let e = b.entry();
        let head = b.new_block();
        let c2 = b.new_block();
        let c3 = b.new_block();
        let t_space = b.new_block();
        let t_nl = b.new_block();
        let t_other = b.new_block();
        let quit = b.new_block();
        b.copy(e, acc, 0i64);
        b.set_term(e, Terminator::Jump(head));
        b.push(
            head,
            Inst::Call {
                dst: Some(c),
                callee: br_ir::Callee::Intrinsic(br_ir::Intrinsic::GetChar),
                args: vec![],
            },
        );
        // Sequence: c == -1 -> quit; c == 32 -> t_space; c == 10 -> t_nl;
        // default t_other.
        b.cmp_branch(head, c, -1i64, Cond::Eq, quit, c2);
        b.cmp_branch(c2, c, 32i64, Cond::Eq, t_space, c3);
        b.cmp_branch(c3, c, 10i64, Cond::Eq, t_nl, t_other);
        b.bin(t_space, br_ir::BinOp::Add, acc, acc, 1i64);
        b.set_term(t_space, Terminator::Jump(head));
        b.bin(t_nl, br_ir::BinOp::Add, acc, acc, 100i64);
        b.set_term(t_nl, Terminator::Jump(head));
        b.bin(t_other, br_ir::BinOp::Add, acc, acc, 10000i64);
        b.set_term(t_other, Terminator::Jump(head));
        b.set_term(quit, Terminator::Return(Some(Operand::Reg(acc))));
        m.main = Some(m.add_function(b.finish()));
        m
    }

    fn apply_with_profile(m: &br_ir::Module, counts: Vec<u64>) -> br_ir::Module {
        let mut out = m.clone();
        let f = &mut out.functions[0];
        let seqs = detect_sequences(f);
        assert_eq!(seqs.len(), 1);
        let seq = &seqs[0];
        let items = order_items(seq, &SequenceProfile { counts });
        let candidates: Vec<BlockId> = {
            let mut t: Vec<BlockId> = seq.conds.iter().map(|c| c.target).collect();
            t.push(seq.default_target);
            t.sort();
            t.dedup();
            t
        };
        let ordering = select_ordering(
            &items,
            &candidates,
            &vec![true; items.len()],
            seq.default_target,
        );
        apply_reordering(f, seq, &items, &ordering);
        br_opt::cleanup_function(f);
        br_ir::verify_module(&out).unwrap();
        out
    }

    #[test]
    fn semantics_preserved_for_all_profiles() {
        let m = classify_module();
        let input = b"ab cd\nef  gh\n\n!";
        let base = run(&m, input, &VmOptions::default()).unwrap();
        // Whatever the profile says (even a wildly wrong one), behaviour
        // must not change. Plan ranges: [-1], [32], [10] explicit, then
        // defaults [..-2], [0..9], [11..31], [33..] — 7 counts.
        let shapes: Vec<Vec<u64>> = vec![
            vec![1, 100, 10, 0, 0, 5, 50],
            vec![100, 1, 1, 0, 0, 1, 1],
            vec![0, 0, 0, 0, 0, 0, 1000],
            vec![5, 5, 5, 5, 5, 5, 5],
        ];
        for counts in shapes {
            let reordered = apply_with_profile(&m, counts.clone());
            let got = run(&reordered, input, &VmOptions::default()).unwrap();
            assert_eq!(got.exit, base.exit, "profile {counts:?} broke semantics");
            assert_eq!(got.output, base.output);
        }
    }

    #[test]
    fn skewed_profile_reduces_dynamic_branches() {
        let m = classify_module();
        // Input dominated by "other" characters: the original order
        // tests EOF, space and newline before reaching the default.
        let input: Vec<u8> = std::iter::repeat_n(b'x', 300).chain(*b" \n").collect();
        let base = run(&m, &input, &VmOptions::default()).unwrap();
        // Train on the same distribution.
        let counts = vec![1, 1, 1, 0, 0, 0, 300];
        let reordered = apply_with_profile(&m, counts);
        let got = run(&reordered, &input, &VmOptions::default()).unwrap();
        assert_eq!(got.exit, base.exit);
        assert!(
            got.stats.cond_branches < base.stats.cond_branches,
            "branches should drop: {} -> {}",
            base.stats.cond_branches,
            got.stats.cond_branches
        );
        assert!(
            got.stats.insts < base.stats.insts,
            "instructions should drop: {} -> {}",
            base.stats.insts,
            got.stats.insts
        );
    }

    #[test]
    fn head_prefix_is_preserved() {
        let m = classify_module();
        let reordered = apply_with_profile(&m, vec![1, 1, 1, 0, 0, 0, 10]);
        // The getchar call (head prefix) must still execute exactly once
        // per iteration: output/exit already checked; also ensure the
        // head block kept its call.
        let f = &reordered.functions[0];
        let has_getchar_head = f.blocks.iter().any(|b| {
            b.insts.iter().any(|i| {
                matches!(
                    i,
                    Inst::Call {
                        callee: br_ir::Callee::Intrinsic(br_ir::Intrinsic::GetChar),
                        ..
                    }
                )
            })
        });
        assert!(has_getchar_head);
        let _ = Reg(0);
    }
}
