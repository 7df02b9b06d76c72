//! Local-search refinement: chain splitting by segment relocation,
//! bounded by a deterministic move budget.
//!
//! Chain formation commits to tail-to-head merges; relocation can undo a
//! bad commitment by splitting a chain anywhere and re-inserting the
//! split-off segment where a profile edge wants it (the 2-opt analogue
//! on block orders). Candidate targets are *edge-guided* — a segment is
//! only offered positions adjacent to one of its CFG neighbours — so the
//! move set stays proportional to the profile's edge count rather than
//! quadratic in blocks.

use br_ir::BlockId;

use crate::score::Scorer;
use crate::{EdgeWeights, LayoutParams};

/// Refine `order` in place. First-improvement hill climbing: passes over
/// segment lengths 1 and 2, accepting the first move that strictly
/// raises the ext-TSP score, until a full pass finds nothing or the
/// evaluation budget ([`LayoutParams::move_budget`]) is exhausted. The
/// entry block (position 0) never moves. Deterministic by construction:
/// fixed enumeration order, integer scores, hard budget.
pub(crate) fn refine(
    f: &br_ir::Function,
    weights: &EdgeWeights,
    params: &LayoutParams,
    order: &mut [BlockId],
) {
    let n = order.len();
    if n <= 3 || params.move_budget == 0 {
        return;
    }
    // Weighted `(dst, src)` edges sorted by destination, so a segment's
    // insertion targets cost its own edges rather than a scan of the
    // whole function.
    let mut in_edges: Vec<(BlockId, BlockId)> = weights
        .all_edges()
        .filter(|&(_, _, w)| w > 0)
        .map(|(src, dst, _)| (dst, src))
        .collect();
    in_edges.sort_unstable();
    let mut scorer = Scorer::default();
    let mut budget = params.move_budget;
    let mut best = scorer.score(f, weights, params, order);
    let mut pos = vec![0usize; n];
    let mut targets: Vec<usize> = Vec::new();
    'passes: loop {
        for (i, &b) in order.iter().enumerate() {
            pos[b.index()] = i;
        }
        for i in 1..n {
            for len in 1..=2usize {
                if i + len > n {
                    continue;
                }
                let head = order[i];
                let tail = order[i + len - 1];
                // Insertion points that could create a new fall-through:
                // right after a predecessor of the segment head, or right
                // before a successor of the segment tail.
                targets.clear();
                let from = in_edges.partition_point(|&(dst, _)| dst < head);
                let preds = in_edges[from..].iter().take_while(|&&(dst, _)| dst == head);
                targets.extend(preds.map(|&(_, src)| pos[src.index()] + 1));
                targets.extend(
                    weights
                        .edges_from(tail)
                        .iter()
                        .filter(|&&(_, w)| w > 0)
                        .map(|&(d, _)| pos[d.index()]),
                );
                targets.sort_unstable();
                targets.dedup();
                for &j in &targets {
                    // Skip no-ops and positions inside the segment; the
                    // entry must stay at position 0.
                    if j == i || (j > i && j < i + len) || j == 0 {
                        continue;
                    }
                    if budget == 0 {
                        break 'passes;
                    }
                    budget -= 1;
                    relocate(order, i, len, j);
                    let s = scorer.score(f, weights, params, order);
                    if s > best {
                        best = s;
                        continue 'passes;
                    }
                    unrelocate(order, i, len, j);
                }
            }
        }
        break;
    }
}

/// Move the segment `[i, i+len)` of `order` so its head lands where
/// position `j` (an index into the order before the move) used to be.
fn relocate(order: &mut [BlockId], i: usize, len: usize, j: usize) {
    if j > i {
        order[i..j].rotate_left(len);
    } else {
        order[j..i + len].rotate_right(len);
    }
}

/// Undo [`relocate`] with the same arguments.
fn unrelocate(order: &mut [BlockId], i: usize, len: usize, j: usize) {
    if j > i {
        order[i..j].rotate_right(len);
    } else {
        order[j..i + len].rotate_left(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score_order;
    use br_ir::{Cond, FuncBuilder, Operand, Terminator};

    /// The move spelled out: remove the segment, re-insert it.
    fn relocated_copy(order: &[BlockId], i: usize, len: usize, j: usize) -> Vec<BlockId> {
        let mut rest: Vec<BlockId> = order[..i].to_vec();
        rest.extend_from_slice(&order[i + len..]);
        let at = if j > i { j - len } else { j };
        let mut out = rest[..at].to_vec();
        out.extend_from_slice(&order[i..i + len]);
        out.extend_from_slice(&rest[at..]);
        out
    }

    #[test]
    fn relocation_moves_the_segment_and_undoes() {
        let order: Vec<BlockId> = (0..6).map(BlockId).collect();
        for i in 1..6 {
            for len in 1..=2 {
                if i + len > 6 {
                    continue;
                }
                for j in 1..=6 {
                    if j == i || (j > i && j < i + len) {
                        continue;
                    }
                    let mut r = order.clone();
                    relocate(&mut r, i, len, j);
                    assert_eq!(
                        r,
                        relocated_copy(&order, i, len, j),
                        "i={i} len={len} j={j}"
                    );
                    unrelocate(&mut r, i, len, j);
                    assert_eq!(r, order, "i={i} len={len} j={j}");
                }
            }
        }
    }

    #[test]
    fn refine_fixes_a_bad_chain_commitment() {
        // Storage order strands the hot a,b chain behind a cold block:
        // e, cold, a, b with e->a (80) and a->b (80) but e->cold only
        // 20. Relocating the two-block segment [a, b] right after the
        // entry gains a heavy fall-through — the chain-split move.
        let mut bld = FuncBuilder::new("f");
        let x = bld.new_reg();
        bld.set_param_regs(vec![x]);
        let e = bld.entry();
        let cold = bld.new_block();
        let a = bld.new_block();
        let b = bld.new_block();
        bld.cmp_branch(e, x, 0i64, Cond::Eq, cold, a);
        bld.set_term(cold, Terminator::Return(Some(Operand::Imm(0))));
        bld.set_term(a, Terminator::Jump(b));
        bld.set_term(b, Terminator::Return(Some(Operand::Reg(x))));
        let f = bld.finish();
        let counts = [[100, 20], [20, 0], [80, 0], [80, 0]];
        let w = EdgeWeights::from_block_counts(&f, &counts);
        let p = LayoutParams::default();
        let mut order: Vec<BlockId> = (0..4).map(BlockId).collect();
        let before = score_order(&f, &w, &p, &order);
        refine(&f, &w, &p, &mut order);
        let after = score_order(&f, &w, &p, &order);
        assert!(after > before, "refinement found nothing: {order:?}");
        assert_eq!(
            order,
            [0, 2, 3, 1].map(BlockId).to_vec(),
            "hot chain must move into the fall-through slot"
        );
    }

    #[test]
    fn budget_zero_disables_refinement() {
        let mut bld = FuncBuilder::new("f");
        let e = bld.entry();
        let a = bld.new_block();
        let b = bld.new_block();
        let c = bld.new_block();
        bld.set_term(e, Terminator::Jump(c));
        bld.set_term(a, Terminator::Return(None));
        bld.set_term(b, Terminator::Return(None));
        bld.set_term(c, Terminator::Return(None));
        let f = bld.finish();
        let w = EdgeWeights::from_block_counts(&f, &[[9, 0], [0, 0], [0, 0], [9, 0]]);
        let p = LayoutParams {
            move_budget: 0,
            ..LayoutParams::default()
        };
        let mut order: Vec<BlockId> = (0..4).map(BlockId).collect();
        let before = order.clone();
        refine(&f, &w, &p, &mut order);
        assert_eq!(order, before);
    }
}
