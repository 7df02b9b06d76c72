//! Profile-weighted chain formation with merge lookahead
//! (Newell & Pupyrev §4).
//!
//! Every block starts as a singleton chain. Chains merge tail-to-head
//! along the heaviest profile edges; before committing a merge, the top
//! few candidates are compared with one step of lookahead — the value of
//! a merge is its edge weight *plus* the heaviest follow-on edge the
//! merged chain's new tail would enable — so a slightly lighter edge
//! that unlocks a heavy continuation wins over a greedy dead end.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use br_ir::{BlockId, Function};

use crate::{EdgeWeights, LayoutParams};

/// No block: the end of a chain's block list.
const NONE: usize = usize::MAX;

/// Form chains and concatenate them into a full block order, entry
/// first. Deterministic: edges are ranked `(weight desc, src asc, dst
/// asc)` and every tie-breaker is total.
///
/// Chains only grow by tail-to-head merges, so an edge whose source
/// stops being a tail, or whose destination stops being a head, never
/// becomes mergeable again: it is unlinked from the ranked list the
/// first time a scan finds it dead. Each chain is a linked list of
/// blocks, and a merge relabels the smaller side, so forming all chains
/// costs O(E log E + n log n).
pub(crate) fn form_chains(
    f: &Function,
    weights: &EdgeWeights,
    params: &LayoutParams,
) -> Vec<BlockId> {
    let n = f.blocks.len();
    let entry = f.entry.index();
    // Chain ids are block ids: chain `c` runs from `head[c]` through
    // `next` to `tail[c]`, and holds `size[c]` blocks.
    let mut chain_of: Vec<usize> = (0..n).collect();
    let mut head: Vec<usize> = (0..n).collect();
    let mut tail: Vec<usize> = (0..n).collect();
    let mut size: Vec<usize> = vec![1; n];
    let mut next: Vec<usize> = vec![NONE; n];

    let mut edges: Vec<(u64, usize, usize)> = weights
        .all_edges()
        .filter(|&(s, d, w)| w > 0 && s != d)
        .map(|(s, d, w)| (w, s.index(), d.index()))
        .collect();
    edges.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    // Edges still possibly mergeable, as a linked list in rank order.
    let mut live_next: Vec<usize> = (1..=edges.len()).collect();
    let mut live_first = 0usize;

    let window = params.lookahead.max(1);
    let mut cands: Vec<(u64, usize, usize)> = Vec::with_capacity(window);
    loop {
        // Mergeable edges in rank order: src must be its chain's tail,
        // dst a different chain's head, and the entry block can never
        // become an interior block (it must stay first overall).
        cands.clear();
        let mut prev = NONE;
        let mut e = live_first;
        while e < edges.len() && cands.len() < window {
            let (w, s, d) = edges[e];
            let (cs, cd) = (chain_of[s], chain_of[d]);
            if cs == cd || d == entry || tail[cs] != s || head[cd] != d {
                if prev == NONE {
                    live_first = live_next[e];
                } else {
                    live_next[prev] = live_next[e];
                }
            } else {
                cands.push((w, s, d));
                prev = e;
            }
            e = live_next[e];
        }
        let Some(&first) = cands.first() else {
            break;
        };
        // One-step lookahead over the candidate window.
        let mut best = first;
        let mut best_val = 0u128;
        for &(w, s, d) in &cands {
            let cd = chain_of[d];
            let follow = weights
                .edges_from(BlockId(tail[cd] as u32))
                .iter()
                .filter(|&&(fd, fw)| {
                    let cf = chain_of[fd.index()];
                    fw > 0
                        && cf != chain_of[s]
                        && cf != cd
                        && head[cf] == fd.index()
                        && fd.index() != entry
                })
                .map(|&(_, fw)| fw)
                .max()
                .unwrap_or(0);
            let val = w as u128 + follow as u128;
            if val > best_val {
                best_val = val;
                best = (w, s, d);
            }
        }
        let (_, s, d) = best;
        let (cs, cd) = (chain_of[s], chain_of[d]);
        next[s] = d;
        let (keep, gone) = if size[cs] >= size[cd] {
            (cs, cd)
        } else {
            (cd, cs)
        };
        let mut b = head[gone];
        while b != NONE {
            chain_of[b] = keep;
            b = next[b];
        }
        head[keep] = head[cs];
        tail[keep] = tail[cd];
        size[keep] += size[gone];
    }

    let heads = (0..n).filter(|&c| chain_of[c] == c).map(|c| head[c]);
    concat_chains(f, weights, heads, &next, entry)
}

/// Concatenate chains: the entry chain first, then repeatedly the chain
/// whose head receives the heaviest edge from any already-placed block
/// (ties: smaller head id); chains no placed block reaches follow in
/// head-id order — unreachable and never-profiled blocks keep a stable
/// position. Structural successors count as weight-0 edges so cold
/// chains still prefer a spot after a block that targets them.
///
/// Each head's best incoming weight and `reached` flag only grow as
/// blocks are placed, so they are updated once per placed block's
/// edges, and the pick is the top of a heap whose stale entries are
/// skipped.
fn concat_chains(
    f: &Function,
    weights: &EdgeWeights,
    heads: impl Iterator<Item = usize>,
    next: &[usize],
    entry: usize,
) -> Vec<BlockId> {
    let n = f.blocks.len();
    // Heads of the chains not placed yet.
    let mut unplaced = vec![false; n];
    let mut heap: BinaryHeap<(u64, bool, Reverse<usize>)> = BinaryHeap::new();
    for h in heads {
        unplaced[h] = true;
        if h != entry {
            heap.push((0, false, Reverse(h)));
        }
    }
    // (best incoming weight, reached) per block, from the placed region.
    let mut key: Vec<(u64, bool)> = vec![(0, false); n];
    let mut order: Vec<BlockId> = Vec::with_capacity(n);
    let mut h = entry;
    loop {
        unplaced[h] = false;
        let mut p = h;
        while p != NONE {
            order.push(BlockId(p as u32));
            let structural = f.blocks[p].term.successors().into_iter().map(|t| (t, 0));
            for (dst, ew) in weights
                .edges_from(BlockId(p as u32))
                .iter()
                .copied()
                .chain(structural)
            {
                let old = key[dst.index()];
                let new = (old.0.max(ew), true);
                if new != old {
                    key[dst.index()] = new;
                    if unplaced[dst.index()] {
                        heap.push((new.0, new.1, Reverse(dst.index())));
                    }
                }
            }
            p = next[p];
        }
        // The best remaining head; entries for placed chains and keys
        // that have since grown are stale.
        let picked = std::iter::from_fn(|| heap.pop())
            .find(|&(w, reached, Reverse(h))| unplaced[h] && key[h] == (w, reached));
        match picked {
            Some((_, _, Reverse(next_head))) => h = next_head,
            None => break,
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayoutParams;
    use br_ir::{Cond, FuncBuilder, Operand, Terminator};

    #[test]
    fn heaviest_path_forms_one_chain() {
        // e -> a (90) / b (10); a -> c (90). Chain must be e,a,c then b.
        let mut bld = FuncBuilder::new("f");
        let x = bld.new_reg();
        bld.set_param_regs(vec![x]);
        let e = bld.entry();
        let a = bld.new_block();
        let b = bld.new_block();
        let c = bld.new_block();
        bld.cmp_branch(e, x, 0i64, Cond::Eq, b, a);
        bld.set_term(a, Terminator::Jump(c));
        bld.set_term(b, Terminator::Return(Some(Operand::Imm(0))));
        bld.set_term(c, Terminator::Return(Some(Operand::Reg(x))));
        let f = bld.finish();
        let counts = [[100, 10], [90, 0], [10, 0], [90, 0]];
        let w = EdgeWeights::from_block_counts(&f, &counts);
        let order = form_chains(&f, &w, &LayoutParams::default());
        assert_eq!(order, vec![BlockId(0), BlockId(1), BlockId(3), BlockId(2)]);
    }

    #[test]
    fn lookahead_prefers_the_edge_with_a_continuation() {
        // e can fall into a (w 50) or b (w 50). a continues into c with
        // weight 49; b is a dead end. Lookahead must pick a first even
        // though the immediate weights tie.
        let mut bld = FuncBuilder::new("f");
        let x = bld.new_reg();
        bld.set_param_regs(vec![x]);
        let e = bld.entry();
        let b = bld.new_block();
        let a = bld.new_block();
        let c = bld.new_block();
        bld.cmp_branch(e, x, 0i64, Cond::Eq, b, a);
        bld.set_term(a, Terminator::Jump(c));
        bld.set_term(b, Terminator::Return(Some(Operand::Imm(0))));
        bld.set_term(c, Terminator::Return(Some(Operand::Reg(x))));
        let f = bld.finish();
        // b is block 1 (the taken arm, lower id); a is block 2.
        let counts = [[100, 50], [50, 0], [49, 0], [49, 0]];
        let w = EdgeWeights::from_block_counts(&f, &counts);
        let order = form_chains(&f, &w, &LayoutParams::default());
        let pos_a = order.iter().position(|&x| x == BlockId(2)).unwrap();
        let pos_b = order.iter().position(|&x| x == BlockId(1)).unwrap();
        assert!(
            pos_a < pos_b,
            "lookahead must chain through a (order {order:?})"
        );
    }

    #[test]
    fn entry_chain_is_always_first() {
        let mut bld = FuncBuilder::new("f");
        let e = bld.entry();
        let far = bld.new_block();
        bld.set_term(e, Terminator::Jump(far));
        bld.set_term(far, Terminator::Return(None));
        let f = bld.finish();
        let w = EdgeWeights::from_block_counts(&f, &[[3, 0], [3, 0]]);
        let order = form_chains(&f, &w, &LayoutParams::default());
        assert_eq!(order[0], f.entry);
    }
}
