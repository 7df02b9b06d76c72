//! The ext-TSP objective: exact integer scoring of a candidate block
//! order against profile edge weights.

use br_ir::{BlockId, Function};

use crate::{EdgeWeights, LayoutParams};

/// Score `order` (old block ids in candidate storage order) under the
/// ext-TSP objective: for every weighted CFG edge, full
/// [`LayoutParams::fallthrough_gain`] when the successor is adjacent,
/// else a linearly decaying band gain for short forward/backward jumps,
/// else nothing. Distances are in static instructions, matching the
/// VM's branch-address scheme (profiling probes included, as the VM
/// counts them when assigning addresses). Pure integer arithmetic: the
/// score is bit-identical across platforms and runs.
pub fn score_order(
    f: &Function,
    weights: &EdgeWeights,
    params: &LayoutParams,
    order: &[BlockId],
) -> u128 {
    Scorer::default().score(f, weights, params, order)
}

/// [`score_order`] with its per-position buffers kept between calls,
/// for callers that score many candidate orders of one function.
#[derive(Default)]
pub(crate) struct Scorer {
    pos: Vec<usize>,
    /// Start address of each *position* and the block length at it.
    start: Vec<u64>,
    len_at: Vec<u64>,
}

impl Scorer {
    pub(crate) fn score(
        &mut self,
        f: &Function,
        weights: &EdgeWeights,
        params: &LayoutParams,
        order: &[BlockId],
    ) -> u128 {
        let n = f.blocks.len();
        debug_assert_eq!(order.len(), n, "order must be a full permutation");
        let Scorer { pos, start, len_at } = self;
        pos.resize(n, 0);
        start.clear();
        len_at.clear();
        let mut addr = 0u64;
        for (i, &b) in order.iter().enumerate() {
            pos[b.index()] = i;
            let len = f.blocks[b.index()].insts.len() as u64 + 1;
            start.push(addr);
            len_at.push(len);
            addr += len;
        }
        let mut score: u128 = 0;
        for (src, dst, w) in weights.all_edges() {
            if w == 0 {
                continue;
            }
            let ps = pos[src.index()];
            let pd = pos[dst.index()];
            let gain = if pd == ps + 1 {
                params.fallthrough_gain
            } else if pd > ps {
                // Forward jump: distance from src's terminator to dst.
                let d = start[pd] - (start[ps] + len_at[ps]);
                band(d, params.forward_window, params.forward_gain)
            } else {
                // Backward jump (including a self-loop's trip to its start).
                let d = (start[ps] + len_at[ps]) - start[pd];
                band(d, params.backward_window, params.backward_gain)
            };
            score += w as u128 * gain as u128;
        }
        score
    }
}

/// Linearly decaying band gain: `peak` at distance 0, zero at or beyond
/// `window`.
fn band(d: u64, window: u64, peak: u64) -> u64 {
    if window == 0 || d >= window {
        0
    } else {
        peak * (window - d) / window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::{Cond, FuncBuilder, Operand, Terminator};

    fn diamond() -> Function {
        let mut b = FuncBuilder::new("f");
        let x = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        let l = b.new_block();
        let r = b.new_block();
        let j = b.new_block();
        b.cmp_branch(e, x, 0i64, Cond::Eq, l, r);
        b.set_term(l, Terminator::Jump(j));
        b.set_term(r, Terminator::Jump(j));
        b.set_term(j, Terminator::Return(Some(Operand::Reg(x))));
        b.finish()
    }

    #[test]
    fn adjacency_beats_any_band() {
        let f = diamond();
        let counts = [[10, 4], [4, 0], [6, 0], [10, 0]];
        let w = EdgeWeights::from_block_counts(&f, &counts);
        let p = LayoutParams::default();
        let ids = |v: [u32; 4]| v.map(BlockId).to_vec();
        // r (weight 6) adjacent to entry beats l (weight 4) adjacent.
        let r_adjacent = score_order(&f, &w, &p, &ids([0, 2, 3, 1]));
        let l_adjacent = score_order(&f, &w, &p, &ids([0, 1, 3, 2]));
        assert!(r_adjacent > l_adjacent, "{r_adjacent} <= {l_adjacent}");
    }

    #[test]
    fn band_decays_to_zero() {
        assert_eq!(band(0, 100, 50), 50);
        assert_eq!(band(50, 100, 50), 25);
        assert_eq!(band(100, 100, 50), 0);
        assert_eq!(band(7, 0, 50), 0, "zero window disables the band");
    }

    #[test]
    fn nearer_cold_code_scores_higher_via_bands() {
        // Two orders with identical fall-throughs must still be totally
        // ordered by jump distance through the band terms.
        let mut b = FuncBuilder::new("f");
        let t = b.new_reg();
        let e = b.entry();
        let far = b.new_block();
        let pad = b.new_block();
        for _ in 0..8 {
            b.copy(pad, t, 0i64);
        }
        b.set_term(e, Terminator::Jump(far));
        b.set_term(far, Terminator::Return(None));
        b.set_term(pad, Terminator::Return(None));
        let f = b.finish();
        let w = EdgeWeights::from_block_counts(&f, &[[5, 0], [5, 0], [0, 0]]);
        let p = LayoutParams::default();
        let near = score_order(&f, &w, &p, &[BlockId(0), BlockId(2), BlockId(1)]);
        let adjacent = score_order(&f, &w, &p, &[BlockId(0), BlockId(1), BlockId(2)]);
        assert!(adjacent > near, "fall-through still wins outright");
        assert!(near > 0, "a short forward jump earns partial band credit");
    }
}
