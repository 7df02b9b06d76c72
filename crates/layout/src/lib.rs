//! # br-layout
//!
//! Profile-guided whole-function basic-block layout, the second consumer
//! of the edge profiles the branch reorderer collects.
//!
//! The paper's transformation re-sequences conditional branches *within*
//! a dispatch sequence; the surrounding block order was left to the
//! profile-blind greedy chainer in `br_opt::layout`. This crate adds the
//! profile-aware pass: the ext-TSP objective of Newell & Pupyrev's
//! *Improved Basic Block Reordering* — weighted fall-throughs plus
//! distance-banded gains for short forward/backward jumps — maximized by
//! greedy chain coalescing with merge lookahead (§4 of that paper) and a
//! local-search refinement bounded by a deterministic move budget.
//!
//! ## Calibration against the VM's cost model
//!
//! The interpreter (`br-vm`) charges layout three ways: a `Jump` to a
//! non-adjacent block and a not-taken branch whose successor is not
//! adjacent each materialize one unconditional-jump instruction, and a
//! branch whose *hot* arm is not the fall-through pays a taken branch
//! (the counter the evaluation tables headline). Adjacency is therefore
//! worth exactly one instruction per traversal, so the fall-through term
//! dominates the score: [`LayoutParams::fallthrough_gain`] is an order of
//! magnitude above both band gains, meaning no sum of band bonuses can
//! outbid a fall-through of equal edge weight. The bands only break ties
//! among layouts with identical fall-through totals, preferring compact
//! hot regions (shorter jump distances also densify the predictor's
//! branch-address space). Distances are measured in static instructions,
//! matching the VM's branch-address scheme.
//!
//! ## Determinism
//!
//! Scores are exact integers (`u128` of scaled units — no floats), every
//! candidate enumeration is in a fixed order with total tie-breakers,
//! and refinement is first-improvement under a fixed move budget, so a
//! given (function, weights, params) always yields the same order on
//! every platform and thread count. [`layout_function`] additionally
//! never returns an order scoring below the order it started from: the
//! ext-TSP result is kept only when it beats the incumbent, so
//! `score(exttsp) >= score(greedy)` holds by construction.

mod apply;
mod chain;
mod refine;
mod score;

pub use apply::{apply_order, invert_branches, reposition_tail};
pub use score::score_order;

use br_ir::{BlockId, Function, Terminator};

/// Which layout pass the pipeline runs after reordering and cleanup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LayoutMode {
    /// Leave blocks in transformation order: no repositioning at all.
    /// The ablation baseline — jumps and taken branches go unoptimized.
    Off,
    /// The profile-blind greedy fall-through chainer
    /// (`br_opt::layout::reposition`), the pre-layout-pass status quo.
    #[default]
    Greedy,
    /// Greedy first, then profile-guided ext-TSP refinement seeded from
    /// it (kept only when it scores at least as well).
    ExtTsp,
}

impl LayoutMode {
    /// Stable lowercase name, used in CLI flags and cache keys.
    pub fn name(self) -> &'static str {
        match self {
            LayoutMode::Off => "off",
            LayoutMode::Greedy => "greedy",
            LayoutMode::ExtTsp => "exttsp",
        }
    }

    /// Parse a CLI spelling. Accepts exactly the [`LayoutMode::name`]s.
    pub fn parse(s: &str) -> Option<LayoutMode> {
        match s {
            "off" => Some(LayoutMode::Off),
            "greedy" => Some(LayoutMode::Greedy),
            "exttsp" => Some(LayoutMode::ExtTsp),
            _ => None,
        }
    }

    /// All modes, in ablation order.
    pub const ALL: [LayoutMode; 3] = [LayoutMode::Off, LayoutMode::Greedy, LayoutMode::ExtTsp];
}

/// Tunables of the ext-TSP objective and its optimizers. The defaults
/// are calibrated against `br-vm`'s cost model (see the crate docs).
#[derive(Clone, Copy, Debug)]
pub struct LayoutParams {
    /// Scaled gain per unit of edge weight for an adjacent successor.
    pub fallthrough_gain: u64,
    /// Scaled peak gain for a short forward jump (decays linearly to
    /// zero at `forward_window`).
    pub forward_gain: u64,
    /// Forward-jump band width, in static instructions.
    pub forward_window: u64,
    /// Scaled peak gain for a short backward jump.
    pub backward_gain: u64,
    /// Backward-jump band width, in static instructions.
    pub backward_window: u64,
    /// Chain-merge candidates examined with one step of lookahead.
    pub lookahead: usize,
    /// Refinement move budget: candidate relocations *evaluated* (not
    /// just accepted) per function. Bounds worst-case layout cost
    /// deterministically, which the adaptive runtime's hot-swap budget
    /// relies on.
    pub move_budget: usize,
}

impl Default for LayoutParams {
    fn default() -> LayoutParams {
        LayoutParams {
            fallthrough_gain: 1000,
            forward_gain: 100,
            forward_window: 256,
            backward_gain: 70,
            backward_window: 640,
            lookahead: 4,
            move_budget: 256,
        }
    }
}

/// Profile weights on a function's layout-relevant CFG edges.
///
/// `out[b]` lists `(successor, weight)` pairs for block `b` — at most
/// two entries (a branch's arms) — in a fixed order, so every consumer
/// iterates deterministically. Indirect jumps and returns contribute no
/// edges: the VM prices an indirect jump identically wherever its
/// targets sit.
#[derive(Clone, Debug, Default)]
pub struct EdgeWeights {
    out: Vec<Vec<(BlockId, u64)>>,
}

impl EdgeWeights {
    /// Derive edge weights from a run's per-block `[executions, taken]`
    /// frequencies for this function (`br_vm::RunOutcome::block_counts`
    /// rows, summed over the training inputs by the caller).
    pub fn from_block_counts(f: &Function, counts: &[[u64; 2]]) -> EdgeWeights {
        let mut out = vec![Vec::new(); f.blocks.len()];
        for (bi, b) in f.blocks.iter().enumerate() {
            let [freq, taken] = counts.get(bi).copied().unwrap_or([0, 0]);
            match &b.term {
                Terminator::Branch {
                    taken: t,
                    not_taken: nt,
                    ..
                } => {
                    out[bi].push((*t, taken));
                    out[bi].push((*nt, freq.saturating_sub(taken)));
                }
                Terminator::Jump(t) => out[bi].push((*t, freq)),
                Terminator::IndirectJump { .. } | Terminator::Return(_) => {}
            }
        }
        EdgeWeights { out }
    }

    /// Successor edges of `b` in terminator order: a branch's taken arm,
    /// then its not-taken arm.
    pub fn edges_from(&self, b: BlockId) -> &[(BlockId, u64)] {
        self.out.get(b.index()).map_or(&[], |v| v)
    }

    /// Every `(src, dst, weight)` edge, in block order.
    pub fn all_edges(&self) -> impl Iterator<Item = (BlockId, BlockId, u64)> + '_ {
        self.out.iter().enumerate().flat_map(|(bi, edges)| {
            edges
                .iter()
                .map(move |&(dst, w)| (BlockId(bi as u32), dst, w))
        })
    }

    /// Total weight across all edges; zero means the function never ran
    /// under training and ext-TSP has nothing to optimize.
    pub fn total(&self) -> u64 {
        self.out
            .iter()
            .flat_map(|v| v.iter().map(|&(_, w)| w))
            .sum()
    }
}

/// What [`layout_function`] decided for one function.
#[derive(Clone, Debug)]
pub struct LayoutOutcome {
    /// ext-TSP score of the order the function arrived with (the greedy
    /// chainer's, when called from the pipeline).
    pub incumbent_score: u128,
    /// Score of the order the function left with. Always
    /// `>= incumbent_score`.
    pub final_score: u128,
    /// The block permutation applied (old ids in new storage order), or
    /// `None` when the incumbent was kept.
    pub applied: Option<Vec<BlockId>>,
}

/// Run the ext-TSP pass on one function: form profile-weighted chains
/// with lookahead, refine by bounded local search, and apply the result
/// — but only if it scores at least the incumbent order, so a caller
/// that laid out greedily first is guaranteed a score no worse than
/// greedy. Branch polarity is re-fixed after any permutation
/// ([`invert_branches`]), exactly as the greedy chainer does.
pub fn layout_function(
    f: &mut Function,
    weights: &EdgeWeights,
    params: &LayoutParams,
) -> LayoutOutcome {
    let n = f.blocks.len();
    let incumbent: Vec<BlockId> = f.block_ids().collect();
    let incumbent_score = score_order(f, weights, params, &incumbent);
    if n <= 2 || weights.total() == 0 {
        // One placement choice (entry is pinned) or no profile signal:
        // the incumbent stands.
        return LayoutOutcome {
            incumbent_score,
            final_score: incumbent_score,
            applied: None,
        };
    }
    let mut order = chain::form_chains(f, weights, params);
    refine::refine(f, weights, params, &mut order);
    let final_score = score_order(f, weights, params, &order);
    if final_score <= incumbent_score {
        return LayoutOutcome {
            incumbent_score,
            final_score: incumbent_score,
            applied: None,
        };
    }
    apply_order(f, &order);
    invert_branches(f);
    LayoutOutcome {
        incumbent_score,
        final_score,
        applied: Some(order),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::{Cond, FuncBuilder, Operand};

    /// Entry branches to `cold` (taken, weight 1) or `hot` (not-taken,
    /// weight 99), but blocks are stored entry, cold, hot: the greedy
    /// *structural* order already has cold adjacent. ext-TSP must move
    /// the hot arm into the fall-through slot.
    fn hot_cold() -> (Function, EdgeWeights) {
        let mut b = FuncBuilder::new("f");
        let x = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        let cold = b.new_block();
        let hot = b.new_block();
        b.cmp_branch(e, x, 0i64, Cond::Eq, cold, hot);
        b.copy(cold, x, 1i64);
        b.set_term(cold, Terminator::Return(Some(Operand::Reg(x))));
        b.copy(hot, x, 2i64);
        b.set_term(hot, Terminator::Return(Some(Operand::Reg(x))));
        let f = b.finish();
        let counts = [[100, 1], [1, 0], [99, 0]];
        let w = EdgeWeights::from_block_counts(&f, &counts);
        (f, w)
    }

    #[test]
    fn weights_split_branch_arms() {
        let (_f, w) = hot_cold();
        assert_eq!(
            w.edges_from(BlockId(0)),
            &[(BlockId(1), 1), (BlockId(2), 99)]
        );
        assert_eq!(w.total(), 100);
    }

    #[test]
    fn hot_arm_becomes_fall_through() {
        let (mut f, w) = hot_cold();
        let out = layout_function(&mut f, &w, &LayoutParams::default());
        assert!(out.applied.is_some(), "must improve on cold-adjacent");
        assert!(out.final_score > out.incumbent_score);
        // The hot block (old id 2) now sits right after the entry as the
        // not-taken fall-through; the heavy edge no longer pays a jump.
        match f.blocks[0].term {
            Terminator::Branch {
                taken, not_taken, ..
            } => {
                assert_eq!(not_taken, BlockId(1), "hot arm must fall through");
                assert_eq!(taken, BlockId(2));
            }
            ref t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn result_never_scores_below_incumbent() {
        let (mut f, w) = hot_cold();
        // Pre-apply the optimum, then ask again: nothing to gain, so the
        // incumbent must be kept verbatim.
        layout_function(&mut f, &w, &LayoutParams::default());
        let counts = [[100, 1], [99, 0], [1, 0]]; // ids permuted with blocks
        let w2 = EdgeWeights::from_block_counts(&f, &counts);
        let before = f.clone();
        let out = layout_function(&mut f, &w2, &LayoutParams::default());
        assert!(out.applied.is_none());
        assert_eq!(out.final_score, out.incumbent_score);
        assert_eq!(format!("{before:?}"), format!("{f:?}"));
    }

    #[test]
    fn zero_weight_functions_are_left_alone() {
        let (mut f, _) = hot_cold();
        let w = EdgeWeights::from_block_counts(&f, &[[0, 0], [0, 0], [0, 0]]);
        let out = layout_function(&mut f, &w, &LayoutParams::default());
        assert!(out.applied.is_none());
    }

    #[test]
    fn layout_preserves_semantics() {
        use br_vm::{run, VmOptions};
        let mut b = FuncBuilder::new("main");
        let x = b.new_reg();
        let e = b.entry();
        let neg = b.new_block();
        let pos = b.new_block();
        b.copy(e, x, -9i64);
        b.cmp_branch(e, x, 0i64, Cond::Ge, pos, neg);
        b.un(neg, br_ir::UnOp::Neg, x, x);
        b.set_term(neg, Terminator::Jump(pos));
        b.set_term(pos, Terminator::Return(Some(Operand::Reg(x))));
        let mut f = b.finish();
        let counts = [[1, 1], [1, 0], [1, 0]];
        let w = EdgeWeights::from_block_counts(&f, &counts);
        layout_function(&mut f, &w, &LayoutParams::default());
        br_ir::verify_function(&f, None).unwrap();
        let mut m = br_ir::Module::new();
        m.main = Some(m.add_function(f));
        assert_eq!(run(&m, b"", &VmOptions::default()).unwrap().exit, 9);
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in LayoutMode::ALL {
            assert_eq!(LayoutMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(LayoutMode::parse("bogus"), None);
    }
}
