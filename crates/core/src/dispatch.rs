//! Heuristic **Set IV** dispatch synthesis: planning and emitting
//! minimum-expected-cost comparison *trees* and bounds-checked *jump
//! tables* for a profiled range sequence, as alternatives to the
//! paper's Theorem 3 chain.
//!
//! The planners themselves live in [`br_opt::tree`] (the DP recurrence
//! and the dense-window table construction, scored under the
//! VM-measured [`CostModel`]). This module is the bridge between those
//! partition-level plans and the reordering pipeline:
//!
//! * [`plan_dispatch`] converts a sequence's [`OrderItem`]s (canonical
//!   [`crate::profile::plan_ranges`] indexing) into the sorted partition
//!   the planners want, and returns the cheaper of the tree and the
//!   table — or `None` when neither is plannable;
//! * [`check_dispatch`] structurally verifies a plan against the items
//!   (every value of every range must reach that range's exit), the
//!   Stage::Order counterpart of `check_ordering` for chains;
//! * [`emit_dispatch`] / [`apply_dispatch`] rebuild the sequence as the
//!   planned structure, reusing the chain emitter's conventions:
//!   cumulative side-effect bundles are duplicated onto exit pads
//!   (Theorem 2 en bloc), and the head is rewritten in place to enter
//!   the replica (Section 8).
//!
//! Set IV itself is *min-of-three*: the pipeline compares the plan
//! returned here against the chain ordering's cost — in the same unit,
//! one compare-and-branch test = 2.0 expected instructions — and keeps
//! the chain on ties. That comparison is what makes Set IV structurally
//! never worse than Set III on any profiled sequence.

use std::collections::HashMap;
use std::sync::OnceLock;

use br_ir::{Block, BlockId, Cond, Function, Inst, Operand, Reg, Terminator};
use br_opt::tree::{plan_table, plan_tree, CostModel, TablePlan, TreeItem, TreeNode, TreePlan};

use crate::detect::DetectedSequence;
use crate::emit::EmitResult;
use crate::order::{ItemSource, OrderItem, COST_EPSILON};

/// Which structure a sequence was rebuilt as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchStructure {
    /// The paper's chain of range conditions (Sets I–III, and Set IV
    /// when neither alternative beats it).
    Chain,
    /// A minimum-expected-cost comparison tree (DP-planned).
    Tree,
    /// A bounds-checked jump table over the dense window.
    Table,
}

impl DispatchStructure {
    /// Stable lowercase name (used by reports and artifacts).
    pub fn as_str(self) -> &'static str {
        match self {
            DispatchStructure::Chain => "chain",
            DispatchStructure::Tree => "tree",
            DispatchStructure::Table => "table",
        }
    }

    /// Parse [`DispatchStructure::as_str`] output.
    pub fn parse(s: &str) -> Option<DispatchStructure> {
        match s {
            "chain" => Some(DispatchStructure::Chain),
            "tree" => Some(DispatchStructure::Tree),
            "table" => Some(DispatchStructure::Table),
            _ => None,
        }
    }
}

impl std::fmt::Display for DispatchStructure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A planned non-chain dispatch structure with its expected cost.
#[derive(Clone, Debug, PartialEq)]
pub enum DispatchPlan {
    /// A DP-planned comparison tree.
    Tree(TreePlan),
    /// A dense-window jump table.
    Table(TablePlan),
}

impl DispatchPlan {
    /// Expected per-execution cost, in the chain planner's unit.
    pub fn cost(&self) -> f64 {
        match self {
            DispatchPlan::Tree(t) => t.cost,
            DispatchPlan::Table(t) => t.cost,
        }
    }

    /// The structure this plan builds.
    pub fn structure(&self) -> DispatchStructure {
        match self {
            DispatchPlan::Tree(_) => DispatchStructure::Tree,
            DispatchPlan::Table(_) => DispatchStructure::Table,
        }
    }
}

/// The process-wide Set IV cost model: measured from the VM once, then
/// cached (the measurement runs two micro-modules; results are
/// deterministic, so caching changes nothing but time).
pub fn cost_model() -> &'static CostModel {
    static MODEL: OnceLock<CostModel> = OnceLock::new();
    MODEL.get_or_init(CostModel::measured)
}

/// The sorted partition the planners consume: one [`TreeItem`] per order
/// item, `index` keeping the canonical plan indexing, `weight` the
/// profiled probability.
fn tree_items(items: &[OrderItem]) -> Vec<TreeItem> {
    let mut out: Vec<TreeItem> = items
        .iter()
        .enumerate()
        .map(|(i, it)| TreeItem::new(it.range.lo, it.range.hi, it.prob, i))
        .collect();
    out.sort_by_key(|t| t.lo);
    out
}

/// Plan the best non-chain dispatch for a sequence's items under the
/// process-wide measured model. Returns `None` when the partition is
/// too small to dispatch over (or, defensively, malformed).
pub fn plan_dispatch(items: &[OrderItem]) -> Option<DispatchPlan> {
    plan_dispatch_with(items, cost_model())
}

/// [`plan_dispatch`] under an explicit model (tests and ablations).
pub fn plan_dispatch_with(items: &[OrderItem], model: &CostModel) -> Option<DispatchPlan> {
    let sorted = tree_items(items);
    let tree = plan_tree(&sorted, model);
    let table = plan_table(&sorted, model);
    match (tree, table) {
        (Some(tr), Some(tb)) => Some(if tb.cost + COST_EPSILON < tr.cost {
            DispatchPlan::Table(tb)
        } else {
            DispatchPlan::Tree(tr)
        }),
        (Some(tr), None) => Some(DispatchPlan::Tree(tr)),
        (None, Some(tb)) => Some(DispatchPlan::Table(tb)),
        (None, None) => None,
    }
}

/// Structurally verify a dispatch plan against the sequence's items:
/// every value of every range must be routed to that range's own exit.
/// This is the Stage::Order check for Set IV structures — it validates
/// the *plan*, before any code is emitted.
///
/// # Errors
///
/// Returns one description per routing defect found.
pub fn check_dispatch(items: &[OrderItem], plan: &DispatchPlan) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    match plan {
        DispatchPlan::Tree(t) => {
            for (i, item) in items.iter().enumerate() {
                check_tree_route(&t.root, item, i, &mut problems);
            }
        }
        DispatchPlan::Table(t) => {
            let span = t.limit as i128 - t.base as i128 + 1;
            if span < 1 || span != t.slots.len() as i128 {
                problems.push(format!(
                    "table window [{}, {}] disagrees with its {} slots",
                    t.base,
                    t.limit,
                    t.slots.len()
                ));
            } else {
                for (k, &idx) in t.slots.iter().enumerate() {
                    let v = t.base + k as i64;
                    match items.get(idx) {
                        Some(item) if item.range.contains(v) => {}
                        _ => problems.push(format!("slot for {v} routed to item {idx}")),
                    }
                }
            }
            match items.get(t.below) {
                Some(item) if item.range.lo == i64::MIN && item.range.hi == t.base - 1 => {}
                _ => problems.push(format!("below-window exit routed to item {}", t.below)),
            }
            match items.get(t.above) {
                Some(item) if item.range.hi == i64::MAX && item.range.lo == t.limit + 1 => {}
                _ => problems.push(format!("above-window exit routed to item {}", t.above)),
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Walk `item`'s whole range down the tree; it must land on its own leaf
/// without ever straddling a test.
fn check_tree_route(node: &TreeNode, item: &OrderItem, index: usize, problems: &mut Vec<String>) {
    match node {
        TreeNode::Leaf { item: leaf } => {
            if *leaf != index {
                problems.push(format!(
                    "range {:?} of item {index} reaches the leaf of item {leaf}",
                    item.range
                ));
            }
        }
        TreeNode::Le {
            boundary,
            below,
            above,
        } => {
            if item.range.hi <= *boundary {
                check_tree_route(below, item, index, problems);
            } else if item.range.lo > *boundary {
                check_tree_route(above, item, index, problems);
            } else {
                problems.push(format!(
                    "range {:?} of item {index} straddles the split at {boundary}",
                    item.range
                ));
            }
        }
        TreeNode::Eq { value, hit, miss } => {
            if item.range.is_single() && item.range.lo == *value {
                if *hit != index {
                    problems.push(format!(
                        "equality on {value} hits item {hit}, expected item {index}"
                    ));
                }
            } else if item.range.contains(*value) {
                problems.push(format!(
                    "range {:?} of item {index} straddles the equality test on {value}",
                    item.range
                ));
            } else {
                check_tree_route(miss, item, index, problems);
            }
        }
    }
}

/// Exit-pad factory shared by both emitters: an exit edge for item
/// `idx` is the item's target directly when its side-effect bundle is
/// empty, else a pad block running the bundle first — memoized so a
/// table's many window slots share one pad per item.
struct ExitPads<'a> {
    items: &'a [OrderItem],
    flat_bundle: Vec<Inst>,
    cumulative: Vec<usize>,
    pads: HashMap<usize, BlockId>,
}

impl<'a> ExitPads<'a> {
    fn new(seq: &DetectedSequence, items: &'a [OrderItem]) -> ExitPads<'a> {
        // Cumulative side-effect bundles, exactly as the chain emitter
        // builds them: bundle(j) = side effects of conditions 1..=j (the
        // head's own prefix stays at the sequence entry).
        let mut cumulative = Vec::with_capacity(seq.conds.len());
        let mut flat_bundle: Vec<Inst> = Vec::new();
        for (j, c) in seq.conds.iter().enumerate() {
            if j > 0 {
                flat_bundle.extend(c.side_effects.iter().cloned());
            }
            cumulative.push(flat_bundle.len());
        }
        ExitPads {
            items,
            flat_bundle,
            cumulative,
            pads: HashMap::new(),
        }
    }

    fn exit(&mut self, f: &mut Function, idx: usize) -> BlockId {
        if let Some(&pad) = self.pads.get(&idx) {
            return pad;
        }
        let item = &self.items[idx];
        let end = match item.source {
            ItemSource::Explicit(j) => self.cumulative[j],
            ItemSource::Default(_) => self.flat_bundle.len(),
        };
        let block = if end == 0 {
            item.target
        } else {
            let pad = f.add_block(Block::new(Terminator::Jump(item.target)));
            f.block_mut(pad).insts = self.flat_bundle[..end].to_vec();
            pad
        };
        self.pads.insert(idx, block);
        block
    }
}

/// Emit the planned dispatch structure into `f`, returning its entry
/// block and branch/compare counts. Like the chain emitter, the
/// original blocks are left untouched; the caller rewires the head and
/// dead-code elimination reclaims the rest.
pub fn emit_dispatch(
    f: &mut Function,
    seq: &DetectedSequence,
    items: &[OrderItem],
    plan: &DispatchPlan,
) -> EmitResult {
    let mut pads = ExitPads::new(seq, items);
    match plan {
        DispatchPlan::Tree(t) => {
            let mut counts = (0u32, 0u32);
            let entry = emit_tree(f, seq.var, &t.root, &mut pads, &mut counts);
            EmitResult {
                entry,
                branches: counts.0,
                compares: counts.1,
            }
        }
        DispatchPlan::Table(t) => emit_table(f, seq.var, t, &mut pads),
    }
}

/// Emit a tree node: leaves become exit edges, inner nodes one
/// compare-and-branch block each.
fn emit_tree(
    f: &mut Function,
    var: Reg,
    node: &TreeNode,
    pads: &mut ExitPads<'_>,
    counts: &mut (u32, u32),
) -> BlockId {
    match node {
        TreeNode::Leaf { item } => pads.exit(f, *item),
        TreeNode::Le {
            boundary,
            below,
            above,
        } => {
            let taken = emit_tree(f, var, below, pads, counts);
            let not_taken = emit_tree(f, var, above, pads, counts);
            counts.0 += 1;
            counts.1 += 1;
            let b = f.add_block(Block::new(Terminator::branch(Cond::Le, taken, not_taken)));
            f.block_mut(b).insts.push(Inst::Cmp {
                lhs: Operand::Reg(var),
                rhs: Operand::Imm(*boundary),
            });
            b
        }
        TreeNode::Eq { value, hit, miss } => {
            let taken = pads.exit(f, *hit);
            let not_taken = emit_tree(f, var, miss, pads, counts);
            counts.0 += 1;
            counts.1 += 1;
            let b = f.add_block(Block::new(Terminator::branch(Cond::Eq, taken, not_taken)));
            f.block_mut(b).insts.push(Inst::Cmp {
                lhs: Operand::Reg(var),
                rhs: Operand::Imm(*value),
            });
            b
        }
    }
}

/// Emit a bounds-checked jump table: two guarding tests, then an index
/// subtract into a fresh temporary and an indirect jump through one
/// target slot per window value (slots of the same item share a pad).
fn emit_table(f: &mut Function, var: Reg, plan: &TablePlan, pads: &mut ExitPads<'_>) -> EmitResult {
    let below = pads.exit(f, plan.below);
    let above = pads.exit(f, plan.above);
    let mut targets = Vec::with_capacity(plan.slots.len());
    for &idx in &plan.slots {
        targets.push(pads.exit(f, idx));
    }
    let temp = f.new_reg();
    let dispatch = f.add_block(Block::new(Terminator::IndirectJump {
        index: temp,
        targets,
    }));
    f.block_mut(dispatch).insts.push(Inst::Bin {
        op: br_ir::BinOp::Sub,
        dst: temp,
        lhs: Operand::Reg(var),
        rhs: Operand::Imm(plan.base),
    });
    let upper = f.add_block(Block::new(Terminator::branch(Cond::Gt, above, dispatch)));
    f.block_mut(upper).insts.push(Inst::Cmp {
        lhs: Operand::Reg(var),
        rhs: Operand::Imm(plan.limit),
    });
    let lower = f.add_block(Block::new(Terminator::branch(Cond::Lt, below, upper)));
    f.block_mut(lower).insts.push(Inst::Cmp {
        lhs: Operand::Reg(var),
        rhs: Operand::Imm(plan.base),
    });
    EmitResult {
        entry: lower,
        branches: 2,
        compares: 2,
    }
}

/// Splice the planned dispatch replica of `seq` into `f`: emit, then
/// rewrite the head in place exactly like `apply_reordering`.
pub fn apply_dispatch(
    f: &mut Function,
    seq: &DetectedSequence,
    items: &[OrderItem],
    plan: &DispatchPlan,
) -> EmitResult {
    let result = emit_dispatch(f, seq, items, plan);
    crate::apply::splice_head(f, seq.head, result.entry);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_sequences;
    use crate::profile::{order_items, SequenceProfile};
    use br_ir::{FuncBuilder, Module};
    use br_vm::{run, VmOptions};

    /// A classify loop over `n` consecutive singleton cases starting at
    /// `'a'`: `if (c=='a') acc+=1; else if (c=='b') acc+=2; ...` with a
    /// distinct weight per case, looping on getchar until EOF.
    fn dense_classifier(n: usize) -> Module {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("main");
        let c = b.new_reg();
        let acc = b.new_reg();
        let e = b.entry();
        let head = b.new_block();
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
        // Sequence: c == -1 -> quit, then the n cases, default loops.
        let mut cur = head;
        let mut next = b.new_block();
        b.cmp_branch(cur, c, -1i64, Cond::Eq, quit, next);
        for i in 0..n {
            cur = next;
            next = b.new_block();
            let t = b.new_block();
            b.cmp_branch(cur, c, b'a' as i64 + i as i64, Cond::Eq, t, next);
            b.bin(t, br_ir::BinOp::Add, acc, acc, (i + 1) as i64);
            b.set_term(t, Terminator::Jump(head));
        }
        // Default: acc += 1000, loop.
        b.bin(next, br_ir::BinOp::Add, acc, acc, 1000i64);
        b.set_term(next, Terminator::Jump(head));
        b.set_term(quit, Terminator::Return(Some(Operand::Reg(acc))));
        m.main = Some(m.add_function(b.finish()));
        m
    }

    fn seq_and_items(f: &Function, counts: Vec<u64>) -> (DetectedSequence, Vec<OrderItem>) {
        let seq = detect_sequences(f).remove(0);
        let items = order_items(&seq, &SequenceProfile { counts });
        (seq, items)
    }

    /// Flat counts over the dense classifier's plan ranges: EOF once,
    /// each case `w`, the below/above defaults lightly.
    fn flat_counts(n: usize, w: u64) -> Vec<u64> {
        // plan: [-1], ['a'], ['a'+1], ..., then defaults ascending.
        let mut counts = vec![1u64];
        counts.extend(std::iter::repeat_n(w, n));
        // defaults: [..-2], [0..96], ['a'+n..] — complement of the above.
        counts.extend([0, 2, 2]);
        counts
    }

    #[test]
    fn flat_dense_sequence_plans_a_table() {
        let m = dense_classifier(30);
        let (_, items) = seq_and_items(&m.functions[0], flat_counts(30, 10));
        let plan = plan_dispatch_with(&items, &CostModel::reference()).expect("plannable");
        assert_eq!(plan.structure(), DispatchStructure::Table);
        check_dispatch(&items, &plan).expect("plan routes correctly");
    }

    #[test]
    fn skewed_sequence_plans_a_tree() {
        let m = dense_classifier(30);
        let mut counts = flat_counts(30, 1);
        counts[15] = 500; // one hot interior case
        let (_, items) = seq_and_items(&m.functions[0], counts);
        let plan = plan_dispatch_with(&items, &CostModel::reference()).expect("plannable");
        assert_eq!(plan.structure(), DispatchStructure::Tree);
        check_dispatch(&items, &plan).expect("plan routes correctly");
    }

    #[test]
    fn table_dispatch_preserves_behaviour() {
        let m = dense_classifier(30);
        let input: Vec<u8> = (0..600).map(|i| b'a' + (i % 30) as u8).collect();
        let base = run(&m, &input, &VmOptions::default()).unwrap();
        let mut out = m.clone();
        {
            let f = &mut out.functions[0];
            let (seq, items) = seq_and_items(f, flat_counts(30, 20));
            let plan = plan_dispatch_with(&items, &CostModel::reference()).unwrap();
            assert_eq!(plan.structure(), DispatchStructure::Table);
            let r = apply_dispatch(f, &seq, &items, &plan);
            assert_eq!(r.branches, 2);
            br_opt::cleanup_function(f);
        }
        br_ir::verify_module(&out).unwrap();
        let got = run(&out, &input, &VmOptions::default()).unwrap();
        assert_eq!(base.exit, got.exit);
        assert_eq!(base.output, got.output);
        assert!(got.stats.indirect_jumps > 0, "table must actually dispatch");
        assert!(
            got.stats.cond_branches < base.stats.cond_branches,
            "flat 30-way dispatch must cut branches: {} -> {}",
            base.stats.cond_branches,
            got.stats.cond_branches
        );
    }

    #[test]
    fn tree_dispatch_preserves_behaviour() {
        let m = dense_classifier(8);
        let input: Vec<u8> = (0..400).map(|i| b'a' + (i % 8) as u8).collect();
        let base = run(&m, &input, &VmOptions::default()).unwrap();
        let mut out = m.clone();
        {
            let f = &mut out.functions[0];
            let (seq, items) = seq_and_items(f, flat_counts(8, 20));
            let plan = plan_dispatch_with(&items, &CostModel::reference()).unwrap();
            assert_eq!(plan.structure(), DispatchStructure::Tree);
            apply_dispatch(f, &seq, &items, &plan);
            br_opt::cleanup_function(f);
        }
        br_ir::verify_module(&out).unwrap();
        let got = run(&out, &input, &VmOptions::default()).unwrap();
        assert_eq!(base.exit, got.exit);
        assert_eq!(base.output, got.output);
    }

    #[test]
    fn dispatch_duplicates_side_effect_bundles() {
        // A sequence with an intervening store: exits past it must run
        // it exactly once, whatever the structure.
        let mut b = FuncBuilder::new("f");
        let v = b.new_reg();
        let x = b.new_reg();
        b.set_param_regs(vec![v, x]);
        let e = b.entry();
        let c2 = b.new_block();
        let t1 = b.new_block();
        let t2 = b.new_block();
        let td = b.new_block();
        b.cmp_branch(e, v, 1i64, Cond::Eq, t1, c2);
        b.store(c2, 500i64, 0i64, x);
        b.cmp_branch(c2, v, 2i64, Cond::Eq, t2, td);
        for t in [t1, t2, td] {
            b.set_term(t, Terminator::Return(None));
        }
        let mut f = b.finish();
        let before = f.blocks.len();
        let (seq, items) = seq_and_items(&f, vec![3, 3, 1, 1]);
        let plan = plan_dispatch_with(&items, &CostModel::reference()).unwrap();
        check_dispatch(&items, &plan).unwrap();
        emit_dispatch(&mut f, &seq, &items, &plan);
        let stores = f.blocks[before..]
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Store { .. }))
            .count();
        assert!(stores >= 1, "side effect must reach the replica's pads");
        br_ir::verify_function(&f, None).unwrap();
    }

    #[test]
    fn check_dispatch_rejects_corrupted_plans() {
        let m = dense_classifier(10);
        let (_, items) = seq_and_items(&m.functions[0], flat_counts(10, 5));
        let plan = plan_dispatch_with(&items, &CostModel::reference()).unwrap();
        match plan {
            DispatchPlan::Table(mut t) => {
                t.slots.swap(0, 1);
                let bad = DispatchPlan::Table(t);
                assert!(check_dispatch(&items, &bad).is_err());
            }
            DispatchPlan::Tree(mut t) => {
                if let TreeNode::Le { below, above, .. } = &mut t.root {
                    std::mem::swap(below, above);
                }
                let bad = DispatchPlan::Tree(t);
                assert!(check_dispatch(&items, &bad).is_err());
            }
        }
    }

    #[test]
    fn structure_names_round_trip() {
        for s in [
            DispatchStructure::Chain,
            DispatchStructure::Tree,
            DispatchStructure::Table,
        ] {
            assert_eq!(DispatchStructure::parse(s.as_str()), Some(s));
        }
        assert_eq!(DispatchStructure::parse("ladder"), None);
    }

    #[test]
    fn cost_model_is_cached_and_sane() {
        let a = cost_model();
        let b = cost_model();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.test_units, 2.0);
        assert!(a.table_units > 0.0);
    }
}
