//! Emitting the replicated, reordered sequence (the paper's Sections 7–8).
//!
//! The reordered sequence is rebuilt from ranges rather than moved
//! block-by-block:
//!
//! * every explicit range becomes one or two compare/branch blocks, in
//!   the selected order;
//! * a bounded (Form 4) range emits its two branches in the order most
//!   likely to disqualify early, using the profile of the ranges still
//!   remaining at that point (Section 7);
//! * compares redundant with the incoming condition codes are elided,
//!   choosing among equivalent encodings of each test (`v >= c+1` vs
//!   `v > c`) to maximize sharing (Figure 9);
//! * intervening side effects are duplicated onto the exit edges that
//!   need them (Theorem 2 applied en bloc);
//! * the fall-through path duplicates straight-line code from the default
//!   target so the reordered sequence adds no unconditional jump
//!   (Section 8).

use br_ir::{Block, BlockId, Cond, Function, Inst, Operand, Terminator};

use crate::detect::DetectedSequence;
use crate::order::{ItemSource, OrderItem, Ordering};
use crate::range::Range;

/// Cap on instructions duplicated from the default target's tail.
const MAX_TAIL_INSTS: usize = 24;

/// What emission produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmitResult {
    /// Entry block of the replicated sequence.
    pub entry: BlockId,
    /// Conditional branches in the replicated sequence (the paper's
    /// "reordered sequence length").
    pub branches: u32,
    /// Compares actually emitted (lower than `branches` when redundant
    /// comparisons were eliminated).
    pub compares: u32,
}

/// Destination of a branch when it is satisfied.
enum TrueDest {
    /// Exit the sequence to `target`, running `bundle` on the way.
    Exit { target: BlockId, bundle: BundleRef },
    /// Skip to the next item (a Form 4 disqualifying branch).
    NextItem,
}

/// Which cumulative side-effect bundle an exit needs.
#[derive(Clone, Copy)]
enum BundleRef {
    /// Bundle of the original condition `j` (side effects of conditions
    /// `1..=j`).
    UpTo(usize),
    /// Every side effect of the sequence.
    All,
}

/// One branch to emit: equivalent `(constant, condition)` encodings (any
/// of them tests the same predicate on the variable) plus the true-side
/// destination.
struct BranchSpec {
    options: Vec<(i64, Cond)>,
    true_dest: TrueDest,
    /// Index of the item this spec belongs to (for item boundaries).
    item_pos: usize,
}

/// Encodings of "exit when `v` is in `range`" for single-branch forms.
fn single_branch_options(range: &Range) -> Vec<(i64, Cond)> {
    if range.is_single() {
        vec![(range.lo, Cond::Eq)]
    } else if range.lo == i64::MIN {
        // [.., h]: v <= h, or v < h+1.
        let mut o = vec![(range.hi, Cond::Le)];
        if let Some(h1) = range.hi.checked_add(1) {
            o.push((h1, Cond::Lt));
        }
        o
    } else {
        // [l, ..]: v >= l, or v > l-1.
        debug_assert_eq!(range.hi, i64::MAX);
        let mut o = vec![(range.lo, Cond::Ge)];
        if let Some(l1) = range.lo.checked_sub(1) {
            o.push((l1, Cond::Gt));
        }
        o
    }
}

/// Encodings of the Form 4 branches for `[l..h]`.
fn below_disqualify(l: i64) -> Vec<(i64, Cond)> {
    let mut o = vec![(l, Cond::Lt)];
    if let Some(l1) = l.checked_sub(1) {
        o.push((l1, Cond::Le));
    }
    o
}

fn above_disqualify(h: i64) -> Vec<(i64, Cond)> {
    let mut o = vec![(h, Cond::Gt)];
    if let Some(h1) = h.checked_add(1) {
        o.push((h1, Cond::Ge));
    }
    o
}

fn upper_qualify(h: i64) -> Vec<(i64, Cond)> {
    let mut o = vec![(h, Cond::Le)];
    if let Some(h1) = h.checked_add(1) {
        o.push((h1, Cond::Lt));
    }
    o
}

fn lower_qualify(l: i64) -> Vec<(i64, Cond)> {
    let mut o = vec![(l, Cond::Ge)];
    if let Some(l1) = l.checked_sub(1) {
        o.push((l1, Cond::Gt));
    }
    o
}

/// Form 4 (a bounded range of several values) takes two branches. Which
/// goes first is the one more likely to disqualify, judged from the
/// ranges that can still be live after explicit position `pos` (later
/// explicit items and the eliminated ones): `true` tests the lower bound
/// first. This is the only place emission reads probabilities, so a
/// key for "the same replica" must include it.
pub fn form4_below_first(items: &[OrderItem], ordering: &Ordering, pos: usize) -> bool {
    let range = items[ordering.explicit[pos]].range;
    let remaining = ordering.explicit[pos + 1..]
        .iter()
        .chain(&ordering.eliminated);
    let (mut below, mut above) = (0.0f64, 0.0f64);
    for &r in remaining {
        if items[r].range.hi < range.lo {
            below += items[r].prob;
        } else if items[r].range.lo > range.hi {
            above += items[r].prob;
        }
    }
    below >= above
}

/// Emit the replicated, reordered sequence into `f`, returning its entry
/// block. The original blocks are left untouched (the caller rewires the
/// head; dead-code elimination reclaims the rest).
pub fn emit_reordered(
    f: &mut Function,
    seq: &DetectedSequence,
    items: &[OrderItem],
    ordering: &Ordering,
) -> EmitResult {
    let var = seq.var;
    // Cumulative side-effect bundles: bundle(j) = side effects of
    // conditions 1..=j (the head's prefix stays at the sequence entry).
    let mut cumulative: Vec<usize> = Vec::with_capacity(seq.conds.len());
    let mut flat_bundle: Vec<Inst> = Vec::new();
    for (j, c) in seq.conds.iter().enumerate() {
        if j > 0 {
            flat_bundle.extend(c.side_effects.iter().cloned());
        }
        cumulative.push(flat_bundle.len());
    }
    let bundle_insts = |r: BundleRef| -> &[Inst] {
        match r {
            BundleRef::UpTo(j) => &flat_bundle[..cumulative[j]],
            BundleRef::All => &flat_bundle,
        }
    };

    // Build the branch specs in emission order.
    let mut specs: Vec<BranchSpec> = Vec::new();
    let mut item_first_spec: Vec<usize> = Vec::new();
    for (pos, &idx) in ordering.explicit.iter().enumerate() {
        let item = &items[idx];
        let bundle = match item.source {
            ItemSource::Explicit(j) => BundleRef::UpTo(j),
            ItemSource::Default(_) => BundleRef::All,
        };
        item_first_spec.push(specs.len());
        let exit = TrueDest::Exit {
            target: item.target,
            bundle,
        };
        if item.range.is_bounded_multi() {
            if form4_below_first(items, ordering, pos) {
                specs.push(BranchSpec {
                    options: below_disqualify(item.range.lo),
                    true_dest: TrueDest::NextItem,
                    item_pos: pos,
                });
                specs.push(BranchSpec {
                    options: upper_qualify(item.range.hi),
                    true_dest: exit,
                    item_pos: pos,
                });
            } else {
                specs.push(BranchSpec {
                    options: above_disqualify(item.range.hi),
                    true_dest: TrueDest::NextItem,
                    item_pos: pos,
                });
                specs.push(BranchSpec {
                    options: lower_qualify(item.range.lo),
                    true_dest: exit,
                    item_pos: pos,
                });
            }
        } else if item.range == Range::full() {
            // Degenerate: an unconditional exit. Represented as a spec
            // with an always-true compare (v == v is not expressible, so
            // use the fall-through machinery instead: empty options).
            specs.push(BranchSpec {
                options: Vec::new(),
                true_dest: exit,
                item_pos: pos,
            });
        } else {
            specs.push(BranchSpec {
                options: single_branch_options(&item.range),
                true_dest: exit,
                item_pos: pos,
            });
        }
    }
    item_first_spec.push(specs.len()); // sentinel

    // Allocate the chain blocks up front so fall-through edges are known.
    let spec_blocks: Vec<BlockId> = specs
        .iter()
        .map(|_| f.add_block(Block::new(Terminator::Return(None))))
        .collect();
    let fall_block = f.add_block(Block::new(Terminator::Return(None)));

    // An exit edge: direct when its bundle is empty, else through a pad.
    let make_exit = |f: &mut Function, target: BlockId, bundle: BundleRef| -> BlockId {
        let insts = bundle_insts(bundle);
        if insts.is_empty() {
            target
        } else {
            let pad = f.add_block(Block::new(Terminator::Jump(target)));
            f.block_mut(pad).insts = insts.to_vec();
            pad
        }
    };

    let mut branches = 0u32;
    let mut compares = 0u32;
    // Constant of the compare governing the condition codes on the
    // linear fall-through path into the current spec; None when unknown
    // or when merge paths disagree.
    let mut last_cmp: Option<i64> = None;
    // Pending Form 4 merge: constant on the disqualifying branch's path
    // to the next item, to reconcile with the qualifying branch's
    // fall-through constant.
    let mut merge_pending: Option<Option<i64>> = None;
    let mut i = 0usize;
    while i < specs.len() {
        let spec = &specs[i];
        let this_block = spec_blocks[i];
        let next_spec_block = spec_blocks.get(i + 1).copied().unwrap_or(fall_block);
        let next_item_block = {
            let next_item = spec.item_pos + 1;
            let first = item_first_spec[next_item.min(item_first_spec.len() - 1)];
            spec_blocks.get(first).copied().unwrap_or(fall_block)
        };
        if spec.options.is_empty() {
            // Unconditional exit (full-range item).
            let TrueDest::Exit { target, bundle } = spec.true_dest else {
                unreachable!("only exits can be unconditional");
            };
            let pad = make_exit(f, target, bundle);
            f.block_mut(this_block).term = Terminator::Jump(pad);
            i += 1;
            continue;
        }
        // Pick an encoding: reuse the incoming compare when possible,
        // otherwise prefer a constant the *next* spec could reuse.
        let chosen = spec
            .options
            .iter()
            .find(|(c, _)| Some(*c) == last_cmp)
            .or_else(|| {
                let next_opts: &[(i64, Cond)] = specs
                    .get(i + 1)
                    .map(|s| s.options.as_slice())
                    .unwrap_or(&[]);
                spec.options
                    .iter()
                    .find(|(c, _)| next_opts.iter().any(|(nc, _)| nc == c))
            })
            .unwrap_or(&spec.options[0]);
        let (konst, cond) = *chosen;
        let elided = Some(konst) == last_cmp;
        if !elided {
            f.block_mut(this_block).insts.push(Inst::Cmp {
                lhs: Operand::Reg(var),
                rhs: Operand::Imm(konst),
            });
            compares += 1;
        }
        branches += 1;
        let taken = match spec.true_dest {
            TrueDest::Exit { target, bundle } => make_exit(f, target, bundle),
            TrueDest::NextItem => next_item_block,
        };
        f.block_mut(this_block).term = Terminator::Branch {
            cond,
            taken,
            not_taken: next_spec_block,
        };
        // Track condition codes along the fall-through path, accounting
        // for the NextItem merge of Form 4 pairs: the disqualifying
        // branch joins the fall-through of the qualifying branch at the
        // next item, so the merged state is only known when both paths
        // carry the same compare constant.
        let after = Some(konst);
        if matches!(spec.true_dest, TrueDest::NextItem) {
            // Emit the partner spec now with `after` as its input; the
            // merge at the next item is resolved below.
            last_cmp = after;
            let partner = i + 1;
            debug_assert_eq!(specs[partner].item_pos, spec.item_pos);
            // Process partner in the next loop iteration; remember the
            // disqualify-path constant to merge afterwards.
            merge_pending = Some(after);
            i += 1;
            continue;
        }
        // Resolve a pending Form 4 merge: the next block is reached both
        // from the disqualifying branch and from this fall-through.
        if let Some(disq) = merge_pending.take() {
            last_cmp = if disq == after { after } else { None };
        } else {
            last_cmp = after;
        }
        i += 1;
    }

    // Fall-through: all side effects, then duplicated straight-line code
    // from the default target.
    f.block_mut(fall_block).insts = flat_bundle.clone();
    duplicate_tail(f, fall_block, ordering.default_target);

    let entry = spec_blocks.first().copied().unwrap_or(fall_block);
    EmitResult {
        entry,
        branches,
        compares,
    }
}

/// Duplicate straight-line code from `target` into `pad` until an
/// unconditional jump, return, or indirect jump (the paper's Section 8),
/// bounded by [`MAX_TAIL_INSTS`].
fn duplicate_tail(f: &mut Function, pad: BlockId, target: BlockId) {
    let mut budget = MAX_TAIL_INSTS;
    let mut visited = vec![target];
    let mut cur = target;
    let mut host = pad;
    loop {
        let block = f.block(cur).clone();
        if block.insts.len() > budget {
            f.block_mut(host).term = Terminator::Jump(cur);
            return;
        }
        budget -= block.insts.len();
        f.block_mut(host).insts.extend(block.insts);
        match block.term {
            Terminator::Branch {
                cond,
                taken,
                not_taken,
            } => {
                if visited.contains(&not_taken) {
                    // A cycle along the fall-through path; stop cleanly.
                    f.block_mut(host).term = Terminator::Jump(cur);
                    return;
                }
                let next_host = f.add_block(Block::new(Terminator::Return(None)));
                f.block_mut(host).term = Terminator::Branch {
                    cond,
                    taken,
                    not_taken: next_host,
                };
                visited.push(not_taken);
                cur = not_taken;
                host = next_host;
            }
            term @ (Terminator::Jump(_)
            | Terminator::Return(_)
            | Terminator::IndirectJump { .. }) => {
                f.block_mut(host).term = term;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_sequences;
    use crate::order::select_ordering;
    use crate::profile::{order_items, plan_ranges, SequenceProfile};
    use br_ir::FuncBuilder;

    /// v == 5 -> T1; v >= 100 -> T2; default TD. No side effects.
    fn two_cond_function() -> Function {
        let mut b = FuncBuilder::new("f");
        let v = b.new_reg();
        b.set_param_regs(vec![v]);
        let e = b.entry();
        let c2 = b.new_block();
        let t1 = b.new_block();
        let t2 = b.new_block();
        let td = b.new_block();
        b.cmp_branch(e, v, 5i64, br_ir::Cond::Eq, t1, c2);
        b.cmp_branch(c2, v, 100i64, br_ir::Cond::Ge, t2, td);
        for t in [t1, t2, td] {
            b.set_term(t, Terminator::Return(Some(Operand::Imm(t.0 as i64))));
        }
        b.finish()
    }

    fn emit_with_counts(f: &mut Function, counts: Vec<u64>) -> EmitResult {
        let seq = detect_sequences(f).remove(0);
        let items = order_items(&seq, &SequenceProfile { counts });
        let targets: Vec<BlockId> = {
            let mut t: Vec<BlockId> = seq.conds.iter().map(|c| c.target).collect();
            t.push(seq.default_target);
            t.sort();
            t.dedup();
            t
        };
        let elim = vec![true; items.len()];
        let ordering = select_ordering(&items, &targets, &elim, seq.default_target);
        emit_reordered(f, &seq, &items, &ordering)
    }

    #[test]
    fn emits_verifiable_chain() {
        let mut f = two_cond_function();
        // ranges: [5], [100..], defaults [..4], [6..99].
        let r = emit_with_counts(&mut f, vec![10, 5, 1, 1]);
        assert!(r.branches >= 1);
        assert!(r.compares <= r.branches);
        br_ir::verify_function(&f, None).expect("chain verifies");
        // Entry must be one of the freshly appended blocks.
        assert!(r.entry.index() >= 5);
    }

    #[test]
    fn redundant_comparisons_are_elided_figure_9() {
        // Adjacent ranges [6..] (as v > 5) and [5] (v == 5) share the
        // constant 5: the second compare must be elided.
        let mut b = FuncBuilder::new("f");
        let v = b.new_reg();
        b.set_param_regs(vec![v]);
        let e = b.entry();
        let c2 = b.new_block();
        let t1 = b.new_block();
        let t2 = b.new_block();
        let td = b.new_block();
        b.cmp_branch(e, v, 6i64, br_ir::Cond::Ge, t1, c2); // [6..]
        b.cmp_branch(c2, v, 5i64, br_ir::Cond::Eq, t2, td); // [5]
        for t in [t1, t2, td] {
            b.set_term(t, Terminator::Return(Some(Operand::Imm(1))));
        }
        let mut f = b.finish();
        // Profile keeps the original order optimal: [6..] hottest.
        // ranges: [6..], [5], defaults [..4]. Eliminating nothing forces
        // both explicit; check compare sharing kicks in.
        let r = emit_with_counts(&mut f, vec![100, 50, 10]);
        assert!(
            r.compares < r.branches,
            "expected at least one elided compare: {} vs {}",
            r.compares,
            r.branches
        );
        br_ir::verify_function(&f, None).expect("verifies with shared cc");
    }

    #[test]
    fn bounded_item_emits_two_branches() {
        let mut b = FuncBuilder::new("f");
        let v = b.new_reg();
        b.set_param_regs(vec![v]);
        let e = b.entry();
        let hi = b.new_block();
        let c2 = b.new_block();
        let t1 = b.new_block();
        let t2 = b.new_block();
        let td = b.new_block();
        b.cmp_branch(e, v, 10i64, br_ir::Cond::Lt, c2, hi);
        b.cmp_branch(hi, v, 20i64, br_ir::Cond::Gt, c2, t1); // [10..20]
        b.cmp_branch(c2, v, 0i64, br_ir::Cond::Eq, t2, td);
        for t in [t1, t2, td] {
            b.set_term(t, Terminator::Return(None));
        }
        let mut f = b.finish();
        // [10..20] hot, [0] cold, defaults colder.
        let r = emit_with_counts(&mut f, vec![100, 5, 1, 1, 1]);
        // Bounded range needs 2 branches; chain emits it first.
        assert!(r.branches >= 3);
        br_ir::verify_function(&f, None).unwrap();
    }

    #[test]
    fn side_effect_bundles_appear_on_exit_pads() {
        // Sequence with one intervening side effect (a store): the
        // second condition's exits must run it, the first's must not.
        let mut b = FuncBuilder::new("f");
        let v = b.new_reg();
        let x = b.new_reg();
        b.set_param_regs(vec![v, x]);
        let e = b.entry();
        let c2 = b.new_block();
        let t1 = b.new_block();
        let t2 = b.new_block();
        let td = b.new_block();
        b.cmp_branch(e, v, 1i64, br_ir::Cond::Eq, t1, c2);
        b.store(c2, 500i64, 0i64, x); // movable side effect
        b.cmp_branch(c2, v, 2i64, br_ir::Cond::Eq, t2, td);
        for t in [t1, t2, td] {
            b.set_term(t, Terminator::Return(None));
        }
        let mut f = b.finish();
        let before_blocks = f.blocks.len();
        let seq = detect_sequences(&f).remove(0);
        let items = order_items(
            &seq,
            &SequenceProfile {
                counts: vec![1, 5, 1, 1],
            },
        );
        let elim = crate::pipeline::eliminable_items(&seq, &items);
        let ordering = select_ordering(&items, &[seq.default_target], &elim, seq.default_target);
        emit_reordered(&mut f, &seq, &items, &ordering);
        // Some pad block must carry the duplicated store.
        let stores_in_new_blocks = f.blocks[before_blocks..]
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Store { .. }))
            .count();
        assert!(
            stores_in_new_blocks >= 1,
            "side effect must be duplicated into the replica"
        );
        br_ir::verify_function(&f, None).unwrap();
    }

    #[test]
    fn tail_duplication_absorbs_straight_line_code() {
        // Default target has a small body ending in a return: the
        // fall-through block should absorb it rather than jump to it.
        let mut b = FuncBuilder::new("f");
        let v = b.new_reg();
        b.set_param_regs(vec![v]);
        let e = b.entry();
        let c2 = b.new_block();
        let t1 = b.new_block();
        let t2 = b.new_block();
        let td = b.new_block();
        b.cmp_branch(e, v, 1i64, br_ir::Cond::Eq, t1, c2);
        b.cmp_branch(c2, v, 2i64, br_ir::Cond::Eq, t2, td);
        b.set_term(t1, Terminator::Return(None));
        b.set_term(t2, Terminator::Return(None));
        let tmp = b.new_reg();
        b.copy(td, tmp, 77i64);
        b.set_term(td, Terminator::Return(Some(Operand::Reg(tmp))));
        let mut f = b.finish();
        let r = emit_with_counts(&mut f, vec![1, 1, 0, 10]);
        // Find the fall-through block (ends in Return(tmp)) among the
        // replica blocks; it must contain the duplicated copy.
        let absorbed = f.blocks[r.entry.index()..].iter().any(|blk| {
            blk.insts.iter().any(|i| {
                matches!(
                    i,
                    Inst::Copy {
                        src: Operand::Imm(77),
                        ..
                    }
                )
            }) && matches!(blk.term, Terminator::Return(_))
        });
        assert!(absorbed, "tail of TD must be duplicated into the replica");
    }

    #[test]
    fn full_range_item_jumps_unconditionally() {
        // A synthetic ordering where one item covers everything.
        let mut f = two_cond_function();
        let seq = detect_sequences(&f).remove(0);
        let items = vec![crate::order::OrderItem {
            range: Range::full(),
            target: seq.conds[0].target,
            prob: 1.0,
            cost: 2.0,
            source: crate::order::ItemSource::Explicit(0),
        }];
        let ordering = crate::order::Ordering {
            explicit: vec![0],
            eliminated: vec![],
            default_target: seq.default_target,
            cost: 0.0,
        };
        let r = emit_reordered(&mut f, &seq, &items, &ordering);
        assert_eq!(r.branches, 0);
        assert!(matches!(f.block(r.entry).term, Terminator::Jump(_)));
    }

    #[test]
    fn empty_explicit_ordering_is_all_fallthrough() {
        let mut f = two_cond_function();
        let seq = detect_sequences(&f).remove(0);
        let items = order_items(
            &seq,
            &SequenceProfile {
                counts: vec![1, 1, 1, 1],
            },
        );
        let ordering = crate::order::Ordering {
            explicit: vec![],
            eliminated: (0..items.len()).collect(),
            default_target: seq.default_target,
            cost: 0.0,
        };
        let r = emit_reordered(&mut f, &seq, &items, &ordering);
        assert_eq!(r.branches, 0);
        assert_eq!(r.compares, 0);
    }

    #[test]
    fn form4_orders_disqualifying_branch_by_profile() {
        // Bounded [50..60] with everything hot ABOVE: the first emitted
        // branch should disqualify upward (cmp 60 / bgt or cmp 61 / bge).
        let mut b = FuncBuilder::new("f");
        let v = b.new_reg();
        b.set_param_regs(vec![v]);
        let e = b.entry();
        let hi = b.new_block();
        let c2 = b.new_block();
        let t1 = b.new_block();
        let t2 = b.new_block();
        let td = b.new_block();
        b.cmp_branch(e, v, 50i64, br_ir::Cond::Lt, c2, hi);
        b.cmp_branch(hi, v, 60i64, br_ir::Cond::Gt, c2, t1); // [50..60]
        b.cmp_branch(c2, v, 1000i64, br_ir::Cond::Ge, t2, td); // [1000..]
        for t in [t1, t2, td] {
            b.set_term(t, Terminator::Return(None));
        }
        let mut f = b.finish();
        let seq = detect_sequences(&f).remove(0);
        // plan: [50..60], [1000..], defaults [..49], [61..999].
        assert_eq!(plan_ranges(&seq).len(), 4);
        let items = order_items(
            &seq,
            &SequenceProfile {
                counts: vec![60, 30, 0, 9],
            },
        );
        // Force [50..60] first, keep [1000..] and [61..999] later: the
        // mass above 60 (30 + 9) far outweighs the mass below 50 (0).
        let ordering = crate::order::Ordering {
            explicit: vec![0, 1, 3],
            eliminated: vec![2],
            default_target: seq.default_target,
            cost: 0.0,
        };
        let r = emit_reordered(&mut f, &seq, &items, &ordering);
        let first = f.block(r.entry);
        let Some(Inst::Cmp {
            rhs: Operand::Imm(konst),
            ..
        }) = first.insts.last()
        else {
            panic!("first chain block must start with a compare");
        };
        assert!(
            *konst == 60 || *konst == 61,
            "upper disqualifier expected first, got cmp against {konst}"
        );
    }
}
