//! Producing the profile information (the paper's Section 5).
//!
//! All instrumentation for a sequence is inserted at its head: a single
//! probe records which of the sequence's ranges — explicit *and* default
//! — contains the branch variable, exactly when the head is executed.

use br_ir::{BlockId, FuncId, Inst, Module, ProfilePlan, SeqId};

use crate::detect::{detect_sequences, DetectedSequence};
use crate::order::{ItemSource, OrderItem};
use crate::range::{complement_cover, Range};

/// The ranges instrumented for one sequence, in canonical order:
/// explicit ranges in condition order, then default ranges ascending.
/// Profile counts and [`OrderItem`]s use this same indexing.
pub fn plan_ranges(seq: &DetectedSequence) -> Vec<(Range, ItemSource, BlockId)> {
    let explicit = seq.explicit_ranges();
    let mut out: Vec<(Range, ItemSource, BlockId)> = explicit
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, ItemSource::Explicit(i), seq.conds[i].target))
        .collect();
    for (i, r) in complement_cover(&explicit).into_iter().enumerate() {
        out.push((r, ItemSource::Default(i), seq.default_target));
    }
    out
}

/// Exit counts for one sequence, indexed like [`plan_ranges`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SequenceProfile {
    /// Executions of the head where the variable fell in each range.
    pub counts: Vec<u64>,
}

impl SequenceProfile {
    /// Total head executions.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exit probabilities (Definition 9); all zero when never executed.
    pub fn probabilities(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            vec![0.0; self.counts.len()]
        } else {
            self.counts
                .iter()
                .map(|&c| c as f64 / total as f64)
                .collect()
        }
    }
}

/// Build the [`OrderItem`]s of a sequence from its profile.
pub fn order_items(seq: &DetectedSequence, profile: &SequenceProfile) -> Vec<OrderItem> {
    let ranges = plan_ranges(seq);
    assert_eq!(
        ranges.len(),
        profile.counts.len(),
        "profile shape must match the sequence"
    );
    let probs = profile.probabilities();
    ranges
        .into_iter()
        .zip(probs)
        .map(|((range, source, target), prob)| OrderItem {
            range,
            target,
            prob,
            cost: OrderItem::cost_of(&range),
            source,
        })
        .collect()
}

/// Detect the sequences of every function of a module, in deterministic
/// (function, reverse-postorder-head) order.
pub fn detect_all(module: &Module) -> Vec<(FuncId, DetectedSequence)> {
    let mut out = Vec::new();
    for (i, f) in module.functions.iter().enumerate() {
        for seq in detect_sequences(f) {
            out.push((FuncId(i as u32), seq));
        }
    }
    out
}

/// Insert profiling probes for the given detections (the instrumented
/// executable of the paper's Figure 2). Returns the sequence ids, in the
/// same order as `detections`; running the module then yields
/// `RunOutcome::profiles` indexed by those ids.
pub fn instrument_module(
    module: &mut Module,
    detections: &[(FuncId, DetectedSequence)],
) -> Vec<SeqId> {
    let mut ids = Vec::with_capacity(detections.len());
    for (fid, seq) in detections {
        let ranges: Vec<(i64, i64)> = plan_ranges(seq)
            .iter()
            .map(|(r, _, _)| (r.lo, r.hi))
            .collect();
        let seq_id = module.add_profile_plan(ProfilePlan {
            func: *fid,
            head: seq.head,
            ranges,
        });
        let head = module.function_mut(*fid).block_mut(seq.head);
        // The compare is the final instruction; probe right before it.
        let at = head.insts.len() - 1;
        debug_assert!(matches!(head.insts[at], Inst::Cmp { .. }));
        head.insts.insert(
            at,
            Inst::ProfileRanges {
                seq: seq_id,
                var: seq.var,
            },
        );
        ids.push(seq_id);
    }
    ids
}

/// Extract per-sequence profiles from a run of the instrumented module.
pub fn profiles_from_run(ids: &[SeqId], run_profiles: &[Vec<u64>]) -> Vec<SequenceProfile> {
    ids.iter()
        .map(|id| SequenceProfile {
            counts: run_profiles[id.index()].clone(),
        })
        .collect()
}

/// The character-value domain assumed by the static heuristic.
const STATIC_DOMAIN: Range = Range { lo: -1, hi: 127 };

/// A synthetic *static* profile in the spirit of the static search
/// heuristics the paper cites (Spuler): no training run — assume the
/// branch variable is uniformly distributed over a character-like domain
/// (`-1..=127`, EOF included) and weight each range by how many of those
/// values it covers. Ranges outside the domain get a unit weight so they
/// sort last rather than vanish.
pub fn static_profile(seq: &DetectedSequence) -> SequenceProfile {
    let counts = plan_ranges(seq)
        .iter()
        .map(|(r, _, _)| {
            let lo = r.lo.max(STATIC_DOMAIN.lo);
            let hi = r.hi.min(STATIC_DOMAIN.hi);
            if lo <= hi {
                (hi - lo + 1) as u64
            } else {
                1
            }
        })
        .collect();
    SequenceProfile { counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::{Cond, FuncBuilder, Operand, Terminator};
    use br_vm::{run, VmOptions};

    /// if (v == 10) T1; else if (v >= 100) T2; else TD — driven by input.
    fn test_module() -> br_ir::Module {
        let mut m = br_ir::Module::new();
        let mut b = FuncBuilder::new("main");
        let v = b.new_reg();
        let e = b.entry();
        let head = b.new_block();
        let c2 = b.new_block();
        let t1 = b.new_block();
        let t2 = b.new_block();
        let td = b.new_block();
        b.set_term(e, Terminator::Jump(head));
        b.push(
            head,
            Inst::Call {
                dst: Some(v),
                callee: br_ir::Callee::Intrinsic(br_ir::Intrinsic::GetChar),
                args: vec![],
            },
        );
        b.cmp_branch(head, v, 10i64, Cond::Eq, t1, c2);
        b.cmp_branch(c2, v, 100i64, Cond::Ge, t2, td);
        b.set_term(t1, Terminator::Jump(head));
        b.set_term(t2, Terminator::Jump(head));
        // td: exit when v == -1, else loop.
        let quit = b.new_block();
        b.cmp_branch(td, v, -1i64, Cond::Eq, quit, head);
        b.set_term(quit, Terminator::Return(Some(Operand::Imm(0))));
        m.main = Some(m.add_function(b.finish()));
        m
    }

    #[test]
    fn plan_ranges_cover_and_tag() {
        let m = test_module();
        let dets = detect_all(&m);
        assert_eq!(dets.len(), 1);
        let ranges = plan_ranges(&dets[0].1);
        // The td block's own compare (v == -1) extends the sequence, so
        // explicit = [10], [100..], [-1]; defaults fill the rest.
        assert_eq!(ranges.len(), 6);
        assert_eq!(ranges[0].0, Range::single(10));
        assert_eq!(ranges[1].0, Range::from(100));
        assert_eq!(ranges[2].0, Range::single(-1));
        assert_eq!(ranges[3].0, Range::up_to(-2));
        assert_eq!(ranges[4].0, Range::new(0, 9).unwrap());
        assert_eq!(ranges[5].0, Range::new(11, 99).unwrap());
        assert!(matches!(ranges[3].1, ItemSource::Default(0)));
    }

    #[test]
    fn instrumented_run_counts_exits() {
        let m = test_module();
        let dets = detect_all(&m);
        let mut instrumented = m.clone();
        let ids = instrument_module(&mut instrumented, &dets);
        br_ir::verify_module(&instrumented).unwrap();
        // input: 10 seen twice, 120 once, 50 once, 5 once, then EOF(-1).
        let input = [10u8, 120, 10, 50, 5];
        let out = run(&instrumented, &input, &VmOptions::default()).unwrap();
        let profiles = profiles_from_run(&ids, &out.profiles);
        assert_eq!(profiles.len(), 1);
        // counts over [10], [100..], [-1], [..-2], [0..9], [11..99]:
        // 10 twice, 120 once, EOF once, nothing below -1, 5 once, 50 once.
        assert_eq!(profiles[0].counts, vec![2, 1, 1, 0, 1, 1]);
        assert_eq!(profiles[0].total(), 6);
        let p = profiles[0].probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probes_do_not_change_observable_behaviour_or_counts() {
        let m = test_module();
        let dets = detect_all(&m);
        let mut instrumented = m.clone();
        instrument_module(&mut instrumented, &dets);
        let input = [10u8, 120, 10, 50, 5];
        let plain = run(&m, &input, &VmOptions::default()).unwrap();
        let probed = run(&instrumented, &input, &VmOptions::default()).unwrap();
        assert_eq!(plain.output, probed.output);
        assert_eq!(plain.exit, probed.exit);
        assert_eq!(plain.stats, probed.stats, "probes must be free");
    }

    #[test]
    fn order_items_match_profile_shape() {
        let m = test_module();
        let dets = detect_all(&m);
        let profile = SequenceProfile {
            counts: vec![6, 1, 1, 0, 1, 1],
        };
        let items = order_items(&dets[0].1, &profile);
        assert_eq!(items.len(), 6);
        assert!((items[0].prob - 0.6).abs() < 1e-12);
        assert_eq!(items[0].cost, 2.0);
        assert_eq!(items[4].cost, 4.0, "bounded default range needs 2 branches");
        assert_eq!(items[5].cost, 4.0);
    }

    #[test]
    fn zero_profile_probabilities_are_zero() {
        let p = SequenceProfile { counts: vec![0, 0] };
        assert_eq!(p.probabilities(), vec![0.0, 0.0]);
    }
}
