//! The per-sequence step of the paper's Figure 2, shared by the two-pass
//! pipeline and the adaptive runtime (`br-adaptive`): [`decide`] plans
//! one sequence as a pure function of its profile, and [`commit`]
//! splices the replica into a function (Figure 10) and proves it.

use br_ir::{FuncId, Function};

use crate::apply::splice_head;
use crate::detect::DetectedSequence;
use crate::dispatch::{check_dispatch, emit_dispatch, plan_dispatch, DispatchPlan};
use crate::emit::emit_reordered;
use crate::order::COST_EPSILON;
use crate::pipeline::{plan_for_profile, SequencePlan};
use crate::profile::SequenceProfile;
use crate::validate::{
    certify_sequence, check_ordering, validate_sequence, SequenceCertificate, Stage, StageFailure,
};

/// The plan for one sequence, as [`decide`] made it.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Function the sequence lives in.
    pub func: FuncId,
    /// Figure 8's chain plan, with the original and chain costs.
    pub plan: SequencePlan,
    /// Set IV's tree or table, kept only when it strictly beats the chain.
    pub dispatch: Option<DispatchPlan>,
    /// The structural-check failure ([`Stage::Order`]) that refuses the
    /// plan; [`commit`] returns it without touching the function.
    pub refused: Option<StageFailure>,
}

impl Decision {
    /// Steps 2–4 of [`decide`] on a given chain plan.
    pub fn new(func: FuncId, seq: &DetectedSequence, plan: SequencePlan, opt_tree: bool) -> Self {
        let dispatch = opt_tree
            .then(|| plan_dispatch(&plan.items))
            .flatten()
            .filter(|d| d.cost() + COST_EPSILON < plan.ordering.cost);
        let checked = check_ordering(&plan.items, &plan.ordering).and_then(|()| {
            dispatch
                .as_ref()
                .map_or(Ok(()), |d| check_dispatch(&plan.items, d))
        });
        let refused = checked.err().map(|details| StageFailure {
            stage: Stage::Order,
            func,
            head: Some(seq.head),
            details,
        });
        Decision {
            func,
            plan,
            dispatch,
            refused,
        }
    }

    /// Estimated per-execution cost of the structure [`commit`] deploys.
    pub fn deployed_cost(&self) -> f64 {
        self.dispatch
            .as_ref()
            .map_or(self.plan.ordering.cost, DispatchPlan::cost)
    }

    /// Whether the deployed structure strictly beats the original order.
    pub fn improves(&self) -> bool {
        self.deployed_cost() + COST_EPSILON < self.plan.original_cost
    }
}

/// Plan one sequence without touching any module: 1. Figure 8's
/// selection ([`plan_for_profile`]); 2. its structural check; 3. with
/// `opt_tree` (Set IV), a tree or table that strictly beats the chain;
/// 4. that structure's check. `None` when the profile recorded no
/// executions; a failed check is kept in [`Decision::refused`].
pub fn decide(
    func: FuncId,
    seq: &DetectedSequence,
    profile: &SequenceProfile,
    exhaustive: bool,
    opt_tree: bool,
) -> Option<Decision> {
    plan_for_profile(seq, profile, exhaustive).map(|plan| Decision::new(func, seq, plan, opt_tree))
}

/// How [`commit`] proves a replica.
#[derive(Clone, Copy, Debug)]
pub enum Proof<'a> {
    /// No proof.
    Unproven,
    /// [`validate_sequence`].
    Validate,
    /// [`certify_sequence`], returning the certificate.
    Certify,
    /// An independent re-check of a certificate an earlier proof of the
    /// same replica produced, before the function is touched (`BR0301`).
    Recheck(&'a SequenceCertificate),
}

/// What a successful [`commit`] deployed.
#[derive(Clone, Debug)]
pub struct Committed {
    /// Conditional branches in the replica.
    pub branches: u32,
    /// Compares in the replica.
    pub compares: u32,
    /// Value classes the proof compared (0 when none ran afresh).
    pub value_classes: usize,
    /// The certificate of a [`Proof::Certify`] commit.
    pub certificate: Option<SequenceCertificate>,
}

/// Deploy `decision` in `f`: 1. emit the replica and point the head at
/// it (a fresh head loses its compare, a spliced one is retargeted);
/// 2. run `tail` from the first replica block; 3. prove the replica
/// against `seq` in `reference` (`None`: `f` before this commit);
/// 4. restore `f` if the proof is refuted.
///
/// # Errors
///
/// The refused decision's failure, a failed re-check, or the
/// stage-attributed refutation; `f` is then unchanged.
pub fn commit(
    f: &mut Function,
    reference: Option<&Function>,
    seq: &DetectedSequence,
    decision: &Decision,
    proof: Proof<'_>,
    tail: impl FnOnce(&mut Function, usize),
) -> Result<Committed, StageFailure> {
    let func = decision.func;
    if let Some(refused) = &decision.refused {
        return Err(refused.clone());
    }
    if let Proof::Recheck(cert) = proof {
        if !br_analysis::check(&cert.text).is_ok_and(|checked| checked.sig == cert.sig) {
            return Err(StageFailure {
                stage: Stage::Emit,
                func,
                head: Some(seq.head),
                details: vec![
                    "[BR0301] cached proof certificate failed its independent re-check".to_string(),
                ],
            });
        }
    }
    let pre = matches!(proof, Proof::Validate | Proof::Certify).then(|| f.clone());
    let start = f.blocks.len();
    let (items, ordering) = (&decision.plan.items, &decision.plan.ordering);
    let emitted = match &decision.dispatch {
        Some(d) => emit_dispatch(f, seq, items, d),
        None => emit_reordered(f, seq, items, ordering),
    };
    splice_head(f, seq.head, emitted.entry);
    tail(f, start);
    let mut committed = Committed {
        branches: emitted.branches,
        compares: emitted.compares,
        value_classes: 0,
        certificate: None,
    };
    let Some(pre) = pre else {
        return Ok(committed);
    };
    let (original, start) = (reference.unwrap_or(&pre), start as u32);
    let proven = match proof {
        Proof::Validate => {
            validate_sequence(func, original, f, seq, start).map(|p| p.value_classes)
        }
        _ => certify_sequence(func, original, f, seq, start)
            .map_err(|refuted| refuted.failure)
            .map(|p| {
                committed.certificate = Some(SequenceCertificate {
                    func,
                    head: seq.head,
                    text: p.certificate,
                    sig: p.sig,
                });
                p.value_classes
            }),
    };
    match proven {
        Ok(value_classes) => Ok(Committed {
            value_classes,
            ..committed
        }),
        Err(failure) => {
            *f = pre;
            Err(failure)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_sequences;
    use crate::profile::plan_ranges;
    use br_ir::{Cond, FuncBuilder, Operand, Terminator};

    /// `v == 10 -> 1; v == 20 -> 2; v < 5 -> 3; else 4`.
    fn chain_function() -> Function {
        let mut b = FuncBuilder::new("chain");
        let v = b.new_reg();
        b.set_param_regs(vec![v]);
        let e = b.entry();
        let c2 = b.new_block();
        let c3 = b.new_block();
        let t1 = b.new_block();
        let t2 = b.new_block();
        let t3 = b.new_block();
        let td = b.new_block();
        b.cmp_branch(e, v, 10i64, Cond::Eq, t1, c2);
        b.cmp_branch(c2, v, 20i64, Cond::Eq, t2, c3);
        b.cmp_branch(c3, v, 5i64, Cond::Lt, t3, td);
        for (t, val) in [(t1, 1i64), (t2, 2), (t3, 3), (td, 4)] {
            b.set_term(t, Terminator::Return(Some(Operand::Imm(val))));
        }
        b.finish()
    }

    fn decided(f: &Function) -> (DetectedSequence, Decision) {
        let seq = detect_sequences(f).remove(0);
        let n = plan_ranges(&seq).len() as u64;
        let profile = SequenceProfile {
            counts: (1..=n).map(|i| i * i).collect(),
        };
        let decision = decide(FuncId(0), &seq, &profile, false, false).expect("executed");
        (seq, decision)
    }

    #[test]
    fn unexecuted_sequence_is_not_decided() {
        let f = chain_function();
        let seq = detect_sequences(&f).remove(0);
        let profile = SequenceProfile {
            counts: vec![0; plan_ranges(&seq).len()],
        };
        assert!(decide(FuncId(0), &seq, &profile, false, true).is_none());
    }

    #[test]
    fn commit_rewrites_the_head_then_retargets_it() {
        let original = chain_function();
        let mut f = original.clone();
        let (seq, decision) = decided(&f);
        assert!(decision.refused.is_none() && decision.improves());
        let proof = Proof::Validate;
        let first = commit(&mut f, None, &seq, &decision, proof, |_, _| {}).expect("proves");
        assert!(first.value_classes > 0);
        assert!(matches!(f.block(seq.head).term, Terminator::Jump(_)));
        // A second commit appends a replica and retargets the jump; it
        // is proven against the original chain.
        let len = f.blocks.len();
        let certify = Proof::Certify;
        let second = commit(&mut f, Some(&original), &seq, &decision, certify, |_, _| {})
            .expect("re-commit proves");
        assert_eq!(
            f.block(seq.head).term,
            Terminator::Jump(br_ir::BlockId(len as u32))
        );
        let cert = second.certificate.expect("certify returns a certificate");
        let recheck = Proof::Recheck(&cert);
        commit(&mut f, Some(&original), &seq, &decision, recheck, |_, _| {})
            .expect("a good certificate re-admits");
    }

    #[test]
    fn refuted_commit_restores_the_function() {
        let original = chain_function();
        let mut f = original.clone();
        let (seq, decision) = decided(&f);
        let mut plan = decision.plan;
        // Cross two exits: structurally fine, semantically wrong.
        let j = (1..plan.items.len())
            .find(|&j| plan.items[j].target != plan.items[0].target)
            .expect("two targets");
        let t = plan.items[0].target;
        plan.items[0].target = plan.items[j].target;
        plan.items[j].target = t;
        let crossed = Decision::new(FuncId(0), &seq, plan, false);
        assert!(crossed.refused.is_none(), "{:?}", crossed.refused);
        let proof = Proof::Validate;
        let failure = commit(&mut f, None, &seq, &crossed, proof, |_, _| {}).unwrap_err();
        assert_eq!(failure.stage, Stage::Emit, "{failure}");
        assert_eq!(
            f, original,
            "a refuted commit leaves the function unchanged"
        );
    }

    #[test]
    fn refused_decision_commits_nothing() {
        let original = chain_function();
        let mut f = original.clone();
        let (seq, decision) = decided(&f);
        let mut plan = decision.plan;
        plan.ordering.explicit = vec![0, 0];
        let broken = Decision::new(FuncId(0), &seq, plan, true);
        let failure = commit(&mut f, None, &seq, &broken, Proof::Unproven, |_, _| {}).unwrap_err();
        assert_eq!(failure.stage, Stage::Order);
        assert_eq!(f, original);
    }
}
