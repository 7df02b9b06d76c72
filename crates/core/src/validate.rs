//! Stage-attributing translation validation for the pipeline.
//!
//! [`validate_sequence`] wraps `br_analysis`'s equivalence prover with
//! the pipeline's vocabulary: given the detected sequence, the function
//! as it was just before `apply_reordering`, and the function just
//! after, it proves the replica equivalent to the original chain — and
//! when the proof fails, it names the pipeline [`Stage`] that broke the
//! program, so a validation failure is a bug report, not a mystery.
//!
//! Attribution logic:
//!
//! - Theorem 2 legality violations (moved side effects writing the
//!   tested variable, cc-consuming exit targets) and partition errors
//!   on the *original* chain mean the detector modeled the program
//!   wrong: [`Stage::Detect`].
//! - Structurally inconsistent orderings (duplicate or out-of-bounds
//!   item indices, a missing default) mean selection broke:
//!   [`Stage::Order`].
//! - Partition or effect divergence in the *replica* means emission
//!   broke: [`Stage::Emit`].
//! - A module that stops verifying after the clean-up pass:
//!   [`Stage::Cleanup`] (checked by the pipeline, not here).

use br_analysis::validate::{EquivalenceCheck, EquivalenceProof, ValidationError};
use br_analysis::Interval;
use br_ir::{BlockId, FuncId, Function};
use std::collections::BTreeSet;

use crate::detect::DetectedSequence;
use crate::order::{OrderItem, Ordering};
use crate::profile::plan_ranges;

/// The pipeline stage a validation failure implicates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Sequence detection (including Theorem 2 legality screening).
    Detect,
    /// Ordering selection (greedy / exhaustive).
    Order,
    /// Replica emission and CFG splicing.
    Emit,
    /// The post-reordering clean-up optimizations.
    Cleanup,
    /// The profile-guided block-layout pass (`--layout exttsp`).
    Layout,
}

impl Stage {
    /// The stage's stable diagnostic code (see the code table in
    /// DESIGN.md §13): `brc lint --deny` and CI key on these, so they
    /// never change meaning once assigned.
    pub fn code(&self) -> &'static str {
        match self {
            Stage::Detect => "BR0201",
            Stage::Order => "BR0202",
            Stage::Emit => "BR0203",
            Stage::Cleanup => "BR0204",
            Stage::Layout => "BR0205",
        }
    }
}

impl Stage {
    /// The stage named by its [`Display`](std::fmt::Display) spelling.
    pub fn parse(s: &str) -> Option<Stage> {
        match s {
            "detect" => Some(Stage::Detect),
            "order" => Some(Stage::Order),
            "emit" => Some(Stage::Emit),
            "cleanup" => Some(Stage::Cleanup),
            "layout" => Some(Stage::Layout),
            _ => None,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Detect => write!(f, "detect"),
            Stage::Order => write!(f, "order"),
            Stage::Emit => write!(f, "emit"),
            Stage::Cleanup => write!(f, "cleanup"),
            Stage::Layout => write!(f, "layout"),
        }
    }
}

/// One failed validation, attributed to a stage.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StageFailure {
    /// The offending stage.
    pub stage: Stage,
    /// Function the sequence lives in.
    pub func: FuncId,
    /// Sequence head (pre-transformation block id), when per-sequence.
    pub head: Option<BlockId>,
    /// Human-readable violations.
    pub details: Vec<String>,
}

impl std::fmt::Display for StageFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] validation failed in the `{}` stage",
            self.stage.code(),
            self.stage
        )?;
        if let Some(h) = self.head {
            write!(f, " (sequence at {h})")?;
        }
        for d in &self.details {
            write!(f, "\n  - {d}")?;
        }
        Ok(())
    }
}

/// Every exit of a sequence: all condition targets plus the default.
pub fn sequence_exits(seq: &DetectedSequence) -> BTreeSet<BlockId> {
    seq.conds
        .iter()
        .map(|c| c.target)
        .chain([seq.default_target])
        .collect()
}

/// The detector's declared range→target plan, in validator vocabulary.
pub fn declared_plan(seq: &DetectedSequence) -> Vec<(Interval, BlockId)> {
    plan_ranges(seq)
        .into_iter()
        .map(|(r, _, target)| (Interval::new(r.lo, r.hi), target))
        .collect()
}

/// Structural sanity of a selected ordering: item indices in bounds and
/// unique, every item accounted for exactly once.
pub fn check_ordering(items: &[OrderItem], ordering: &Ordering) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let mut seen = vec![0u8; items.len()];
    for &i in ordering.explicit.iter().chain(&ordering.eliminated) {
        match seen.get_mut(i) {
            Some(s) => *s += 1,
            None => problems.push(format!("ordering names nonexistent item {i}")),
        }
    }
    for (i, &s) in seen.iter().enumerate() {
        if s == 0 {
            problems.push(format!(
                "item {i} ({:?}) dropped by the ordering",
                items[i].range
            ));
        } else if s > 1 {
            problems.push(format!("item {i} appears {s} times in the ordering"));
        }
    }
    for &i in &ordering.eliminated {
        if items
            .get(i)
            .is_some_and(|it| it.target != ordering.default_target)
        {
            problems.push(format!(
                "eliminated item {i} targets {} but the fall-through goes to {}",
                items[i].target, ordering.default_target
            ));
        }
    }
    if !ordering.cost.is_finite() || ordering.cost < 0.0 {
        problems.push(format!("ordering cost {} is not sane", ordering.cost));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Independent Theorem 2 legality check of a detected sequence: the
/// side effects the transformation will move, re-screened with the
/// dataflow-based purity analysis rather than the detector's own scan.
pub fn check_motion_legality(f: &Function, seq: &DetectedSequence) -> Result<(), Vec<String>> {
    let moved: Vec<BlockId> = seq
        .conds
        .iter()
        .skip(1)
        .flat_map(|c| c.blocks.iter().copied())
        .collect();
    let exits: Vec<BlockId> = sequence_exits(seq).into_iter().collect();
    let violations = br_analysis::check_motion(f, seq.var, &moved, &exits);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.iter().map(|v| v.to_string()).collect())
    }
}

/// Prove one applied sequence equivalent to its original chain.
///
/// `original` is the function just before `apply_reordering`,
/// `reordered` just after (before clean-up, so block ids align), and
/// `replica_start` the block count of `original` (the first replica
/// block's id). On failure the [`StageFailure`] names the stage.
///
/// # Errors
///
/// Returns the attributed failure when any proof obligation fails.
pub fn validate_sequence(
    func: FuncId,
    original: &Function,
    reordered: &Function,
    seq: &DetectedSequence,
    replica_start: u32,
) -> Result<EquivalenceProof, StageFailure> {
    let prove = br_analysis::check_equivalence;
    prove_attributed(func, original, reordered, seq, replica_start, prove, |e| e)
        .map_err(|(failure, _)| failure)
}

/// Certify one applied sequence: everything [`validate_sequence`]
/// proves, upgraded to the certifying prover — soundness prechecks on
/// the replica's CFG, constraint-subsumption equivalence, and a
/// rendered proof certificate on success; on refutation, a concrete
/// counterexample witness where one exists.
///
/// # Errors
///
/// Returns the stage-attributed failure plus the solved witness.
pub fn certify_sequence(
    func: FuncId,
    original: &Function,
    reordered: &Function,
    seq: &DetectedSequence,
    replica_start: u32,
) -> Result<br_analysis::SequenceProof, CertifyFailure> {
    let prove = br_analysis::prove_sequence;
    prove_attributed(func, original, reordered, seq, replica_start, prove, |r| {
        &r.errors
    })
    .map_err(|(mut failure, refutation)| {
        let witness = refutation.and_then(|r| r.witness);
        if let Some(w) = &witness {
            failure.details.push(format!("counterexample witness: {w}"));
        }
        CertifyFailure { failure, witness }
    })
}

/// The set-up [`validate_sequence`] and [`certify_sequence`] share: the
/// Theorem 2 re-screen, the [`EquivalenceCheck`], and the blame rule —
/// a refutation implicates [`Stage::Detect`] when any of its `errors`
/// blames the original chain, else [`Stage::Emit`]. The refutation is
/// handed back with the failure (`None` after a failed re-screen).
fn prove_attributed<P, R>(
    func: FuncId,
    original: &Function,
    reordered: &Function,
    seq: &DetectedSequence,
    replica_start: u32,
    prove: impl FnOnce(&EquivalenceCheck) -> Result<P, R>,
    errors: impl Fn(&R) -> &Vec<ValidationError>,
) -> Result<P, (StageFailure, Option<R>)> {
    let failure = |stage, details| StageFailure {
        stage,
        func,
        head: Some(seq.head),
        details,
    };
    // Theorem 2 re-screen: a violation here is a detector bug even if
    // the emitted code happens to be equivalent.
    check_motion_legality(original, seq).map_err(|d| (failure(Stage::Detect, d), None))?;
    let check = EquivalenceCheck {
        original,
        reordered,
        var: seq.var,
        head: seq.head,
        exits: sequence_exits(seq),
        replica_start,
        expected: declared_plan(seq),
    };
    prove(&check).map_err(|refuted| {
        let errors = errors(&refuted);
        let stage = if errors.iter().any(|e| e.blames_original()) {
            Stage::Detect
        } else {
            Stage::Emit
        };
        let details = errors.iter().map(|e| e.to_string()).collect();
        (failure(stage, details), Some(refuted))
    })
}

/// A refuted certification: the stage-attributed failure plus the
/// concrete counterexample, kept structured so frontends can turn it
/// into a replayable fuzz corpus entry.
#[derive(Clone, Debug)]
pub struct CertifyFailure {
    /// The attributed failure (witness already appended to details).
    pub failure: StageFailure,
    /// The solved counterexample, when a diverging value class exists.
    pub witness: Option<br_analysis::Witness>,
}

/// A proof certificate for one committed sequence, as carried in the
/// pipeline report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SequenceCertificate {
    /// Function the sequence lives in.
    pub func: FuncId,
    /// Sequence head (pre-transformation block id).
    pub head: BlockId,
    /// The full certificate text (see `br_analysis::cert`).
    pub text: String,
    /// The certificate's signature / content address.
    pub sig: u64,
}

/// Summary of a validated pipeline run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ValidationSummary {
    /// Sequences whose equivalence proof succeeded.
    pub proven: usize,
    /// Total value classes compared across all proofs.
    pub value_classes: usize,
    /// Every failure, stage-attributed.
    pub failures: Vec<StageFailure>,
    /// Proof certificates for the committed reorderings; populated in
    /// `Certify` mode only.
    pub certificates: Vec<SequenceCertificate>,
}

impl ValidationSummary {
    /// Whether every proof obligation held.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl std::fmt::Display for ValidationSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sequence(s) proven equivalent across {} value class(es)",
            self.proven, self.value_classes
        )?;
        if !self.certificates.is_empty() {
            write!(f, ", {} certificate(s) emitted", self.certificates.len())?;
        }
        for failure in &self.failures {
            write!(f, "\n{failure}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_sequences;
    use crate::order::select_ordering;
    use crate::pipeline::eliminable_items;
    use crate::profile::{order_items, SequenceProfile};
    use br_ir::{Cond, FuncBuilder, Operand, Terminator};

    use super::certify_sequence;

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

    fn reorder_with(f: &mut Function, counts: Vec<u64>) -> (DetectedSequence, u32) {
        let seqs = detect_sequences(f);
        let seq = seqs[0].clone();
        let n = plan_ranges(&seq).len();
        let counts: Vec<u64> = (0..n).map(|i| counts[i % counts.len()]).collect();
        let items = order_items(&seq, &SequenceProfile { counts });
        let eliminable = eliminable_items(&seq, &items);
        let mut candidates: Vec<BlockId> = sequence_exits(&seq).into_iter().collect();
        candidates.sort();
        let ordering = select_ordering(&items, &candidates, &eliminable, seq.default_target);
        check_ordering(&items, &ordering).unwrap();
        let replica_start = f.blocks.len() as u32;
        crate::apply::apply_reordering(f, &seq, &items, &ordering);
        (seq, replica_start)
    }

    #[test]
    fn pipeline_reordering_validates() {
        for counts in [
            vec![1, 2, 3, 4, 5],
            vec![100, 1, 1, 1, 1],
            vec![0, 0, 0, 0, 9],
        ] {
            let original = chain_function();
            let mut f = original.clone();
            let (seq, replica_start) = reorder_with(&mut f, counts.clone());
            let proof = validate_sequence(FuncId(0), &original, &f, &seq, replica_start).unwrap();
            assert!(proof.exits >= 2, "counts {counts:?}");
        }
    }

    #[test]
    fn pipeline_reordering_certifies_with_checkable_certificate() {
        let original = chain_function();
        let mut f = original.clone();
        let (seq, replica_start) = reorder_with(&mut f, vec![5, 4, 3, 2, 1]);
        let proof = certify_sequence(FuncId(0), &original, &f, &seq, replica_start).unwrap();
        assert_eq!(proof.fallbacks, 0, "subsumption only, never enumeration");
        // Double entry: the independent checker accepts the certificate.
        let checked = br_analysis::cert::check(&proof.certificate).expect("checker accepts");
        assert_eq!(checked.sig, proof.sig);
        assert_eq!(checked.classes, proof.value_classes);
    }

    #[test]
    fn corrupted_replica_yields_witness_under_certification() {
        let original = chain_function();
        let mut f = original.clone();
        let (seq, replica_start) = reorder_with(&mut f, vec![5, 4, 3, 2, 1]);
        let mut swapped = false;
        for b in replica_start..f.blocks.len() as u32 {
            if let Terminator::Branch {
                taken, not_taken, ..
            } = &mut f.block_mut(BlockId(b)).term
            {
                if taken != not_taken {
                    std::mem::swap(taken, not_taken);
                    swapped = true;
                    break;
                }
            }
        }
        assert!(swapped);
        let refuted = certify_sequence(FuncId(0), &original, &f, &seq, replica_start).unwrap_err();
        assert_eq!(refuted.failure.stage, Stage::Emit);
        let w = refuted.witness.expect("a diverging class has a witness");
        assert!(refuted
            .failure
            .details
            .iter()
            .any(|d| d.contains("counterexample witness")));
        // The witness value really belongs to a diverging class: route
        // it through both declared plans... the cheap proxy here is that
        // it is a concrete i64 the chain tests (the full divergence
        // replay lives in tests/prove.rs).
        let _ = w.value;
    }

    #[test]
    fn corrupted_replica_names_the_emit_stage() {
        let original = chain_function();
        let mut f = original.clone();
        let (seq, replica_start) = reorder_with(&mut f, vec![5, 4, 3, 2, 1]);
        // Swap two branch targets somewhere in the replica.
        let mut swapped = false;
        for b in replica_start..f.blocks.len() as u32 {
            if let Terminator::Branch {
                taken, not_taken, ..
            } = &mut f.block_mut(BlockId(b)).term
            {
                if taken != not_taken {
                    std::mem::swap(taken, not_taken);
                    swapped = true;
                    break;
                }
            }
        }
        assert!(swapped, "replica should contain a conditional branch");
        let failure = validate_sequence(FuncId(0), &original, &f, &seq, replica_start).unwrap_err();
        assert_eq!(failure.stage, Stage::Emit, "{failure}");
        assert_eq!(failure.head, Some(seq.head));
        assert!(!failure.details.is_empty());
    }

    #[test]
    fn misdeclared_plan_names_the_detect_stage() {
        let original = chain_function();
        let mut f = original.clone();
        let (mut seq, replica_start) = reorder_with(&mut f, vec![5, 4, 3, 2, 1]);
        // Lie about the detection after the fact: swap two targets in
        // the declared conditions.
        let t0 = seq.conds[0].target;
        seq.conds[0].target = seq.conds[1].target;
        seq.conds[1].target = t0;
        let failure = validate_sequence(FuncId(0), &original, &f, &seq, replica_start).unwrap_err();
        assert_eq!(failure.stage, Stage::Detect, "{failure}");
    }

    #[test]
    fn broken_ordering_is_caught_structurally() {
        let f = chain_function();
        let seqs = detect_sequences(&f);
        let seq = &seqs[0];
        let items = order_items(
            seq,
            &SequenceProfile {
                counts: vec![1; plan_ranges(seq).len()],
            },
        );
        let bad = Ordering {
            explicit: vec![0, 0],
            eliminated: vec![9],
            default_target: seq.default_target,
            cost: f64::NAN,
        };
        let problems = check_ordering(&items, &bad).unwrap_err();
        assert!(problems.len() >= 3, "{problems:?}");
    }
}
