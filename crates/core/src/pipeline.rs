//! The two-pass driver (the paper's Figure 2): detect sequences on the
//! optimized module, profile them on a training input, select the best
//! ordering per sequence, apply the beneficial ones, and re-run the
//! clean-up optimizations.

use br_ir::{BlockId, FuncId, Module};
use br_layout::{EdgeWeights, LayoutMode, LayoutParams};
use br_vm::{Trap, VmOptions};

use crate::decide::{commit, decide, Committed, Decision, Proof};
use crate::detect::DetectedSequence;
use crate::dispatch::DispatchStructure;
use crate::order::{evaluate_cost, exhaustive_ordering, select_ordering, OrderItem, Ordering};
use crate::profile::{
    detect_all, instrument_module, order_items, profiles_from_run, SequenceProfile,
};
use crate::validate::{Stage, StageFailure, ValidationSummary};

/// Options for the reordering pipeline.
#[derive(Clone, Debug, Default)]
pub struct ReorderOptions {
    /// VM configuration for the training (profiling) run.
    pub vm: VmOptions,
    /// Use the exhaustive ordering search instead of the paper's greedy
    /// selection (the paper implemented both; an ablation knob here).
    pub exhaustive: bool,
    /// Replace the training profile with the static uniform-domain
    /// heuristic (no training run is consulted) — the Spuler-style
    /// baseline the paper cites, as an ablation of the value of real
    /// profile data.
    pub static_heuristic: bool,
    /// Run the translation validator over every applied sequence and
    /// record the result in [`ReorderReport::validation`]. Independent
    /// of this flag, debug builds always validate (as an assertion), so
    /// tests catch semantic breaks with a stage-naming diagnostic.
    pub validate: bool,
    /// Upgrade validation to *certification*: every committed range
    /// reordering is proven with the certifying prover
    /// (`br_analysis::prove_sequence`) and its proof certificate
    /// recorded in the report, ready for independent re-checking with
    /// `br_analysis::cert::check`. Implies [`ReorderOptions::validate`].
    pub certify: bool,
    /// Heuristic Set IV: besides the chain orderings, also plan a
    /// DP-optimal comparison tree and (on dense windows) a jump table
    /// per sequence, and deploy whichever of the three candidates has
    /// the lowest expected cost under the sequence's profile. Ties keep
    /// the chain, so Set IV never plans worse than Set III.
    pub opt_tree: bool,
    /// Which block-layout pass to run after clean-up:
    /// [`LayoutMode::Greedy`] (the default) keeps the profile-blind
    /// fall-through chainer; [`LayoutMode::ExtTsp`] re-profiles the
    /// cleaned module on the training inputs and maximizes the ext-TSP
    /// objective on top of the greedy order (never scoring below it);
    /// [`LayoutMode::Off`] skips repositioning entirely (ablation
    /// baseline). Every ext-TSP permutation is checked by
    /// `br_analysis::check_layout` when validation is on.
    pub layout: LayoutMode,
}

/// What happened to one detected sequence.
#[derive(Clone, Debug, PartialEq)]
pub enum SequenceOutcome {
    /// The sequence was restructured.
    Reordered {
        /// Branches in the replicated sequence (often more than the
        /// original: default ranges made explicit).
        new_branches: u32,
        /// Compares emitted (lower than branches when redundant
        /// comparisons were eliminated).
        new_compares: u32,
        /// Estimated per-execution cost of the original ordering.
        original_cost: f64,
        /// Estimated per-execution cost of the selected ordering.
        new_cost: f64,
    },
    /// Profile said the sequence never executed (the paper's most common
    /// reason a sequence was not reordered).
    NeverExecuted,
    /// No ordering beat the original's estimated cost.
    NoImprovement,
    /// The sequence executed and an ordering beat the original, but it
    /// was not deployed: its plan failed a structural check
    /// ([`Stage::Order`]) or its replica's proof was refuted (the stage
    /// the proof blames). The failure itself is in
    /// [`ReorderReport::validation`].
    Refused(Stage),
}

impl SequenceOutcome {
    /// The outcome of [`commit`]ting `decision`.
    fn of_commit(decision: &Decision, result: &Result<Committed, StageFailure>) -> Self {
        match result {
            Ok(committed) => SequenceOutcome::Reordered {
                new_branches: committed.branches,
                new_compares: committed.compares,
                original_cost: decision.plan.original_cost,
                new_cost: decision.deployed_cost(),
            },
            Err(failure) => SequenceOutcome::Refused(failure.stage),
        }
    }

    /// Read back the [`Display`](std::fmt::Display) text.
    pub fn parse(text: &str) -> Option<Self> {
        let mut words = text.split(' ');
        let outcome = match words.next()? {
            "reordered" => SequenceOutcome::Reordered {
                new_branches: words.next()?.parse().ok()?,
                new_compares: words.next()?.parse().ok()?,
                original_cost: words.next()?.parse().ok()?,
                new_cost: words.next()?.parse().ok()?,
            },
            "never" => SequenceOutcome::NeverExecuted,
            "noimp" => SequenceOutcome::NoImprovement,
            "refused" => SequenceOutcome::Refused(Stage::parse(words.next()?)?),
            _ => return None,
        };
        words.next().is_none().then_some(outcome)
    }
}

/// One line of text per outcome, as sweep artifacts and serve responses
/// carry it; [`SequenceOutcome::parse`] reads it back.
impl std::fmt::Display for SequenceOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SequenceOutcome::Reordered {
                new_branches,
                new_compares,
                original_cost,
                new_cost,
            } => write!(
                f,
                "reordered {new_branches} {new_compares} {original_cost:?} {new_cost:?}"
            ),
            SequenceOutcome::NeverExecuted => write!(f, "never"),
            SequenceOutcome::NoImprovement => write!(f, "noimp"),
            SequenceOutcome::Refused(stage) => write!(f, "refused {stage}"),
        }
    }
}

/// Per-sequence record in the report.
#[derive(Clone, Debug, PartialEq)]
pub struct SequenceRecord {
    /// Which dispatch structure was deployed ([`DispatchStructure::Chain`]
    /// unless Set IV selected a tree or a table for this sequence).
    pub structure: DispatchStructure,
    /// Function the sequence lives in.
    pub func: FuncId,
    /// Head block (in the pre-transformation module).
    pub head: BlockId,
    /// Branches in the original sequence.
    pub original_branches: u32,
    /// Conditions in the original sequence.
    pub conditions: usize,
    /// Head executions during training.
    pub training_executions: u64,
    /// The outcome.
    pub outcome: SequenceOutcome,
}

/// Result of the reordering pass.
#[derive(Clone, Debug)]
pub struct ReorderReport {
    /// The transformed module, cleaned up and laid out.
    pub module: Module,
    /// One record per detected sequence.
    pub sequences: Vec<SequenceRecord>,
    /// Translation-validation summary; populated when
    /// [`ReorderOptions::validate`] is set (and always in debug builds).
    pub validation: Option<ValidationSummary>,
}

impl ReorderReport {
    /// Number of sequences that were actually reordered.
    pub fn reordered_count(&self) -> usize {
        self.sequences
            .iter()
            .filter(|s| matches!(s.outcome, SequenceOutcome::Reordered { .. }))
            .count()
    }

    /// `(avg original, avg reordered)` branch counts over the reordered
    /// sequences (the paper's "Avg Seq Len" columns).
    pub fn avg_lengths(&self) -> Option<(f64, f64)> {
        let mut n = 0u32;
        let (mut orig, mut new) = (0u64, 0u64);
        for s in &self.sequences {
            if let SequenceOutcome::Reordered { new_branches, .. } = s.outcome {
                n += 1;
                orig += s.original_branches as u64;
                new += new_branches as u64;
            }
        }
        (n > 0).then(|| (orig as f64 / n as f64, new as f64 / n as f64))
    }
}

/// Run the full profile-and-reorder pipeline on an *optimized* module.
///
/// `optimized` should already have gone through [`br_opt::optimize`]; the
/// paper applies all conventional optimizations before reordering.
///
/// ```
/// use br_minic::{compile, Options};
/// use br_reorder::{reorder_module, ReorderOptions};
///
/// let mut m = compile(
///     "int main() { int c; c = getchar(); while (c != -1) {
///          if (c == 32) putchar(95); else if (c == 10) putchar(59);
///          else putchar(c); c = getchar(); } return 0; }",
///     &Options::default(),
/// ).expect("compiles");
/// br_opt::optimize(&mut m);
/// let report = reorder_module(&m, b"mostly plain letters here", &ReorderOptions::default())
///     .expect("training runs");
/// assert!(report.reordered_count() >= 1);
/// ```
///
/// # Errors
///
/// Returns the training run's [`Trap`] if the instrumented program does
/// not terminate normally on `training_input`.
pub fn reorder_module(
    optimized: &Module,
    training_input: &[u8],
    options: &ReorderOptions,
) -> Result<ReorderReport, Trap> {
    reorder_module_with_inputs(optimized, &[training_input], options)
}

/// [`reorder_module`] with several training inputs: profiles are summed
/// across the runs. The paper notes that multiple sets of profile data
/// give better coverage — cold sequences exercised by *any* input get
/// reordered instead of being skipped as never-executed.
///
/// # Errors
///
/// Returns the first training run's [`Trap`], if any.
pub fn reorder_module_with_inputs(
    optimized: &Module,
    training_inputs: &[&[u8]],
    options: &ReorderOptions,
) -> Result<ReorderReport, Trap> {
    let detections = detect_all(optimized);
    // Pass 1: instrumented executable + one training run per input,
    // with counters summed.
    let mut instrumented = optimized.clone();
    let ids = instrument_module(&mut instrumented, &detections);
    let mut merged: Vec<Vec<u64>> = instrumented
        .profile_plans
        .iter()
        .map(|p| vec![0; p.ranges.len()])
        .collect();
    for input in training_inputs {
        let outcome = br_vm::run(&instrumented, input, &options.vm)?;
        for (acc, got) in merged.iter_mut().zip(&outcome.profiles) {
            for (a, g) in acc.iter_mut().zip(got) {
                *a += g;
            }
        }
    }
    let profiles = profiles_from_run(&ids, &merged);

    // Pass 2: per-sequence selection and application.
    let do_validate = options.validate || options.certify || cfg!(debug_assertions);
    let proof = match (options.certify, do_validate) {
        (true, _) => Proof::Certify,
        (false, true) => Proof::Validate,
        (false, false) => Proof::Unproven,
    };
    let mut summary = ValidationSummary::default();
    let mut module = optimized.clone();
    let mut sequences = Vec::with_capacity(detections.len());
    for ((fid, seq), trained) in detections.iter().zip(&profiles) {
        let static_prof = options
            .static_heuristic
            .then(|| crate::profile::static_profile(seq));
        let profile = static_prof.as_ref().unwrap_or(trained);
        let mut record = SequenceRecord {
            structure: DispatchStructure::Chain,
            func: *fid,
            head: seq.head,
            original_branches: seq.branch_len(),
            conditions: seq.conds.len(),
            training_executions: trained.total(),
            outcome: SequenceOutcome::NeverExecuted,
        };
        match decide(*fid, seq, profile, options.exhaustive, options.opt_tree) {
            None => {}
            // A refused decision goes on to `commit`, which reports it.
            Some(d) if d.refused.is_none() && !d.improves() => {
                record.outcome = SequenceOutcome::NoImprovement;
            }
            Some(d) => {
                let f = module.function_mut(*fid);
                let result = commit(f, None, seq, &d, proof, |_, _| {});
                record.outcome = SequenceOutcome::of_commit(&d, &result);
                match result {
                    Ok(committed) => {
                        summary.proven += 1;
                        summary.value_classes += committed.value_classes;
                        summary.certificates.extend(committed.certificate);
                        record.structure = d
                            .dispatch
                            .as_ref()
                            .map_or(DispatchStructure::Chain, |t| t.structure());
                    }
                    Err(failure) => summary.failures.push(failure),
                }
            }
        }
        sequences.push(record);
    }
    match options.layout {
        LayoutMode::Off => br_opt::cleanup_keep_order(&mut module),
        LayoutMode::Greedy => br_opt::cleanup(&mut module),
        LayoutMode::ExtTsp => {
            br_opt::cleanup(&mut module);
            exttsp_layout(
                &mut module,
                training_inputs,
                options,
                do_validate,
                &mut summary,
            )?;
        }
    }
    if do_validate {
        // The clean-up pass must leave a well-formed module behind.
        for (i, f) in module.functions.iter().enumerate() {
            if let Err(e) = br_ir::verify_function(f, Some(&module)) {
                summary.failures.push(StageFailure {
                    stage: Stage::Cleanup,
                    func: FuncId(i as u32),
                    head: None,
                    details: vec![e.to_string()],
                });
            }
        }
    }
    debug_assert!(
        summary.is_clean(),
        "branch reordering broke the program:\n{summary}"
    );
    Ok(ReorderReport {
        module,
        sequences,
        validation: do_validate.then_some(summary),
    })
}

/// The ext-TSP layout pass ([`LayoutMode::ExtTsp`]): profile the cleaned
/// module's block-level edge frequencies by re-running the training
/// inputs (the instrumented module's block ids do not survive
/// reordering and clean-up, so a fresh run on the final CFG is the only
/// honest source of edge weights), then lay out each function to
/// maximize the ext-TSP objective seeded from the greedy order. When
/// validation is on, every applied permutation is proven layout-only by
/// `br_analysis::check_layout`.
fn exttsp_layout(
    module: &mut Module,
    training_inputs: &[&[u8]],
    options: &ReorderOptions,
    do_validate: bool,
    summary: &mut ValidationSummary,
) -> Result<(), Trap> {
    let mut counts: Vec<Vec<[u64; 2]>> = module
        .functions
        .iter()
        .map(|f| vec![[0u64; 2]; f.blocks.len()])
        .collect();
    for input in training_inputs {
        let outcome = br_vm::run(module, input, &options.vm)?;
        for (acc, got) in counts.iter_mut().zip(&outcome.block_counts) {
            for (a, g) in acc.iter_mut().zip(got) {
                a[0] += g[0];
                a[1] += g[1];
            }
        }
    }
    let params = LayoutParams::default();
    for (i, f) in module.functions.iter_mut().enumerate() {
        let weights = EdgeWeights::from_block_counts(f, &counts[i]);
        let pre = do_validate.then(|| f.clone());
        let outcome = br_layout::layout_function(f, &weights, &params);
        if let (Some(pre), Some(order)) = (&pre, &outcome.applied) {
            let diags = br_analysis::check_layout(pre, f, order);
            if !diags.is_empty() {
                summary.failures.push(StageFailure {
                    stage: Stage::Layout,
                    func: FuncId(i as u32),
                    head: None,
                    details: diags.iter().map(|d| d.to_string()).collect(),
                });
            }
        }
    }
    Ok(())
}

/// A per-sequence ordering plan computed from one profile: the order
/// items in canonical [`crate::profile::plan_ranges`] indexing, the
/// selected (greedy or exhaustive) ordering, and the estimated cost of
/// the *original* source order under the same profile.
#[derive(Clone, Debug)]
pub struct SequencePlan {
    /// The sequence's ranges with their profiled probabilities.
    pub items: Vec<OrderItem>,
    /// The selected minimum-cost ordering.
    pub ordering: Ordering,
    /// Estimated per-execution cost of the original ordering (conditions
    /// in source order, all default ranges implicit).
    pub original_cost: f64,
}

impl SequencePlan {
    /// Estimated per-execution cost of an *already deployed* ordering,
    /// re-evaluated under this plan's (newer) profile. `None` means the
    /// original source order is deployed. Item indices are canonical, so
    /// an ordering selected under an older profile of the same sequence
    /// evaluates directly against the new items.
    pub fn cost_of_deployed(&self, deployed: Option<&Ordering>) -> f64 {
        match deployed {
            Some(d) => evaluate_cost(&self.items, &d.explicit, &d.eliminated),
            None => self.original_cost,
        }
    }
}

/// Figure 8's selection for one sequence under an arbitrary profile,
/// without touching any module: the best chain ordering and the cost of
/// the original order. This is the first step of
/// [`crate::decide::decide`], which the pipeline and the adaptive
/// runtime both call. Returns `None` when the profile has no executions
/// to plan from.
pub fn plan_for_profile(
    seq: &DetectedSequence,
    profile: &SequenceProfile,
    exhaustive: bool,
) -> Option<SequencePlan> {
    if profile.total() == 0 {
        return None;
    }
    let items = order_items(seq, profile);
    let eliminable = eliminable_items(seq, &items);
    let candidates = candidate_defaults(&items, &eliminable, seq.default_target);
    let fallback = seq.default_target;
    let ordering: Ordering = if exhaustive {
        exhaustive_ordering(&items, &candidates, &eliminable, fallback)
    } else {
        select_ordering(&items, &candidates, &eliminable, fallback)
    };
    let explicit: Vec<usize> = (0..seq.conds.len()).collect();
    let eliminated: Vec<usize> = (seq.conds.len()..items.len()).collect();
    let original_cost = evaluate_cost(&items, &explicit, &eliminated);
    Some(SequencePlan {
        items,
        ordering,
        original_cost,
    })
}

/// Whether each item may be left untested. Values of untested ranges
/// reach the default target through the fall-through path, which runs
/// the sequence's *entire* side-effect bundle — so an explicit condition
/// is eligible only if its original exit already ran every side effect
/// (i.e. no side effects occur in conditions after it). Default ranges
/// (reached after all conditions failed) are always eligible.
/// (Exposed for tests and ablations.)
pub fn eliminable_items(seq: &DetectedSequence, items: &[crate::order::OrderItem]) -> Vec<bool> {
    // Index of the last condition carrying side effects (the head's
    // prefix stays put and does not count).
    let last_side_effect = seq
        .conds
        .iter()
        .enumerate()
        .skip(1)
        .rev()
        .find(|(_, c)| !c.side_effects.is_empty())
        .map(|(j, _)| j);
    items
        .iter()
        .map(|item| match item.source {
            crate::order::ItemSource::Default(_) => true,
            crate::order::ItemSource::Explicit(j) => {
                last_side_effect.is_none_or(|boundary| j >= boundary)
            }
        })
        .collect()
}

/// Which targets may serve as the default (untested) target: every
/// target owning at least one eliminable item, plus the original default
/// target (harmless as the never-reached fall-through of an all-explicit
/// ordering).
fn candidate_defaults(
    items: &[crate::order::OrderItem],
    eliminable: &[bool],
    original_default: BlockId,
) -> Vec<BlockId> {
    let mut out = vec![original_default];
    out.extend(
        items
            .iter()
            .zip(eliminable)
            .filter(|(_, &e)| e)
            .map(|(i, _)| i.target),
    );
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_minic::{compile, Options};
    use br_vm::run;

    fn build(src: &str) -> Module {
        let mut m = compile(src, &Options::default()).expect("compiles");
        br_opt::optimize(&mut m);
        m
    }

    const CLASSIFIER: &str = "
        int main() {
            int c; int spaces; int lines; int tabs; int other;
            spaces = 0; lines = 0; tabs = 0; other = 0;
            c = getchar();
            while (c != -1) {
                if (c == ' ') spaces += 1;
                else if (c == '\\n') lines += 1;
                else if (c == '\\t') tabs += 1;
                else other += 1;
                c = getchar();
            }
            putint(spaces); putint(lines); putint(tabs); putint(other);
            return spaces + 2 * lines + 3 * tabs + 5 * other;
        }";

    fn letters(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| b"abcdefghijklmnopqrstuvwxyz"[i % 26])
            .chain(*b" \n")
            .collect()
    }

    #[test]
    fn end_to_end_reorders_and_preserves_behaviour() {
        let m = build(CLASSIFIER);
        let train = letters(200);
        let test = letters(333);
        let report = reorder_module(&m, &train, &ReorderOptions::default()).unwrap();
        br_ir::verify_module(&report.module).unwrap();
        assert!(report.reordered_count() >= 1, "{:?}", report.sequences);

        let base = run(&m, &test, &VmOptions::default()).unwrap();
        let new = run(&report.module, &test, &VmOptions::default()).unwrap();
        assert_eq!(base.exit, new.exit);
        assert_eq!(base.output, new.output);
        assert!(
            new.stats.insts < base.stats.insts,
            "letters-dominated input should speed up: {} -> {}",
            base.stats.insts,
            new.stats.insts
        );
        assert!(new.stats.cond_branches < base.stats.cond_branches);
    }

    #[test]
    fn reordered_sequences_get_longer_statically() {
        let m = build(CLASSIFIER);
        let report = reorder_module(&m, &letters(100), &ReorderOptions::default()).unwrap();
        let (orig, new) = report.avg_lengths().expect("something reordered");
        assert!(
            new >= orig,
            "defaults made explicit should lengthen sequences: {orig} vs {new}"
        );
    }

    #[test]
    fn never_executed_sequences_are_skipped() {
        let src = "
            int main() {
                int c;
                c = getchar();
                if (c == -2) {
                    if (c == 1000) putint(1);
                    else if (c == 2000) putint(2);
                    else if (c == 3000) putint(3);
                }
                return 0;
            }";
        let m = build(src);
        let report = reorder_module(&m, b"xyz", &ReorderOptions::default()).unwrap();
        assert!(report
            .sequences
            .iter()
            .any(|s| s.outcome == SequenceOutcome::NeverExecuted));
        assert_eq!(report.reordered_count(), 0, "{:?}", report.sequences);
    }

    #[test]
    fn exhaustive_matches_greedy_cost() {
        let m = build(CLASSIFIER);
        let train = letters(150);
        let greedy = reorder_module(&m, &train, &ReorderOptions::default()).unwrap();
        let exhaustive = reorder_module(
            &m,
            &train,
            &ReorderOptions {
                exhaustive: true,
                ..ReorderOptions::default()
            },
        )
        .unwrap();
        for (a, b) in greedy.sequences.iter().zip(&exhaustive.sequences) {
            if let (
                SequenceOutcome::Reordered { new_cost: ga, .. },
                SequenceOutcome::Reordered { new_cost: gb, .. },
            ) = (&a.outcome, &b.outcome)
            {
                assert!((ga - gb).abs() < 1e-9, "greedy {ga} vs exhaustive {gb}");
            }
        }
    }

    #[test]
    fn trap_in_training_run_is_reported() {
        let src = "int main() { int c; c = getchar(); if (c == 'x') abort(9); \
                   if (c == 1) putint(1); else if (c == 2) putint(2); return 0; }";
        let m = build(src);
        let err = reorder_module(&m, b"x", &ReorderOptions::default()).unwrap_err();
        assert_eq!(err, Trap::Abort { code: 9 });
    }

    #[test]
    fn refused_and_refuted_commits_are_recorded_as_refused() {
        let m = build(CLASSIFIER);
        let (fid, seq) = detect_all(&m).remove(0);
        let n = crate::profile::plan_ranges(&seq).len() as u64;
        let profile = SequenceProfile {
            counts: (1..=n).map(|i| i * i).collect(),
        };
        let decision = decide(fid, &seq, &profile, false, false).expect("executed");
        let outcome = |d: &Decision| {
            let mut f = m.function(fid).clone();
            let result = commit(&mut f, None, &seq, d, Proof::Validate, |_, _| {});
            SequenceOutcome::of_commit(d, &result)
        };
        assert!(matches!(
            outcome(&decision),
            SequenceOutcome::Reordered { .. }
        ));
        // Cross two exits: structurally fine, refuted by the proof.
        let mut plan = decision.plan.clone();
        let j = (1..plan.items.len())
            .find(|&j| plan.items[j].target != plan.items[0].target)
            .expect("two targets");
        let t = plan.items[0].target;
        plan.items[0].target = plan.items[j].target;
        plan.items[j].target = t;
        let crossed = Decision::new(fid, &seq, plan, false);
        assert!(crossed.refused.is_none(), "{:?}", crossed.refused);
        assert_eq!(outcome(&crossed), SequenceOutcome::Refused(Stage::Emit));
        // A plan that fails the structural checks is refused unproven.
        let mut plan = decision.plan;
        plan.ordering.explicit = vec![0, 0];
        let broken = Decision::new(fid, &seq, plan, false);
        let refused = outcome(&broken);
        assert_eq!(refused, SequenceOutcome::Refused(Stage::Order));
        assert_eq!(refused.to_string(), "refused order");
        assert_eq!(SequenceOutcome::parse("refused order"), Some(refused));
    }

    #[test]
    fn report_counts_are_consistent() {
        let m = build(CLASSIFIER);
        let report = reorder_module(&m, &letters(64), &ReorderOptions::default()).unwrap();
        for s in &report.sequences {
            assert!(s.conditions >= 2);
            assert!(s.original_branches >= s.conditions as u32);
            if let SequenceOutcome::Reordered {
                new_branches,
                new_compares,
                original_cost,
                new_cost,
            } = &s.outcome
            {
                assert!(*new_compares <= *new_branches);
                assert!(new_cost < original_cost);
            }
        }
    }
}

#[cfg(test)]
mod multi_input_tests {
    use super::*;
    use br_minic::{compile, Options};

    /// Two independent classification chains guarded by disjoint modes:
    /// the first byte selects which chain runs.
    const TWO_MODES: &str = "
        int main() {
            int mode; int c; int a; int b;
            a = 0; b = 0;
            mode = getchar();
            c = getchar();
            while (c != -1) {
                if (mode == 'A') {
                    if (c == ' ') a += 1;
                    else if (c == '\\n') a += 2;
                    else if (c == '\\t') a += 3;
                    else a += 5;
                } else {
                    if (c == '0') b += 1;
                    else if (c == '1') b += 2;
                    else if (c == '9') b += 3;
                    else b += 5;
                }
                c = getchar();
            }
            putint(a); putint(b);
            return 0;
        }";

    fn build() -> Module {
        let mut m = compile(TWO_MODES, &Options::default()).unwrap();
        br_opt::optimize(&mut m);
        m
    }

    fn mode_input(mode: u8) -> Vec<u8> {
        let mut v = vec![mode];
        v.extend(b"lots of letters 0101 and spaces\nmore 999 text\n".repeat(20));
        v
    }

    #[test]
    fn single_input_leaves_the_cold_chain_unreordered() {
        let m = build();
        let a_only = mode_input(b'A');
        let report = reorder_module(&m, &a_only, &ReorderOptions::default()).unwrap();
        assert!(
            report
                .sequences
                .iter()
                .any(|s| s.outcome == SequenceOutcome::NeverExecuted),
            "{:?}",
            report.sequences
        );
    }

    #[test]
    fn multiple_inputs_cover_both_chains() {
        let m = build();
        let a = mode_input(b'A');
        let b = mode_input(b'B');
        let report = reorder_module_with_inputs(&m, &[&a, &b], &ReorderOptions::default()).unwrap();
        let never = report
            .sequences
            .iter()
            .filter(|s| s.outcome == SequenceOutcome::NeverExecuted)
            .count();
        assert_eq!(never, 0, "{:?}", report.sequences);
        assert!(
            report.reordered_count()
                > reorder_module(&m, &a, &ReorderOptions::default())
                    .unwrap()
                    .reordered_count(),
            "better coverage must reorder more sequences"
        );
        // And of course behaviour holds on both modes.
        for input in [&a, &b] {
            let base = br_vm::run(&m, input, &VmOptions::default()).unwrap();
            let new = br_vm::run(&report.module, input, &VmOptions::default()).unwrap();
            assert_eq!(base.output, new.output);
        }
    }

    #[test]
    fn merged_profiles_equal_concatenated_input_profiles() {
        let m = build();
        let a = mode_input(b'A');
        let b = mode_input(b'B');
        // Merging two runs must select like one long run would (modulo
        // the mode byte read once per run, which only shifts counts by
        // a constant on the mode check).
        let multi = reorder_module_with_inputs(&m, &[&a, &b], &ReorderOptions::default()).unwrap();
        assert!(multi.reordered_count() >= 2);
    }
}

#[cfg(test)]
mod opt_tree_tests {
    use super::*;
    use br_minic::{compile, Options};
    use br_vm::run;

    /// A `k`-way else-if classifier over consecutive character codes —
    /// the widest dense partition minic's chains produce, where Set IV's
    /// table candidate pays off on flat input.
    fn wide_classifier(k: usize) -> Module {
        let mut src =
            String::from("int main() { int c; int n; n = 0; c = getchar(); while (c != -1) { ");
        for i in 0..k {
            if i > 0 {
                src.push_str("else ");
            }
            src.push_str(&format!("if (c == {}) n = n + {}; ", 97 + i, i + 1));
        }
        src.push_str("else n = n + 999; c = getchar(); } putint(n); return 0; }");
        let mut m = compile(&src, &Options::default()).expect("compiles");
        br_opt::optimize(&mut m);
        m
    }

    fn flat_input(k: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| 97 + (i % k) as u8).collect()
    }

    #[test]
    fn set_iv_never_plans_worse_than_set_iii() {
        let m = wide_classifier(26);
        let train = flat_input(26, 520);
        let base = reorder_module(&m, &train, &ReorderOptions::default()).unwrap();
        let iv = reorder_module(
            &m,
            &train,
            &ReorderOptions {
                opt_tree: true,
                ..ReorderOptions::default()
            },
        )
        .unwrap();
        for (a, b) in base.sequences.iter().zip(&iv.sequences) {
            if let (
                SequenceOutcome::Reordered { new_cost: c3, .. },
                SequenceOutcome::Reordered { new_cost: c4, .. },
            ) = (&a.outcome, &b.outcome)
            {
                assert!(c4 <= &(c3 + 1e-9), "Set IV {c4} worse than chain {c3}");
            }
        }
    }

    #[test]
    fn flat_wide_sequence_deploys_a_table_and_preserves_behaviour() {
        let m = wide_classifier(26);
        let train = flat_input(26, 520);
        let test: Vec<u8> = flat_input(26, 1000)
            .into_iter()
            .chain(*b"!@# outside the window ~~")
            .collect();
        let opts = ReorderOptions {
            opt_tree: true,
            certify: true,
            ..ReorderOptions::default()
        };
        let report = reorder_module(&m, &train, &opts).unwrap();
        br_ir::verify_module(&report.module).unwrap();
        assert!(
            report
                .sequences
                .iter()
                .any(|s| s.structure == DispatchStructure::Table),
            "{:?}",
            report.sequences
        );
        let summary = report.validation.as_ref().expect("certify validates");
        assert!(summary.is_clean(), "{summary}");
        assert!(summary.proven >= 1);
        assert!(!summary.certificates.is_empty());
        for cert in &summary.certificates {
            br_analysis::cert::check(&cert.text).expect("independent checker accepts");
        }
        let base = run(&m, &test, &VmOptions::default()).unwrap();
        let new = run(&report.module, &test, &VmOptions::default()).unwrap();
        assert_eq!(base.exit, new.exit);
        assert_eq!(base.output, new.output);
        assert!(
            new.stats.indirect_jumps > 0,
            "table must dispatch at runtime"
        );
        assert!(
            new.stats.cond_branches < base.stats.cond_branches,
            "26-way flat dispatch must cut branches: {} -> {}",
            base.stats.cond_branches,
            new.stats.cond_branches
        );
    }

    #[test]
    fn skewed_profile_keeps_a_cheap_structure() {
        // One dominant case: the chain (hot test first) is optimal, so
        // Set IV must not degrade to a table.
        let m = wide_classifier(26);
        let mut train = flat_input(26, 26);
        train.extend(std::iter::repeat_n(97 + 13, 2000));
        let opts = ReorderOptions {
            opt_tree: true,
            ..ReorderOptions::default()
        };
        let report = reorder_module(&m, &train, &opts).unwrap();
        br_ir::verify_module(&report.module).unwrap();
        assert!(report
            .sequences
            .iter()
            .all(|s| s.structure != DispatchStructure::Table));
        let test = train.clone();
        let base = run(&m, &test, &VmOptions::default()).unwrap();
        let new = run(&report.module, &test, &VmOptions::default()).unwrap();
        assert_eq!(base.output, new.output);
        assert!(new.stats.insts < base.stats.insts);
    }

    #[test]
    fn opt_tree_off_never_emits_non_chain_structures() {
        let m = wide_classifier(26);
        let report = reorder_module(&m, &flat_input(26, 260), &ReorderOptions::default()).unwrap();
        assert!(report
            .sequences
            .iter()
            .all(|s| s.structure == DispatchStructure::Chain));
    }
}

#[cfg(test)]
mod layout_mode_tests {
    use super::*;
    use br_minic::{compile, Options};
    use br_vm::run;

    const CLASSIFIER: &str = "
        int main() {
            int c; int spaces; int lines; int tabs; int other;
            spaces = 0; lines = 0; tabs = 0; other = 0;
            c = getchar();
            while (c != -1) {
                if (c == ' ') spaces += 1;
                else if (c == '\\n') lines += 1;
                else if (c == '\\t') tabs += 1;
                else other += 1;
                c = getchar();
            }
            putint(spaces); putint(lines); putint(tabs); putint(other);
            return spaces + 2 * lines + 3 * tabs + 5 * other;
        }";

    fn build() -> Module {
        let mut m = compile(CLASSIFIER, &Options::default()).expect("compiles");
        br_opt::optimize(&mut m);
        m
    }

    fn letters(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| b"abcdefghijklmnopqrstuvwxyz"[i % 26])
            .chain(*b" \n")
            .collect()
    }

    fn with_layout(layout: LayoutMode) -> ReorderOptions {
        ReorderOptions {
            layout,
            certify: true,
            ..ReorderOptions::default()
        }
    }

    #[test]
    fn exttsp_preserves_behaviour_and_never_loses_to_greedy() {
        let m = build();
        let train = letters(200);
        let test = letters(333);
        let greedy = reorder_module(&m, &train, &with_layout(LayoutMode::Greedy)).unwrap();
        let exttsp = reorder_module(&m, &train, &with_layout(LayoutMode::ExtTsp)).unwrap();
        br_ir::verify_module(&exttsp.module).unwrap();
        let summary = exttsp.validation.as_ref().expect("certify validates");
        assert!(summary.is_clean(), "{summary}");
        let g = run(&greedy.module, &test, &VmOptions::default()).unwrap();
        let x = run(&exttsp.module, &test, &VmOptions::default()).unwrap();
        assert_eq!(g.exit, x.exit);
        assert_eq!(g.output, x.output);
        assert!(
            x.stats.taken_branches <= g.stats.taken_branches,
            "ext-TSP took more branches than greedy: {} vs {}",
            x.stats.taken_branches,
            g.stats.taken_branches
        );
    }

    #[test]
    fn layout_off_preserves_behaviour() {
        // No dynamic-count inequality is asserted between Off and
        // Greedy: the reorderer emits replicas already in hot-path
        // order, so the profile-blind chainer can win statically yet
        // lose dynamically — quantifying that is exactly what the sweep
        // interaction table is for.
        let m = build();
        let train = letters(200);
        let test = letters(333);
        let greedy = reorder_module(&m, &train, &with_layout(LayoutMode::Greedy)).unwrap();
        let off = reorder_module(&m, &train, &with_layout(LayoutMode::Off)).unwrap();
        br_ir::verify_module(&off.module).unwrap();
        let g = run(&greedy.module, &test, &VmOptions::default()).unwrap();
        let o = run(&off.module, &test, &VmOptions::default()).unwrap();
        assert_eq!(g.exit, o.exit);
        assert_eq!(g.output, o.output);
    }

    #[test]
    fn exttsp_layout_is_deterministic() {
        let m = build();
        let train = letters(150);
        let a = reorder_module(&m, &train, &with_layout(LayoutMode::ExtTsp)).unwrap();
        let b = reorder_module(&m, &train, &with_layout(LayoutMode::ExtTsp)).unwrap();
        assert_eq!(
            br_ir::print_module(&a.module),
            br_ir::print_module(&b.module)
        );
    }
}

#[cfg(test)]
mod static_heuristic_tests {
    use super::*;
    use br_minic::{compile, Options};
    use br_vm::run;

    const CLASSIFY: &str = "
        int main() {
            int c; int k; k = 0;
            c = getchar();
            while (c != -1) {
                if (c == ' ') k += 1;
                else if (c == '\\n') k += 2;
                else if (c == '\\t') k += 3;
                else k += 7;
                c = getchar();
            }
            putint(k);
            return 0;
        }";

    #[test]
    fn static_heuristic_reorders_without_meaningful_training() {
        let mut m = compile(CLASSIFY, &Options::default()).unwrap();
        br_opt::optimize(&mut m);
        let opts = ReorderOptions {
            static_heuristic: true,
            ..ReorderOptions::default()
        };
        // Empty training input: a real profile would skip everything.
        let report = reorder_module(&m, b"", &opts).unwrap();
        assert!(report.reordered_count() >= 1, "{:?}", report.sequences);
        // The uniform-domain assumption puts the wide default range
        // first — beneficial on letter-dominated input.
        let text = b"plain letters dominate this text\n".repeat(50);
        let base = run(&m, &text, &VmOptions::default()).unwrap();
        let new = run(&report.module, &text, &VmOptions::default()).unwrap();
        assert_eq!(base.output, new.output);
        assert!(new.stats.insts < base.stats.insts);
    }

    #[test]
    fn real_profile_beats_static_heuristic_on_skewed_input() {
        // Input dominated by tabs: the uniform assumption ranks the tab
        // range (1 value) last, a real profile ranks it first.
        let mut m = compile(CLASSIFY, &Options::default()).unwrap();
        br_opt::optimize(&mut m);
        let tabs = vec![b'\t'; 2000];
        let profiled = reorder_module(&m, &tabs, &ReorderOptions::default()).unwrap();
        let statict = reorder_module(
            &m,
            &tabs,
            &ReorderOptions {
                static_heuristic: true,
                ..ReorderOptions::default()
            },
        )
        .unwrap();
        let p = run(&profiled.module, &tabs, &VmOptions::default()).unwrap();
        let s = run(&statict.module, &tabs, &VmOptions::default()).unwrap();
        assert_eq!(p.output, s.output);
        assert!(
            p.stats.insts < s.stats.insts,
            "profile {} should beat static {}",
            p.stats.insts,
            s.stats.insts
        );
    }
}
