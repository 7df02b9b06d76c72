//! # br-reorder
//!
//! The paper's contribution: profile-guided reordering of sequences of
//! conditional branches that compare a common variable against constants
//! (*"Improving Performance by Branch Reordering"*, Yang, Uh & Whalley,
//! PLDI 1998).
//!
//! The pieces, mapped to the paper:
//!
//! * [`range`] — ranges, default ranges (Definitions 1, 7, 8; Section 5).
//! * [`detect`] — finding reorderable sequences (Section 3, Figure 4),
//!   including Form 4 bounded pairs and the movability condition on
//!   intervening side effects (Section 4, Theorem 2).
//! * [`profile`] — profiling instrumentation at the sequence head
//!   (Section 5) and the per-range exit probabilities.
//! * [`order`] — cost model and ordering selection (Section 6,
//!   Theorem 3, Equations 1–4, Figure 8) plus an exhaustive oracle.
//! * [`dispatch`] — heuristic Set IV: DP-optimal comparison trees and
//!   bounds-checked jump tables as alternative dispatch structures,
//!   selected per sequence by min-of-three against the chain.
//! * [`emit`] — rebuilding the reordered sequence: Form 4 intra-condition
//!   branch ordering and redundant-comparison elimination (Section 7,
//!   Figure 9), side-effect duplication, default-target tail duplication.
//! * [`apply`] — splicing the replicated sequence into the CFG
//!   (Section 8, Figure 10).
//! * [`mod@decide`] — the per-sequence step the pipeline and the adaptive
//!   runtime share: a pure [`decide()`] and a certifying [`commit()`].
//! * [`pipeline`] — the two-pass compile–profile–reorder driver
//!   (Figure 2) and the static statistics the evaluation reports.
//! * [`validate`] — stage-attributing translation validation: every
//!   applied sequence is proven equivalent to its original chain (via
//!   `br-analysis`), and a failure names the pipeline stage at fault.
//!
//! The whole two-pass pipeline in one call — train on one input, get a
//! restructured module plus a record per detected sequence:
//!
//! ```
//! use br_minic::{compile, HeuristicSet, Options};
//! use br_reorder::{reorder_module, ReorderOptions, SequenceOutcome};
//!
//! // Most characters are ordinary, yet ' ' and '\n' are tested first.
//! let src = "int main() { int c; int n; n = 0; c = getchar();
//!     while (c != -1) {
//!         if (c == 32) { n = n + 1; }
//!         else if (c == 10) { n = n + 2; }
//!         else { n = n + 3; }
//!         c = getchar();
//!     }
//!     return n; }";
//! let mut module = compile(src, &Options::with_heuristics(HeuristicSet::SET_I))
//!     .expect("compiles");
//! br_opt::optimize(&mut module);
//!
//! let training = b"mostly ordinary letters, few separators";
//! let report = reorder_module(&module, training, &ReorderOptions::default())
//!     .expect("training run succeeds");
//! // The else-if chain was found and restructured for the skew.
//! assert!(report
//!     .sequences
//!     .iter()
//!     .any(|s| matches!(s.outcome, SequenceOutcome::Reordered { .. })));
//! ```

pub mod apply;
pub mod decide;
pub mod detect;
pub mod dispatch;
pub mod emit;
pub mod order;
pub mod pipeline;
pub mod profile;
pub mod range;
pub mod validate;

pub use br_layout::LayoutMode;
pub use decide::{commit, decide, Committed, Decision, Proof};
pub use detect::{detect_sequences, DetectedCondition, DetectedSequence};
pub use dispatch::{plan_dispatch, DispatchPlan, DispatchStructure};
pub use order::{select_ordering, OrderItem, Ordering};
pub use pipeline::{
    plan_for_profile, reorder_module, reorder_module_with_inputs, ReorderOptions, ReorderReport,
    SequenceOutcome, SequencePlan,
};
pub use profile::{detect_all, instrument_module, profiles_from_run, SequenceProfile};
pub use range::{Form, Range};
pub use validate::{
    certify_sequence, validate_sequence, CertifyFailure, SequenceCertificate, Stage, StageFailure,
    ValidationSummary,
};
