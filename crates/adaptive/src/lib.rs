//! # br-adaptive
//!
//! Continuous profile-guided reoptimization on top of the branch
//! reordering pipeline: the train-once, deploy-forever model of the
//! paper, upgraded to a runtime that keeps profiling the deployed
//! program and re-reorders sequences when their branch-variable
//! distribution drifts.
//!
//! The pieces:
//!
//! * **Online profiling** — the deployed module keeps its sequence-head
//!   probes (the VM counts them as architecturally free), and the
//!   runtime maintains exponentially decayed per-range counters so the
//!   *recent* distribution dominates.
//! * **Drift detection** ([`drift`]) — each sequence remembers the
//!   distribution its deployed ordering was selected under; an L1 or
//!   chi-square distance with hysteresis decides when that basis no
//!   longer describes reality.
//! * **Hot swapping** ([`runtime`]) — on drift, the sequence is
//!   re-planned against the live profile and a fresh replica is spliced
//!   in at the sequence head (a safe point the VM pauses at between
//!   epochs), through the pipeline's own `br_reorder::decide` and
//!   `br_reorder::commit`. Every replica is certified against the
//!   pristine pre-swap function; a failed proof aborts the swap, never
//!   the run.
//! * **Measurement** ([`report`]) — [`adapt_stream`] races the adaptive
//!   runtime against a frozen train-once deployment and a per-phase
//!   offline oracle over a phase-shifting input stream.

pub mod drift;
pub mod report;
pub mod runtime;

pub use drift::{normalize, DriftDecision, DriftDetector, DriftMetric, DriftThresholds};
pub use report::{adapt_stream, AdaptReport, PhaseRow};
pub use runtime::{AdaptOptions, AdaptiveRuntime};
