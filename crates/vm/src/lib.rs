//! # br-vm
//!
//! An interpreter for [`br_ir`] modules that plays the role of the paper's
//! measurement substrate (the SPARC machines plus the `ease` environment):
//!
//! * [`run`] executes a module's `main` and returns a [`RunOutcome`] with
//!   exact dynamic event counts ([`ExecStats`]): instructions, conditional
//!   branches, unconditional jumps, indirect jumps, compares, and more.
//!   It dispatches through a pre-decoded fast path; decode once with
//!   [`Image::decode`] and call [`run_image`] to amortize decoding across
//!   many runs of the same module. [`run_hooked`] runs on the same
//!   engine, pausing at epochs so a hook can hot-swap code mid-run.
//!   [`run_reference`] is the classic tree-walking interpreter, kept only
//!   as the equivalence oracle.
//! * **Fall-through modelling.** Block storage order *is* code layout. A
//!   `Jump` to the next block costs nothing; a conditional branch whose
//!   not-taken successor is not adjacent pays an extra unconditional jump,
//!   exactly as laid-out machine code would.
//! * [`predictor`] simulates the paper's (0,1) and (0,2) branch predictors
//!   with parameterizable table sizes; many configurations are evaluated in
//!   a single run (Tables 5 and 6).
//! * [`timing`] converts event counts into modelled cycles (Table 7).
//! * Profiling probes ([`br_ir::Inst::ProfileRanges`]) populate per-range
//!   counters without perturbing the architectural counts, standing in for
//!   the paper's profiling instrumentation.
//!
//! ```
//! use br_ir::{FuncBuilder, Module, Operand, Terminator, Callee, Intrinsic, Inst};
//! use br_vm::{run, VmOptions};
//!
//! let mut m = Module::new();
//! let mut b = FuncBuilder::new("main");
//! let c = b.new_reg();
//! let e = b.entry();
//! b.push(e, Inst::Call { dst: Some(c), callee: Callee::Intrinsic(Intrinsic::GetChar), args: vec![] });
//! b.push(e, Inst::Call { dst: None, callee: Callee::Intrinsic(Intrinsic::PutChar), args: vec![Operand::Reg(c)] });
//! b.set_term(e, Terminator::Return(Some(Operand::Imm(0))));
//! m.main = Some(m.add_function(b.finish()));
//!
//! let out = run(&m, b"A", &VmOptions::default()).expect("runs");
//! assert_eq!(out.output, b"A");
//! assert_eq!(out.exit, 0);
//! ```

mod counters;
mod dispatch;
mod machine;
mod memory;
pub mod predictor;
mod stats;
pub mod timing;
mod trap;

pub use counters::{counters_match_stats, function_counters, FunctionCounters};
pub use dispatch::{run_hooked, run_image, Image};
pub use machine::{run, run_reference, run_reference_hooked, EpochHook, RunOutcome, VmOptions};
pub use predictor::{PredictorConfig, PredictorResult, Scheme};
pub use stats::{pct_change, ExecStats};
pub use timing::TimeModel;
pub use trap::Trap;
