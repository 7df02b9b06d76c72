//! # br-ir
//!
//! A small RISC-like register-transfer intermediate representation used by
//! the reproduction of *"Improving Performance by Branch Reordering"*
//! (Yang, Uh & Whalley, PLDI 1998).
//!
//! The IR deliberately mirrors the SPARC code the paper's `vpo` compiler
//! produced in the two properties the transformation depends on:
//!
//! * **Compare and branch are separate instructions.** A [`Inst::Cmp`]
//!   sets the (single, implicit) condition-code register and a block's
//!   [`Terminator::Branch`] tests it. This is what makes the paper's
//!   redundant-comparison elimination (its Figure 9) expressible.
//! * **Explicit fall-through successors.** Every conditional branch names
//!   both its taken and not-taken successor; a separate layout pass decides
//!   which control transfers are free fall-throughs and which cost an
//!   unconditional jump, as on a real machine.
//!
//! The building blocks are [`Module`] → [`Function`] → [`Block`] →
//! [`Inst`]/[`Terminator`], with [`FuncBuilder`] as the convenient way to
//! construct functions.
//!
//! ```
//! use br_ir::{FuncBuilder, Module, Operand, Cond, Terminator};
//!
//! let mut module = Module::new();
//! let mut b = FuncBuilder::new("abs");
//! let x = b.new_reg();
//! let entry = b.entry();
//! let neg = b.new_block();
//! let done = b.new_block();
//! b.set_param_regs(vec![x]);
//! b.cmp(entry, Operand::Reg(x), Operand::Imm(0));
//! b.set_term(entry, Terminator::branch(Cond::Lt, neg, done));
//! b.un(neg, br_ir::UnOp::Neg, x, Operand::Reg(x));
//! b.set_term(neg, Terminator::Jump(done));
//! b.set_term(done, Terminator::Return(Some(Operand::Reg(x))));
//! module.add_function(b.finish());
//! ```

mod builder;
mod cfg;
pub mod dom;
mod function;
mod inst;
mod module;
mod parse;
mod print;
mod verify;

pub use builder::FuncBuilder;
pub use cfg::{postorder, predecessors, reachable, reverse_postorder};
pub use function::{Block, BlockId, Function};
pub use inst::{BinOp, Callee, Cond, Inst, Intrinsic, Operand, Reg, Terminator, UnOp};
pub use module::{FuncId, GlobalData, Module, ProfilePlan, SeqId};
pub use parse::{parse_module, ParseIrError};
pub use print::{print_function, print_module, write_function};
pub use verify::{
    verify_function, verify_function_all, verify_module, verify_module_all, VerifyError,
};
