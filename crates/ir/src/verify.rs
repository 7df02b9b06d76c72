//! A structural IR verifier, run after construction and after every
//! transformation in tests to catch malformed CFGs early.

use std::fmt;

use crate::function::{BlockId, Function};
use crate::inst::{Callee, Inst, Terminator};
use crate::module::Module;

/// A verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name the error was found in.
    pub function: String,
    /// Offending block, when applicable.
    pub block: Option<BlockId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.block {
            Some(b) => write!(f, "in {} at {}: {}", self.function, b, self.message),
            None => write!(f, "in {}: {}", self.function, self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify a single function against structural invariants:
///
/// * every successor block id is in range;
/// * every register mentioned is `< num_regs`;
/// * every `FrameAddr` offset is `< frame_size`;
/// * every conditional branch sees defined condition codes: on every path
///   from the entry, a `Cmp` executes before the branch with no
///   intervening `Call` (calls clobber the condition codes). The compare
///   may live in a *predecessor* block — the paper's redundant-comparison
///   elimination (its Figure 9) relies on exactly that;
/// * indirect jump tables are non-empty.
///
/// # Errors
///
/// Returns the first violation found. Use [`verify_function_all`] to
/// collect every violation, e.g. for diagnostic listings.
pub fn verify_function(f: &Function, module: Option<&Module>) -> Result<(), VerifyError> {
    match verify_function_all(f, module).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Verify a single function and return *every* violation found, in a
/// deterministic order (structural checks in block order, then the
/// condition-code dataflow check). An empty vector means the function is
/// well-formed. This is what `brc lint` uses to show the full list at
/// once instead of fix-one-rerun loops.
pub fn verify_function_all(f: &Function, module: Option<&Module>) -> Vec<VerifyError> {
    let mut out = Vec::new();
    let mut push = |block: Option<BlockId>, message: String| {
        out.push(VerifyError {
            function: f.name.clone(),
            block,
            message,
        });
    };
    if f.entry.index() >= f.blocks.len() {
        push(None, format!("entry {} out of range", f.entry));
        // With an invalid entry the CFG walks below would be meaningless.
        return out;
    }
    for &p in &f.param_regs {
        if p.0 >= f.num_regs {
            push(None, format!("param reg {p} out of range"));
        }
    }
    let mut successors_ok = true;
    for id in f.block_ids() {
        let b = f.block(id);
        for inst in &b.insts {
            if let Some(d) = inst.def() {
                if d.0 >= f.num_regs {
                    push(Some(id), format!("def of out-of-range reg {d}"));
                }
            }
            for u in inst.uses() {
                if u.0 >= f.num_regs {
                    push(Some(id), format!("use of out-of-range reg {u}"));
                }
            }
            match inst {
                Inst::FrameAddr { offset, .. } if *offset >= f.frame_size.max(1) => {
                    push(Some(id), format!("frame offset {offset} out of range"));
                }
                Inst::Call { callee, args, .. } => match callee {
                    Callee::Intrinsic(i) => {
                        if args.len() != i.arity() {
                            push(
                                Some(id),
                                format!(
                                    "intrinsic {} wants {} args, got {}",
                                    i.name(),
                                    i.arity(),
                                    args.len()
                                ),
                            );
                        }
                    }
                    Callee::Func(fid) => {
                        if let Some(m) = module {
                            if fid.index() >= m.functions.len() {
                                push(Some(id), format!("call to unknown {fid:?}"));
                            } else {
                                let callee_f = m.function(*fid);
                                if callee_f.param_regs.len() != args.len() {
                                    push(
                                        Some(id),
                                        format!(
                                            "call to {} wants {} args, got {}",
                                            callee_f.name,
                                            callee_f.param_regs.len(),
                                            args.len()
                                        ),
                                    );
                                }
                            }
                        }
                    }
                },
                Inst::ProfileRanges { seq, .. } => {
                    // A dangling probe verifies clean structurally but
                    // indexes past the interpreter's counter tables.
                    if let Some(m) = module {
                        if m.profile_plans.get(seq.index()).is_none() {
                            push(Some(id), format!("unknown profile {seq:?}"));
                        }
                    }
                }
                _ => {}
            }
        }
        for s in b.term.successors() {
            if s.index() >= f.blocks.len() {
                push(Some(id), format!("successor {s} out of range"));
                successors_ok = false;
            }
        }
        match &b.term {
            Terminator::Branch { .. } => {}
            Terminator::IndirectJump { index, targets } => {
                if targets.is_empty() {
                    push(Some(id), "empty indirect jump table".to_string());
                }
                if index.0 >= f.num_regs {
                    push(Some(id), format!("ijmp index reg {index} OOR"));
                }
            }
            _ => {}
        }
        for u in b.term.uses() {
            if u.0 >= f.num_regs {
                push(Some(id), format!("terminator uses OOR reg {u}"));
            }
        }
    }
    // The cc dataflow check walks successor edges; only run it on a CFG
    // whose edges all land in range.
    if successors_ok {
        collect_cc_errors(f, &mut out);
    }
    out
}

/// Effect of a block's body on the "condition codes defined" fact.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CcEffect {
    /// Body neither sets nor clobbers the condition codes.
    Transparent,
    /// Body leaves the condition codes defined (final cc-writer is a `Cmp`).
    Defines,
    /// Body leaves them clobbered (final cc-writer is a `Call`).
    Clobbers,
}

fn cc_effect(b: &crate::function::Block) -> CcEffect {
    let mut eff = CcEffect::Transparent;
    for inst in &b.insts {
        match inst {
            Inst::Cmp { .. } => eff = CcEffect::Defines,
            Inst::Call { .. } => eff = CcEffect::Clobbers,
            _ => {}
        }
    }
    eff
}

/// Forward must-analysis: every conditional branch must be reached with
/// condition codes defined on all paths from the entry. Appends one error
/// per offending branch block.
fn collect_cc_errors(f: &Function, out: &mut Vec<VerifyError>) {
    let n = f.blocks.len();
    // cc state at block entry: true = definitely defined on all paths seen.
    // Optimistic initialization with iteration to a fixed point; start with
    // "defined" everywhere except the entry and intersect over predecessors.
    let mut entry_state = vec![true; n];
    entry_state[f.entry.index()] = false;
    let order = crate::cfg::reverse_postorder(f);
    let reach = crate::cfg::reachable(f);
    // Only reachable predecessors contribute paths; unreachable blocks may
    // linger with stale edges between a transformation and its DCE pass.
    let mut preds = crate::cfg::predecessors(f);
    for ps in &mut preds {
        ps.retain(|p| reach.contains(p));
    }
    loop {
        let mut changed = false;
        for &b in &order {
            let state = if b == f.entry {
                false
            } else {
                let ps = &preds[b.index()];
                !ps.is_empty()
                    && ps.iter().all(|p| match cc_effect(f.block(*p)) {
                        CcEffect::Defines => true,
                        CcEffect::Clobbers => false,
                        CcEffect::Transparent => entry_state[p.index()],
                    })
            };
            if state != entry_state[b.index()] {
                entry_state[b.index()] = state;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for &b in &order {
        if matches!(f.block(b).term, Terminator::Branch { .. }) {
            let at_term = match cc_effect(f.block(b)) {
                CcEffect::Defines => true,
                CcEffect::Clobbers => false,
                CcEffect::Transparent => entry_state[b.index()],
            };
            if !at_term {
                out.push(VerifyError {
                    function: f.name.clone(),
                    block: Some(b),
                    message: "conditional branch with undefined condition codes".to_string(),
                });
            }
        }
    }
}

/// Verify every function of a module, plus module-level invariants
/// (designated `main` exists; globals are packed without overlap).
///
/// # Errors
///
/// Returns the first violation found. Use [`verify_module_all`] to
/// collect every violation across the whole module.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    match verify_module_all(m).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Verify every function of a module and return *every* violation found:
/// module-level invariants first, then per-function structural errors in
/// function order. An empty vector means the module is well-formed.
pub fn verify_module_all(m: &Module) -> Vec<VerifyError> {
    let mut out = Vec::new();
    let mut module_err = |message: String| {
        out.push(VerifyError {
            function: "<module>".to_string(),
            block: None,
            message,
        });
    };
    if let Some(main) = m.main {
        if main.index() >= m.functions.len() {
            module_err(format!("main {main:?} out of range"));
        }
    }
    let mut cursor = 0i64;
    for g in &m.globals {
        if g.addr < cursor {
            module_err(format!("global {} overlaps predecessor", g.name));
        }
        if (g.init.len() as u32) > g.size {
            module_err(format!("global {} init exceeds size", g.name));
        }
        cursor = cursor.max(g.addr + g.size as i64);
    }
    for f in &m.functions {
        out.extend(verify_function_all(f, Some(m)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::function::Block;
    use crate::inst::{Cond, Operand, Reg};

    #[test]
    fn accepts_well_formed_function() {
        let mut b = FuncBuilder::new("ok");
        let x = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        let t = b.new_block();
        let f_ = b.new_block();
        b.cmp_branch(e, x, 0i64, Cond::Lt, t, f_);
        b.set_term(t, Terminator::Return(Some(Operand::Imm(-1))));
        b.set_term(f_, Terminator::Return(Some(Operand::Imm(1))));
        assert_eq!(verify_function(&b.finish(), None), Ok(()));
    }

    #[test]
    fn rejects_branch_without_cmp() {
        let mut f = Function::new("bad");
        let t = f.add_block(Block::new(Terminator::Return(None)));
        f.block_mut(f.entry).term = Terminator::branch(Cond::Eq, t, t);
        let e = verify_function(&f, None).unwrap_err();
        assert!(e.message.contains("undefined condition codes"));
    }

    #[test]
    fn accepts_branch_with_cmp_in_predecessor() {
        // Figure 9 of the paper: redundant-comparison elimination leaves a
        // branch whose cmp lives in the predecessor block.
        let mut b = FuncBuilder::new("fig9");
        let x = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        let second = b.new_block();
        let t1 = b.new_block();
        let t2 = b.new_block();
        b.cmp_branch(e, x, 5i64, Cond::Gt, t1, second);
        // `second` has no cmp of its own; cc flow from `e` is still valid.
        b.set_term(second, Terminator::branch(Cond::Eq, t2, t1));
        b.set_term(t1, Terminator::Return(Some(Operand::Imm(1))));
        b.set_term(t2, Terminator::Return(Some(Operand::Imm(2))));
        assert_eq!(verify_function(&b.finish(), None), Ok(()));
    }

    #[test]
    fn rejects_cc_clobbered_by_call() {
        use crate::inst::{Callee, Intrinsic};
        let mut b = FuncBuilder::new("clobber");
        let x = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        let t = b.new_block();
        b.cmp(e, x, 0i64);
        b.push(
            e,
            Inst::Call {
                dst: Some(x),
                callee: Callee::Intrinsic(Intrinsic::GetChar),
                args: vec![],
            },
        );
        b.set_term(e, Terminator::branch(Cond::Eq, t, t));
        b.set_term(t, Terminator::Return(None));
        let err = verify_function(&b.finish(), None).unwrap_err();
        assert!(err.message.contains("undefined condition codes"));
    }

    #[test]
    fn rejects_out_of_range_successor() {
        let mut f = Function::new("bad");
        f.block_mut(f.entry).term = Terminator::Jump(BlockId(7));
        assert!(verify_function(&f, None).is_err());
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut f = Function::new("bad");
        f.block_mut(f.entry).insts.push(Inst::Copy {
            dst: Reg(3),
            src: Operand::Imm(0),
        });
        assert!(verify_function(&f, None).is_err());
    }

    #[test]
    fn rejects_bad_intrinsic_arity() {
        use crate::inst::{Callee, Intrinsic};
        let mut f = Function::new("bad");
        f.block_mut(f.entry).insts.push(Inst::Call {
            dst: None,
            callee: Callee::Intrinsic(Intrinsic::PutChar),
            args: vec![],
        });
        let e = verify_function(&f, None).unwrap_err();
        assert!(e.message.contains("putchar"));
    }

    #[test]
    fn module_checks_main_and_globals() {
        let mut m = Module::new();
        m.main = Some(crate::module::FuncId(0));
        assert!(verify_module(&m).is_err());
        let mut m = Module::new();
        m.add_global("a", vec![1], 1);
        m.add_global("b", vec![2], 1);
        assert_eq!(verify_module(&m), Ok(()));
    }

    #[test]
    fn rejects_a_dangling_profile_probe() {
        // A probe whose seq id names no plan passes a naive structural
        // check and then panics the interpreter with an out-of-bounds
        // counter index.
        use crate::module::{FuncId, ProfilePlan, SeqId};

        let module_with = |plans: Vec<ProfilePlan>| {
            let mut m = Module::new();
            m.profile_plans = plans;
            let mut f = Function::new("main");
            f.num_regs = 1;
            f.block_mut(f.entry).insts.push(Inst::ProfileRanges {
                seq: SeqId(0),
                var: Reg(0),
            });
            m.main = Some(m.add_function(f));
            m
        };

        let e = verify_module(&module_with(vec![])).unwrap_err();
        assert!(e.message.contains("unknown profile seq0"), "{e}");

        let plan = ProfilePlan {
            func: FuncId(0),
            head: BlockId(0),
            ranges: vec![(i64::MIN, i64::MAX)],
        };
        assert_eq!(verify_module(&module_with(vec![plan])), Ok(()));
    }

    #[test]
    fn collects_every_violation_at_once() {
        // Three independent problems in one function: an out-of-range
        // register def, a bad intrinsic arity, and a branch with
        // undefined condition codes. `verify_function` reports only the
        // first; `verify_function_all` reports all three.
        use crate::inst::{Callee, Intrinsic};
        let mut f = Function::new("multi");
        let t = f.add_block(Block::new(Terminator::Return(None)));
        let e = f.entry;
        f.block_mut(e).insts.push(Inst::Copy {
            dst: Reg(9),
            src: Operand::Imm(0),
        });
        f.block_mut(e).insts.push(Inst::Call {
            dst: None,
            callee: Callee::Intrinsic(Intrinsic::PutChar),
            args: vec![],
        });
        f.block_mut(e).term = Terminator::branch(Cond::Eq, t, t);
        let all = verify_function_all(&f, None);
        assert_eq!(all.len(), 3, "{all:?}");
        assert!(all[0].message.contains("out-of-range"));
        assert!(all[1].message.contains("putchar"));
        assert!(all[2].message.contains("undefined condition codes"));
        let first = verify_function(&f, None).unwrap_err();
        assert_eq!(first, all[0]);
    }
}
