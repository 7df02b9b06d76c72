//! Textual IR printing for debugging and golden tests.

use std::fmt::Write as _;

use crate::function::Function;
use crate::inst::{Callee, Inst, Terminator};
use crate::module::Module;

/// Render one function as readable assembly-like text.
pub fn print_function(f: &Function) -> String {
    let mut out = String::new();
    write_function(&mut out, f);
    out
}

/// Append [`print_function`]'s text for `f` to `out`, without
/// allocating anything but `out`'s own growth.
pub fn write_function(out: &mut String, f: &Function) {
    let _ = write!(out, "func {}(", f.name);
    write_list(out, &f.param_regs);
    let _ = writeln!(out, ") regs={} frame={} {{", f.num_regs, f.frame_size);
    for id in f.block_ids() {
        let b = f.block(id);
        let entry_mark = if id == f.entry { " ; entry" } else { "" };
        let _ = writeln!(out, "{id}:{entry_mark}");
        for inst in &b.insts {
            out.push_str("    ");
            write_inst(out, inst);
            out.push('\n');
        }
        out.push_str("    ");
        write_term(out, &b.term);
        out.push('\n');
    }
    out.push_str("}\n");
}

/// `items` joined by `", "`.
fn write_list<T: std::fmt::Display>(out: &mut String, items: &[T]) {
    for (i, item) in items.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{item}");
    }
}

fn write_inst(out: &mut String, inst: &Inst) {
    let _ = match inst {
        Inst::Copy { dst, src } => write!(out, "mov {dst}, {src}"),
        Inst::Bin { op, dst, lhs, rhs } => {
            write!(out, "{} {dst}, {lhs}, {rhs}", op.mnemonic())
        }
        Inst::Un { op, dst, src } => write!(out, "{} {dst}, {src}", op.mnemonic()),
        Inst::Cmp { lhs, rhs } => write!(out, "cmp {lhs}, {rhs}"),
        Inst::Load { dst, base, index } => write!(out, "ld {dst}, [{base}+{index}]"),
        Inst::Store { base, index, src } => write!(out, "st [{base}+{index}], {src}"),
        Inst::FrameAddr { dst, offset } => write!(out, "lea {dst}, frame+{offset}"),
        Inst::Call { dst, callee, args } => {
            out.push_str("call ");
            if let Some(d) = dst {
                let _ = write!(out, "{d}, ");
            }
            let _ = match callee {
                Callee::Func(id) => write!(out, "{id:?}("),
                Callee::Intrinsic(i) => write!(out, "{}(", i.name()),
            };
            write_list(out, args);
            out.push(')');
            Ok(())
        }
        Inst::ProfileRanges { seq, var } => write!(out, "profile {seq:?}, {var}"),
    };
}

fn write_term(out: &mut String, term: &Terminator) {
    let _ = match term {
        Terminator::Branch {
            cond,
            taken,
            not_taken,
        } => write!(out, "{} {taken} else {not_taken}", cond.mnemonic()),
        Terminator::Jump(t) => write!(out, "jmp {t}"),
        Terminator::IndirectJump { index, targets } => {
            let _ = write!(out, "ijmp {index}, [");
            write_list(out, targets);
            out.push(']');
            Ok(())
        }
        Terminator::Return(Some(v)) => write!(out, "ret {v}"),
        Terminator::Return(None) => write!(out, "ret"),
    };
}

/// Render a whole module. The output is complete enough to be read back
/// by [`crate::parse_module`] (globals with initializers, profile plans,
/// and the `main` designation included).
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    for g in &m.globals {
        let init: Vec<String> = g.init.iter().map(|v| v.to_string()).collect();
        let _ = writeln!(
            out,
            "global {} @{} size={} init=[{}]",
            g.name,
            g.addr,
            g.size,
            init.join(", ")
        );
    }
    for (i, plan) in m.profile_plans.iter().enumerate() {
        let rs: Vec<String> = plan
            .ranges
            .iter()
            .map(|(lo, hi)| format!("{lo}..{hi}"))
            .collect();
        let _ = writeln!(
            out,
            "plan seq{i} func={} head={} ranges=[{}]",
            plan.func.0,
            plan.head.0,
            rs.join(", ")
        );
    }
    if let Some(main) = m.main {
        let _ = writeln!(out, "main {main:?}");
    }
    for f in &m.functions {
        write_function(&mut out, f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::{Cond, Operand, Reg};

    #[test]
    fn printed_function_mentions_every_block_and_inst() {
        let mut b = FuncBuilder::new("show");
        let x = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        let t = b.new_block();
        let f_ = b.new_block();
        b.cmp_branch(e, x, 5i64, Cond::Eq, t, f_);
        b.set_term(t, Terminator::Return(Some(Operand::Imm(1))));
        b.set_term(f_, Terminator::Return(Some(Operand::Reg(Reg(0)))));
        let text = print_function(&b.finish());
        assert!(text.contains("func show(r0)"));
        assert!(text.contains("cmp r0, 5"));
        assert!(text.contains("beq b1 else b2"));
        assert!(text.contains("ret 1"));
        assert!(text.contains("ret r0"));
    }
}
