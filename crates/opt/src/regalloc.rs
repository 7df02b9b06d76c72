//! Linear-scan register allocation.
//!
//! The IR uses unlimited virtual registers; real machines do not. This
//! pass maps virtual registers onto a finite machine register file
//! (SPARC-like, configurable size), spilling excess live ranges to frame
//! slots. It is not part of the default measurement pipeline — the
//! paper's transformation is evaluated on register-transfer code — but
//! provides backend realism: allocated code runs identically, with the
//! extra loads/stores of spill code visible in the dynamic counts
//! (see the `register-pressure` ablation bench).
//!
//! Algorithm: classic linear scan over live intervals derived from
//! [`crate::liveness`] and the block linearization. The top three
//! machine registers are reserved as spill scratch (an instruction reads
//! at most three operands, and an instruction that also defines a
//! register reads at most two).

use std::collections::HashMap;

use br_ir::{Function, Inst, Operand, Reg, Terminator};

use crate::liveness;

/// Allocation parameters.
#[derive(Clone, Copy, Debug)]
pub struct RegAllocOptions {
    /// Machine registers available, including the three spill scratch
    /// registers. SPARC exposes roughly 24 usable integer registers per
    /// window.
    pub num_regs: u32,
}

impl Default for RegAllocOptions {
    fn default() -> RegAllocOptions {
        RegAllocOptions { num_regs: 24 }
    }
}

/// What allocation did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegAllocResult {
    /// Virtual registers spilled to frame slots.
    pub spilled: usize,
    /// Machine registers assigned (excluding scratch).
    pub used_regs: u32,
}

#[derive(Clone, Copy, Debug)]
struct Interval {
    vreg: Reg,
    start: u32,
    end: u32,
    is_param: bool,
}

/// Allocate `f`'s virtual registers onto `opts.num_regs` machine
/// registers, inserting spill code as needed.
///
/// Returns `None` — leaving the function untouched — if the function's
/// parameters alone exceed the allocatable registers.
///
/// # Panics
///
/// Panics if `opts.num_regs < 4` (three scratch plus at least one
/// allocatable register are required).
pub fn allocate_registers(f: &mut Function, opts: &RegAllocOptions) -> Option<RegAllocResult> {
    assert!(opts.num_regs >= 4, "need at least one allocatable register");
    let allocatable = opts.num_regs - 3;
    if f.param_regs.len() as u32 > allocatable {
        return None;
    }

    // ----- live intervals -----
    let live = liveness::analyze(f);
    let mut block_start = vec![0u32; f.blocks.len()];
    let mut block_end = vec![0u32; f.blocks.len()];
    let mut pos = 0u32;
    for (i, b) in f.blocks.iter().enumerate() {
        block_start[i] = pos;
        pos += b.insts.len() as u32 + 1;
        block_end[i] = pos - 1;
    }
    let mut ivs: HashMap<Reg, Interval> = HashMap::new();
    let mut touch = |r: Reg, at: u32| {
        let e = ivs.entry(r).or_insert(Interval {
            vreg: r,
            start: at,
            end: at,
            is_param: false,
        });
        e.start = e.start.min(at);
        e.end = e.end.max(at);
    };
    for (i, b) in f.blocks.iter().enumerate() {
        for &r in &live.live_in[i] {
            touch(r, block_start[i]);
        }
        for &r in &live.live_out[i] {
            touch(r, block_end[i]);
        }
        let mut at = block_start[i];
        for inst in &b.insts {
            for u in inst.uses() {
                touch(u, at);
            }
            if let Some(d) = inst.def() {
                touch(d, at);
            }
            at += 1;
        }
        for u in b.term.uses() {
            touch(u, at);
        }
    }
    for &p in &f.param_regs {
        let e = ivs.entry(p).or_insert(Interval {
            vreg: p,
            start: 0,
            end: 0,
            is_param: true,
        });
        e.is_param = true;
        e.start = 0;
    }

    // ----- linear scan -----
    let mut intervals: Vec<Interval> = ivs.into_values().collect();
    intervals.sort_by_key(|iv| (iv.start, iv.vreg.0));
    let mut active: Vec<(Interval, u32)> = Vec::new();
    let mut free: Vec<u32> = (0..allocatable).rev().collect();
    let mut assignment: HashMap<Reg, u32> = HashMap::new();
    let mut spilled: Vec<Reg> = Vec::new();
    let mut used_regs = 0u32;
    for iv in intervals {
        active.retain(|(a, phys)| {
            if a.end < iv.start {
                free.push(*phys);
                false
            } else {
                true
            }
        });
        if let Some(phys) = free.pop() {
            used_regs = used_regs.max(phys + 1);
            assignment.insert(iv.vreg, phys);
            active.push((iv, phys));
            continue;
        }
        // Evict the non-param active interval ending furthest away if it
        // outlives the current one; otherwise spill the current interval.
        let victim = active
            .iter()
            .enumerate()
            .filter(|(_, (a, _))| !a.is_param)
            .max_by_key(|(_, (a, _))| a.end)
            .map(|(i, _)| i);
        match victim {
            Some(idx) if active[idx].0.end > iv.end => {
                let (old, phys) = active.swap_remove(idx);
                assignment.remove(&old.vreg);
                spilled.push(old.vreg);
                assignment.insert(iv.vreg, phys);
                active.push((iv, phys));
            }
            _ => {
                debug_assert!(!iv.is_param, "params outnumber registers?");
                spilled.push(iv.vreg);
            }
        }
    }

    // ----- rewrite with spill code -----
    let scratch = [Reg(allocatable), Reg(allocatable + 1), Reg(allocatable + 2)];
    let mut slot_of: HashMap<Reg, u32> = HashMap::new();
    for &v in &spilled {
        slot_of.insert(v, f.frame_size);
        f.frame_size += 1;
    }
    let phys = |r: Reg| -> Reg { Reg(*assignment.get(&r).expect("assigned register")) };

    for b in 0..f.blocks.len() {
        let block = &mut f.blocks[b];
        let old = std::mem::take(&mut block.insts);
        let mut out: Vec<Inst> = Vec::with_capacity(old.len());
        for mut inst in old {
            let orig_def = inst.def();
            let mut next_scratch = 0usize;
            // Reload each distinct spilled use into its own scratch.
            let mut reload: HashMap<Reg, Reg> = HashMap::new();
            for u in inst.uses() {
                if let Some(&slot) = slot_of.get(&u) {
                    if reload.contains_key(&u) {
                        continue;
                    }
                    let s = scratch[next_scratch];
                    next_scratch += 1;
                    out.push(Inst::FrameAddr {
                        dst: s,
                        offset: slot,
                    });
                    out.push(Inst::Load {
                        dst: s,
                        base: Operand::Reg(s),
                        index: Operand::Imm(0),
                    });
                    reload.insert(u, s);
                }
            }
            // A spilled definition computes into a scratch of its own.
            let def_scratch = orig_def.and_then(|d| {
                slot_of.get(&d).map(|&slot| {
                    let s = scratch[next_scratch];
                    (d, s, slot)
                })
            });
            let map_use = |r: Reg| -> Reg {
                if let Some(&s) = reload.get(&r) {
                    s
                } else {
                    phys(r)
                }
            };
            let map_def = |r: Reg| -> Reg {
                if let Some((d, s, _)) = def_scratch {
                    if r == d {
                        return s;
                    }
                }
                phys(r)
            };
            rewrite_operands(&mut inst, &map_use, &map_def);
            out.push(inst);
            if let Some((_, s, slot)) = def_scratch {
                // Store the freshly computed value; the address register
                // may be any scratch other than `s` (all use-reloads are
                // dead past the instruction).
                let addr = *scratch.iter().find(|&&x| x != s).expect("3 scratch");
                out.push(Inst::FrameAddr {
                    dst: addr,
                    offset: slot,
                });
                out.push(Inst::Store {
                    base: Operand::Reg(addr),
                    index: Operand::Imm(0),
                    src: Operand::Reg(s),
                });
            }
        }
        // Terminator operands.
        let mut term = std::mem::replace(&mut block.term, Terminator::Return(None));
        let term_uses = term.uses();
        let mut reload: HashMap<Reg, Reg> = HashMap::new();
        let mut next_scratch = 0usize;
        for u in term_uses {
            if let Some(&slot) = slot_of.get(&u) {
                if reload.contains_key(&u) {
                    continue;
                }
                let s = scratch[next_scratch];
                next_scratch += 1;
                out.push(Inst::FrameAddr {
                    dst: s,
                    offset: slot,
                });
                out.push(Inst::Load {
                    dst: s,
                    base: Operand::Reg(s),
                    index: Operand::Imm(0),
                });
                reload.insert(u, s);
            }
        }
        rewrite_terminator(&mut term, &|r| {
            if let Some(&s) = reload.get(&r) {
                s
            } else {
                phys(r)
            }
        });
        block.term = term;
        block.insts = out;
    }
    f.param_regs = f.param_regs.iter().map(|&p| phys(p)).collect();
    f.num_regs = opts.num_regs;
    Some(RegAllocResult {
        spilled: spilled.len(),
        used_regs,
    })
}

fn rewrite_operands(inst: &mut Inst, map_use: &dyn Fn(Reg) -> Reg, map_def: &dyn Fn(Reg) -> Reg) {
    let mop = |op: &mut Operand| {
        if let Operand::Reg(r) = op {
            *r = map_use(*r);
        }
    };
    match inst {
        Inst::Copy { dst, src } => {
            mop(src);
            *dst = map_def(*dst);
        }
        Inst::Bin { dst, lhs, rhs, .. } => {
            mop(lhs);
            mop(rhs);
            *dst = map_def(*dst);
        }
        Inst::Un { dst, src, .. } => {
            mop(src);
            *dst = map_def(*dst);
        }
        Inst::Cmp { lhs, rhs } => {
            mop(lhs);
            mop(rhs);
        }
        Inst::Load { dst, base, index } => {
            mop(base);
            mop(index);
            *dst = map_def(*dst);
        }
        Inst::Store { base, index, src } => {
            mop(base);
            mop(index);
            mop(src);
        }
        Inst::FrameAddr { dst, .. } => *dst = map_def(*dst),
        Inst::Call { dst, args, .. } => {
            for a in args {
                mop(a);
            }
            if let Some(d) = dst {
                *d = map_def(*d);
            }
        }
        Inst::ProfileRanges { var, .. } => *var = map_use(*var),
    }
}

fn rewrite_terminator(term: &mut Terminator, map: &dyn Fn(Reg) -> Reg) {
    match term {
        Terminator::IndirectJump { index, .. } => *index = map(*index),
        Terminator::Return(Some(Operand::Reg(r))) => *r = map(*r),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::{BinOp, Cond, FuncBuilder, Module};
    use br_vm::{run, VmOptions};

    /// A chain of k simultaneously-live values, summed at the end.
    fn pressure_module(k: usize) -> Module {
        let mut b = FuncBuilder::new("main");
        let regs: Vec<Reg> = (0..k).map(|_| b.new_reg()).collect();
        let sum = b.new_reg();
        let e = b.entry();
        for (i, &r) in regs.iter().enumerate() {
            b.copy(e, r, (i as i64 + 1) * 3);
        }
        b.copy(e, sum, 0i64);
        for &r in &regs {
            b.bin(e, BinOp::Add, sum, sum, r);
        }
        b.set_term(e, Terminator::Return(Some(br_ir::Operand::Reg(sum))));
        let mut m = Module::new();
        m.main = Some(m.add_function(b.finish()));
        m
    }

    fn check_alloc(mut m: Module, num_regs: u32) -> (i64, i64, RegAllocResult) {
        let before = run(&m, b"", &VmOptions::default()).unwrap().exit;
        let result = allocate_registers(&mut m.functions[0], &RegAllocOptions { num_regs })
            .expect("allocatable");
        br_ir::verify_function(&m.functions[0], None).unwrap();
        assert!(m.functions[0].num_regs == num_regs);
        // Every register mentioned is a machine register.
        for blk in &m.functions[0].blocks {
            for inst in &blk.insts {
                for u in inst.uses() {
                    assert!(u.0 < num_regs, "unallocated use {u}");
                }
                if let Some(d) = inst.def() {
                    assert!(d.0 < num_regs, "unallocated def {d}");
                }
            }
        }
        let after = run(&m, b"", &VmOptions::default()).unwrap().exit;
        (before, after, result)
    }

    #[test]
    fn no_spills_when_registers_suffice() {
        let (before, after, result) = check_alloc(pressure_module(5), 24);
        assert_eq!(before, after);
        assert_eq!(result.spilled, 0);
        assert!(result.used_regs >= 5);
    }

    #[test]
    fn spills_under_pressure_and_preserves_semantics() {
        // 30 simultaneously-live values through an 8-register machine.
        let (before, after, result) = check_alloc(pressure_module(30), 8);
        assert_eq!(before, after, "spill code must preserve the result");
        assert!(result.spilled > 0, "30 live values cannot fit 5 registers");
    }

    #[test]
    fn tiny_register_files_still_work() {
        let (before, after, _) = check_alloc(pressure_module(12), 4);
        assert_eq!(before, after);
    }

    #[test]
    fn too_many_params_is_refused() {
        let mut b = FuncBuilder::new("f");
        let params: Vec<Reg> = (0..6).map(|_| b.new_reg()).collect();
        b.set_param_regs(params);
        let e = b.entry();
        b.set_term(e, Terminator::Return(None));
        let mut f = b.finish();
        assert!(allocate_registers(&mut f, &RegAllocOptions { num_regs: 8 }).is_none());
    }

    #[test]
    fn loops_with_spilled_values_run_correctly() {
        // Loop-carried registers under extreme pressure.
        let mut b = FuncBuilder::new("main");
        let regs: Vec<Reg> = (0..10).map(|_| b.new_reg()).collect();
        let i = b.new_reg();
        let e = b.entry();
        let head = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        for (k, &r) in regs.iter().enumerate() {
            b.copy(e, r, k as i64);
        }
        b.copy(e, i, 0i64);
        b.set_term(e, Terminator::Jump(head));
        b.cmp_branch(head, i, 50i64, Cond::Ge, done, body);
        // Rotate values through the registers.
        for w in regs.windows(2) {
            b.bin(body, BinOp::Add, w[1], w[1], w[0]);
        }
        b.bin(body, BinOp::Add, i, i, 1i64);
        b.set_term(body, Terminator::Jump(head));
        let last = *regs.last().unwrap();
        b.set_term(done, Terminator::Return(Some(br_ir::Operand::Reg(last))));
        let mut m = Module::new();
        m.main = Some(m.add_function(b.finish()));
        let (before, after, result) = check_alloc(m, 6);
        assert_eq!(before, after);
        assert!(result.spilled > 0);
    }

    #[test]
    fn allocation_composes_with_optimized_minic_code() {
        use br_minic::{compile, Options};
        let src = "
            int main() {
                int c; int a; int b; int d; int e2; int f2; int g;
                a=0;b=0;d=0;e2=0;f2=0;g=0;
                c = getchar();
                while (c != -1) {
                    if (c == ' ') a += 1;
                    else if (c == '\\n') b += 1;
                    else if (c == '\\t') d += 1;
                    else { e2 += 1; f2 += c; g += c % 7; }
                    c = getchar();
                }
                putint(a); putint(b); putint(d); putint(e2);
                return f2 + g;
            }";
        let mut m = compile(src, &Options::default()).unwrap();
        crate::optimize(&mut m);
        let input = b"words and more words\nwith tabs\there\n".repeat(30);
        let base = run(&m, &input, &VmOptions::default()).unwrap();
        let mut allocated = m.clone();
        for f in &mut allocated.functions {
            allocate_registers(f, &RegAllocOptions { num_regs: 8 }).expect("fits");
        }
        br_ir::verify_module(&allocated).unwrap();
        let got = run(&allocated, &input, &VmOptions::default()).unwrap();
        assert_eq!(base.exit, got.exit);
        assert_eq!(base.output, got.output);
        // Spill code costs extra instructions; never fewer.
        assert!(got.stats.insts >= base.stats.insts);
    }
}
