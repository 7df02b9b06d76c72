//! The interpreter.

use br_ir::{Callee, Inst, Intrinsic, Module, Operand, Reg, Terminator};

use crate::memory::Memory;
use crate::predictor::{Predictor, PredictorConfig, PredictorResult};
use crate::stats::ExecStats;
use crate::trap::Trap;

/// Interpreter configuration.
#[derive(Clone, Debug)]
pub struct VmOptions {
    /// Upper bound on executed blocks (runaway guard).
    pub max_steps: u64,
    /// Upper bound on call depth.
    pub max_call_depth: usize,
    /// Words of memory available for stack frames beyond the globals.
    /// This is a limit, not an allocation: memory grows on demand up to
    /// `globals_end + stack_words` words, and a frame or access past that
    /// traps (`StackOverflow` / `MemoryOutOfBounds`).
    pub stack_words: usize,
    /// Predictor configurations to simulate during the run (all updated
    /// from the same branch stream, so a single execution yields a whole
    /// sweep).
    pub predictors: Vec<PredictorConfig>,
    /// Instruction cost charged per indirect jump. SPARC needs roughly a
    /// table-address computation, a load, and the jump itself, so 3 is the
    /// default; bounds checks are explicit compare/branch code emitted by
    /// the front end and are counted on their own.
    pub indirect_jump_insts: u64,
    /// Capture the first N executed basic blocks as trace lines
    /// (`f0:b3`) in [`RunOutcome::trace`]. 0 disables tracing.
    pub trace_blocks: usize,
    /// Epoch length in executed blocks for [`crate::run_hooked`]: once at least
    /// this many blocks have run since the last epoch, execution pauses
    /// at the next safe point (a profiled sequence head at call depth 1)
    /// and the hook runs. 0 disables epochs; plain [`run`] ignores this.
    pub epoch_blocks: u64,
}

impl Default for VmOptions {
    fn default() -> VmOptions {
        VmOptions {
            max_steps: 500_000_000,
            max_call_depth: 512,
            stack_words: 1 << 20,
            predictors: Vec::new(),
            indirect_jump_insts: 3,
            trace_blocks: 0,
            epoch_blocks: 0,
        }
    }
}

/// A callback driven by [`crate::run_hooked`] at epoch boundaries.
///
/// The hook gets exclusive access to the module — the program is paused
/// at a sequence head, so replacing a sequence's ordering (rewriting the
/// head's terminator to a fresh replica) is safe: no frame on the stack
/// holds a position inside any sequence body. `profiles` are the live
/// cumulative counters of the current run.
pub trait EpochHook {
    /// Called at each epoch boundary. Return `true` if the module was
    /// mutated; the interpreter then re-decodes it (branch addresses,
    /// fall-through and delay-slot facts) before resuming.
    fn on_epoch(&mut self, module: &mut Module, profiles: &mut [Vec<u64>]) -> bool;
}

/// Everything observed from one execution.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// `main`'s return value.
    pub exit: i64,
    /// Bytes written through `putchar`/`putint`.
    pub output: Vec<u8>,
    /// Architectural event counts.
    pub stats: ExecStats,
    /// Profile counters: `profiles[seq][range]` executions, matching the
    /// module's [`br_ir::ProfilePlan`]s.
    pub profiles: Vec<Vec<u64>>,
    /// One result per requested predictor configuration.
    pub predictor_results: Vec<PredictorResult>,
    /// First `trace_blocks` executed blocks, as `fN:bM` lines.
    pub trace: Vec<String>,
    /// Per-block `[executions, taken]` frequencies, `[func][block]`.
    /// `taken` is nonzero only for blocks ending in a conditional branch.
    /// These are the edge profiles the layout pass (`br-layout`) scores
    /// against; [`crate::function_counters`] derives per-function
    /// taken-branch / fall-through / delay-stall totals from them.
    pub block_counts: Vec<Vec<[u64; 2]>>,
}

struct State<'m> {
    opts: &'m VmOptions,
    memory: Memory,
    frame_top: i64,
    input: &'m [u8],
    input_pos: usize,
    output: Vec<u8>,
    stats: ExecStats,
    profiles: Vec<Vec<u64>>,
    /// Per-block `[executions, taken]` frequencies, `[func][block]`;
    /// grown in place when an epoch hook appends blocks mid-run.
    block_counts: Vec<Vec<[u64; 2]>>,
    predictors: Vec<Predictor>,
    /// Static address of each block's terminator: `[func][block]`.
    branch_addrs: Vec<Vec<u64>>,
    /// Whether each block's delay slot is UNFILLED: `[func][block]`.
    /// A slot is fillable from above when the block carries at least one
    /// real instruction besides the compare feeding its own branch
    /// (profiling probes are not real instructions). This conservative
    /// approximation ignores filling from successors, which the paper
    /// notes often yields annulled (useless) slots anyway.
    unfilled_slot: Vec<Vec<bool>>,
    /// `(func, head)` of every profiled sequence: the safe points where
    /// an epoch may yield. Recomputed with the layout after a swap.
    plan_heads: Vec<(usize, br_ir::BlockId)>,
    /// Step count at which the next epoch is due (`u64::MAX` = never).
    next_epoch: u64,
    steps: u64,
    depth: usize,
    trace: Vec<String>,
}

/// How one [`exec_function`] activation ended.
enum Flow {
    /// The function returned this value.
    Done(i64),
    /// Execution paused for an epoch at block `at` (not yet executed);
    /// `regs`/`cc` are the live frame state needed to resume.
    Epoch {
        at: br_ir::BlockId,
        regs: Vec<i64>,
        cc: Option<(i64, i64)>,
    },
}

/// Saved frame state handed back to [`exec_function`] to resume `main`
/// after an epoch pause.
struct Resume {
    at: br_ir::BlockId,
    regs: Vec<i64>,
    cc: Option<(i64, i64)>,
}

/// Per-block static layout caches: terminator addresses for predictor
/// indexing and delay-slot fillability, both derived from storage order.
pub(crate) struct Layout {
    pub(crate) branch_addrs: Vec<Vec<u64>>,
    pub(crate) unfilled_slot: Vec<Vec<bool>>,
}

/// Compute the layout caches. Block storage order is treated as final
/// code layout, so this must be recomputed whenever blocks are added or
/// rewritten mid-run (an epoch hook swapping a sequence).
pub(crate) fn compute_layout(module: &Module) -> Layout {
    let mut branch_addrs = Vec::with_capacity(module.functions.len());
    let mut unfilled_slot = Vec::with_capacity(module.functions.len());
    let mut addr = 0u64;
    for f in &module.functions {
        let mut per_block = Vec::with_capacity(f.blocks.len());
        let mut per_block_slot = Vec::with_capacity(f.blocks.len());
        for b in &f.blocks {
            addr += b.insts.len() as u64;
            per_block.push(addr);
            addr += 1;
            let real: Vec<&Inst> = b
                .insts
                .iter()
                .filter(|i| !matches!(i, Inst::ProfileRanges { .. }))
                .collect();
            let fillable = match &b.term {
                Terminator::Branch { .. } => {
                    // The final compare feeds the branch and cannot sit
                    // in its own delay slot.
                    real.len() >= 2 || (real.len() == 1 && !matches!(real[0], Inst::Cmp { .. }))
                }
                _ => !real.is_empty(),
            };
            per_block_slot.push(!fillable);
        }
        branch_addrs.push(per_block);
        unfilled_slot.push(per_block_slot);
    }
    Layout {
        branch_addrs,
        unfilled_slot,
    }
}

/// The `(func, head)` pairs of every profile plan: the epoch-safe yield
/// points.
fn plan_heads(module: &Module) -> Vec<(usize, br_ir::BlockId)> {
    module
        .profile_plans
        .iter()
        .map(|p| (p.func.index(), p.head))
        .collect()
}

/// Execute the module's `main` function on `input`.
///
/// Block storage order is treated as final code layout for fall-through
/// accounting; run the layout pass (`br_opt::reposition`) first if the
/// module has not been laid out.
///
/// Dispatches through the pre-decoded fast path (see [`crate::Image`]):
/// the module is decoded once into a dense instruction stream and then
/// interpreted, the same engine behind [`crate::run_hooked`]. The
/// classic tree-walking interpreter survives only as the oracle
/// [`run_reference`]; both produce identical outcomes (pinned by the
/// root-level `vm_equivalence` test). Callers that execute one module
/// many times should decode once with [`crate::Image::decode`] and call
/// [`crate::run_image`] directly to amortize the decode.
///
/// # Errors
///
/// Returns a [`Trap`] for abnormal termination: division by zero, memory
/// or jump-table violations, undefined condition codes, explicit `abort`,
/// or exceeded step/stack budgets.
pub fn run(module: &Module, input: &[u8], opts: &VmOptions) -> Result<RunOutcome, Trap> {
    crate::dispatch::run_image(&crate::dispatch::Image::decode(module), input, opts)
}

/// Execute the module's `main` with the classic tree-walking interpreter.
///
/// This is the original dispatch loop that re-reads the [`Module`]
/// structure on every step. It is kept only as the independent oracle
/// for the fast path's equivalence tests, the fuzz cross-check and the
/// baseline of the dispatch benchmark. Use [`run`] everywhere else.
///
/// # Errors
///
/// Returns a [`Trap`] exactly as [`run`] does.
pub fn run_reference(module: &Module, input: &[u8], opts: &VmOptions) -> Result<RunOutcome, Trap> {
    let main = module.main.ok_or(Trap::NoMain)?;
    let mut state = new_state(module, input, opts);
    state.next_epoch = u64::MAX; // plain runs never yield
    match exec_function(&mut state, module, main.index(), &[], None)? {
        Flow::Done(exit) => Ok(finish(exit, state)),
        Flow::Epoch { .. } => unreachable!("epochs are disabled in plain runs"),
    }
}

/// [`crate::run_hooked`] on the classic tree-walking interpreter: the
/// oracle for the fast engine's epoch pauses and hot swaps, used only by
/// the equivalence tests and the fuzz cross-check. It pauses at the same
/// safe points and, after a mutation, recomputes its layout caches.
///
/// # Errors
///
/// Returns a [`Trap`] exactly as [`run`] does.
#[doc(hidden)]
pub fn run_reference_hooked(
    module: &mut Module,
    input: &[u8],
    opts: &VmOptions,
    hook: &mut dyn EpochHook,
) -> Result<RunOutcome, Trap> {
    let main = module.main.ok_or(Trap::NoMain)?;
    let mut state = new_state(module, input, opts);
    state.next_epoch = if opts.epoch_blocks > 0 {
        opts.epoch_blocks
    } else {
        u64::MAX
    };
    let mut resume: Option<Resume> = None;
    loop {
        match exec_function(&mut state, module, main.index(), &[], resume.take())? {
            Flow::Done(exit) => return Ok(finish(exit, state)),
            Flow::Epoch { at, regs, cc } => {
                if hook.on_epoch(module, &mut state.profiles) {
                    let layout = compute_layout(module);
                    state.branch_addrs = layout.branch_addrs;
                    state.unfilled_slot = layout.unfilled_slot;
                    state.plan_heads = plan_heads(module);
                    // A swap may have appended replica blocks (or whole
                    // functions); their counters start at zero.
                    state
                        .block_counts
                        .resize_with(module.functions.len(), Vec::new);
                    for (counts, f) in state.block_counts.iter_mut().zip(&module.functions) {
                        counts.resize(f.blocks.len(), [0u64; 2]);
                    }
                }
                state.next_epoch = state.steps.saturating_add(opts.epoch_blocks.max(1));
                resume = Some(Resume { at, regs, cc });
            }
        }
    }
}

fn new_state<'m>(module: &Module, input: &'m [u8], opts: &'m VmOptions) -> State<'m> {
    let globals_end = module.globals_end();
    // Assign each block terminator a static address: cumulative instruction
    // offsets in storage (= layout) order, so predictor aliasing resembles
    // real code addresses.
    let layout = compute_layout(module);
    State {
        opts,
        memory: Memory::new(
            globals_end,
            opts.stack_words,
            module
                .globals
                .iter()
                .map(|g| (g.addr as usize, &g.init[..])),
        ),
        frame_top: globals_end,
        input,
        input_pos: 0,
        output: Vec::new(),
        stats: ExecStats::new(),
        profiles: module
            .profile_plans
            .iter()
            .map(|p| vec![0; p.ranges.len()])
            .collect(),
        block_counts: module
            .functions
            .iter()
            .map(|f| vec![[0u64; 2]; f.blocks.len()])
            .collect(),
        predictors: opts.predictors.iter().map(|&c| Predictor::new(c)).collect(),
        branch_addrs: layout.branch_addrs,
        unfilled_slot: layout.unfilled_slot,
        plan_heads: plan_heads(module),
        next_epoch: u64::MAX,
        steps: 0,
        depth: 0,
        trace: Vec::new(),
    }
}

fn finish(exit: i64, state: State<'_>) -> RunOutcome {
    RunOutcome {
        exit,
        output: state.output,
        stats: state.stats,
        profiles: state.profiles,
        predictor_results: state.predictors.iter().map(Predictor::result).collect(),
        trace: state.trace,
        block_counts: state.block_counts,
    }
}

fn operand(regs: &[i64], op: Operand) -> i64 {
    match op {
        Operand::Reg(Reg(r)) => regs[r as usize],
        Operand::Imm(i) => i,
    }
}

fn exec_function(
    state: &mut State<'_>,
    module: &Module,
    func: usize,
    args: &[i64],
    resume: Option<Resume>,
) -> Result<Flow, Trap> {
    if state.depth >= state.opts.max_call_depth {
        return Err(Trap::StackOverflow { depth: state.depth });
    }
    state.depth += 1;
    let f = &module.functions[func];
    let frame_base = state.frame_top;
    let frame = state.memory.frame(frame_base, f.frame_size, state.depth)?;
    if resume.is_none() {
        // Local arrays start zeroed on every activation; a frame
        // resumed after an epoch pause keeps its contents.
        frame.fill(0);
    }
    state.frame_top += f.frame_size as i64;

    let (mut regs, mut cur, mut cc) = match resume {
        Some(r) => {
            // Resuming after an epoch pause: registers are restored —
            // resized, since a hook swap may have grown the register file.
            let mut regs = r.regs;
            regs.resize(f.num_regs as usize, 0);
            (regs, r.at, r.cc)
        }
        None => {
            let mut regs = vec![0i64; f.num_regs as usize];
            for (reg, val) in f.param_regs.iter().zip(args) {
                regs[reg.0 as usize] = *val;
            }
            (regs, f.entry, None)
        }
    };

    let result = 'run: loop {
        // Epoch pause: only at call depth 1, only at a profiled sequence
        // head, and checked *before* the head executes — resuming never
        // double-counts a step, probe, or stat.
        if state.steps >= state.next_epoch
            && state.depth == 1
            && state
                .plan_heads
                .iter()
                .any(|&(pf, pb)| pf == func && pb == cur)
        {
            break 'run Ok(Flow::Epoch { at: cur, regs, cc });
        }
        state.steps += 1;
        if state.steps > state.opts.max_steps {
            break 'run Err(Trap::StepLimitExceeded {
                limit: state.opts.max_steps,
            });
        }
        if state.trace.len() < state.opts.trace_blocks {
            state.trace.push(format!("f{func}:{cur}"));
        }
        state.block_counts[func][cur.index()][0] += 1;
        let block = &f.blocks[cur.index()];
        for inst in &block.insts {
            match inst {
                Inst::Copy { dst, src } => {
                    state.stats.insts += 1;
                    regs[dst.0 as usize] = operand(&regs, *src);
                }
                Inst::Bin { op, dst, lhs, rhs } => {
                    state.stats.insts += 1;
                    let a = operand(&regs, *lhs);
                    let b = operand(&regs, *rhs);
                    match op.eval(a, b) {
                        Some(v) => regs[dst.0 as usize] = v,
                        None => break 'run Err(Trap::DivideByZero),
                    }
                }
                Inst::Un { op, dst, src } => {
                    state.stats.insts += 1;
                    regs[dst.0 as usize] = op.eval(operand(&regs, *src));
                }
                Inst::Cmp { lhs, rhs } => {
                    state.stats.insts += 1;
                    state.stats.compares += 1;
                    cc = Some((operand(&regs, *lhs), operand(&regs, *rhs)));
                }
                Inst::Load { dst, base, index } => {
                    state.stats.insts += 1;
                    state.stats.loads += 1;
                    let addr = operand(&regs, *base).wrapping_add(operand(&regs, *index));
                    match state.memory.load(addr) {
                        Ok(v) => regs[dst.0 as usize] = v,
                        Err(t) => break 'run Err(t),
                    }
                }
                Inst::Store { base, index, src } => {
                    state.stats.insts += 1;
                    state.stats.stores += 1;
                    let addr = operand(&regs, *base).wrapping_add(operand(&regs, *index));
                    if let Err(t) = state.memory.store(addr, operand(&regs, *src)) {
                        break 'run Err(t);
                    }
                }
                Inst::FrameAddr { dst, offset } => {
                    state.stats.insts += 1;
                    regs[dst.0 as usize] = frame_base + *offset as i64;
                }
                Inst::Call { dst, callee, args } => {
                    state.stats.insts += 1;
                    state.stats.calls += 1;
                    cc = None; // calls clobber the condition codes
                    let vals: Vec<i64> = args.iter().map(|a| operand(&regs, *a)).collect();
                    let ret = match callee {
                        Callee::Intrinsic(i) => match exec_intrinsic(state, *i, &vals) {
                            Ok(v) => v,
                            Err(t) => break 'run Err(t),
                        },
                        Callee::Func(fid) => {
                            match exec_function(state, module, fid.index(), &vals, None) {
                                Ok(Flow::Done(v)) => v,
                                Ok(Flow::Epoch { .. }) => {
                                    unreachable!("epochs only pause at call depth 1")
                                }
                                Err(t) => break 'run Err(t),
                            }
                        }
                    };
                    if let Some(d) = dst {
                        regs[d.0 as usize] = ret;
                    }
                }
                Inst::ProfileRanges { seq, var } => {
                    // Profiling probes are architecturally free.
                    let v = regs[var.0 as usize];
                    let plan = &module.profile_plans[seq.index()];
                    if let Some(idx) = plan.range_containing(v) {
                        state.profiles[seq.index()][idx] += 1;
                    }
                }
            }
        }
        if state.unfilled_slot[func][cur.index()] {
            state.stats.delay_stalls += 1;
        }
        match &block.term {
            Terminator::Branch {
                cond,
                taken,
                not_taken,
            } => {
                state.stats.insts += 1;
                state.stats.cond_branches += 1;
                let Some((l, r)) = cc else {
                    break 'run Err(Trap::UndefinedConditionCodes);
                };
                let is_taken = cond.eval(l, r);
                let addr = state.branch_addrs[func][cur.index()];
                for p in &mut state.predictors {
                    p.record(addr, is_taken);
                }
                if is_taken {
                    state.stats.taken_branches += 1;
                    state.block_counts[func][cur.index()][1] += 1;
                    cur = *taken;
                } else {
                    // A not-taken branch falls through; if the layout
                    // does not place `not_taken` next, an unconditional
                    // jump materializes.
                    if not_taken.index() != cur.index() + 1 {
                        state.stats.insts += 1;
                        state.stats.uncond_jumps += 1;
                    }
                    cur = *not_taken;
                }
            }
            Terminator::Jump(t) => {
                if t.index() != cur.index() + 1 {
                    state.stats.insts += 1;
                    state.stats.uncond_jumps += 1;
                }
                cur = *t;
            }
            Terminator::IndirectJump { index, targets } => {
                state.stats.insts += state.opts.indirect_jump_insts;
                state.stats.indirect_jumps += 1;
                let v = regs[index.0 as usize];
                if v < 0 || v as usize >= targets.len() {
                    break 'run Err(Trap::IndirectJumpOutOfBounds {
                        index: v,
                        table_len: targets.len(),
                    });
                }
                cur = targets[v as usize];
            }
            Terminator::Return(v) => {
                state.stats.insts += 1;
                state.stats.returns += 1;
                break 'run Ok(Flow::Done(v.map(|op| operand(&regs, op)).unwrap_or(0)));
            }
        }
    };
    state.frame_top = frame_base;
    state.depth -= 1;
    result
}

fn exec_intrinsic(state: &mut State<'_>, i: Intrinsic, args: &[i64]) -> Result<i64, Trap> {
    intrinsic_step(
        i,
        args,
        state.input,
        &mut state.input_pos,
        &mut state.output,
    )
}

/// One intrinsic call against raw I/O state; shared by the classic
/// interpreter and the pre-decoded fast path so the two cannot drift.
pub(crate) fn intrinsic_step(
    i: Intrinsic,
    args: &[i64],
    input: &[u8],
    input_pos: &mut usize,
    output: &mut Vec<u8>,
) -> Result<i64, Trap> {
    match i {
        Intrinsic::GetChar => {
            if *input_pos < input.len() {
                let c = input[*input_pos];
                *input_pos += 1;
                Ok(c as i64)
            } else {
                Ok(-1)
            }
        }
        Intrinsic::PutChar => {
            output.push(args[0] as u8);
            Ok(args[0])
        }
        Intrinsic::PutInt => {
            output.extend_from_slice(args[0].to_string().as_bytes());
            output.push(b'\n');
            Ok(args[0])
        }
        Intrinsic::Abort => Err(Trap::Abort { code: args[0] }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::{BinOp, Cond, FuncBuilder, Module};

    fn module_of(f: br_ir::Function) -> Module {
        let mut m = Module::new();
        m.main = Some(m.add_function(f));
        m
    }

    /// `main` that sums 1..=n via a loop; checks counts and exit value.
    fn loop_sum(n: i64) -> Module {
        let mut b = FuncBuilder::new("main");
        let i = b.new_reg();
        let acc = b.new_reg();
        let e = b.entry();
        let head = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.copy(e, i, 0i64);
        b.copy(e, acc, 0i64);
        b.set_term(e, Terminator::Jump(head));
        b.cmp_branch(head, i, n, Cond::Ge, done, body);
        b.bin(body, BinOp::Add, i, i, 1i64);
        b.bin(body, BinOp::Add, acc, acc, i);
        b.set_term(body, Terminator::Jump(head));
        b.set_term(done, Terminator::Return(Some(Operand::Reg(acc))));
        module_of(b.finish())
    }

    #[test]
    fn sum_loop_computes_and_counts() {
        let m = loop_sum(10);
        let out = run(&m, b"", &VmOptions::default()).unwrap();
        assert_eq!(out.exit, 55);
        // Branch executes 11 times (10 continues + 1 exit).
        assert_eq!(out.stats.cond_branches, 11);
        assert_eq!(out.stats.taken_branches, 1);
        assert_eq!(out.stats.compares, 11);
        assert_eq!(out.stats.returns, 1);
    }

    #[test]
    fn fallthrough_jumps_are_free() {
        // entry jumps to next block (free) and then to a far block (paid).
        let mut b = FuncBuilder::new("main");
        let e = b.entry();
        let nxt = b.new_block();
        let far = b.new_block();
        let mid = b.new_block();
        b.set_term(e, Terminator::Jump(nxt)); // adjacent: free
        b.set_term(nxt, Terminator::Jump(mid)); // skips far: paid
        b.set_term(mid, Terminator::Jump(far)); // backwards: paid
        b.set_term(far, Terminator::Return(None));
        let m = module_of(b.finish());
        let out = run(&m, b"", &VmOptions::default()).unwrap();
        assert_eq!(out.stats.uncond_jumps, 2);
        assert_eq!(out.stats.insts, 2 + 1); // two jumps + return
    }

    #[test]
    fn not_taken_branch_to_non_adjacent_block_pays_a_jump() {
        let mut b = FuncBuilder::new("main");
        let x = b.new_reg();
        let e = b.entry();
        let far = b.new_block();
        let target = b.new_block();
        b.copy(e, x, 1i64);
        b.cmp_branch(e, x, 0i64, Cond::Eq, far, target); // not taken, non-adjacent
        b.set_term(far, Terminator::Return(None));
        b.set_term(target, Terminator::Return(None));
        let m = module_of(b.finish());
        let out = run(&m, b"", &VmOptions::default()).unwrap();
        assert_eq!(out.stats.cond_branches, 1);
        assert_eq!(out.stats.taken_branches, 0);
        assert_eq!(out.stats.uncond_jumps, 1);
    }

    #[test]
    fn io_round_trip() {
        let mut b = FuncBuilder::new("main");
        let c = b.new_reg();
        let e = b.entry();
        let body = b.new_block();
        let done = b.new_block();
        b.set_term(e, Terminator::Jump(body));
        b.push(
            body,
            Inst::Call {
                dst: Some(c),
                callee: Callee::Intrinsic(Intrinsic::GetChar),
                args: vec![],
            },
        );
        b.cmp(body, c, -1i64);
        let echo = echo_block(&mut b, c, body);
        b.set_term(body, Terminator::branch(Cond::Eq, done, echo));
        b.set_term(done, Terminator::Return(Some(Operand::Imm(0))));
        let m = module_of(b.finish());
        let out = run(&m, b"hi!", &VmOptions::default()).unwrap();
        assert_eq!(out.output, b"hi!");
    }

    /// Helper: builds an echo block that putchars `c` then jumps to `back`.
    fn echo_block(b: &mut FuncBuilder, c: br_ir::Reg, back: br_ir::BlockId) -> br_ir::BlockId {
        let echo = b.new_block();
        b.push(
            echo,
            Inst::Call {
                dst: None,
                callee: Callee::Intrinsic(Intrinsic::PutChar),
                args: vec![Operand::Reg(c)],
            },
        );
        b.set_term(echo, Terminator::Jump(back));
        echo
    }

    #[test]
    fn getchar_returns_minus_one_at_eof() {
        let mut b = FuncBuilder::new("main");
        let c = b.new_reg();
        let e = b.entry();
        b.push(
            e,
            Inst::Call {
                dst: Some(c),
                callee: Callee::Intrinsic(Intrinsic::GetChar),
                args: vec![],
            },
        );
        b.set_term(e, Terminator::Return(Some(Operand::Reg(c))));
        let m = module_of(b.finish());
        assert_eq!(run(&m, b"", &VmOptions::default()).unwrap().exit, -1);
    }

    #[test]
    fn divide_by_zero_traps() {
        let mut b = FuncBuilder::new("main");
        let x = b.new_reg();
        let e = b.entry();
        b.bin(e, BinOp::Div, x, 1i64, 0i64);
        b.set_term(e, Terminator::Return(None));
        let m = module_of(b.finish());
        assert_eq!(
            run(&m, b"", &VmOptions::default()).unwrap_err(),
            Trap::DivideByZero
        );
    }

    #[test]
    fn memory_bounds_trap() {
        let mut b = FuncBuilder::new("main");
        let x = b.new_reg();
        let e = b.entry();
        b.load(e, x, -5i64, 0i64);
        b.set_term(e, Terminator::Return(None));
        let m = module_of(b.finish());
        assert!(matches!(
            run(&m, b"", &VmOptions::default()),
            Err(Trap::MemoryOutOfBounds { .. })
        ));
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut b = FuncBuilder::new("main");
        let e = b.entry();
        b.set_term(e, Terminator::Jump(e));
        let m = module_of(b.finish());
        let opts = VmOptions {
            max_steps: 1000,
            ..VmOptions::default()
        };
        assert!(matches!(
            run(&m, b"", &opts),
            Err(Trap::StepLimitExceeded { .. })
        ));
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        let mut m = Module::new();
        let mut callee = FuncBuilder::new("double");
        let x = callee.new_reg();
        callee.set_param_regs(vec![x]);
        let e = callee.entry();
        callee.bin(e, BinOp::Add, x, x, x);
        callee.set_term(e, Terminator::Return(Some(Operand::Reg(x))));
        let callee_id = m.add_function(callee.finish());

        let mut main = FuncBuilder::new("main");
        let r = main.new_reg();
        let e = main.entry();
        main.push(
            e,
            Inst::Call {
                dst: Some(r),
                callee: Callee::Func(callee_id),
                args: vec![Operand::Imm(21)],
            },
        );
        main.set_term(e, Terminator::Return(Some(Operand::Reg(r))));
        m.main = Some(m.add_function(main.finish()));
        let out = run(&m, b"", &VmOptions::default()).unwrap();
        assert_eq!(out.exit, 42);
        assert_eq!(out.stats.calls, 1);
        assert_eq!(out.stats.returns, 2);
    }

    #[test]
    fn frames_are_zeroed_per_activation() {
        // callee writes to its frame; second call must still see zeros.
        let mut m = Module::new();
        let mut callee = FuncBuilder::new("probe");
        let addr = callee.new_reg();
        let v = callee.new_reg();
        let slot = callee.alloc_frame(1);
        let e = callee.entry();
        callee.push(
            e,
            Inst::FrameAddr {
                dst: addr,
                offset: slot,
            },
        );
        callee.load(e, v, addr, 0i64);
        callee.store(e, addr, 0i64, 99i64);
        callee.set_term(e, Terminator::Return(Some(Operand::Reg(v))));
        let callee_id = m.add_function(callee.finish());

        let mut main = FuncBuilder::new("main");
        let a = main.new_reg();
        let b2 = main.new_reg();
        let s = main.new_reg();
        let e = main.entry();
        for dst in [a, b2] {
            main.push(
                e,
                Inst::Call {
                    dst: Some(dst),
                    callee: Callee::Func(callee_id),
                    args: vec![],
                },
            );
        }
        main.bin(e, BinOp::Add, s, a, b2);
        main.set_term(e, Terminator::Return(Some(Operand::Reg(s))));
        m.main = Some(m.add_function(main.finish()));
        assert_eq!(run(&m, b"", &VmOptions::default()).unwrap().exit, 0);
    }

    #[test]
    fn indirect_jump_dispatches_and_costs() {
        let mut b = FuncBuilder::new("main");
        let x = b.new_reg();
        let e = b.entry();
        let t0 = b.new_block();
        let t1 = b.new_block();
        b.copy(e, x, 1i64);
        b.set_term(
            e,
            Terminator::IndirectJump {
                index: x,
                targets: vec![t0, t1],
            },
        );
        b.set_term(t0, Terminator::Return(Some(Operand::Imm(0))));
        b.set_term(t1, Terminator::Return(Some(Operand::Imm(1))));
        let m = module_of(b.finish());
        let out = run(&m, b"", &VmOptions::default()).unwrap();
        assert_eq!(out.exit, 1);
        assert_eq!(out.stats.indirect_jumps, 1);
        // copy + 3 (ijmp) + return
        assert_eq!(out.stats.insts, 1 + 3 + 1);
    }

    #[test]
    fn indirect_jump_bounds_trap() {
        let mut b = FuncBuilder::new("main");
        let x = b.new_reg();
        let e = b.entry();
        let t0 = b.new_block();
        b.copy(e, x, 7i64);
        b.set_term(
            e,
            Terminator::IndirectJump {
                index: x,
                targets: vec![t0],
            },
        );
        b.set_term(t0, Terminator::Return(None));
        let m = module_of(b.finish());
        assert!(matches!(
            run(&m, b"", &VmOptions::default()),
            Err(Trap::IndirectJumpOutOfBounds { .. })
        ));
    }

    #[test]
    fn profiling_probe_counts_without_cost() {
        use br_ir::SeqId;
        let mut b = FuncBuilder::new("main");
        let x = b.new_reg();
        let e = b.entry();
        b.copy(e, x, 42i64);
        b.push(
            e,
            Inst::ProfileRanges {
                seq: SeqId(0),
                var: x,
            },
        );
        b.set_term(e, Terminator::Return(None));
        let mut m = module_of(b.finish());
        m.add_profile_plan(br_ir::ProfilePlan {
            func: br_ir::FuncId(0),
            head: br_ir::BlockId(0),
            ranges: vec![(i64::MIN, 9), (10, 99), (100, i64::MAX)],
        });
        let out = run(&m, b"", &VmOptions::default()).unwrap();
        assert_eq!(out.profiles, vec![vec![0, 1, 0]]);
        assert_eq!(out.stats.insts, 2); // copy + ret; probe is free
    }

    #[test]
    fn predictors_observe_branches() {
        use crate::predictor::{PredictorConfig, Scheme};
        let m = loop_sum(100);
        let opts = VmOptions {
            predictors: vec![
                PredictorConfig {
                    scheme: Scheme::TwoBit,
                    entries: 64,
                },
                PredictorConfig {
                    scheme: Scheme::OneBit,
                    entries: 64,
                },
            ],
            ..VmOptions::default()
        };
        let out = run(&m, b"", &opts).unwrap();
        assert_eq!(out.predictor_results.len(), 2);
        for r in &out.predictor_results {
            assert_eq!(r.predictions, out.stats.cond_branches);
            // Highly-biased loop branch: very few misses.
            assert!(r.mispredictions <= 3, "{:?}", r);
        }
    }

    #[test]
    fn no_main_is_an_error() {
        let m = Module::new();
        assert_eq!(
            run(&m, b"", &VmOptions::default()).unwrap_err(),
            Trap::NoMain
        );
    }
}

#[cfg(test)]
mod epoch_tests {
    use super::*;
    use br_ir::{BinOp, BlockId, Cond, FuncBuilder, Operand};

    /// `main`: loop body putchars `A` `n` times; the loop head carries a
    /// [`Inst::ProfileRanges`] probe, making it an epoch-safe point.
    fn probed_loop(n: i64) -> Module {
        let mut b = FuncBuilder::new("main");
        let i = b.new_reg();
        let e = b.entry();
        let head = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.copy(e, i, 0i64);
        b.set_term(e, Terminator::Jump(head));
        b.push(
            head,
            Inst::ProfileRanges {
                seq: br_ir::SeqId(0),
                var: i,
            },
        );
        b.cmp_branch(head, i, n, Cond::Ge, done, body);
        b.push(
            body,
            Inst::Call {
                dst: None,
                callee: Callee::Intrinsic(Intrinsic::PutChar),
                args: vec![Operand::Imm(b'A' as i64)],
            },
        );
        b.bin(body, BinOp::Add, i, i, 1i64);
        b.set_term(body, Terminator::Jump(head));
        b.set_term(done, Terminator::Return(Some(Operand::Reg(i))));
        let mut m = Module::new();
        m.main = Some(m.add_function(b.finish()));
        m.add_profile_plan(br_ir::ProfilePlan {
            func: br_ir::FuncId(0),
            head: BlockId(1),
            ranges: vec![(i64::MIN, i64::MAX)],
        });
        m
    }

    type Hooked =
        fn(&mut Module, &[u8], &VmOptions, &mut dyn EpochHook) -> Result<RunOutcome, Trap>;

    /// Both epoch engines: the fast one and the classic oracle.
    const ENGINES: [Hooked; 2] = [crate::run_hooked, run_reference_hooked];

    struct Counting {
        calls: u64,
        last_count: u64,
    }

    impl EpochHook for Counting {
        fn on_epoch(&mut self, _module: &mut Module, profiles: &mut [Vec<u64>]) -> bool {
            self.calls += 1;
            // Counters are cumulative and live.
            assert!(profiles[0][0] >= self.last_count);
            self.last_count = profiles[0][0];
            false
        }
    }

    #[test]
    fn noop_hook_matches_plain_run_exactly() {
        let m = probed_loop(200);
        let plain = run(&m, b"", &VmOptions::default()).unwrap();
        let opts = VmOptions {
            epoch_blocks: 16,
            ..VmOptions::default()
        };
        for engine in ENGINES {
            let mut hook = Counting {
                calls: 0,
                last_count: 0,
            };
            let hooked = engine(&mut m.clone(), b"", &opts, &mut hook).unwrap();
            assert!(
                hook.calls > 3,
                "expected several epochs, got {}",
                hook.calls
            );
            assert_eq!(hooked.exit, plain.exit);
            assert_eq!(hooked.output, plain.output);
            assert_eq!(hooked.stats, plain.stats, "pausing must be free");
            assert_eq!(hooked.profiles, plain.profiles);
            assert_eq!(hooked.block_counts, plain.block_counts);
        }
    }

    #[test]
    fn epochs_disabled_means_no_pauses() {
        for engine in ENGINES {
            let mut hook = Counting {
                calls: 0,
                last_count: 0,
            };
            engine(&mut probed_loop(100), b"", &VmOptions::default(), &mut hook).unwrap();
            assert_eq!(hook.calls, 0);
        }
    }

    /// Swaps the putchar'd byte at the first epoch: the mutation must be
    /// visible to the resumed program, with state carried across.
    struct Swapper {
        swapped: bool,
    }

    impl EpochHook for Swapper {
        fn on_epoch(&mut self, module: &mut Module, _profiles: &mut [Vec<u64>]) -> bool {
            if self.swapped {
                return false;
            }
            self.swapped = true;
            let body = module.function_mut(br_ir::FuncId(0)).block_mut(BlockId(2));
            for inst in &mut body.insts {
                if let Inst::Call { args, .. } = inst {
                    args[0] = Operand::Imm(b'B' as i64);
                }
            }
            true
        }
    }

    #[test]
    fn mid_run_mutation_takes_effect_and_resumes_cleanly() {
        let opts = VmOptions {
            epoch_blocks: 64,
            ..VmOptions::default()
        };
        let mut outs = Vec::new();
        for engine in ENGINES {
            let mut hook = Swapper { swapped: false };
            let out = engine(&mut probed_loop(100), b"", &opts, &mut hook).unwrap();
            assert!(hook.swapped);
            assert_eq!(out.exit, 100, "loop counter survived the pause");
            assert_eq!(out.output.len(), 100);
            let a = out.output.iter().filter(|&&c| c == b'A').count();
            let b = out.output.iter().filter(|&&c| c == b'B').count();
            assert!(a > 0 && b > 0, "swap must land mid-run: {a} As, {b} Bs");
            assert_eq!(out.profiles[0][0], 101, "probes keep counting after a swap");
            outs.push(out);
        }
        assert_eq!(
            outs[0].output, outs[1].output,
            "both engines swap at the same step"
        );
        assert_eq!(outs[0].stats, outs[1].stats);
        assert_eq!(outs[0].block_counts, outs[1].block_counts);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use br_ir::{Cond, FuncBuilder};

    #[test]
    fn tracing_captures_block_order_up_to_the_limit() {
        let mut b = FuncBuilder::new("main");
        let i = b.new_reg();
        let e = b.entry();
        let head = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.copy(e, i, 0i64);
        b.set_term(e, Terminator::Jump(head));
        b.cmp_branch(head, i, 3i64, Cond::Ge, done, body);
        b.bin(body, br_ir::BinOp::Add, i, i, 1i64);
        b.set_term(body, Terminator::Jump(head));
        b.set_term(done, Terminator::Return(None));
        let mut m = Module::new();
        m.main = Some(m.add_function(b.finish()));
        let opts = VmOptions {
            trace_blocks: 5,
            ..VmOptions::default()
        };
        let out = run(&m, b"", &opts).unwrap();
        assert_eq!(out.trace, vec!["f0:b0", "f0:b1", "f0:b2", "f0:b1", "f0:b2"]);
        // Tracing off by default.
        let out = run(&m, b"", &VmOptions::default()).unwrap();
        assert!(out.trace.is_empty());
    }
}

#[cfg(test)]
mod delay_slot_tests {
    use super::*;
    use br_ir::{BinOp, Cond, FuncBuilder};

    #[test]
    fn bare_compare_branch_blocks_stall() {
        // Block holding only its cmp: the branch's delay slot cannot be
        // filled from above.
        let mut b = FuncBuilder::new("main");
        let x = b.new_reg();
        let e = b.entry();
        let t = b.new_block();
        let n = b.new_block();
        b.copy(e, x, 1i64); // entry has a fillable slot
        b.cmp_branch(e, x, 0i64, Cond::Eq, t, n);
        b.set_term(t, Terminator::Return(None)); // empty: stalls
        b.set_term(n, Terminator::Return(None)); // empty: stalls
                                                 // Wait: entry has copy + cmp -> fillable. The taken return block
                                                 // is empty -> stall.
        let mut m = Module::new();
        m.main = Some(m.add_function(b.finish()));
        let out = run(&m, b"", &VmOptions::default()).unwrap();
        // entry fillable (copy besides cmp); the executed return block
        // is empty and stalls.
        assert_eq!(out.stats.delay_stalls, 1);
    }

    #[test]
    fn filled_slots_do_not_stall() {
        let mut b = FuncBuilder::new("main");
        let x = b.new_reg();
        let e = b.entry();
        let done = b.new_block();
        b.copy(e, x, 5i64);
        b.bin(e, BinOp::Add, x, x, 1i64);
        b.cmp_branch(e, x, 0i64, Cond::Eq, done, done);
        b.bin(done, BinOp::Add, x, x, 1i64); // return slot fillable
        b.set_term(done, Terminator::Return(Some(Operand::Reg(x))));
        let mut m = Module::new();
        m.main = Some(m.add_function(b.finish()));
        let out = run(&m, b"", &VmOptions::default()).unwrap();
        assert_eq!(out.stats.delay_stalls, 0);
    }

    #[test]
    fn lone_cmp_cannot_fill_its_own_branch_slot() {
        let mut b = FuncBuilder::new("main");
        let x = b.new_reg();
        b.set_param_regs(vec![x]);
        let e = b.entry();
        let t = b.new_block();
        b.cmp_branch(e, x, 0i64, Cond::Eq, t, t); // only the cmp: stalls
        b.copy(t, x, 1i64);
        b.set_term(t, Terminator::Return(Some(Operand::Reg(x))));
        let mut m = Module::new();
        m.main = Some(m.add_function(b.finish()));
        let out = run(&m, b"", &VmOptions::default()).unwrap();
        assert_eq!(out.stats.delay_stalls, 1, "cmp+branch only: unfillable");
    }
}
