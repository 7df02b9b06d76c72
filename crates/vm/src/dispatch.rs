//! Pre-decoded fast dispatch.
//!
//! [`crate::run`] used to walk the [`br_ir::Module`] directly: every
//! executed instruction re-matched [`br_ir::Operand`] wrappers, re-indexed
//! two layout side tables per block, and bumped several statistics
//! counters through memory. For a paper-scale sweep (17 workloads × three
//! heuristic sets × train + measure runs) that dispatch overhead is the
//! dominant cost of the whole repository, so this module decodes a module
//! once into a dense, execution-oriented [`Image`] and interprets that
//! instead.
//!
//! Decoding resolves everything that is static per run:
//!
//! * operands become copyable [`Src`] values (register index or immediate);
//! * per-block architectural costs of the straight-line body (instruction,
//!   compare, load, store, and call counts) are summed once at decode time
//!   and added in one step when the block executes;
//! * fall-through facts (`is this jump adjacent in layout order?`), branch
//!   addresses for predictor indexing, and delay-slot fillability move
//!   from side-table lookups into the block record itself;
//! * profiling probes carry their resolved range tables.
//!
//! The decoded image is immutable and independent of the source module,
//! so one image can serve many runs over different inputs — exactly the
//! shape of a training or measurement loop.
//!
//! [`run_hooked`] runs on the same loop. Its epoch test is folded into
//! the per-block step-limit compare (the limit is the smaller of the
//! step budget and the step at which the next epoch is due; plain runs
//! set the latter to `u64::MAX`), so a run without epochs does no extra
//! per-block work. Past the limit, `main` pauses at a profiled sequence
//! head at call depth 1, before the head executes, and returns its
//! block, registers and condition codes; it resumes on the same frame,
//! unzeroed. When the hook mutates the module, the counters so far are
//! folded at the old image's costs ([`fold_stats`] runs at every
//! mutating epoch, not only at the end) and the whole module is decoded
//! afresh; predictor state and profiles carry over.
//!
//! Equivalence with the classic interpreter ([`crate::run_reference`]
//! and, for epochs and swaps, [`crate::run_reference_hooked`]) is part
//! of the contract: identical [`crate::RunOutcome`]s — exit value,
//! output bytes, statistic counters, profile counters, predictor
//! results, trace and block counts — and identical [`Trap`]s. Batching
//! a block's static body costs at block entry rather than per
//! instruction is observable only through a [`RunOutcome`], and a trap
//! discards the outcome entirely, so the reordering cannot be
//! distinguished. The root-level `vm_equivalence` test pins this across
//! every workload × heuristic set, with and without a hook that swaps
//! replicas mid-run, and `crates/bench/benches/dispatch.rs` tracks the
//! speedup.

use br_ir::{BinOp, Callee, Cond, Inst, Intrinsic, Module, Operand, Terminator, UnOp};

use crate::machine::{intrinsic_step, EpochHook, RunOutcome, VmOptions};
use crate::memory::Memory;
use crate::predictor::Predictor;
use crate::stats::ExecStats;
use crate::trap::Trap;

/// A resolved operand: either a register index or an immediate.
#[derive(Clone, Copy, Debug)]
enum Src {
    Reg(u32),
    Imm(i64),
}

fn decode_src(op: Operand) -> Src {
    match op {
        Operand::Reg(r) => Src::Reg(r.0),
        Operand::Imm(i) => Src::Imm(i),
    }
}

#[inline(always)]
fn src(regs: &[i64], s: Src) -> i64 {
    match s {
        Src::Reg(r) => regs[r as usize],
        Src::Imm(i) => i,
    }
}

/// A pre-decoded straight-line instruction.
///
/// The hottest shapes get dedicated variants with the operand kinds
/// resolved into the opcode itself (`CopyReg` vs `CopyImm`, register /
/// immediate `Bin` forms), so the interpreter's per-operand `Src` match —
/// a data-dependent branch in the hottest loop — disappears for them.
#[derive(Clone, Debug)]
enum Op {
    CopyReg {
        dst: u32,
        src: u32,
    },
    CopyImm {
        dst: u32,
        imm: i64,
    },
    BinRR {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinRI {
        op: BinOp,
        dst: u32,
        lhs: u32,
        imm: i64,
    },
    Bin {
        op: BinOp,
        dst: u32,
        lhs: Src,
        rhs: Src,
    },
    Un {
        op: UnOp,
        dst: u32,
        src: Src,
    },
    Cmp {
        lhs: Src,
        rhs: Src,
    },
    LoadRR {
        dst: u32,
        base: u32,
        index: u32,
    },
    LoadRI {
        dst: u32,
        base: u32,
        off: i64,
    },
    Load {
        dst: u32,
        base: Src,
        index: Src,
    },
    StoreRR {
        base: u32,
        index: u32,
        src: Src,
    },
    StoreRI {
        base: u32,
        off: i64,
        src: Src,
    },
    Store {
        base: Src,
        index: Src,
        src: Src,
    },
    FrameAddr {
        dst: u32,
        offset: i64,
    },
    CallFunc {
        dst: Option<u32>,
        func: u32,
        args: Box<[Src]>,
    },
    CallIntrinsic {
        dst: Option<u32>,
        which: Intrinsic,
        args: Box<[Src]>,
    },
    /// Range probe with its range table resolved at decode time.
    ProfileRanges {
        seq: u32,
        var: u32,
        ranges: Box<[(i64, i64)]>,
    },
}

/// A pre-decoded terminator with fall-through facts baked in.
#[derive(Clone, Debug)]
enum PreTerm {
    Branch {
        cond: Cond,
        taken: u32,
        not_taken: u32,
        /// Layout does not place `not_taken` next, so falling through
        /// materializes an unconditional jump.
        not_taken_jump: bool,
    },
    /// A block whose final body instruction is the compare feeding its
    /// own branch — the dominant shape in reordered range tests — fused
    /// into one dispatch. Still sets the condition codes (a successor
    /// may branch on them without a fresh compare). `not_taken_jump` as
    /// in [`PreTerm::Branch`].
    CmpBranch {
        lhs: Src,
        rhs: Src,
        cond: Cond,
        taken: u32,
        not_taken: u32,
        not_taken_jump: bool,
    },
    /// [`PreTerm::CmpBranch`] with register-vs-immediate operands — the
    /// shape of every range test the reorderer emits.
    CmpBranchRI {
        lhs: u32,
        imm: i64,
        cond: Cond,
        taken: u32,
        not_taken: u32,
        not_taken_jump: bool,
    },
    /// [`PreTerm::CmpBranch`] with register-vs-register operands.
    CmpBranchRR {
        lhs: u32,
        rhs: u32,
        cond: Cond,
        taken: u32,
        not_taken: u32,
        not_taken_jump: bool,
    },
    Jump {
        target: u32,
        /// `target` is not the next block in layout order.
        jump: bool,
    },
    IndirectJump {
        index: u32,
        targets: Box<[u32]>,
    },
    Return(Option<Src>),
}

/// One decoded basic block: an `ops` range into the function's flat
/// instruction array, the summed static costs of that body, and the
/// layout facts the classic interpreter kept in side tables.
///
/// The static costs are not charged while the block runs. The hot loop
/// only bumps the block's execution counter (and, for branches, a taken
/// counter); [`fold_stats`] multiplies frequencies by these static costs
/// once the run succeeds.
#[derive(Clone, Debug)]
struct PreBlock {
    ops_start: u32,
    ops_end: u32,
    /// Architectural instructions in the body (probes are free).
    body_insts: u64,
    compares: u64,
    loads: u64,
    stores: u64,
    calls: u64,
    /// Static address of the terminator, for predictor indexing.
    branch_addr: u64,
    /// The branch delay slot cannot be filled from this block.
    unfilled_slot: bool,
    term: PreTerm,
}

#[derive(Clone, Debug)]
struct PreFunction {
    entry: u32,
    num_regs: u32,
    frame_size: u32,
    param_regs: Box<[u32]>,
    /// All body instructions of all blocks, flattened in block order;
    /// each block holds an index range.
    ops: Vec<Op>,
    blocks: Vec<PreBlock>,
    /// Offset of this function's block counters in the run's flat
    /// frequency array (two slots per block: executions, taken).
    counts_base: u32,
}

/// A module decoded for fast execution.
///
/// Build one with [`Image::decode`] and execute it any number of times
/// with [`run_image`]; the image borrows nothing from the module. Block
/// storage order is captured as final code layout, exactly as
/// [`crate::run`] treats the module itself, so decode after layout.
///
/// # Examples
///
/// ```
/// use br_ir::{FuncBuilder, Module, Operand, Terminator};
///
/// let mut b = FuncBuilder::new("main");
/// let e = b.entry();
/// b.set_term(e, Terminator::Return(Some(Operand::Imm(7))));
/// let mut m = Module::new();
/// m.main = Some(m.add_function(b.finish()));
///
/// let image = br_vm::Image::decode(&m);
/// let out = br_vm::run_image(&image, b"", &br_vm::VmOptions::default()).unwrap();
/// assert_eq!(out.exit, 7);
/// ```
#[derive(Clone, Debug)]
pub struct Image {
    functions: Vec<PreFunction>,
    main: Option<usize>,
    globals_end: i64,
    /// `(word address, initial contents)` of each global.
    globals: Vec<(usize, Vec<i64>)>,
    /// Counter-vector length per profile plan.
    counter_counts: Vec<usize>,
    /// Total frequency-counter slots across all functions (two per block).
    count_slots: usize,
    /// `(func, head)` of every profile plan: the blocks where an epoch
    /// may pause [`run_hooked`] (at call depth 1, before the head runs).
    heads: Vec<(usize, usize)>,
}

impl Image {
    /// Decode `module` into a dense executable image.
    pub fn decode(module: &Module) -> Image {
        let mut addr = 0u64;
        let mut count_slots = 0usize;
        let functions = module
            .functions
            .iter()
            .map(|f| {
                let counts_base = count_slots as u32;
                count_slots += 2 * f.blocks.len();
                let mut ops = Vec::new();
                let mut blocks = Vec::with_capacity(f.blocks.len());
                for (bi, b) in f.blocks.iter().enumerate() {
                    let ops_start = ops.len() as u32;
                    let mut body_insts = 0u64;
                    let mut compares = 0u64;
                    let mut loads = 0u64;
                    let mut stores = 0u64;
                    let mut calls = 0u64;
                    for inst in &b.insts {
                        if !matches!(inst, Inst::ProfileRanges { .. }) {
                            body_insts += 1;
                        }
                        ops.push(match inst {
                            Inst::Copy { dst, src } => match decode_src(*src) {
                                Src::Reg(r) => Op::CopyReg { dst: dst.0, src: r },
                                Src::Imm(i) => Op::CopyImm { dst: dst.0, imm: i },
                            },
                            Inst::Bin { op, dst, lhs, rhs } => {
                                match (decode_src(*lhs), decode_src(*rhs)) {
                                    (Src::Reg(l), Src::Reg(r)) => Op::BinRR {
                                        op: *op,
                                        dst: dst.0,
                                        lhs: l,
                                        rhs: r,
                                    },
                                    (Src::Reg(l), Src::Imm(i)) => Op::BinRI {
                                        op: *op,
                                        dst: dst.0,
                                        lhs: l,
                                        imm: i,
                                    },
                                    (lhs, rhs) => Op::Bin {
                                        op: *op,
                                        dst: dst.0,
                                        lhs,
                                        rhs,
                                    },
                                }
                            }
                            Inst::Un { op, dst, src } => Op::Un {
                                op: *op,
                                dst: dst.0,
                                src: decode_src(*src),
                            },
                            Inst::Cmp { lhs, rhs } => {
                                compares += 1;
                                Op::Cmp {
                                    lhs: decode_src(*lhs),
                                    rhs: decode_src(*rhs),
                                }
                            }
                            Inst::Load { dst, base, index } => {
                                loads += 1;
                                match (decode_src(*base), decode_src(*index)) {
                                    (Src::Reg(b), Src::Reg(i)) => Op::LoadRR {
                                        dst: dst.0,
                                        base: b,
                                        index: i,
                                    },
                                    (Src::Reg(b), Src::Imm(i)) => Op::LoadRI {
                                        dst: dst.0,
                                        base: b,
                                        off: i,
                                    },
                                    (base, index) => Op::Load {
                                        dst: dst.0,
                                        base,
                                        index,
                                    },
                                }
                            }
                            Inst::Store { base, index, src } => {
                                stores += 1;
                                let val = decode_src(*src);
                                match (decode_src(*base), decode_src(*index)) {
                                    (Src::Reg(b), Src::Reg(i)) => Op::StoreRR {
                                        base: b,
                                        index: i,
                                        src: val,
                                    },
                                    (Src::Reg(b), Src::Imm(i)) => Op::StoreRI {
                                        base: b,
                                        off: i,
                                        src: val,
                                    },
                                    (base, index) => Op::Store {
                                        base,
                                        index,
                                        src: val,
                                    },
                                }
                            }
                            Inst::FrameAddr { dst, offset } => Op::FrameAddr {
                                dst: dst.0,
                                offset: *offset as i64,
                            },
                            Inst::Call { dst, callee, args } => {
                                calls += 1;
                                let args: Box<[Src]> =
                                    args.iter().map(|a| decode_src(*a)).collect();
                                let dst = dst.map(|d| d.0);
                                match callee {
                                    Callee::Func(fid) => Op::CallFunc {
                                        dst,
                                        func: fid.index() as u32,
                                        args,
                                    },
                                    Callee::Intrinsic(i) => Op::CallIntrinsic {
                                        dst,
                                        which: *i,
                                        args,
                                    },
                                }
                            }
                            Inst::ProfileRanges { seq, var } => Op::ProfileRanges {
                                seq: seq.0,
                                var: var.0,
                                ranges: module.profile_plans[seq.index()].ranges.clone().into(),
                            },
                        });
                    }
                    // Same address scheme as the classic layout pass:
                    // cumulative instruction offsets in storage order.
                    addr += b.insts.len() as u64;
                    let branch_addr = addr;
                    addr += 1;
                    // A compare counts as a real instruction, so with one
                    // real instruction and one compare, the compare IS the
                    // sole real instruction (and cannot fill the slot of
                    // the branch it feeds).
                    let real = body_insts;
                    let sole_real_is_cmp = real == 1 && compares == 1;
                    let fillable = match &b.term {
                        Terminator::Branch { .. } => real >= 2 || (real == 1 && !sole_real_is_cmp),
                        _ => real > 0,
                    };
                    let term = match &b.term {
                        Terminator::Branch {
                            cond,
                            taken,
                            not_taken,
                        } => {
                            // Fuse a trailing compare into the branch it
                            // feeds: one dispatch instead of two for the
                            // dominant block shape. The compare stays in
                            // the static counts — it still executes,
                            // just inside the terminator.
                            if let Some(&Op::Cmp { lhs, rhs }) = ops.last() {
                                ops.pop();
                                let (cond, taken, not_taken) = (*cond, taken.0, not_taken.0);
                                let not_taken_jump = not_taken as usize != bi + 1;
                                match (lhs, rhs) {
                                    (Src::Reg(l), Src::Imm(imm)) => PreTerm::CmpBranchRI {
                                        lhs: l,
                                        imm,
                                        cond,
                                        taken,
                                        not_taken,
                                        not_taken_jump,
                                    },
                                    (Src::Reg(l), Src::Reg(r)) => PreTerm::CmpBranchRR {
                                        lhs: l,
                                        rhs: r,
                                        cond,
                                        taken,
                                        not_taken,
                                        not_taken_jump,
                                    },
                                    (lhs, rhs) => PreTerm::CmpBranch {
                                        lhs,
                                        rhs,
                                        cond,
                                        taken,
                                        not_taken,
                                        not_taken_jump,
                                    },
                                }
                            } else {
                                PreTerm::Branch {
                                    cond: *cond,
                                    taken: taken.0,
                                    not_taken: not_taken.0,
                                    not_taken_jump: not_taken.index() != bi + 1,
                                }
                            }
                        }
                        Terminator::Jump(t) => PreTerm::Jump {
                            target: t.0,
                            jump: t.index() != bi + 1,
                        },
                        Terminator::IndirectJump { index, targets } => PreTerm::IndirectJump {
                            index: index.0,
                            targets: targets.iter().map(|t| t.0).collect(),
                        },
                        Terminator::Return(v) => PreTerm::Return(v.map(decode_src)),
                    };
                    blocks.push(PreBlock {
                        ops_start,
                        ops_end: ops.len() as u32,
                        body_insts,
                        compares,
                        loads,
                        stores,
                        calls,
                        branch_addr,
                        unfilled_slot: !fillable,
                        term,
                    });
                }
                PreFunction {
                    entry: f.entry.0,
                    num_regs: f.num_regs,
                    frame_size: f.frame_size,
                    param_regs: f.param_regs.iter().map(|r| r.0).collect(),
                    ops,
                    blocks,
                    counts_base,
                }
            })
            .collect();
        Image {
            functions,
            main: module.main.map(|m| m.index()),
            globals_end: module.globals_end(),
            globals: module
                .globals
                .iter()
                .map(|g| (g.addr as usize, g.init.clone()))
                .collect(),
            counter_counts: module
                .profile_plans
                .iter()
                .map(|p| p.ranges.len())
                .collect(),
            count_slots,
            heads: module
                .profile_plans
                .iter()
                .map(|p| (p.func.index(), p.head.index()))
                .collect(),
        }
    }

    fn is_epoch_safe(&self, func: usize, block: usize) -> bool {
        self.heads.contains(&(func, block))
    }
}

/// Calls with at most this many arguments evaluate into a stack buffer
/// instead of allocating (most functions are narrow).
const ARG_BUF: usize = 8;

/// Frames with at most this many virtual registers live in a stack
/// array; wider frames fall back to a heap register file. Zeroing the
/// array costs the same memset the heap path pays anyway — the saving
/// is the allocation itself, once per call.
const REG_BUF: usize = 64;

struct FastState<'a> {
    opts: &'a VmOptions,
    memory: Memory,
    frame_top: i64,
    input: &'a [u8],
    input_pos: usize,
    output: Vec<u8>,
    profiles: Vec<Vec<u64>>,
    predictors: Vec<Predictor>,
    /// Flat per-block `(executions, taken)` counters, indexed by each
    /// function's `counts_base`; folded into [`ExecStats`] on success.
    counts: Vec<u64>,
    steps: u64,
    /// Step count at which the next epoch is due (`u64::MAX` = never).
    next_epoch: u64,
    /// Set when `main` paused for an epoch instead of returning.
    paused: Option<Pause>,
    depth: usize,
    trace: Vec<String>,
}

/// `main`'s live state at an epoch pause: the block it runs next (not
/// yet executed), its registers and its condition codes.
struct Pause {
    at: usize,
    regs: Vec<i64>,
    cc: Option<(i64, i64)>,
}

impl<'a> FastState<'a> {
    fn new(image: &Image, input: &'a [u8], opts: &'a VmOptions) -> FastState<'a> {
        FastState {
            opts,
            memory: Memory::new(
                image.globals_end,
                opts.stack_words,
                image.globals.iter().map(|(at, init)| (*at, &init[..])),
            ),
            frame_top: image.globals_end,
            input,
            input_pos: 0,
            output: Vec::new(),
            profiles: image.counter_counts.iter().map(|&n| vec![0; n]).collect(),
            predictors: opts.predictors.iter().map(|&c| Predictor::new(c)).collect(),
            counts: vec![0; image.count_slots],
            steps: 0,
            next_epoch: u64::MAX,
            paused: None,
            depth: 0,
            trace: Vec::new(),
        }
    }

    fn finish(self, exit: i64, totals: Totals) -> RunOutcome {
        RunOutcome {
            exit,
            output: self.output,
            stats: totals.stats,
            profiles: self.profiles,
            predictor_results: self.predictors.iter().map(Predictor::result).collect(),
            trace: self.trace,
            block_counts: totals.block_counts,
        }
    }
}

/// Execute a pre-decoded [`Image`] on `input`.
///
/// Behaves exactly like [`crate::run`] on the module the image was
/// decoded from — same [`RunOutcome`], same [`Trap`]s. Prefer this entry
/// point when running the same module many times (training loops,
/// measurement sweeps): the decode cost is paid once.
///
/// # Errors
///
/// Returns a [`Trap`] for abnormal termination, exactly as [`crate::run`]
/// does.
pub fn run_image(image: &Image, input: &[u8], opts: &VmOptions) -> Result<RunOutcome, Trap> {
    let main = image.main.ok_or(Trap::NoMain)?;
    let mut st = FastState::new(image, input, opts);
    let exit = exec(&mut st, image, main, &[], None)?;
    let mut totals = Totals::default();
    totals.fold(image, &st.counts, opts);
    Ok(st.finish(exit, totals))
}

/// Execute the module's `main` like [`crate::run`], pausing every
/// [`VmOptions::epoch_blocks`] executed blocks to let `hook` observe the
/// live profile counters and mutate the module (e.g. hot-swap a sequence
/// ordering).
///
/// Pauses happen only at *safe points*: a profiled sequence head reached
/// at call depth 1, checked before the head executes. A program that
/// never revisits a head at depth 1 simply never pauses. The run
/// executes on the pre-decoded [`Image`] like [`run_image`]; when the
/// hook reports a mutation, the counters so far are folded at the old
/// image's costs and the module is decoded afresh, so fall-through,
/// delay-slot and predictor-address accounting stay faithful to the
/// swapped code. The outcome equals the classic interpreter's
/// ([`crate::run_reference_hooked`]) field for field.
///
/// # Errors
///
/// Returns a [`Trap`] exactly as [`crate::run`] does.
pub fn run_hooked(
    module: &mut Module,
    input: &[u8],
    opts: &VmOptions,
    hook: &mut dyn EpochHook,
) -> Result<RunOutcome, Trap> {
    let mut image = Image::decode(module);
    let main = image.main.ok_or(Trap::NoMain)?;
    let mut st = FastState::new(&image, input, opts);
    if opts.epoch_blocks > 0 {
        st.next_epoch = opts.epoch_blocks;
    }
    let mut totals = Totals::default();
    let mut resume = None;
    let exit = loop {
        let exit = exec(&mut st, &image, main, &[], resume.take())?;
        let Some(pause) = st.paused.take() else {
            break exit;
        };
        if hook.on_epoch(module, &mut st.profiles) {
            // A swap rewrites a head's terminator in place: charge what
            // ran so far at the old image's costs before re-decoding.
            totals.fold(&image, &st.counts, opts);
            image = Image::decode(module);
            st.counts = vec![0; image.count_slots];
        }
        st.next_epoch = st.steps.saturating_add(opts.epoch_blocks.max(1));
        resume = Some(pause);
    };
    totals.fold(&image, &st.counts, opts);
    Ok(st.finish(exit, totals))
}

/// A run's statistics and per-block `[executions, taken]` frequencies,
/// accumulated from the hot loop's flat counters by [`Totals::fold`].
#[derive(Default)]
struct Totals {
    stats: ExecStats,
    block_counts: Vec<Vec<[u64; 2]>>,
}

impl Totals {
    /// Add `counts`, the flat counters of a run (or of a stretch of one
    /// between module mutations) on `image`: regrouped per
    /// function/block — the same pairs the reference interpreter
    /// accumulates directly — and folded into [`ExecStats`].
    fn fold(&mut self, image: &Image, counts: &[u64], opts: &VmOptions) {
        self.block_counts
            .resize_with(image.functions.len(), Vec::new);
        for (f, acc) in image.functions.iter().zip(&mut self.block_counts) {
            let base = f.counts_base as usize;
            acc.resize(f.blocks.len(), [0; 2]);
            for (bi, pair) in acc.iter_mut().enumerate() {
                pair[0] += counts[base + 2 * bi];
                pair[1] += counts[base + 2 * bi + 1];
            }
        }
        fold_stats(image, counts, opts, &mut self.stats);
    }
}

/// Reconstruct the architectural event counts from block and taken-edge
/// frequencies. Every [`ExecStats`] field is an exact linear function of
/// (a) how often each block ran and (b) how often each branch was taken,
/// so the hot loop records only those two frequencies and this fold pays
/// the bookkeeping once per run (and once per mutating epoch) instead of
/// once per instruction.
fn fold_stats(image: &Image, counts: &[u64], opts: &VmOptions, s: &mut ExecStats) {
    for f in &image.functions {
        let base = f.counts_base as usize;
        for (bi, b) in f.blocks.iter().enumerate() {
            let freq = counts[base + 2 * bi];
            if freq == 0 {
                continue;
            }
            s.insts += freq * b.body_insts;
            s.compares += freq * b.compares;
            s.loads += freq * b.loads;
            s.stores += freq * b.stores;
            s.calls += freq * b.calls;
            if b.unfilled_slot {
                s.delay_stalls += freq;
            }
            match &b.term {
                PreTerm::Branch { not_taken_jump, .. }
                | PreTerm::CmpBranch { not_taken_jump, .. }
                | PreTerm::CmpBranchRI { not_taken_jump, .. }
                | PreTerm::CmpBranchRR { not_taken_jump, .. } => {
                    let taken = counts[base + 2 * bi + 1];
                    let not_taken = freq - taken;
                    s.insts += freq;
                    s.cond_branches += freq;
                    s.taken_branches += taken;
                    if *not_taken_jump {
                        s.insts += not_taken;
                        s.uncond_jumps += not_taken;
                    }
                }
                PreTerm::Jump { jump, .. } => {
                    if *jump {
                        s.insts += freq;
                        s.uncond_jumps += freq;
                    }
                }
                PreTerm::IndirectJump { .. } => {
                    s.insts += freq * opts.indirect_jump_insts;
                    s.indirect_jumps += freq;
                }
                PreTerm::Return(_) => {
                    s.insts += freq;
                    s.returns += freq;
                }
            }
        }
    }
}

/// Run one activation of `func`. With `resume`, it is `main`
/// continuing after an epoch pause: its frame keeps its contents and
/// its registers come back (a swap may have grown the register file;
/// new registers start at zero). An activation that pauses returns
/// `Ok(0)` with [`FastState::paused`] set.
fn exec(
    st: &mut FastState<'_>,
    image: &Image,
    func: usize,
    args: &[i64],
    resume: Option<Pause>,
) -> Result<i64, Trap> {
    if st.depth >= st.opts.max_call_depth {
        return Err(Trap::StackOverflow { depth: st.depth });
    }
    st.depth += 1;
    let f = &image.functions[func];
    let frame_base = st.frame_top;
    let frame = st.memory.frame(frame_base, f.frame_size, st.depth)?;
    st.frame_top += f.frame_size as i64;
    let mut reg_buf = [0i64; REG_BUF];
    let mut reg_heap: Vec<i64>;
    let regs: &mut [i64] = if f.num_regs as usize <= REG_BUF {
        &mut reg_buf[..f.num_regs as usize]
    } else {
        reg_heap = vec![0i64; f.num_regs as usize];
        &mut reg_heap
    };
    let (mut cur, mut cc) = match resume {
        Some(p) => {
            for (reg, val) in regs.iter_mut().zip(p.regs) {
                *reg = val;
            }
            (p.at, p.cc)
        }
        None => {
            frame.fill(0);
            for (&reg, &val) in f.param_regs.iter().zip(args) {
                regs[reg as usize] = val;
            }
            (f.entry as usize, None)
        }
    };
    // One compare per block guards both the step budget and a due epoch.
    let limit = st.opts.max_steps.min(st.next_epoch);
    let trace_blocks = st.opts.trace_blocks;
    let tracing = trace_blocks > 0;
    let has_predictors = !st.predictors.is_empty();
    // Keep the step counter in a register for this frame; it is synced
    // with the shared state around calls so the per-block limit check
    // stays exact (same trap at the same block as the reference path).
    let mut steps = st.steps;
    let result = 'run: loop {
        steps += 1;
        if steps > limit {
            match past_limit(st, image, func, cur, steps, regs, cc) {
                Ok(false) => {}
                Ok(true) => {
                    steps -= 1;
                    break 'run Ok(0);
                }
                Err(t) => break 'run Err(t),
            }
        }
        if tracing && st.trace.len() < trace_blocks {
            st.trace.push(format!("f{func}:b{cur}"));
        }
        let block = &f.blocks[cur];
        // The only bookkeeping on the hot path: one execution-frequency
        // bump (plus a taken bump below for taken branches). All stats
        // are folded from these frequencies after the run; a trap
        // discards the outcome, so nothing else needs to stay exact.
        let count_at = f.counts_base as usize + 2 * cur;
        st.counts[count_at] += 1;
        for op in &f.ops[block.ops_start as usize..block.ops_end as usize] {
            match op {
                Op::CopyReg { dst, src } => regs[*dst as usize] = regs[*src as usize],
                Op::CopyImm { dst, imm } => regs[*dst as usize] = *imm,
                Op::BinRR { op, dst, lhs, rhs } => {
                    match op.eval(regs[*lhs as usize], regs[*rhs as usize]) {
                        Some(v) => regs[*dst as usize] = v,
                        None => break 'run Err(Trap::DivideByZero),
                    }
                }
                Op::BinRI { op, dst, lhs, imm } => match op.eval(regs[*lhs as usize], *imm) {
                    Some(v) => regs[*dst as usize] = v,
                    None => break 'run Err(Trap::DivideByZero),
                },
                Op::Bin { op, dst, lhs, rhs } => match op.eval(src(regs, *lhs), src(regs, *rhs)) {
                    Some(v) => regs[*dst as usize] = v,
                    None => break 'run Err(Trap::DivideByZero),
                },
                Op::Un { op, dst, src: s } => regs[*dst as usize] = op.eval(src(regs, *s)),
                Op::Cmp { lhs, rhs } => cc = Some((src(regs, *lhs), src(regs, *rhs))),
                Op::LoadRR { dst, base, index } => {
                    let addr = regs[*base as usize].wrapping_add(regs[*index as usize]);
                    match st.memory.load(addr) {
                        Ok(v) => regs[*dst as usize] = v,
                        Err(t) => break 'run Err(t),
                    }
                }
                Op::LoadRI { dst, base, off } => {
                    let addr = regs[*base as usize].wrapping_add(*off);
                    match st.memory.load(addr) {
                        Ok(v) => regs[*dst as usize] = v,
                        Err(t) => break 'run Err(t),
                    }
                }
                Op::Load { dst, base, index } => {
                    let addr = src(regs, *base).wrapping_add(src(regs, *index));
                    match st.memory.load(addr) {
                        Ok(v) => regs[*dst as usize] = v,
                        Err(t) => break 'run Err(t),
                    }
                }
                Op::StoreRR {
                    base,
                    index,
                    src: s,
                } => {
                    let addr = regs[*base as usize].wrapping_add(regs[*index as usize]);
                    if let Err(t) = st.memory.store(addr, src(regs, *s)) {
                        break 'run Err(t);
                    }
                }
                Op::StoreRI { base, off, src: s } => {
                    let addr = regs[*base as usize].wrapping_add(*off);
                    if let Err(t) = st.memory.store(addr, src(regs, *s)) {
                        break 'run Err(t);
                    }
                }
                Op::Store {
                    base,
                    index,
                    src: s,
                } => {
                    let addr = src(regs, *base).wrapping_add(src(regs, *index));
                    if let Err(t) = st.memory.store(addr, src(regs, *s)) {
                        break 'run Err(t);
                    }
                }
                Op::FrameAddr { dst, offset } => regs[*dst as usize] = frame_base + offset,
                Op::CallFunc { dst, func, args } => {
                    cc = None; // calls clobber the condition codes
                    let mut buf = [0i64; ARG_BUF];
                    let heap: Vec<i64>;
                    let vals: &[i64] = if args.len() <= ARG_BUF {
                        for (slot, &a) in buf.iter_mut().zip(args.iter()) {
                            *slot = src(regs, a);
                        }
                        &buf[..args.len()]
                    } else {
                        heap = args.iter().map(|&a| src(regs, a)).collect();
                        &heap
                    };
                    st.steps = steps;
                    let called = exec(st, image, *func as usize, vals, None);
                    steps = st.steps;
                    match called {
                        Ok(v) => {
                            if let Some(d) = dst {
                                regs[*d as usize] = v;
                            }
                        }
                        Err(t) => break 'run Err(t),
                    }
                }
                Op::CallIntrinsic { dst, which, args } => {
                    cc = None;
                    // Intrinsics take at most one argument: evaluate it
                    // directly, no buffer at all.
                    let arg0 = args.first().map_or(0, |&a| src(regs, a));
                    match intrinsic_step(
                        *which,
                        &[arg0],
                        st.input,
                        &mut st.input_pos,
                        &mut st.output,
                    ) {
                        Ok(v) => {
                            if let Some(d) = dst {
                                regs[*d as usize] = v;
                            }
                        }
                        Err(t) => break 'run Err(t),
                    }
                }
                Op::ProfileRanges { seq, var, ranges } => {
                    let v = regs[*var as usize];
                    if let Some(idx) = ranges.iter().position(|&(lo, hi)| lo <= v && v <= hi) {
                        st.profiles[*seq as usize][idx] += 1;
                    }
                }
            }
        }
        match &block.term {
            PreTerm::Branch {
                cond,
                taken,
                not_taken,
                not_taken_jump: _,
            } => {
                let Some((l, r)) = cc else {
                    break 'run Err(Trap::UndefinedConditionCodes);
                };
                let is_taken = cond.eval(l, r);
                if has_predictors {
                    for p in &mut st.predictors {
                        p.record(block.branch_addr, is_taken);
                    }
                }
                if is_taken {
                    st.counts[count_at + 1] += 1;
                    cur = *taken as usize;
                } else {
                    cur = *not_taken as usize;
                }
            }
            PreTerm::CmpBranchRI {
                lhs,
                imm,
                cond,
                taken,
                not_taken,
                not_taken_jump: _,
            } => {
                let l = regs[*lhs as usize];
                let r = *imm;
                cc = Some((l, r));
                let is_taken = cond.eval(l, r);
                if has_predictors {
                    for p in &mut st.predictors {
                        p.record(block.branch_addr, is_taken);
                    }
                }
                if is_taken {
                    st.counts[count_at + 1] += 1;
                    cur = *taken as usize;
                } else {
                    cur = *not_taken as usize;
                }
            }
            PreTerm::CmpBranchRR {
                lhs,
                rhs,
                cond,
                taken,
                not_taken,
                not_taken_jump: _,
            } => {
                let l = regs[*lhs as usize];
                let r = regs[*rhs as usize];
                cc = Some((l, r));
                let is_taken = cond.eval(l, r);
                if has_predictors {
                    for p in &mut st.predictors {
                        p.record(block.branch_addr, is_taken);
                    }
                }
                if is_taken {
                    st.counts[count_at + 1] += 1;
                    cur = *taken as usize;
                } else {
                    cur = *not_taken as usize;
                }
            }
            PreTerm::CmpBranch {
                lhs,
                rhs,
                cond,
                taken,
                not_taken,
                not_taken_jump: _,
            } => {
                let l = src(regs, *lhs);
                let r = src(regs, *rhs);
                cc = Some((l, r));
                let is_taken = cond.eval(l, r);
                if has_predictors {
                    for p in &mut st.predictors {
                        p.record(block.branch_addr, is_taken);
                    }
                }
                if is_taken {
                    st.counts[count_at + 1] += 1;
                    cur = *taken as usize;
                } else {
                    cur = *not_taken as usize;
                }
            }
            PreTerm::Jump { target, jump: _ } => {
                cur = *target as usize;
            }
            PreTerm::IndirectJump { index, targets } => {
                let v = regs[*index as usize];
                if v < 0 || v as usize >= targets.len() {
                    break 'run Err(Trap::IndirectJumpOutOfBounds {
                        index: v,
                        table_len: targets.len(),
                    });
                }
                cur = targets[v as usize] as usize;
            }
            PreTerm::Return(v) => {
                break 'run Ok(v.map(|s| src(regs, s)).unwrap_or(0));
            }
        }
    };
    st.steps = steps;
    st.frame_top = frame_base;
    st.depth -= 1;
    result
}

/// The block about to run at `cur` took `steps` past the limit: the
/// step budget or a due epoch. Pauses `main` (`Ok(true)`, with
/// [`FastState::paused`] set) when an epoch is due and this is a safe
/// point — a profiled sequence head at call depth 1, before the head
/// executes, so resuming never double-counts a step, probe or stat.
/// Out of line: plain runs only ever get here to trap.
#[cold]
#[inline(never)]
fn past_limit(
    st: &mut FastState<'_>,
    image: &Image,
    func: usize,
    cur: usize,
    steps: u64,
    regs: &[i64],
    cc: Option<(i64, i64)>,
) -> Result<bool, Trap> {
    if steps > st.next_epoch && st.depth == 1 && image.is_epoch_safe(func, cur) {
        st.paused = Some(Pause {
            at: cur,
            regs: regs.to_vec(),
            cc,
        });
        return Ok(true);
    }
    if steps > st.opts.max_steps {
        return Err(Trap::StepLimitExceeded {
            limit: st.opts.max_steps,
        });
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_reference;
    use br_ir::{FuncBuilder, Operand, Terminator};

    /// Decode-time fall-through and delay-slot facts match the classic
    /// side tables on a hand-built shape.
    #[test]
    fn image_captures_layout_facts() {
        let mut b = FuncBuilder::new("main");
        let x = b.new_reg();
        let e = b.entry();
        let far = b.new_block();
        let nxt = b.new_block();
        b.copy(e, x, 1i64);
        b.cmp_branch(e, x, 0i64, br_ir::Cond::Eq, far, nxt);
        b.set_term(far, Terminator::Return(None));
        b.set_term(nxt, Terminator::Jump(far));
        let mut m = br_ir::Module::new();
        m.main = Some(m.add_function(b.finish()));
        let image = Image::decode(&m);
        let f = &image.functions[0];
        // entry: copy + cmp + branch. The trailing compare fuses into
        // the branch, and not_taken (nxt, index 2) is not adjacent to
        // entry (index 0) → fall-through pays a jump.
        match &f.blocks[0].term {
            PreTerm::CmpBranchRI { not_taken_jump, .. } => assert!(not_taken_jump),
            t => panic!("expected fused reg-imm cmp+branch, got {t:?}"),
        }
        // entry has a real non-cmp inst (the copy) → slot fillable.
        assert!(!f.blocks[0].unfilled_slot);
        // far: empty body → unfillable slot.
        assert!(f.blocks[1].unfilled_slot);
        // nxt jumps backwards → paid jump.
        match &f.blocks[2].term {
            PreTerm::Jump { jump, .. } => assert!(jump),
            t => panic!("expected jump, got {t:?}"),
        }
    }

    /// The fast path and the classic interpreter agree on a small
    /// branchy program, field for field.
    #[test]
    fn matches_reference_on_loop() {
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
        b.cmp_branch(head, i, 100i64, br_ir::Cond::Ge, done, body);
        b.bin(body, br_ir::BinOp::Add, i, i, 1i64);
        b.bin(body, br_ir::BinOp::Add, acc, acc, i);
        b.set_term(body, Terminator::Jump(head));
        b.set_term(done, Terminator::Return(Some(Operand::Reg(acc))));
        let mut m = br_ir::Module::new();
        m.main = Some(m.add_function(b.finish()));
        let opts = VmOptions {
            predictors: crate::predictor::PredictorConfig::sweep(crate::predictor::Scheme::TwoBit),
            trace_blocks: 16,
            ..VmOptions::default()
        };
        let fast = run_image(&Image::decode(&m), b"", &opts).unwrap();
        let slow = run_reference(&m, b"", &opts).unwrap();
        assert_eq!(fast.exit, slow.exit);
        assert_eq!(fast.output, slow.output);
        assert_eq!(fast.stats, slow.stats);
        assert_eq!(fast.profiles, slow.profiles);
        assert_eq!(fast.predictor_results, slow.predictor_results);
        assert_eq!(fast.trace, slow.trace);
    }
}
