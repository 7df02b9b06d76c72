//! Proof certificates for reordered branch sequences, and the
//! independent checker that re-validates them.
//!
//! A certificate is a versioned, line-oriented text artifact (the same
//! genre as the sweep cache's artifacts) recording everything one
//! sequence's equivalence proof established: the tested variable, the
//! sequence head, the proven value partition with each class's exit,
//! and — so the artifact is self-contained — the printed IR of the
//! function before and after the transformation. The final line is a
//! FNV-1a signature over everything above it.
//!
//! # Checker independence
//!
//! [`check`] deliberately shares **no code** with the prover
//! ([`crate::symex`], [`crate::validate`]): it has its own line parser,
//! its own signature loop, and its own concrete evaluator. Where the
//! prover reasons symbolically over *all* values with interval
//! arithmetic, the checker re-parses the embedded functions with the
//! ordinary IR parser and *concretely walks* both versions for
//! boundary-representative values of every class interval (`lo`, `hi`,
//! and a midpoint), comparing the side-effect traces and the arrival
//! points instruction by instruction. Acceptance is therefore
//! double-entry: a bug in the prover's interval algebra cannot leak
//! through the checker's concrete walks, and vice versa.
//!
//! The signature catches accidental corruption of any line; the
//! structural checks (partition must tile `i64` exactly; every class
//! exit must be a declared sequence exit; embedded prologues must
//! agree) plus the representative walks catch *semantic* tampering even
//! when the signature is recomputed — flip any range bound and the
//! boundary value now walks to the wrong exit, swap any target and the
//! original's first exit passage contradicts the declaration.

use std::collections::BTreeSet;

use br_ir::{parse_module, BinOp, BlockId, Cond, Function, Inst, Operand, Reg, Terminator};

/// Certificate format version tag (first line of every certificate).
pub const VERSION: &str = "brcert v1";

/// Version tag for certificates whose replica contains an indirect
/// dispatch (a Set IV jump table). Identical to [`VERSION`] except for
/// one extra header line, `temps N`, after `prologue`: the first
/// register number the emitter created for dispatch index computation.
/// The checker evaluates `sub tN, var, base` into such a register
/// concretely and follows the indirect jump through its table — chain
/// and pure-tree certificates never need this and stay `brcert v1`.
pub const VERSION_V2: &str = "brcert v2";

/// Why a certificate was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertError {
    /// The text does not parse as a certificate (wrong version,
    /// missing or malformed line, truncation).
    Parse(String),
    /// The signature line does not match the certificate body.
    BadSignature {
        /// Signature recomputed over the body.
        expected: u64,
        /// Signature the certificate carries.
        found: u64,
    },
    /// The declared classes do not tile the `i64` value space.
    Tiling(String),
    /// A representative concrete walk contradicted the certificate.
    Walk(String),
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::Parse(d) => write!(f, "certificate does not parse: {d}"),
            CertError::BadSignature { expected, found } => write!(
                f,
                "certificate signature mismatch: body hashes to {expected:016x}, \
                 signature line says {found:016x}"
            ),
            CertError::Tiling(d) => write!(f, "class partition does not tile i64: {d}"),
            CertError::Walk(d) => write!(f, "representative walk refutes the certificate: {d}"),
        }
    }
}

impl std::error::Error for CertError {}

/// One accepted certificate, decoded.
#[derive(Clone, Debug)]
pub struct CheckedCert {
    /// Name of the certified function.
    pub func_name: String,
    /// The tested variable.
    pub var: Reg,
    /// The sequence head block.
    pub head: BlockId,
    /// First block id of the emitted replica.
    pub replica_start: u32,
    /// Instructions of the head prologue both versions share.
    pub prologue: usize,
    /// First register number treated as a dispatch temporary when
    /// walking the replica (`u32::MAX` for v1 certificates: no
    /// indirect dispatch).
    pub dispatch_temps: u32,
    /// Declared sequence exits.
    pub exits: BTreeSet<BlockId>,
    /// Number of value classes checked.
    pub classes: usize,
    /// The embedded pre-transformation function, printed.
    pub original_text: String,
    /// The embedded post-transformation function, printed.
    pub reordered_text: String,
    /// The certificate's signature (also its content address).
    pub sig: u64,
}

/// 64-bit FNV-1a over one byte string. The checker's own copy — shared
/// with nothing.
fn sig64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content fingerprint of an arbitrary text (FNV-1a). Used to key
/// certificate caches and to surface certificate hashes in service
/// responses; for a valid certificate, `fingerprint` of the body equals
/// the `sig` line.
pub fn fingerprint(text: &str) -> u64 {
    sig64(text.as_bytes())
}

fn perr(detail: impl Into<String>) -> CertError {
    CertError::Parse(detail.into())
}

fn take<'a>(lines: &mut std::str::Lines<'a>, key: &str) -> Result<&'a str, CertError> {
    let line = lines
        .next()
        .ok_or_else(|| perr(format!("missing `{key}` line")))?;
    line.strip_prefix(key)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| perr(format!("expected `{key} ...`, found `{line}`")))
}

fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CertError> {
    s.parse()
        .map_err(|_| perr(format!("malformed {what}: `{s}`")))
}

struct ParsedClass {
    intervals: Vec<(i64, i64)>,
    target: BlockId,
}

/// Check one certificate, end to end. Returns the decoded certificate
/// on acceptance; the first violation found otherwise.
///
/// # Errors
///
/// Every rejection reason is a [`CertError`] variant; see its docs.
pub fn check(text: &str) -> Result<CheckedCert, CertError> {
    // 1. Signature: the last line signs everything before it.
    let body_end = text
        .rfind("sig ")
        .filter(|&at| at == 0 || text.as_bytes()[at - 1] == b'\n')
        .ok_or_else(|| perr("missing `sig` line"))?;
    let sig_str = text[body_end..]
        .trim_end()
        .strip_prefix("sig ")
        .ok_or_else(|| perr("malformed `sig` line"))?;
    let found =
        u64::from_str_radix(sig_str, 16).map_err(|_| perr("signature is not hexadecimal"))?;
    let expected = sig64(&text.as_bytes()[..body_end]);
    if expected != found {
        return Err(CertError::BadSignature { expected, found });
    }

    // 2. Header fields, in fixed order.
    let mut lines = text[..body_end].lines();
    let version = lines.next();
    if version != Some(VERSION) && version != Some(VERSION_V2) {
        return Err(perr(format!(
            "version line is neither `{VERSION}` nor `{VERSION_V2}`"
        )));
    }
    let func_name = take(&mut lines, "func")?.to_string();
    let var = Reg(num(
        take(&mut lines, "var")?
            .strip_prefix('r')
            .ok_or_else(|| perr("var is not `rN`"))?,
        "var register",
    )?);
    let head = BlockId(num(take(&mut lines, "head")?, "head block")?);
    let replica_start: u32 = num(take(&mut lines, "replica")?, "replica start")?;
    let prologue: usize = num(take(&mut lines, "prologue")?, "prologue length")?;
    let dispatch_temps: u32 = if version == Some(VERSION_V2) {
        num(take(&mut lines, "temps")?, "dispatch temp threshold")?
    } else {
        u32::MAX
    };
    let mut exit_fields = take(&mut lines, "exits")?.split(' ');
    let n_exits: usize = num(
        exit_fields.next().ok_or_else(|| perr("empty exits line"))?,
        "exit count",
    )?;
    let mut exits = BTreeSet::new();
    for _ in 0..n_exits {
        exits.insert(BlockId(num(
            exit_fields.next().ok_or_else(|| perr("short exits line"))?,
            "exit block",
        )?));
    }
    if exit_fields.next().is_some() {
        return Err(perr("trailing fields on exits line"));
    }

    // 3. Classes.
    let n_classes: usize = num(take(&mut lines, "classes")?, "class count")?;
    let mut classes = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        let rest = take(&mut lines, "class")?;
        let mut fields = rest.split(' ');
        let n_ivs: usize = num(
            fields.next().ok_or_else(|| perr("empty class line"))?,
            "interval count",
        )?;
        let mut intervals = Vec::with_capacity(n_ivs);
        for _ in 0..n_ivs {
            let iv = fields.next().ok_or_else(|| perr("short class line"))?;
            let (lo, hi) = iv
                .split_once(',')
                .ok_or_else(|| perr(format!("malformed interval `{iv}`")))?;
            intervals.push((
                num::<i64>(lo, "interval lo")?,
                num::<i64>(hi, "interval hi")?,
            ));
        }
        if fields.next() != Some("exit") {
            return Err(perr("class line missing `exit`"));
        }
        let target = BlockId(num(
            fields
                .next()
                .ok_or_else(|| perr("class line missing exit block"))?,
            "class exit",
        )?);
        if fields.next().is_some() {
            return Err(perr("trailing fields on class line"));
        }
        if !exits.contains(&target) {
            return Err(CertError::Tiling(format!(
                "class exit {target} is not a declared sequence exit"
            )));
        }
        classes.push(ParsedClass { intervals, target });
    }

    // 4. Embedded functions.
    let original_text = take_embedded(&mut lines, "original")?;
    let reordered_text = take_embedded(&mut lines, "reordered")?;
    if lines.next().is_some() {
        return Err(perr("trailing lines after embedded functions"));
    }
    let original = parse_embedded(&original_text, &func_name)?;
    let reordered = parse_embedded(&reordered_text, &func_name)?;

    // 5. The classes must tile i64 exactly: sorted by lo, no overlap,
    //    no gap, ends pinned to the extremes. Any single bound flip
    //    breaks this or moves a boundary a representative walk covers.
    let mut all: Vec<(i64, i64)> = classes
        .iter()
        .flat_map(|c| c.intervals.iter().copied())
        .collect();
    if all.is_empty() {
        return Err(CertError::Tiling("no intervals declared".to_string()));
    }
    for &(lo, hi) in &all {
        if lo > hi {
            return Err(CertError::Tiling(format!("empty interval {lo},{hi}")));
        }
    }
    all.sort_unstable();
    if all[0].0 != i64::MIN {
        return Err(CertError::Tiling(format!(
            "first interval starts at {}, not i64::MIN",
            all[0].0
        )));
    }
    if all[all.len() - 1].1 != i64::MAX {
        return Err(CertError::Tiling(format!(
            "last interval ends at {}, not i64::MAX",
            all[all.len() - 1].1
        )));
    }
    for w in all.windows(2) {
        let (prev, next) = (w[0], w[1]);
        if prev.1 >= next.0 {
            return Err(CertError::Tiling(format!(
                "intervals {},{} and {},{} overlap",
                prev.0, prev.1, next.0, next.1
            )));
        }
        if prev.1 + 1 != next.0 {
            return Err(CertError::Tiling(format!(
                "gap between {} and {}",
                prev.1, next.0
            )));
        }
    }

    // 6. Structural sanity of the embedded pair.
    if head.index() >= original.blocks.len() || head.index() >= reordered.blocks.len() {
        return Err(CertError::Walk(format!("head {head} out of range")));
    }
    let orig_head = &original.block(head).insts;
    let reord_head = &reordered.block(head).insts;
    if orig_head.len() < prologue
        || reord_head.len() < prologue
        || orig_head[..prologue] != reord_head[..prologue]
    {
        return Err(CertError::Walk("head prologues differ".to_string()));
    }
    // Dispatch temporaries are the only registers a walk writes without
    // tracing the write, so they must be registers the original lacks:
    // otherwise the two versions could reach a traced instruction, or a
    // branch walked both ways, with different values in one register.
    if dispatch_temps < original.num_regs {
        return Err(CertError::Walk(format!(
            "dispatch temporaries from r{dispatch_temps} overlap the original's {} registers",
            original.num_regs
        )));
    }

    // 7. Representative concrete walks: for every class, walk both
    //    versions at each interval's lo, hi, and midpoint.
    for class in &classes {
        for &(lo, hi) in &class.intervals {
            let mid = (lo as i128 + (hi as i128 - lo as i128) / 2) as i64;
            for v in [lo, hi, mid] {
                check_value(
                    &original,
                    &reordered,
                    var,
                    head,
                    prologue,
                    dispatch_temps,
                    replica_start,
                    &exits,
                    v,
                    class.target,
                )?;
            }
        }
    }

    Ok(CheckedCert {
        func_name,
        var,
        head,
        replica_start,
        prologue,
        dispatch_temps,
        exits,
        classes: classes.len(),
        original_text,
        reordered_text,
        sig: found,
    })
}

fn take_embedded(lines: &mut std::str::Lines, key: &str) -> Result<String, CertError> {
    let n: usize = num(take(lines, key)?, "embedded line count")?;
    let mut text = String::new();
    for _ in 0..n {
        let line = lines
            .next()
            .ok_or_else(|| perr(format!("embedded `{key}` function truncated")))?;
        text.push_str(line);
        text.push('\n');
    }
    Ok(text)
}

fn parse_embedded(text: &str, expect_name: &str) -> Result<Function, CertError> {
    let module =
        parse_module(text).map_err(|e| perr(format!("embedded function does not parse: {e}")))?;
    let [f]: [Function; 1] = <[Function; 1]>::try_from(module.functions)
        .map_err(|_| perr("embedded text is not exactly one function"))?;
    if f.name != expect_name {
        return Err(perr(format!(
            "embedded function is named `{}`, certificate says `{expect_name}`",
            f.name
        )));
    }
    Ok(f)
}

/// Where one concrete walk came to rest.
#[derive(PartialEq, Eq, Debug)]
enum WalkEnd {
    /// Entered this block (at its first instruction).
    Block(BlockId),
    /// Reached a `ret`, with the returned operand printed.
    Ret(String),
}

struct WalkResult {
    end: WalkEnd,
    trace: Vec<String>,
    first_exit: Option<BlockId>,
}

/// Why a concrete walk stopped short of a [`WalkResult`].
enum WalkError {
    /// A branch on condition codes the walk cannot evaluate, with no
    /// decision left for it.
    Undecided,
    /// The walk cannot go on.
    Stuck(String),
}

impl From<&str> for WalkError {
    fn from(d: &str) -> WalkError {
        WalkError::Stuck(d.to_string())
    }
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkError::Undecided => {
                write!(f, "branch on condition codes the checker cannot evaluate")
            }
            WalkError::Stuck(d) => f.write_str(d),
        }
    }
}

/// Most decision vectors one representative value may need: the
/// duplicated tails the emitter produces hold a handful of branches.
const MAX_DECISION_PATHS: usize = 64;

/// Concretely walk `f` from `(start, start_inst)` with the tested
/// variable bound to `value`, collecting the side-effect trace, until a
/// stop condition fires: in replica mode (`boundary = Some(b)`)
/// entering any block below `b`; in original mode (`stop`) reaching the
/// given end. Tracks the first declared exit entered. Registers
/// numbered `>= temps` are dispatch temporaries: a `sub` of the tested
/// variable into one is evaluated concretely (and kept out of the
/// trace, like the compares) so a following indirect jump can be
/// followed through its table. A branch on condition codes the walk
/// cannot evaluate (set by a compare of other state, which is in the
/// trace) goes the way the next entry of `decisions` says, and the
/// outcome joins the trace too.
#[allow(clippy::too_many_arguments)]
fn concrete_walk(
    f: &Function,
    start: BlockId,
    start_inst: usize,
    var: Reg,
    value: i64,
    temps: u32,
    boundary: Option<u32>,
    stop: Option<&WalkEnd>,
    exits: &BTreeSet<BlockId>,
    decisions: &[bool],
) -> Result<WalkResult, WalkError> {
    let mut decisions = decisions.iter();
    // Condition codes: the operand values of the last compare, when the
    // walker can evaluate it (a compare of the intact tested variable
    // against a constant); `None` otherwise.
    let mut cc: Option<(i64, i64)> = None;
    let mut var_valid = true;
    // Dispatch-index binding: `Some((t, i))` when register `t` holds
    // the concrete index value `i`.
    let mut sub: Option<(Reg, i64)> = None;
    let mut trace = Vec::new();
    let mut first_exit = None;
    let mut block = start;
    let mut at = start_inst;
    let mut entered = false;
    let mut fuel = 4096usize;
    loop {
        if entered {
            if first_exit.is_none() && exits.contains(&block) {
                first_exit = Some(block);
            }
            if let Some(b) = boundary {
                if block.0 < b {
                    return Ok(WalkResult {
                        end: WalkEnd::Block(block),
                        trace,
                        first_exit,
                    });
                }
            }
            if let Some(WalkEnd::Block(s)) = stop {
                if *s == block {
                    return Ok(WalkResult {
                        end: WalkEnd::Block(block),
                        trace,
                        first_exit,
                    });
                }
            }
        }
        entered = true;
        if block.index() >= f.blocks.len() {
            return Err(WalkError::Stuck(format!(
                "walk entered nonexistent block {block}"
            )));
        }
        let b = f.block(block);
        for inst in &b.insts[at..] {
            fuel = fuel.checked_sub(1).ok_or("walk ran out of fuel")?;
            match inst {
                Inst::Cmp { lhs, rhs } => {
                    cc = match (lhs, rhs) {
                        (Operand::Reg(r), Operand::Imm(c)) if *r == var && var_valid => {
                            Some((value, *c))
                        }
                        (Operand::Imm(c), Operand::Reg(r)) if *r == var && var_valid => {
                            Some((*c, value))
                        }
                        _ => {
                            trace.push(format!("{inst:?}"));
                            None
                        }
                    };
                }
                Inst::Bin {
                    op: BinOp::Sub,
                    dst,
                    lhs: Operand::Reg(r),
                    rhs: Operand::Imm(base),
                } if dst.0 >= temps && *r == var && var_valid => {
                    sub = Some((*dst, value.wrapping_sub(*base)));
                }
                other => {
                    if matches!(other, Inst::Call { .. }) {
                        cc = None;
                    }
                    if other.def() == Some(var) {
                        var_valid = false;
                    }
                    if sub.is_some_and(|(t, _)| other.def() == Some(t)) {
                        sub = None;
                    }
                    trace.push(format!("{other:?}"));
                }
            }
        }
        at = 0;
        fuel = fuel.checked_sub(1).ok_or("walk ran out of fuel")?;
        match &b.term {
            Terminator::Jump(t) => block = *t,
            Terminator::Branch {
                cond,
                taken,
                not_taken,
            } => {
                if taken == not_taken {
                    block = *taken;
                } else {
                    let holds = match cc {
                        Some((l, r)) => eval_cond(*cond, l, r),
                        None => {
                            let &d = decisions.next().ok_or(WalkError::Undecided)?;
                            trace.push(format!("branch {cond:?} {d}"));
                            d
                        }
                    };
                    block = if holds { *taken } else { *not_taken };
                }
            }
            Terminator::Return(op) => {
                return Ok(WalkResult {
                    end: WalkEnd::Ret(format!("{op:?}")),
                    trace,
                    first_exit,
                });
            }
            Terminator::IndirectJump { index, targets } => {
                let Some(slot) = sub.and_then(|(t, i)| (t == *index).then_some(i)) else {
                    return Err("walk reached an indirect jump with no evaluable index".into());
                };
                let slot = usize::try_from(slot)
                    .ok()
                    .filter(|&s| s < targets.len())
                    .ok_or_else(|| {
                        WalkError::Stuck(format!(
                            "indirect jump index {slot} outside table of {} slots",
                            targets.len()
                        ))
                    })?;
                block = targets[slot];
            }
        }
    }
}

/// The checker's own compare evaluator (no shared code with the
/// prover's interval algebra).
fn eval_cond(cond: Cond, l: i64, r: i64) -> bool {
    match cond {
        Cond::Eq => l == r,
        Cond::Ne => l != r,
        Cond::Lt => l < r,
        Cond::Le => l <= r,
        Cond::Gt => l > r,
        Cond::Ge => l >= r,
    }
}

/// Walk both versions for one representative value and compare.
#[allow(clippy::too_many_arguments)]
fn check_value(
    original: &Function,
    reordered: &Function,
    var: Reg,
    head: BlockId,
    prologue: usize,
    dispatch_temps: u32,
    replica_start: u32,
    exits: &BTreeSet<BlockId>,
    value: i64,
    target: BlockId,
) -> Result<(), CertError> {
    let werr = |d: String| CertError::Walk(format!("value {value}: {d}"));
    // Branches the walks cannot evaluate (the emitter's duplicated copy
    // of the default exit's code tests other state) go both ways: every
    // decision vector the replica needs is walked through both versions,
    // and the two must agree on each.
    let mut pending: Vec<Vec<bool>> = vec![Vec::new()];
    let mut walked = 0usize;
    while let Some(decisions) = pending.pop() {
        walked += 1;
        if walked > MAX_DECISION_PATHS {
            return Err(werr(format!(
                "more than {MAX_DECISION_PATHS} paths through branches the checker \
                 cannot evaluate"
            )));
        }
        let new = match concrete_walk(
            reordered,
            head,
            prologue,
            var,
            value,
            dispatch_temps,
            Some(replica_start),
            None,
            exits,
            &decisions,
        ) {
            Ok(new) => new,
            Err(WalkError::Undecided) => {
                for d in [true, false] {
                    let mut longer = decisions.clone();
                    longer.push(d);
                    pending.push(longer);
                }
                continue;
            }
            Err(e) => return Err(werr(format!("reordered: {e}"))),
        };
        // The original never contains emitter-created dispatch temporaries.
        let old = concrete_walk(
            original,
            head,
            prologue,
            var,
            value,
            u32::MAX,
            None,
            Some(&new.end),
            exits,
            &decisions,
        )
        .map_err(|e| werr(format!("original: {e}")))?;
        // The original must pass through the declared exit first (or come
        // to rest exactly there).
        let reached = old.first_exit.or(match old.end {
            WalkEnd::Block(b) if exits.contains(&b) => Some(b),
            _ => None,
        });
        if reached != Some(target) {
            return Err(werr(format!(
                "original reaches exit {}, certificate declares {target}",
                reached.map_or("<none>".to_string(), |b| b.to_string()),
            )));
        }
        if old.end != new.end {
            return Err(werr(format!(
                "versions come to rest at different points: {:?} vs {:?}",
                old.end, new.end
            )));
        }
        if old.trace != new.trace {
            let at = old
                .trace
                .iter()
                .zip(&new.trace)
                .position(|(a, b)| a != b)
                .unwrap_or(old.trace.len().min(new.trace.len()));
            return Err(werr(format!(
                "side-effect traces diverge at step {at}: {:?} vs {:?}",
                old.trace.get(at),
                new.trace.get(at)
            )));
        }
    }
    Ok(())
}
