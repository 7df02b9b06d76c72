//! `brc` — the branch-reordering compiler driver.
//!
//! Compile a mini-C file, optionally profile-and-reorder it, run it, and
//! report dynamic statistics:
//!
//! ```text
//! brc prog.c --input data.txt                     # compile + run
//! brc prog.c --input data.txt --reorder           # train on the input itself
//! brc prog.c --input t.txt --train p.txt --reorder --stats
//! brc prog.c --set III --dump-ir > prog.ir        # show optimized IR
//! brc prog.ir --from-ir --input data.txt          # run dumped IR directly
//! brc lint prog.c                                 # static analysis report
//! brc lint prog.c --deny BR0101 --deny BR0102     # fail on specific codes
//! brc validate prog.c --train data.txt            # prove the reordering
//! brc validate --suite                            # all 17 workloads x 4 sets
//! brc prove prog.c --train data.txt               # certify + emit proof certs
//! brc prove --suite                               # certify the whole grid
//! brc prove --witness-demo out/                   # refute a seeded corruption
//! brc check cert.brcert                           # independently re-check
//! brc check --tamper-demo                         # show tamper rejection
//! brc adapt                                       # adaptive-vs-static report
//! brc adapt charclass --size 65536 --csv          # one scenario, CSV output
//! brc fuzz --seeds 10000                          # differential fuzzing
//! brc fuzz --replay fuzz/corpus/repro.bir         # re-check a saved repro
//! ```
//!
//! Subcommands:
//! * `lint FILE`     run the `br-analysis` lint passes (shadowed ranges,
//!   statically decided branches, redundant compares) plus the full IR
//!   verifier, and print every finding as a rustc-style diagnostic.
//!   `--deny CODE` (repeatable, or `--deny all`) turns the named
//!   diagnostic codes into hard failures (exit 1); the code table lives
//!   in DESIGN.md §13.
//! * `validate FILE` run the reordering pipeline with the translation
//!   validator on and report the equivalence proof per sequence; every
//!   failing sequence is reported in one run with its stage code
//!   (BR0201–BR0204). Exit 1 on proof failure, exit 2 on parse or
//!   compile failure.
//! * `prove FILE`    run the pipeline in *certify* mode: every committed
//!   reordering is proven by the certifying symbolic prover and its
//!   proof certificate re-checked on the spot by the independent
//!   checker (double entry). `--emit-certs DIR` writes the certificates
//!   out. `--suite` certifies all 17 workloads × Sets I–IV.
//!   `--witness-demo DIR` seeds an illegal target swap, shows the
//!   refutation's concrete witness diverging under the reference
//!   interpreter, and writes it as a replayable fuzz corpus entry.
//! * `check FILE`    independently re-check a saved certificate with
//!   `br_analysis::cert::check` (no prover code involved). Exit 0
//!   accepted, 1 rejected (`BR0301`), 2 unparseable. `--tamper-demo`
//!   shows every single-line tampering of a fresh certificate being
//!   rejected.
//! * `validate --suite` sweep all 17 paper workloads under heuristic
//!   Sets I–IV, proving every applied sequence equivalent, then
//!   demonstrate that an intentionally corrupted replica is rejected
//!   with a stage-naming diagnostic.
//! * `adapt [SCENARIO]` run the continuous-reoptimization runtime over
//!   the phase-shifting scenarios, racing it against a train-once
//!   deployment and a per-phase offline oracle (`--size N` bytes per
//!   phase, `--epoch N` blocks per adaptation epoch, `--exhaustive`
//!   ordering search, `--opttree` Set IV dispatch structures at swap
//!   time, `--csv` machine-readable output).
//! * `sweep` run the parallel reproduction engine: the full workload ×
//!   heuristic-set × seed grid fanned across cores with a
//!   content-addressed artifact cache, writing Tables 4–8 and the
//!   sequence-length figures into `results/` deterministically
//!   (`--threads N` workers, `--seeds K` input replications, `--quick`
//!   reduced input sizes, `--smoke` the tiny CI grid, `--exhaustive`
//!   ordering search, `--out DIR`, `--cache DIR`, `--no-cache`).
//! * `fuzz` run the generative differential tester: random verified
//!   modules through the reference interpreter, the pre-decoded fast
//!   path, and the reordering pipeline under all three heuristic sets,
//!   flagging any behavioral divergence, auto-reducing it, and writing
//!   a replayable repro into the corpus (`--seeds N`, `--start-seed N`,
//!   `--jobs N`, `--time SECS`, `--smoke` small programs for CI,
//!   `--corpus DIR`, `--no-reduce`, `--replay FILE` re-check a repro).
//! * `serve` run the reordering-as-a-service daemon: `reorder`,
//!   `measure`, and `profile` endpoints over the `brs2` binary
//!   protocol (module interning, batching), with a bounded admission
//!   queue, per-request deadlines, panic isolation, a
//!   content-addressed response cache, and plaintext `health`/`metrics`
//!   (`--addr HOST:PORT`, `--threads N`, `--queue N`,
//!   `--deadline-ms N`, `--cache DIR`, `--no-cache`,
//!   `--debug-endpoints`). Drains gracefully on SIGTERM or a
//!   `shutdown` frame.
//! * `cluster` run the sharded service: N `brc serve` child processes
//!   behind the consistent-hash `brs2` router, with cache replication
//!   to ring successors, shard health probes (eject/readmit), a
//!   router-side hot-key memo, and a propagated graceful drain
//!   (`--addr`, `--shards N`, `--base-port P`, `--cache DIR`,
//!   `--no-cache`, `--threads N`, `--queue N`, `--deadline-ms N`,
//!   `--no-replicate`, `--hot-threshold N`).
//! * `loadgen` drive a running daemon or cluster with the 17-workload
//!   corpus. Closed loop by default (`--conns N`, `--passes N`); open
//!   loop with `--open --rate R` (or `--rates R1,R2,...` for the
//!   latency-vs-offered-load sweep), scheduling requests on a shared
//!   clock and charging latency from the *scheduled* time. Requests
//!   travel over `brs2` with module interning; `--batch K` packs K
//!   requests per frame, `--procs N` fans the open loop across N worker
//!   processes, `--curves FILE` writes the sweep as CSV,
//!   `--assert-throughput N` exits 1 below N req/s. Also `--train N`,
//!   `--input N`, `--duration-ms N`, `--reorder-only`, `--smoke` the
//!   CI two-pass contract, `--shutdown` drain the daemon afterwards.
//!
//! Flags:
//! * `--input FILE`  program stdin (default: empty)
//! * `--train FILE`  training input for `--reorder` (default: the input)
//! * `--set I|II|III|IV` switch heuristics (default I)
//! * `--layout off|greedy|exttsp` block-layout pass after reordering
//!   (default greedy; `exttsp` is the profile-guided ext-TSP pass)
//! * `--reorder`     run the profile-guided reordering pipeline, certifying
//!   every committed reordering (exit 1 if any proof fails)
//! * `--no-opt`      skip conventional optimizations
//! * `--stats`       print dynamic event counts
//! * `--dump-ir`     print the final IR instead of running
//! * `--trace N`     print the first N executed blocks to stderr
//! * `--size N`      input bytes per workload in `validate --suite`

use std::process::exit;

use br_analysis::{has_errors, render, Diagnostic};
use br_ir::Module;
use br_minic::{compile, HeuristicSet, Options};
use br_reorder::{reorder_module, LayoutMode, ReorderOptions, SequenceOutcome};
use br_vm::{run, VmOptions};

struct Args {
    source: String,
    input: Vec<u8>,
    train: Option<Vec<u8>>,
    set: HeuristicSet,
    layout: LayoutMode,
    reorder: bool,
    no_opt: bool,
    stats: bool,
    dump_ir: bool,
    from_ir: bool,
    trace: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: brc FILE.c [--input FILE] [--train FILE] [--set I|II|III|IV] \
         [--reorder] [--no-opt] [--stats] [--dump-ir] [--from-ir]\n\
       \x20      brc lint FILE.c [--set I|II|III|IV] [--from-ir] [--no-opt] [--deny CODE|all]...\n\
       \x20      brc validate FILE.c [--input FILE] [--train FILE] [--set I|II|III|IV]\n\
       \x20      brc validate --suite [--size N]\n\
       \x20      brc prove FILE.c [--input FILE] [--train FILE] [--set I|II|III|IV] \
         [--emit-certs DIR]\n\
       \x20      brc prove --suite [--size N]\n\
       \x20      brc prove --witness-demo DIR\n\
       \x20      brc check CERT_FILE\n\
       \x20      brc check --tamper-demo\n\
       \x20      brc adapt [SCENARIO] [--size N] [--epoch N] [--exhaustive] [--opttree] [--csv]\n\
       \x20      brc sweep [--threads N] [--seeds K] [--quick] [--smoke] [--exhaustive] \
         [--layout MODE[,MODE...]] [--out DIR] [--cache DIR] [--no-cache]\n\
       \x20      brc fuzz [--seeds N] [--start-seed N] [--jobs N] [--time SECS] [--smoke] \
         [--corpus DIR] [--no-reduce] [--replay FILE]\n\
       \x20      brc serve [--addr HOST:PORT] [--threads N] [--queue N] [--deadline-ms N] \
         [--cache DIR] [--no-cache] [--debug-endpoints]\n\
       \x20      brc cluster [--addr HOST:PORT] [--shards N] [--base-port P] [--cache DIR] \
         [--no-cache] [--threads N] [--queue N] [--deadline-ms N] [--no-replicate] \
         [--hot-threshold N]\n\
       \x20      brc loadgen [--addr HOST:PORT] [--conns N] [--passes N] [--train N] \
         [--input N] [--reorder-only] [--batch K] [--smoke] [--shutdown] \
         [--assert-throughput N]\n\
       \x20      brc loadgen --open (--rate R | --rates R1,R2,...) [--duration-ms N] \
         [--procs N] [--curves FILE] [common flags above]\n\
       \x20      brc --version"
    );
    exit(2)
}

/// Every subcommand `brc` understands, for `--version` output.
const SUBCOMMANDS: [&str; 10] = [
    "lint", "validate", "prove", "check", "adapt", "sweep", "fuzz", "serve", "cluster", "loadgen",
];

/// `brc --version` / `-V` — crate version plus the enabled subcommands.
fn cmd_version() -> ! {
    println!("brc {}", env!("CARGO_PKG_VERSION"));
    println!("subcommands: {}", SUBCOMMANDS.join(" "));
    exit(0)
}

/// Report a bad command line (naming what was wrong) and show usage.
fn bad_args(msg: std::fmt::Arguments) -> ! {
    eprintln!("brc: {msg}");
    usage()
}

/// The value following `flag`, or exit 2 naming the flag.
fn flag_value(flag: &str, v: Option<String>) -> String {
    v.unwrap_or_else(|| bad_args(format_args!("{flag} requires a value")))
}

/// Parse the value following `flag`, or exit 2 naming flag and value.
fn parse_flag<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    let v = flag_value(flag, v);
    v.parse()
        .unwrap_or_else(|_| bad_args(format_args!("invalid value for {flag}: {v}")))
}

fn read(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("brc: cannot read {path}: {e}");
        exit(1)
    })
}

fn parse_layout(v: Option<String>) -> LayoutMode {
    let v = flag_value("--layout", v);
    LayoutMode::parse(&v).unwrap_or_else(|| {
        bad_args(format_args!(
            "invalid value for --layout: {v} (expected off, greedy, or exttsp)"
        ))
    })
}

fn parse_set(v: Option<String>) -> HeuristicSet {
    let v = flag_value("--set", v);
    match v.as_str() {
        "I" => HeuristicSet::SET_I,
        "II" => HeuristicSet::SET_II,
        "III" => HeuristicSet::SET_III,
        "IV" => HeuristicSet::SET_IV,
        _ => bad_args(format_args!(
            "invalid value for --set: {v} (expected I, II, III, or IV)"
        )),
    }
}

/// Compile a mini-C source (or parse dumped IR) into a verified module,
/// or describe why it cannot be built.
fn try_build_module(
    source: &str,
    set: HeuristicSet,
    from_ir: bool,
    no_opt: bool,
) -> Result<Module, String> {
    let mut module = if from_ir {
        br_ir::parse_module(source).map_err(|e| format!("IR parse error at {e}"))?
    } else {
        compile(source, &Options::with_heuristics(set))
            .map_err(|e| format!("compile error at {e}"))?
    };
    if !no_opt && !from_ir {
        br_opt::optimize(&mut module);
    }
    Ok(module)
}

/// [`try_build_module`], exiting with `code` on failure. `validate` and
/// `prove` use exit 2 here so a parse/compile failure is
/// distinguishable from a proof failure (exit 1).
fn build_module_or_exit(
    source: &str,
    set: HeuristicSet,
    from_ir: bool,
    no_opt: bool,
    code: i32,
) -> Module {
    try_build_module(source, set, from_ir, no_opt).unwrap_or_else(|e| {
        eprintln!("brc: {e}");
        exit(code)
    })
}

/// Compile a mini-C source (or parse dumped IR) into a verified module.
fn build_module(source: &str, set: HeuristicSet, from_ir: bool, no_opt: bool) -> Module {
    build_module_or_exit(source, set, from_ir, no_opt, 1)
}

fn parse_args(argv: impl Iterator<Item = String>) -> Args {
    let mut argv = argv.peekable();
    let mut source_path = None;
    let mut input = Vec::new();
    let mut train = None;
    let mut set = HeuristicSet::SET_I;
    let mut layout = LayoutMode::default();
    let (mut reorder, mut no_opt, mut stats, mut dump_ir, mut from_ir) =
        (false, false, false, false, false);
    let mut trace = 0usize;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--input" => input = read(&flag_value("--input", argv.next())),
            "--train" => train = Some(read(&flag_value("--train", argv.next()))),
            "--set" => set = parse_set(argv.next()),
            "--layout" => layout = parse_layout(argv.next()),
            "--reorder" => reorder = true,
            "--no-opt" => no_opt = true,
            "--stats" => stats = true,
            "--dump-ir" => dump_ir = true,
            "--from-ir" => from_ir = true,
            "--trace" => trace = parse_flag("--trace", argv.next()),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && source_path.is_none() => {
                source_path = Some(other.to_string());
            }
            other => bad_args(format_args!("unexpected argument: {other}")),
        }
    }
    let Some(path) = source_path else {
        bad_args(format_args!("no input file given"))
    };
    Args {
        source: String::from_utf8_lossy(&read(&path)).into_owned(),
        input,
        train,
        set,
        layout,
        reorder,
        no_opt,
        stats,
        dump_ir,
        from_ir,
        trace,
    }
}

/// `brc lint FILE` — full structural verification plus the analysis
/// lint passes, every finding reported at once. `--deny CODE`
/// (repeatable) or `--deny all` escalates the named diagnostic codes to
/// hard failures.
fn cmd_lint(argv: impl Iterator<Item = String>) -> ! {
    let mut deny: Vec<String> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        if a == "--deny" {
            deny.push(flag_value("--deny", argv.next()));
        } else {
            rest.push(a);
        }
    }
    let args = parse_args(rest.into_iter());
    let module = build_module(&args.source, args.set, args.from_ir, args.no_opt);
    let mut diags: Vec<Diagnostic> = Vec::new();
    // Structural violations first (errors), then the lint findings
    // (warnings). `verify_module_all` collects every violation rather
    // than stopping at the first, so one run shows the complete list.
    for e in br_ir::verify_module_all(&module) {
        let mut d = Diagnostic::error("BR0001", &e.function, e.message.clone());
        if let Some(b) = e.block {
            d = d.at(b);
        }
        diags.push(d);
    }
    // The lint passes walk the CFG and assume it is well-formed, so
    // they only run on a module that verified clean.
    if diags.is_empty() {
        diags.extend(br_analysis::lint_module(&module));
    }
    print!("{}", render(&diags));
    let denied: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| deny.iter().any(|c| c == "all" || c == d.code))
        .collect();
    for d in &denied {
        eprintln!("brc: denied diagnostic [{}] in `{}`", d.code, d.function);
    }
    exit(if has_errors(&diags) || !denied.is_empty() {
        1
    } else {
        0
    })
}

/// Run the pipeline on one module with validation forced on; print the
/// proof summary and return whether everything checked out.
fn validate_one(module: &Module, train: &[u8], label: &str, opt_tree: bool, verbose: bool) -> bool {
    let opts = ReorderOptions {
        validate: true,
        opt_tree,
        ..ReorderOptions::default()
    };
    let report = match reorder_module(module, train, &opts) {
        Ok(r) => r,
        Err(t) => {
            println!("{label}: training run trapped: {t}");
            return false;
        }
    };
    let Some(summary) = report.validation else {
        // The pipeline contract is that `validate: true` always yields
        // a summary; if that ever breaks, report it instead of
        // panicking so suite runs keep their exit-code discipline.
        println!("{label}: internal error: pipeline returned no validation summary");
        return false;
    };
    for s in &report.sequences {
        match s.outcome {
            SequenceOutcome::NeverExecuted if verbose => println!(
                "{label}: warning[BR0105]: sequence at {:?}/{:?} has zero profile \
                 coverage — left in original order",
                s.func, s.head
            ),
            SequenceOutcome::Refused(stage) if verbose => println!(
                "{label}: note: sequence at {:?}/{:?} executed {} times but its \
                 reordering was refused at the {stage} stage — left in original order",
                s.func, s.head, s.training_executions
            ),
            _ => {}
        }
    }
    println!("{label}: {summary}");
    for f in &summary.failures {
        println!("{label}: {f}");
    }
    summary.is_clean()
}

/// Reorder a known chain, corrupt one replica branch, and confirm the
/// validator rejects it with a stage-naming diagnostic.
fn corruption_demo() -> bool {
    use br_ir::{BlockId, Cond, FuncBuilder, FuncId, Operand, Terminator};
    use br_reorder::profile::{order_items, plan_ranges, SequenceProfile};

    let mut b = FuncBuilder::new("demo");
    let v = b.new_reg();
    b.set_param_regs(vec![v]);
    let e = b.entry();
    let c2 = b.new_block();
    let c3 = b.new_block();
    let t1 = b.new_block();
    let t2 = b.new_block();
    let t3 = b.new_block();
    let td = b.new_block();
    b.cmp_branch(e, v, 10i64, Cond::Eq, t1, c2);
    b.cmp_branch(c2, v, 20i64, Cond::Eq, t2, c3);
    b.cmp_branch(c3, v, 5i64, Cond::Lt, t3, td);
    for (t, val) in [(t1, 1i64), (t2, 2), (t3, 3), (td, 4)] {
        b.set_term(t, Terminator::Return(Some(Operand::Imm(val))));
    }
    let original = b.finish();

    let mut f = original.clone();
    let seq = br_reorder::detect_sequences(&f).remove(0);
    let n = plan_ranges(&seq).len();
    let counts: Vec<u64> = (1..=n as u64).rev().collect();
    let items = order_items(&seq, &SequenceProfile { counts });
    let eliminable = br_reorder::pipeline::eliminable_items(&seq, &items);
    let mut candidates: Vec<BlockId> = br_reorder::validate::sequence_exits(&seq)
        .into_iter()
        .collect();
    candidates.sort();
    let ordering =
        br_reorder::select_ordering(&items, &candidates, &eliminable, seq.default_target);
    let replica_start = f.blocks.len() as u32;
    br_reorder::apply::apply_reordering(&mut f, &seq, &items, &ordering);
    // The intentional break: swap taken/not-taken on the first replica
    // branch, the kind of bug a wrong emit would introduce.
    for bi in replica_start..f.blocks.len() as u32 {
        if let Terminator::Branch {
            taken, not_taken, ..
        } = &mut f.block_mut(BlockId(bi)).term
        {
            if taken != not_taken {
                std::mem::swap(taken, not_taken);
                break;
            }
        }
    }
    match br_reorder::validate_sequence(FuncId(0), &original, &f, &seq, replica_start) {
        Err(failure) => {
            println!("corruption demo: rejected as intended:\n  {failure}");
            true
        }
        Ok(_) => {
            println!("corruption demo: ERROR — corrupted replica passed validation");
            false
        }
    }
}

/// `brc validate --suite` — prove the reordering over the paper's 17
/// workloads under all four heuristic sets, then show a corruption
/// being caught.
fn cmd_validate_suite(size: usize) -> ! {
    let mut ok = true;
    let mut proven = 0usize;
    for (set_name, set) in [
        ("I", HeuristicSet::SET_I),
        ("II", HeuristicSet::SET_II),
        ("III", HeuristicSet::SET_III),
        ("IV", HeuristicSet::SET_IV),
    ] {
        for w in br_workloads::all() {
            let module = build_module(w.source, set, false, false);
            let label = format!("set {set_name} {}", w.name);
            let opts = ReorderOptions {
                validate: true,
                opt_tree: set.opt_tree,
                ..ReorderOptions::default()
            };
            let report = match reorder_module(&module, &w.training_input(size), &opts) {
                Ok(r) => r,
                Err(t) => {
                    println!("{label}: training run trapped: {t}");
                    ok = false;
                    continue;
                }
            };
            let Some(summary) = report.validation else {
                println!("{label}: internal error: pipeline returned no validation summary");
                ok = false;
                continue;
            };
            println!("{label}: {summary}");
            for fail in &summary.failures {
                println!("{label}: {fail}");
            }
            proven += summary.proven;
            ok &= summary.is_clean();
        }
    }
    println!("suite: {proven} sequence proofs across 17 workloads x 4 heuristic sets");
    ok &= corruption_demo();
    exit(if ok { 0 } else { 1 })
}

/// `brc validate ...` argument dispatch.
fn cmd_validate(argv: impl Iterator<Item = String>) -> ! {
    let argv: Vec<String> = argv.collect();
    if argv.iter().any(|a| a == "--suite") {
        let mut size = 4096usize;
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--size" {
                size = parse_flag("--size", it.next().cloned());
            }
        }
        cmd_validate_suite(size);
    }
    let args = parse_args(argv.into_iter());
    // Exit 2 on parse/compile failure so CI can tell "the program never
    // built" from "the proof failed" (exit 1).
    let module = build_module_or_exit(&args.source, args.set, args.from_ir, args.no_opt, 2);
    let train = args.train.as_deref().unwrap_or(&args.input);
    let ok = validate_one(&module, train, "validate", args.set.opt_tree, true);
    exit(if ok { 0 } else { 1 })
}

// Matches the `br-fuzz` corpus hex convention: empty renders as `-`.
fn hex_bytes(b: &[u8]) -> String {
    if b.is_empty() {
        return "-".to_string();
    }
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// One-line behavior fingerprint of a reference run, matching the
/// `expect` line grammar of `br-fuzz` corpus entries.
fn behavior(r: &Result<br_vm::RunOutcome, br_vm::Trap>) -> String {
    match r {
        Ok(o) => format!("exit={} output={}", o.exit, hex_bytes(&o.output)),
        Err(t) => format!("trap={t}"),
    }
}

/// Run the pipeline on one module in certify mode; print the summary,
/// re-check every emitted certificate with the independent checker, and
/// optionally write the certificates to `emit_dir`. Every `Reordered`
/// record must match exactly one accepted certificate by `(func, head)`,
/// and no certificate may be left over. Returns whether everything held
/// plus the `(covered, reordered)` record counts.
fn certify_one(
    module: &Module,
    train: &[u8],
    label: &str,
    opt_tree: bool,
    emit_dir: Option<&std::path::Path>,
) -> (bool, usize, usize) {
    let opts = ReorderOptions {
        certify: true,
        opt_tree,
        ..ReorderOptions::default()
    };
    let report = match reorder_module(module, train, &opts) {
        Ok(r) => r,
        Err(t) => {
            println!("{label}: training run trapped: {t}");
            return (false, 0, 0);
        }
    };
    let Some(summary) = report.validation else {
        println!("{label}: internal error: pipeline returned no validation summary");
        return (false, 0, 0);
    };
    let mut ok = summary.is_clean();
    let mut accepted = Vec::new();
    for c in &summary.certificates {
        match br_analysis::cert::check(&c.text) {
            Ok(cc) if cc.sig == c.sig => accepted.push((c.func, c.head)),
            Ok(cc) => {
                println!(
                    "{label}: [BR0301] certificate for f{}/b{} re-checked with \
                     unexpected sig {:016x} (prover said {:016x})",
                    c.func.0, c.head.0, cc.sig, c.sig
                );
                ok = false;
            }
            Err(e) => {
                println!(
                    "{label}: [BR0301] certificate for f{}/b{} REJECTED by the \
                     independent checker: {e}",
                    c.func.0, c.head.0
                );
                ok = false;
            }
        }
        if let Some(dir) = emit_dir {
            let path = dir.join(format!(
                "cert-f{}-b{}-{:016x}.brcert",
                c.func.0, c.head.0, c.sig
            ));
            if let Err(e) = std::fs::write(&path, &c.text) {
                println!("{label}: cannot write {}: {e}", path.display());
                ok = false;
            } else {
                println!("{label}: wrote {}", path.display());
            }
        }
    }
    let reordered: Vec<_> = report
        .sequences
        .iter()
        .filter(|s| matches!(s.outcome, SequenceOutcome::Reordered { .. }))
        .map(|s| (s.func, s.head))
        .collect();
    let covered = reordered
        .iter()
        .filter(|&k| accepted.iter().filter(|&a| a == k).count() == 1)
        .count();
    println!(
        "{label}: {summary}; {}/{} independently re-checked, {covered}/{} reordered \
         sequences certified (enumeration fallbacks: 0 — the prover is subsumption-only)",
        accepted.len(),
        summary.certificates.len(),
        reordered.len()
    );
    ok &= covered == reordered.len() && summary.certificates.len() == reordered.len();
    (ok, covered, reordered.len())
}

/// `brc prove --suite` — certify every applied sequence over the 17
/// paper workloads under all four heuristic sets, re-checking each
/// certificate with the independent checker on the spot.
fn cmd_prove_suite(size: usize) -> ! {
    let mut ok = true;
    let (mut covered, mut reordered) = (0usize, 0usize);
    for (set_name, set) in [
        ("I", HeuristicSet::SET_I),
        ("II", HeuristicSet::SET_II),
        ("III", HeuristicSet::SET_III),
        ("IV", HeuristicSet::SET_IV),
    ] {
        for w in br_workloads::all() {
            let module = build_module(w.source, set, false, false);
            let label = format!("set {set_name} {}", w.name);
            let (clean, c, r) =
                certify_one(&module, &w.training_input(size), &label, set.opt_tree, None);
            ok &= clean;
            covered += c;
            reordered += r;
        }
    }
    println!(
        "prove suite: {covered}/{reordered} reordered sequences certified and \
         independently re-checked across 17 workloads x 4 heuristic sets; \
         0 enumeration fallbacks"
    );
    exit(if ok { 0 } else { 1 })
}

/// The shared `prove` demo scaffold: compile a `getchar`-driven else-if
/// chain, plan a reordering from a synthetic skewed profile, and apply
/// it. Returns the pristine module, the pre-reordering function, the
/// reordered module, and the sequence coordinates.
#[allow(clippy::type_complexity)]
fn demo_reordered() -> Option<(
    Module,
    br_ir::Function,
    Module,
    br_reorder::DetectedSequence,
    br_ir::FuncId,
    u32,
)> {
    use br_ir::BlockId;
    use br_reorder::profile::{order_items, plan_ranges, SequenceProfile};

    let src = "int main() { int c; int n; n = 0; c = getchar();
        while (c != -1) {
            if (c == 32) { n = n + 1; }
            else if (c == 10) { n = n + 2; }
            else if (c < 5) { n = n + 3; }
            else { n = n + 4; }
            c = getchar();
        }
        return n; }";
    let module = build_module(src, HeuristicSet::SET_I, false, false);
    let (fid, seq) = br_reorder::detect_all(&module).into_iter().next()?;
    let n = plan_ranges(&seq).len();
    let counts: Vec<u64> = (1..=n as u64).rev().collect();
    let items = order_items(&seq, &SequenceProfile { counts });
    let eliminable = br_reorder::pipeline::eliminable_items(&seq, &items);
    let mut candidates: Vec<BlockId> = br_reorder::validate::sequence_exits(&seq)
        .into_iter()
        .collect();
    candidates.sort();
    let ordering =
        br_reorder::select_ordering(&items, &candidates, &eliminable, seq.default_target);
    let mut reordered = module.clone();
    let f = reordered.function_mut(fid);
    let original_f = f.clone();
    let replica_start = f.blocks.len() as u32;
    br_reorder::apply::apply_reordering(f, &seq, &items, &ordering);
    Some((module, original_f, reordered, seq, fid, replica_start))
}

/// `brc prove --witness-demo DIR` — seed an illegal target swap into a
/// reordered replica, let the prover refute it and solve a witness,
/// demonstrate the divergence under the reference interpreter, and
/// write the counterexample as a replayable fuzz corpus entry.
fn cmd_witness_demo(dir: &str) -> ! {
    use br_ir::{BlockId, Terminator};

    let Some((module, original_f, mut corrupted, seq, fid, replica_start)) = demo_reordered()
    else {
        println!("witness demo: ERROR — no reorderable sequence detected in the demo program");
        exit(1)
    };
    let f = corrupted.function_mut(fid);
    let mut swapped = false;
    for bi in replica_start..f.blocks.len() as u32 {
        if let Terminator::Branch {
            taken, not_taken, ..
        } = &mut f.block_mut(BlockId(bi)).term
        {
            if taken != not_taken {
                std::mem::swap(taken, not_taken);
                swapped = true;
                break;
            }
        }
    }
    if !swapped {
        println!("witness demo: ERROR — replica contains no conditional branch");
        exit(1)
    }
    let refuted = match br_reorder::certify_sequence(fid, &original_f, f, &seq, replica_start) {
        Ok(_) => {
            println!("witness demo: ERROR — seeded target swap was certified");
            exit(1)
        }
        Err(r) => r,
    };
    println!("witness demo: refuted as intended:\n  {}", refuted.failure);
    let Some(w) = refuted.witness else {
        println!("witness demo: ERROR — refutation produced no witness");
        exit(1)
    };
    let Some(input) = w.input_bytes() else {
        println!("witness demo: ERROR — witness {w} has no input encoding");
        exit(1)
    };
    let vm = VmOptions::default();
    let expect = behavior(&br_vm::run_reference(&module, &input, &vm));
    let got = behavior(&br_vm::run_reference(&corrupted, &input, &vm));
    let diverges = expect != got;
    println!(
        "witness demo: witness {w}; input bytes [{}]",
        hex_bytes(&input)
    );
    println!("witness demo: original  {expect}");
    println!(
        "witness demo: corrupted {got}{}",
        if diverges {
            " — DIVERGES under run_reference"
        } else {
            " — no divergence observed (demo FAILED)"
        }
    );
    let entry = br_analysis::corpus_entry(
        &w,
        &br_ir::print_module(&corrupted),
        "seeded target swap refuted by br-prove",
        Some(&expect),
    );
    if let Err(e) = std::fs::create_dir_all(dir) {
        println!("witness demo: cannot create {dir}: {e}");
        exit(1)
    }
    let path = std::path::Path::new(dir).join("witness-target-swap.bir");
    if let Err(e) = std::fs::write(&path, entry) {
        println!("witness demo: cannot write {}: {e}", path.display());
        exit(1)
    }
    println!("witness demo: corpus entry written to {}", path.display());
    println!(
        "witness demo: replay with `brc fuzz --replay {}`",
        path.display()
    );
    exit(if diverges { 0 } else { 1 })
}

/// A fresh certificate from the demo reordering (uncorrupted), for the
/// tamper demo.
fn demo_certificate() -> Option<String> {
    let (_, original_f, reordered, seq, fid, replica_start) = demo_reordered()?;
    let f = &reordered.functions[fid.0 as usize];
    br_reorder::certify_sequence(fid, &original_f, f, &seq, replica_start)
        .ok()
        .map(|p| p.certificate)
}

/// Mutate one line of a certificate: bump its first digit, or flip the
/// case of its first letter.
fn mutate_line(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut done = false;
    for ch in line.chars() {
        if !done && ch.is_ascii_digit() {
            out.push(char::from(b'0' + (ch as u8 - b'0' + 1) % 10));
            done = true;
        } else if !done && ch.is_ascii_alphabetic() {
            out.push(if ch.is_ascii_lowercase() {
                ch.to_ascii_uppercase()
            } else {
                ch.to_ascii_lowercase()
            });
            done = true;
        } else {
            out.push(ch);
        }
    }
    if !done {
        out.push('x');
    }
    out
}

/// Re-sign a certificate body (lines without the `sig` line) with the
/// checker's exposed fingerprint, modeling an attacker who fixes up the
/// signature after a semantic edit.
fn resign(body_lines: &[String]) -> String {
    let mut body = String::new();
    for l in body_lines {
        body.push_str(l);
        body.push('\n');
    }
    let sig = br_analysis::cert::fingerprint(&body);
    format!("{body}sig {sig:016x}\n")
}

/// `brc check --tamper-demo` — generate a valid certificate, then show
/// that every single-line tampering (signed-over edits, plus re-signed
/// semantic edits and truncation) is rejected by the checker.
fn cmd_tamper_demo() -> ! {
    let Some(cert) = demo_certificate() else {
        println!("tamper demo: ERROR — could not build a demo certificate");
        exit(1)
    };
    if let Err(e) = br_analysis::cert::check(&cert) {
        println!("tamper demo: ERROR — pristine certificate rejected: {e}");
        exit(1)
    }
    let lines: Vec<String> = cert.lines().map(str::to_string).collect();
    let mut total = 0usize;
    let mut rejected = 0usize;
    let mut tally = |name: String, text: String| {
        total += 1;
        if br_analysis::cert::check(&text).is_err() {
            rejected += 1;
        } else {
            println!("tamper demo: ACCEPTED (bug!): {name}");
        }
    };
    // Unsigned single-line edits: the signature must catch all of them.
    for i in 0..lines.len() {
        let mut t = lines.clone();
        t[i] = mutate_line(&t[i]);
        if t[i] == lines[i] {
            continue;
        }
        tally(format!("line {i} edit"), t.join("\n") + "\n");
    }
    // Re-signed semantic edits: the checker's own reasoning must catch
    // these — the attacker fixed the signature up.
    let body: Vec<String> = lines[..lines.len() - 1].to_vec();
    let class_idx: Vec<usize> = body
        .iter()
        .enumerate()
        .filter(|(_, l)| l.starts_with("class "))
        .map(|(i, _)| i)
        .collect();
    // Swap the exits of two classes with different targets.
    let exit_of = |l: &str| l.rsplit(' ').next().unwrap_or("").to_string();
    if let Some((&a, &b)) = class_idx
        .iter()
        .flat_map(|a| class_idx.iter().map(move |b| (a, b)))
        .find(|(a, b)| a < b && exit_of(&body[**a]) != exit_of(&body[**b]))
    {
        let mut t = body.clone();
        let (ea, eb) = (exit_of(&t[a]), exit_of(&t[b]));
        t[a] = format!("{} {eb}", t[a].rsplit_once(' ').unwrap().0);
        t[b] = format!("{} {ea}", t[b].rsplit_once(' ').unwrap().0);
        tally("re-signed class target swap".into(), resign(&t));
    }
    // Shift one class's range bound (breaks the tiling or a rep walk).
    if let Some(&i) = class_idx.first() {
        if let Some(t_line) = shift_first_bound(&body[i]) {
            let mut t = body.clone();
            t[i] = t_line;
            tally("re-signed range-bound shift".into(), resign(&t));
        }
    }
    // Truncation: drop the last body line and re-sign.
    tally(
        "re-signed truncation".into(),
        resign(&body[..body.len() - 1]),
    );
    println!("tamper demo: {rejected}/{total} tamperings rejected");
    exit(if rejected == total && total > 0 { 0 } else { 1 })
}

/// Bump the `hi` bound of the first finite interval in a `class` line.
fn shift_first_bound(line: &str) -> Option<String> {
    let mut parts: Vec<String> = line.split(' ').map(str::to_string).collect();
    for p in parts.iter_mut() {
        if let Some((lo, hi)) = p.split_once(',') {
            if let (Ok(lo), Ok(hi)) = (lo.parse::<i64>(), hi.parse::<i64>()) {
                if hi != i64::MAX {
                    *p = format!("{lo},{}", hi + 1);
                    return Some(parts.join(" "));
                }
            }
        }
    }
    None
}

/// `brc prove ...` argument dispatch.
fn cmd_prove(argv: impl Iterator<Item = String>) -> ! {
    let argv: Vec<String> = argv.collect();
    if argv.iter().any(|a| a == "--suite") {
        let mut size = 4096usize;
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--size" {
                size = parse_flag("--size", it.next().cloned());
            }
        }
        cmd_prove_suite(size);
    }
    if let Some(i) = argv.iter().position(|a| a == "--witness-demo") {
        let Some(dir) = argv.get(i + 1) else {
            bad_args(format_args!("--witness-demo requires a directory"))
        };
        cmd_witness_demo(dir);
    }
    let mut emit: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        if a == "--emit-certs" {
            emit = Some(flag_value("--emit-certs", it.next()));
        } else {
            rest.push(a);
        }
    }
    let args = parse_args(rest.into_iter());
    let module = build_module_or_exit(&args.source, args.set, args.from_ir, args.no_opt, 2);
    if let Some(dir) = &emit {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("brc: cannot create {dir}: {e}");
            exit(1)
        }
    }
    let train = args.train.as_deref().unwrap_or(&args.input);
    let (ok, ..) = certify_one(
        &module,
        train,
        "prove",
        args.set.opt_tree,
        emit.as_deref().map(std::path::Path::new),
    );
    exit(if ok { 0 } else { 1 })
}

/// `brc check ...` — independent certificate re-checking.
fn cmd_check(argv: impl Iterator<Item = String>) -> ! {
    let argv: Vec<String> = argv.collect();
    if argv.iter().any(|a| a == "--tamper-demo") {
        cmd_tamper_demo();
    }
    let Some(path) = argv.iter().find(|a| !a.starts_with('-')) else {
        bad_args(format_args!("check needs a certificate file"))
    };
    let text = String::from_utf8_lossy(&read(path)).into_owned();
    match br_analysis::cert::check(&text) {
        Ok(c) => {
            println!(
                "check: certificate accepted: func {} var r{} {} class(es) sig {:016x}",
                c.func_name, c.var.0, c.classes, c.sig
            );
            exit(0)
        }
        Err(e @ br_analysis::CertError::Parse(_)) => {
            eprintln!("brc: [BR0301] certificate unparseable: {e}");
            exit(2)
        }
        Err(e) => {
            eprintln!("brc: [BR0301] certificate rejected: {e}");
            exit(1)
        }
    }
}

/// `brc adapt [SCENARIO]` — race the adaptive runtime against a frozen
/// train-once deployment and a per-phase oracle over phase-shifting
/// input streams.
fn cmd_adapt(argv: impl Iterator<Item = String>) -> ! {
    use br_adaptive::{adapt_stream, AdaptOptions};

    let mut name: Option<String> = None;
    let mut size = 24 * 1024usize;
    let mut epoch = 0u64;
    let mut exhaustive = false;
    let mut opt_tree = false;
    let mut csv = false;
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--size" => size = parse_flag("--size", argv.next()),
            "--epoch" => epoch = parse_flag("--epoch", argv.next()),
            "--exhaustive" => exhaustive = true,
            "--opttree" => opt_tree = true,
            "--csv" => csv = true,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && name.is_none() => name = Some(other.to_string()),
            other => bad_args(format_args!("unexpected argument: {other}")),
        }
    }
    let scenarios = match name {
        Some(n) => match br_workloads::phases::scenario(&n) {
            Some(s) => vec![s],
            None => {
                let known: Vec<&str> = br_workloads::phases::scenarios()
                    .iter()
                    .map(|s| s.name)
                    .collect();
                eprintln!("brc: unknown scenario {n}; known: {}", known.join(", "));
                exit(1);
            }
        },
        None => br_workloads::phases::scenarios(),
    };
    let mut opts = AdaptOptions {
        exhaustive,
        opt_tree,
        ..AdaptOptions::default()
    };
    if epoch > 0 {
        opts.vm.epoch_blocks = epoch;
    }
    let mut ok = true;
    for s in &scenarios {
        let module = build_module(s.source, HeuristicSet::SET_I, false, false);
        let phases = s.phase_inputs(size);
        match adapt_stream(&module, s.name, &s.training_input(size), &phases, &opts) {
            Ok(report) => {
                if csv {
                    print!("{}", report.to_csv());
                } else {
                    println!("== {} — {}", s.name, s.description);
                    println!("{report}\n");
                }
                ok &= report.aborted_swaps == 0;
            }
            Err(t) => {
                eprintln!("brc: {}: run trapped: {t}", s.name);
                ok = false;
            }
        }
    }
    exit(if ok { 0 } else { 1 })
}

/// `brc sweep` — regenerate the paper's result tables with the parallel
/// reproduction engine; all grid and cache knobs exposed as flags.
fn cmd_sweep(argv: impl Iterator<Item = String>) -> ! {
    use br_sweep::{run_sweep, SweepConfig};

    let mut config = SweepConfig::full();
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--threads" => config.threads = parse_flag("--threads", argv.next()),
            "--seeds" => config.seeds = parse_flag("--seeds", argv.next()),
            "--quick" => {
                config.train_size = 3 * 1024;
                config.test_size = 4 * 1024;
            }
            "--smoke" => {
                let threads = config.threads;
                let seeds = config.seeds;
                config = SweepConfig {
                    threads,
                    seeds,
                    out_dir: config.out_dir,
                    cache_dir: config.cache_dir,
                    ..SweepConfig::smoke()
                };
                if threads == 0 {
                    config.threads = 2;
                }
            }
            "--exhaustive" => config.exhaustive = true,
            "--layout" => {
                let v = flag_value("--layout", argv.next());
                config.layouts = v
                    .split(',')
                    .map(|s| {
                        br_reorder::LayoutMode::parse(s).unwrap_or_else(|| {
                            bad_args(format_args!(
                                "invalid value for --layout: {s} (expected off, greedy, or exttsp)"
                            ))
                        })
                    })
                    .collect();
            }
            "--out" => config.out_dir = flag_value("--out", argv.next()).into(),
            "--cache" => config.cache_dir = Some(flag_value("--cache", argv.next()).into()),
            "--no-cache" => config.cache_dir = None,
            "--help" | "-h" => usage(),
            other => bad_args(format_args!("unexpected argument: {other}")),
        }
    }
    match run_sweep(&config) {
        Ok(outcome) => {
            for m in &outcome.metrics {
                eprintln!(
                    "brc: sweep cell {}/{}/{}/seed{}: reorder {:.0?}{} measure {:.0?}{}",
                    m.set,
                    m.layout,
                    m.workload,
                    m.seed,
                    m.reorder_time,
                    if m.reorder_cached { " (cached)" } else { "" },
                    m.measure_time,
                    match m.measures_cached {
                        0 => "",
                        1 => " (1 of 2 cached)",
                        _ => " (cached)",
                    },
                );
            }
            for f in &outcome.files {
                eprintln!("brc: sweep wrote {}", f.display());
            }
            for f in &outcome.failed {
                eprintln!("brc: sweep cell FAILED: {f}");
            }
            println!(
                "sweep: {} cells ({} failed) in {:.1?}; cache {} hits / {} misses; {} files in {}",
                outcome.cells,
                outcome.failed.len(),
                outcome.elapsed,
                outcome.cache_hits,
                outcome.cache_misses,
                outcome.files.len(),
                config.out_dir.display(),
            );
            exit(i32::from(!outcome.failed.is_empty()))
        }
        Err(e) => {
            eprintln!("brc: sweep failed: {e}");
            exit(1)
        }
    }
}

/// `brc fuzz` — generative differential testing of the whole stack:
/// random verified modules through both VM engines and the reordering
/// pipeline under Sets I/II/III, with auto-reduction and a replayable
/// corpus for anything that diverges.
fn cmd_fuzz(argv: impl Iterator<Item = String>) -> ! {
    use br_fuzz::{replay_file, run_fuzz, FuzzConfig};

    let mut smoke = false;
    let mut seeds = None;
    let mut start_seed = None;
    let mut jobs = None;
    let mut time_limit = None;
    let mut corpus = None;
    let mut reduce = true;
    let mut replay: Option<String> = None;
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--seeds" => seeds = Some(parse_flag("--seeds", argv.next())),
            "--start-seed" => start_seed = Some(parse_flag("--start-seed", argv.next())),
            "--jobs" => jobs = Some(parse_flag("--jobs", argv.next())),
            "--time" => {
                let secs: u64 = parse_flag("--time", argv.next());
                time_limit = Some(std::time::Duration::from_secs(secs));
            }
            "--smoke" => smoke = true,
            "--corpus" => corpus = Some(flag_value("--corpus", argv.next())),
            "--no-reduce" => reduce = false,
            "--replay" => replay = Some(flag_value("--replay", argv.next())),
            "--help" | "-h" => usage(),
            other => bad_args(format_args!("unexpected argument: {other}")),
        }
    }

    if let Some(path) = replay {
        match replay_file(std::path::Path::new(&path)) {
            Ok(report) => {
                for c in &report.checks {
                    println!("replay: {c}");
                }
                if report.reproduced {
                    println!("replay: divergence reproduced");
                    exit(0)
                } else {
                    println!("replay: divergence did NOT reproduce");
                    exit(1)
                }
            }
            Err(e) => {
                eprintln!("brc: cannot replay {path}: {e}");
                exit(1)
            }
        }
    }

    let mut cfg = if smoke {
        FuzzConfig::smoke()
    } else {
        FuzzConfig::default()
    };
    if let Some(n) = seeds {
        cfg.seeds = n;
    }
    if let Some(n) = start_seed {
        cfg.start_seed = n;
    }
    if let Some(n) = jobs {
        cfg.jobs = n;
    }
    cfg.time_limit = time_limit;
    if let Some(dir) = corpus {
        cfg.corpus_dir = Some(dir.into());
    }
    cfg.reduce = reduce;

    let out = run_fuzz(&cfg);
    for f in &out.findings {
        let crit = if f.finding.critical {
            " [CRITICAL]"
        } else {
            ""
        };
        println!(
            "finding{crit}: {} (seed {}, set {})",
            f.finding.fingerprint, f.finding.seed, f.finding.set
        );
        println!("  {}", f.finding.detail);
        if let Some(r) = &f.reduced {
            println!(
                "  reduced: {} site(s), {} condition(s), {}-byte input",
                r.spec.sites.len(),
                r.spec.cond_count(),
                r.input.len()
            );
        }
        if let Some(p) = &f.repro_path {
            println!("  repro: {}", p.display());
            println!("  replay: brc fuzz --replay {}", p.display());
        }
    }
    let skipped = if out.seeds_skipped > 0 {
        format!(" ({} skipped at time limit)", out.seeds_skipped)
    } else {
        String::new()
    };
    println!(
        "fuzz: {} seeds in {:.1?}{skipped}; {} distinct divergence(s){}",
        out.seeds_run,
        out.elapsed,
        out.findings.len(),
        if out.has_critical() {
            " — CRITICAL: validator accepted a miscompile"
        } else {
            ""
        }
    );
    exit(if out.findings.is_empty() { 0 } else { 1 })
}

/// `brc serve` — run the reordering daemon until SIGTERM or a
/// `shutdown` frame, then print the final counters.
fn cmd_serve(argv: impl Iterator<Item = String>) -> ! {
    use br_serve::{ServeConfig, Server};

    let mut config = ServeConfig::default();
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--addr" => config.addr = flag_value("--addr", argv.next()),
            "--threads" => config.threads = parse_flag("--threads", argv.next()),
            "--queue" => config.queue = parse_flag("--queue", argv.next()),
            "--deadline-ms" => config.deadline_ms = parse_flag("--deadline-ms", argv.next()),
            "--cache" => config.cache_dir = Some(flag_value("--cache", argv.next()).into()),
            "--no-cache" => config.cache_dir = None,
            "--debug-endpoints" => config.debug_endpoints = true,
            "--help" | "-h" => usage(),
            other => bad_args(format_args!("unexpected argument: {other}")),
        }
    }
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("brc: serve failed to start: {e}");
            exit(1)
        }
    };
    eprintln!("brc: serving on {}", server.addr());
    let metrics = server.metrics();
    match server.wait() {
        Ok(()) => {
            eprintln!("brc: drained cleanly; final counters:");
            eprint!("{}", metrics.render());
            exit(0)
        }
        Err(e) => {
            eprintln!("brc: serve failed: {e}");
            exit(1)
        }
    }
}

/// `brc cluster` — run the sharded service: shard daemons as child
/// processes, the consistent-hash router in this process.
fn cmd_cluster(argv: impl Iterator<Item = String>) -> ! {
    use br_cluster::{run_cluster, ClusterConfig};

    let mut config = ClusterConfig::default();
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--addr" => config.router_addr = flag_value("--addr", argv.next()),
            "--shards" => config.shards = parse_flag("--shards", argv.next()),
            "--base-port" => config.base_port = parse_flag("--base-port", argv.next()),
            "--cache" => config.cache_dir = Some(flag_value("--cache", argv.next()).into()),
            "--no-cache" => config.cache_dir = None,
            "--threads" => config.threads_per_shard = parse_flag("--threads", argv.next()),
            "--queue" => config.queue = parse_flag("--queue", argv.next()),
            "--deadline-ms" => config.deadline_ms = parse_flag("--deadline-ms", argv.next()),
            "--no-replicate" => config.replicate = false,
            "--hot-threshold" => config.hot_threshold = parse_flag("--hot-threshold", argv.next()),
            "--help" | "-h" => usage(),
            other => bad_args(format_args!("unexpected argument: {other}")),
        }
    }
    if config.shards == 0 {
        bad_args(format_args!("--shards must be at least 1"));
    }
    match run_cluster(&config) {
        Ok(()) => {
            eprintln!("brc: cluster drained cleanly");
            exit(0)
        }
        Err(e) => {
            eprintln!("brc: cluster failed: {e}");
            exit(1)
        }
    }
}

/// `brc loadgen` — closed- or open-loop load against a running daemon
/// or cluster.
fn cmd_loadgen(argv: impl Iterator<Item = String>) -> ! {
    use br_serve::loadgen::{
        run_curves, run_loadgen, run_open_loop, run_open_multiproc, run_smoke, shutdown,
        write_curves, LoadgenConfig, OpenLoopConfig,
    };

    let mut config = LoadgenConfig::default();
    let mut smoke = false;
    let mut open = false;
    let mut worker = false;
    let mut rates: Vec<f64> = Vec::new();
    let mut duration_ms: u64 = 5_000;
    let mut procs: usize = 1;
    let mut curves: Option<String> = None;
    let mut assert_throughput: Option<f64> = None;
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--addr" => config.addr = flag_value("--addr", argv.next()),
            "--conns" => config.connections = parse_flag("--conns", argv.next()),
            "--passes" => config.passes = parse_flag("--passes", argv.next()),
            "--train" => config.train_size = parse_flag("--train", argv.next()),
            "--input" => config.input_size = parse_flag("--input", argv.next()),
            "--reorder-only" => config.reorder_only = true,
            "--batch" => config.batch = parse_flag("--batch", argv.next()),
            "--open" => open = true,
            "--rate" => rates.push(parse_flag("--rate", argv.next())),
            "--rates" => {
                for r in flag_value("--rates", argv.next()).split(',') {
                    rates.push(r.trim().parse().unwrap_or_else(|_| {
                        bad_args(format_args!("invalid rate in --rates: {r}"))
                    }));
                }
            }
            "--duration-ms" => duration_ms = parse_flag("--duration-ms", argv.next()),
            "--procs" => procs = parse_flag("--procs", argv.next()),
            "--curves" => curves = Some(flag_value("--curves", argv.next())),
            "--assert-throughput" => {
                assert_throughput = Some(parse_flag("--assert-throughput", argv.next()))
            }
            "--worker" => worker = true,
            "--smoke" => smoke = true,
            "--shutdown" => config.shutdown_after = true,
            "--help" | "-h" => usage(),
            other => bad_args(format_args!("unexpected argument: {other}")),
        }
    }
    if open {
        if rates.is_empty() {
            bad_args(format_args!("--open requires --rate or --rates"));
        }
        let base = OpenLoopConfig {
            base: config.clone(),
            rate: rates[0],
            duration: std::time::Duration::from_millis(duration_ms.max(1)),
        };
        if worker {
            // Child of a --procs fan-out: run this process's share and
            // print the parseable summary for the parent to merge.
            match run_open_loop(&base) {
                Ok(report) => {
                    println!("{}", report.worker_summary());
                    exit(0)
                }
                Err(e) => {
                    eprintln!("brc: loadgen worker failed: {e}");
                    exit(1)
                }
            }
        }
        let mut worker_args: Vec<String> = [
            "loadgen",
            "--worker",
            "--open",
            "--addr",
            &config.addr,
            "--conns",
            &config.connections.to_string(),
            "--train",
            &config.train_size.to_string(),
            "--input",
            &config.input_size.to_string(),
            "--duration-ms",
            &duration_ms.to_string(),
        ]
        .map(str::to_string)
        .to_vec();
        if config.reorder_only {
            worker_args.push("--reorder-only".to_string());
        }
        let result = if rates.len() > 1 || curves.is_some() {
            run_curves(&base, &rates, procs, &worker_args)
        } else if procs > 1 {
            run_open_multiproc(&base, procs, &worker_args).map(|r| vec![r])
        } else {
            run_open_loop(&base).map(|r| vec![r])
        };
        match result {
            Ok(rows) => {
                for r in &rows {
                    println!("{}", r.render_line());
                }
                if let Some(path) = curves {
                    if let Err(e) = write_curves(std::path::Path::new(&path), &rows) {
                        eprintln!("brc: loadgen cannot write {path}: {e}");
                        exit(1)
                    }
                    println!("loadgen: wrote {} curve row(s) to {path}", rows.len());
                }
                let errors: u64 = rows.iter().map(|r| r.errors).sum();
                if let Some(min) = assert_throughput {
                    let best = rows.iter().map(|r| r.achieved()).fold(0.0, f64::max);
                    if best < min {
                        eprintln!(
                            "brc: loadgen throughput assertion FAILED: best {best:.1} req/s < {min}"
                        );
                        exit(1)
                    }
                    println!("loadgen: achieved {best:.1} req/s (asserted >= {min})");
                }
                exit(if errors == 0 { 0 } else { 1 })
            }
            Err(e) => {
                eprintln!("brc: loadgen failed: {e}");
                exit(1)
            }
        }
    }
    if smoke {
        let shutdown_after = config.shutdown_after;
        let mut smoke_config = LoadgenConfig::smoke(&config.addr);
        smoke_config.shutdown_after = false; // only after the warm pass
        match run_smoke(&smoke_config) {
            Ok((warm, violations)) => {
                print!("{}", warm.render());
                for v in &violations {
                    eprintln!("brc: loadgen smoke FAILED: {v}");
                }
                if shutdown_after {
                    if let Err(e) = shutdown(&smoke_config.addr) {
                        eprintln!("brc: loadgen shutdown failed: {e}");
                        exit(1)
                    }
                }
                exit(if violations.is_empty() { 0 } else { 1 })
            }
            Err(e) => {
                eprintln!("brc: loadgen failed: {e}");
                exit(1)
            }
        }
    }
    match run_loadgen(&config) {
        Ok(report) => {
            print!("{}", report.render());
            if let Some(min) = assert_throughput {
                if report.throughput() < min {
                    eprintln!(
                        "brc: loadgen throughput assertion FAILED: {:.1} req/s < {min}",
                        report.throughput()
                    );
                    exit(1)
                }
                println!(
                    "loadgen: achieved {:.1} req/s (asserted >= {min})",
                    report.throughput()
                );
            }
            exit(if report.errors == 0 { 0 } else { 1 })
        }
        Err(e) => {
            eprintln!("brc: loadgen failed: {e}");
            exit(1)
        }
    }
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("lint") => {
            argv.next();
            cmd_lint(argv);
        }
        Some("validate") => {
            argv.next();
            cmd_validate(argv);
        }
        Some("prove") => {
            argv.next();
            cmd_prove(argv);
        }
        Some("check") => {
            argv.next();
            cmd_check(argv);
        }
        Some("adapt") => {
            argv.next();
            cmd_adapt(argv);
        }
        Some("sweep") => {
            argv.next();
            cmd_sweep(argv);
        }
        Some("fuzz") => {
            argv.next();
            cmd_fuzz(argv);
        }
        Some("serve") => {
            argv.next();
            cmd_serve(argv);
        }
        Some("cluster") => {
            argv.next();
            cmd_cluster(argv);
        }
        Some("loadgen") => {
            argv.next();
            cmd_loadgen(argv);
        }
        Some("--version" | "-V") => cmd_version(),
        _ => {}
    }
    let args = parse_args(argv);
    let mut module = build_module(&args.source, args.set, args.from_ir, args.no_opt);
    if args.reorder {
        let train = args.train.as_deref().unwrap_or(&args.input);
        let opts = ReorderOptions {
            certify: true,
            opt_tree: args.set.opt_tree,
            layout: args.layout,
            ..ReorderOptions::default()
        };
        match reorder_module(&module, train, &opts) {
            Ok(report) => {
                let summary = report.validation.unwrap_or_default();
                if args.stats {
                    for s in &report.sequences {
                        let cert = summary
                            .certificates
                            .iter()
                            .find(|c| (c.func, c.head) == (s.func, s.head))
                            .map_or(String::new(), |c| format!(" (cert {:016x})", c.sig));
                        eprintln!(
                            "brc: sequence {:?}/{:?}{cert}: {:?}",
                            s.func, s.head, s.outcome
                        );
                    }
                }
                if !summary.is_clean() {
                    eprintln!("brc: reordering failed certification: {summary}");
                    exit(1);
                }
                module = report.module;
            }
            Err(t) => {
                eprintln!("brc: training run trapped: {t}");
                exit(1);
            }
        }
    }
    if let Err(e) = br_ir::verify_module(&module) {
        eprintln!("brc: internal error: IR fails verification: {e}");
        exit(1);
    }
    if args.dump_ir {
        print!("{}", br_ir::print_module(&module));
        return;
    }
    let vm = VmOptions {
        trace_blocks: args.trace,
        ..VmOptions::default()
    };
    match run(&module, &args.input, &vm) {
        Ok(out) => {
            use std::io::Write as _;
            for line in &out.trace {
                eprintln!("brc: trace {line}");
            }
            std::io::stdout().write_all(&out.output).ok();
            if args.stats {
                eprintln!("brc: exit {}", out.exit);
                eprintln!("brc: {}", out.stats);
            }
            exit(out.exit.clamp(0, 255) as i32);
        }
        Err(t) => {
            eprintln!("brc: run-time trap: {t}");
            exit(1);
        }
    }
}
