//! The differential oracle: one spec, four lowerings, two VMs, and the
//! reordering pipeline, all cross-checked.
//!
//! Per heuristic set the oracle runs, in order:
//!
//! 1. **Verifier gate** — `br_ir::verify_module_all` on the lowered
//!    module; a generated module must always be verifier-clean.
//! 2. **Engine differential** — `run_reference` (tree-walker) vs. `run`
//!    (pre-decoded fast path) on every test input, compared field by
//!    field (exit, output, stats, profiles, predictors, block counts,
//!    traps). A third engine covers epoch pauses: `run_hooked` with an
//!    idle hook pausing every [`PAUSE_EPOCH_BLOCKS`] blocks, on the module
//!    instrumented as the adaptive runtime deploys it, against
//!    `run_reference` on the same module ([`paused_differential`]).
//! 3. **Cross-lowering differential** — observable behavior (exit,
//!    output, trap) against the Set I lowering of the same spec; stats
//!    legitimately differ between lowerings, behavior must not.
//! 4. **Reorder differential** — train the pipeline, run the reordered
//!    module through both engines, and compare its behavior to the
//!    original's. Divergence while the translation validator said
//!    *clean* is the critical finding class
//!    (`validator-accepted-miscompile`); divergence the validator also
//!    flagged is recorded as caught. A validator rejection with *no*
//!    observed divergence is reported too — over-strict proofs hide
//!    real regressions behind noise.
//!
//! Pipeline panics (debug builds assert validation internally) are
//! caught and reported as findings rather than tearing down the run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use br_ir::{print_module, verify_module_all, BlockId, Inst, Module, Terminator};
use br_minic::HeuristicSet;
use br_reorder::{detect_all, instrument_module, reorder_module, ReorderOptions};
use br_vm::{run, run_hooked, run_reference, EpochHook, RunOutcome, Trap, VmOptions};

use crate::gen::Spec;

/// Step budget for every fuzz execution: far above what a generated
/// program needs (they execute a bounded number of blocks per input
/// byte), low enough that an injected infinite loop surfaces quickly as
/// a `StepLimitExceeded` divergence.
pub const FUZZ_MAX_STEPS: u64 = 3_000_000;

/// Test-only fault injection: after the pipeline (and its validator)
/// have produced the reordered module, swap the taken/not-taken targets
/// of a branch that compares against one of the spec's anchor
/// constants — a model of an emit-stage bug downstream of validation,
/// i.e. exactly the `validator-accepts-but-diverges` class the oracle
/// must catch.
#[derive(Clone, Copy, Debug)]
pub struct FaultInjection {
    /// Which anchor constant to target (wraps around the anchor list).
    pub anchor_index: usize,
}

/// How the injected fault resolved, recorded in repro files so replay
/// can re-apply the identical corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Swapped the branch comparing against this constant.
    Anchor(i64),
    /// No anchor compare found; swapped the last conditional branch.
    LastBranch,
}

/// Oracle knobs.
#[derive(Clone, Debug)]
pub struct OracleOptions {
    /// Random test inputs per seed.
    pub tests_per_seed: usize,
    /// Bytes per test input.
    pub input_len: usize,
    /// Bytes of training input for the reordering pipeline.
    pub train_len: usize,
    /// Test-only fault injection (see [`FaultInjection`]).
    pub fault: Option<FaultInjection>,
}

impl Default for OracleOptions {
    fn default() -> OracleOptions {
        OracleOptions {
            tests_per_seed: 3,
            input_len: 384,
            train_len: 512,
            fault: None,
        }
    }
}

impl OracleOptions {
    /// Faster settings for CI smoke runs and debug-build tests.
    pub fn smoke() -> OracleOptions {
        OracleOptions {
            tests_per_seed: 2,
            input_len: 160,
            train_len: 224,
            ..OracleOptions::default()
        }
    }
}

/// One divergence (or cross-check failure) the oracle observed.
#[derive(Clone, Debug)]
pub struct Finding {
    pub seed: u64,
    /// Heuristic set the offending module was lowered under.
    pub set: &'static str,
    /// Finding class, e.g. `fast-path-divergence`.
    pub kind: String,
    /// `validator-accepted-miscompile` findings are critical: the proof
    /// said yes and the machine said no.
    pub critical: bool,
    /// Stable identity for dedup and for the reducer's invariant:
    /// `kind/set/first-divergent-field`.
    pub fingerprint: String,
    pub detail: String,
    /// The abstract program; the reducer mutates this.
    pub spec: Spec,
    /// Printed IR of the offending module (pre-reorder lowering).
    pub module_text: String,
    /// The diverging test input (empty when not input-dependent).
    pub input: Vec<u8>,
    pub train: Vec<u8>,
    /// Resolved fault site when injection was on.
    pub fault_site: Option<FaultSite>,
}

/// VM options used for every fuzz execution.
pub fn fuzz_vm_options() -> VmOptions {
    VmOptions {
        max_steps: FUZZ_MAX_STEPS,
        ..VmOptions::default()
    }
}

/// Epoch length of the pause-path engine: short, so a generated
/// program's sequence heads pause many times per input.
pub const PAUSE_EPOCH_BLOCKS: u64 = 3;

/// An epoch hook that never mutates the module.
struct Idle;

impl EpochHook for Idle {
    fn on_epoch(&mut self, _: &mut Module, _: &mut [Vec<u64>]) -> bool {
        false
    }
}

/// The pause-path differential on one input: `module` instrumented with
/// a probe at every detected sequence head (the adaptive runtime's
/// safe points), run by `run_reference` and by `run_hooked` pausing
/// every [`PAUSE_EPOCH_BLOCKS`] blocks. Returns `(reference, hooked)`.
pub fn paused_differential(
    module: &Module,
    input: &[u8],
    vm: &VmOptions,
) -> (Result<RunOutcome, Trap>, Result<RunOutcome, Trap>) {
    let mut instrumented = module.clone();
    instrument_module(&mut instrumented, &detect_all(module));
    let vm = VmOptions {
        epoch_blocks: PAUSE_EPOCH_BLOCKS,
        ..vm.clone()
    };
    let reference = run_reference(&instrumented, input, &vm);
    let hooked = run_hooked(&mut instrumented, input, &vm, &mut Idle);
    (reference, hooked)
}

/// First differing `RunOutcome` field between two engines on the same
/// module, or `None` when equal. Ordered so the most meaningful label
/// wins (a wrong exit usually drags stats along with it).
pub(crate) fn diff_full(
    a: &Result<RunOutcome, Trap>,
    b: &Result<RunOutcome, Trap>,
) -> Option<&'static str> {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            if x.exit != y.exit {
                Some("exit")
            } else if x.output != y.output {
                Some("output")
            } else if x.stats != y.stats {
                Some("stats")
            } else if x.profiles != y.profiles {
                Some("profiles")
            } else if x.predictor_results != y.predictor_results {
                Some("predictors")
            } else if x.block_counts != y.block_counts {
                Some("block-counts")
            } else {
                None
            }
        }
        (Err(x), Err(y)) => (x != y).then_some("trap-kind"),
        _ => Some("trap"),
    }
}

/// First differing *observable behavior* field between runs of two
/// different modules (exit, output, trap): the comparison used across
/// lowerings and across the reordering, where stats legitimately move.
fn diff_behavior(
    a: &Result<RunOutcome, Trap>,
    b: &Result<RunOutcome, Trap>,
) -> Option<&'static str> {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            if x.exit != y.exit {
                Some("exit")
            } else if x.output != y.output {
                Some("output")
            } else {
                None
            }
        }
        (Err(x), Err(y)) => (x != y).then_some("trap-kind"),
        _ => Some("trap"),
    }
}

fn describe(r: &Result<RunOutcome, Trap>) -> String {
    match r {
        Ok(o) => format!("exit={} output={} bytes", o.exit, o.output.len()),
        Err(t) => format!("trap: {t}"),
    }
}

/// Run a panicking-prone closure, turning a panic into its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic>".to_string()
        }
    })
}

/// Swap the taken/not-taken successors of a conditional branch in
/// `main` whose final compare tests one of `anchors` (starting the
/// search at `anchor_index`); falls back to the last conditional
/// branch. Returns where the fault landed, or `None` if `main` has no
/// conditional branch at all.
pub fn inject_fault(m: &mut Module, anchors: &[i64], anchor_index: usize) -> Option<FaultSite> {
    let main = m.main?;
    let f = m.function_mut(main);
    let cmp_anchor = |insts: &[Inst]| -> Option<i64> {
        match insts.last() {
            Some(Inst::Cmp { lhs, rhs }) => rhs.imm().or_else(|| lhs.imm()),
            _ => None,
        }
    };
    let swappable = |f: &br_ir::Function, id: BlockId| {
        matches!(
            f.block(id).term,
            Terminator::Branch { taken, not_taken, .. } if taken != not_taken
        )
    };
    let ids: Vec<BlockId> = f.block_ids().collect();
    for k in 0..anchors.len() {
        let a = anchors[(anchor_index + k) % anchors.len()];
        for &id in &ids {
            if swappable(f, id) && cmp_anchor(&f.block(id).insts) == Some(a) {
                if let Terminator::Branch {
                    taken, not_taken, ..
                } = &mut f.block_mut(id).term
                {
                    std::mem::swap(taken, not_taken);
                }
                return Some(FaultSite::Anchor(a));
            }
        }
    }
    for &id in ids.iter().rev() {
        if swappable(f, id) {
            if let Terminator::Branch {
                taken, not_taken, ..
            } = &mut f.block_mut(id).term
            {
                std::mem::swap(taken, not_taken);
            }
            return Some(FaultSite::LastBranch);
        }
    }
    None
}

/// Check one seed end to end: generate, then run [`check_spec_io`] with
/// inputs derived from the spec.
pub fn check_seed(seed: u64, gcfg: &crate::gen::GenConfig, opts: &OracleOptions) -> Vec<Finding> {
    let spec = Spec::generate(seed, gcfg);
    let train = spec.input(u64::MAX, opts.train_len);
    let tests: Vec<Vec<u8>> = (0..opts.tests_per_seed)
        .map(|i| spec.input(i as u64, opts.input_len))
        .collect();
    check_spec_io(&spec, &train, &tests, opts)
}

/// The full oracle over explicit inputs (the reducer re-enters here
/// with shrunken specs and inputs).
pub fn check_spec_io(
    spec: &Spec,
    train: &[u8],
    tests: &[Vec<u8>],
    opts: &OracleOptions,
) -> Vec<Finding> {
    let vm = fuzz_vm_options();
    let mut findings = Vec::new();
    let mut baseline: Option<Vec<Result<RunOutcome, Trap>>> = None;
    let make = |set: &'static str,
                kind: &str,
                critical: bool,
                field: &str,
                detail: String,
                module_text: String,
                input: Vec<u8>,
                fault_site: Option<FaultSite>| Finding {
        seed: spec.seed,
        set,
        kind: kind.to_string(),
        critical,
        fingerprint: if field.is_empty() {
            format!("{kind}/{set}")
        } else {
            format!("{kind}/{set}/{field}")
        },
        detail,
        spec: spec.clone(),
        module_text,
        input,
        train: train.to_vec(),
        fault_site,
    };

    for set in HeuristicSet::ALL {
        let set_name = set.name;
        let module = match guarded(|| {
            let mut m = spec.lower(set);
            if spec.optimize {
                br_opt::optimize(&mut m);
            }
            m
        }) {
            Ok(m) => m,
            Err(msg) => {
                findings.push(make(
                    set_name,
                    "lowering-panic",
                    false,
                    "",
                    msg,
                    String::new(),
                    Vec::new(),
                    None,
                ));
                continue;
            }
        };
        let errs = verify_module_all(&module);
        if !errs.is_empty() {
            findings.push(make(
                set_name,
                "verifier-reject",
                false,
                "",
                errs.iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
                print_module(&module),
                Vec::new(),
                None,
            ));
            continue;
        }
        let text = print_module(&module);

        // Engine differential on the original module.
        let refs: Vec<_> = tests
            .iter()
            .map(|t| run_reference(&module, t, &vm))
            .collect();
        let fasts: Vec<_> = tests.iter().map(|t| run(&module, t, &vm)).collect();
        let mut engine_diverged = false;
        for (i, (r, f)) in refs.iter().zip(&fasts).enumerate() {
            if let Some(field) = diff_full(r, f) {
                findings.push(make(
                    set_name,
                    "fast-path-divergence",
                    false,
                    &format!("orig-{field}"),
                    format!("reference {} vs fast {}", describe(r), describe(f)),
                    text.clone(),
                    tests[i].clone(),
                    None,
                ));
                engine_diverged = true;
                break;
            }
        }
        // The pause path: the same module instrumented, paused often.
        for (i, t) in tests.iter().enumerate() {
            let (r, h) = paused_differential(&module, t, &vm);
            if let Some(field) = diff_full(&r, &h) {
                findings.push(make(
                    set_name,
                    "paused-divergence",
                    false,
                    &format!("orig-{field}"),
                    format!("reference {} vs paused {}", describe(&r), describe(&h)),
                    text.clone(),
                    tests[i].clone(),
                    None,
                ));
                engine_diverged = true;
                break;
            }
        }
        // Generated programs are trap-free by construction; a trap in
        // both engines means the generator's own invariant broke.
        if !engine_diverged {
            if let Some((i, t)) = refs
                .iter()
                .enumerate()
                .find_map(|(i, r)| r.as_ref().err().map(|t| (i, t.clone())))
            {
                findings.push(make(
                    set_name,
                    "unexpected-trap",
                    false,
                    "",
                    format!("original module trapped: {t}"),
                    text.clone(),
                    tests[i].clone(),
                    None,
                ));
            }
        }

        // Cross-lowering differential against the Set I baseline.
        if let Some(base) = &baseline {
            for (i, (r, b)) in refs.iter().zip(base).enumerate() {
                if let Some(field) = diff_behavior(r, b) {
                    findings.push(make(
                        set_name,
                        "lowering-divergence",
                        false,
                        field,
                        format!("set {set_name} {} vs set I {}", describe(r), describe(b)),
                        text.clone(),
                        tests[i].clone(),
                        None,
                    ));
                    break;
                }
            }
        } else {
            baseline = Some(refs.clone());
        }

        // Reordering differential with the validator cross-check. The
        // set's own dispatch flag rides along, so Set IV runs exercise
        // the optimal-tree / jump-table emitter too.
        let ropts = ReorderOptions {
            vm: vm.clone(),
            validate: true,
            opt_tree: set.opt_tree,
            ..ReorderOptions::default()
        };
        let report = match guarded(|| reorder_module(&module, train, &ropts)) {
            Ok(Ok(r)) => r,
            Ok(Err(t)) => {
                findings.push(make(
                    set_name,
                    "train-trap",
                    false,
                    "",
                    format!("training run trapped: {t}"),
                    text.clone(),
                    Vec::new(),
                    None,
                ));
                continue;
            }
            Err(msg) => {
                findings.push(make(
                    set_name,
                    "pipeline-panic",
                    false,
                    "",
                    msg,
                    text.clone(),
                    Vec::new(),
                    None,
                ));
                continue;
            }
        };
        let vclean = report
            .validation
            .as_ref()
            .map(|s| s.is_clean())
            .unwrap_or(true);
        let vdetail = report
            .validation
            .as_ref()
            .map(|s| {
                s.failures
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            })
            .unwrap_or_default();
        let mut reordered = report.module;
        let fault_site = opts
            .fault
            .and_then(|f| inject_fault(&mut reordered, &spec.anchors(), f.anchor_index));

        let rrefs: Vec<_> = tests
            .iter()
            .map(|t| run_reference(&reordered, t, &vm))
            .collect();
        let rfasts: Vec<_> = tests.iter().map(|t| run(&reordered, t, &vm)).collect();
        for (i, (r, f)) in rrefs.iter().zip(&rfasts).enumerate() {
            if let Some(field) = diff_full(r, f) {
                findings.push(make(
                    set_name,
                    "fast-path-divergence",
                    false,
                    &format!("reord-{field}"),
                    format!("reference {} vs fast {}", describe(r), describe(f)),
                    text.clone(),
                    tests[i].clone(),
                    fault_site,
                ));
                break;
            }
        }
        let mut behavior_diverged = false;
        for (i, (r, o)) in rrefs.iter().zip(&refs).enumerate() {
            if let Some(field) = diff_behavior(r, o) {
                behavior_diverged = true;
                if vclean {
                    findings.push(make(
                        set_name,
                        "validator-accepted-miscompile",
                        true,
                        field,
                        format!(
                            "validator clean, yet reordered {} vs original {}",
                            describe(r),
                            describe(o)
                        ),
                        text.clone(),
                        tests[i].clone(),
                        fault_site,
                    ));
                } else {
                    findings.push(make(
                        set_name,
                        "reorder-divergence-caught",
                        false,
                        field,
                        format!(
                            "validator flagged it ({vdetail}); reordered {} vs original {}",
                            describe(r),
                            describe(o)
                        ),
                        text.clone(),
                        tests[i].clone(),
                        fault_site,
                    ));
                }
                break;
            }
        }
        if !vclean && !behavior_diverged {
            findings.push(make(
                set_name,
                "validator-reject",
                false,
                "",
                format!("validator rejected but behavior agreed on all tests: {vdetail}"),
                text.clone(),
                Vec::new(),
                None,
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;

    #[test]
    fn clean_seeds_produce_no_findings() {
        let gcfg = GenConfig::smoke();
        let opts = OracleOptions::smoke();
        for seed in 0..12 {
            let findings = check_seed(seed, &gcfg, &opts);
            assert!(
                findings.is_empty(),
                "seed {seed}: {:?}",
                findings
                    .iter()
                    .map(|f| (&f.fingerprint, &f.detail))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn injected_fault_is_detected() {
        let gcfg = GenConfig::smoke();
        let opts = OracleOptions {
            fault: Some(FaultInjection { anchor_index: 0 }),
            ..OracleOptions::smoke()
        };
        let mut hit = false;
        for seed in 0..12 {
            let findings = check_seed(seed, &gcfg, &opts);
            if findings
                .iter()
                .any(|f| f.kind == "validator-accepted-miscompile" && f.critical)
            {
                hit = true;
                break;
            }
        }
        assert!(hit, "no seed in 0..12 caught the injected miscompile");
    }

    #[test]
    fn fault_injection_prefers_anchor_compares() {
        let spec = Spec::generate(5, &GenConfig::smoke());
        let mut m = spec.lower(HeuristicSet::SET_I);
        let anchors = spec.anchors();
        let site = inject_fault(&mut m, &anchors, 0).expect("fault lands");
        assert!(matches!(site, FaultSite::Anchor(a) if anchors.contains(&a)));
    }
}
