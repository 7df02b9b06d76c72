//! # br-fuzz
//!
//! Generative differential testing for the branch-reordering pipeline
//! and the dual-path VM.
//!
//! The paper's transformation (Figure 4 detection, Figure 10
//! restructuring, Theorem 2 side-effect motion) is exactly the kind of
//! pass where rare CFG shapes hide miscompiles, and the pre-decoded VM
//! fast path doubled the execution surface. This crate closes the loop
//! Rustlantis-style:
//!
//! * [`gen`] — a seeded generator emitting verifier-clean IR modules
//!   biased toward reorderable range-condition sequences, with knobs
//!   for sequence length, range Forms 1–4, intervening side effects,
//!   default-target tails, and switch density. The same abstract spec
//!   lowers its switches per heuristic Sets I/II/III, so a cross-set
//!   run is a genuine differential of three lowerings of one program.
//! * [`oracle`] — runs each program × random inputs through
//!   `run_reference`, the fast path (plain, and paused at epochs on
//!   the instrumented module), and the reordered module, flagging
//!   any `RunOutcome` or trap divergence and cross-checking the
//!   translation validator's verdict against observed behavior
//!   (validator-accepts-but-diverges is the critical class).
//! * [`reduce`] — a delta-debugging reducer that shrinks failing specs
//!   and inputs while preserving the divergence fingerprint.
//!
//! [`run_fuzz`] schedules seeds across cores with the sweep crate's
//! atomic-cursor scheduler, dedups findings by fingerprint, reduces
//! each survivor, and writes a minimized `.bir` repro (with a one-line
//! replay command) into the corpus directory. [`replay_file`] re-runs a
//! repro and reports whether it still reproduces.
//!
//! ```
//! use br_fuzz::{run_fuzz, FuzzConfig};
//!
//! let mut cfg = FuzzConfig::smoke();
//! cfg.seeds = 5;
//! cfg.jobs = 1;
//! let outcome = run_fuzz(&cfg);
//! assert_eq!(outcome.seeds_run, 5);
//! assert!(outcome.findings.is_empty());
//! ```

pub mod gen;
pub mod oracle;
pub mod reduce;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use br_ir::{parse_module, print_module, verify_module_all, Module};
use br_minic::HeuristicSet;
use br_reorder::{reorder_module, ReorderOptions};
use br_sweep::scheduler::{default_threads, parallel_map};
use br_vm::{run, run_reference};

pub use gen::{GenConfig, Spec};
use oracle::diff_full;
pub use oracle::{
    check_seed, check_spec_io, fuzz_vm_options, inject_fault, paused_differential, FaultInjection,
    FaultSite, Finding, OracleOptions, PAUSE_EPOCH_BLOCKS,
};
pub use reduce::{reduce_finding, Reduced};

/// Configuration for one fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Seeds to try, starting at `start_seed`.
    pub seeds: u64,
    pub start_seed: u64,
    /// Worker threads; 0 means one per available core.
    pub jobs: usize,
    /// Stop scheduling new seeds after this long.
    pub time_limit: Option<Duration>,
    pub gen: GenConfig,
    pub oracle: OracleOptions,
    /// Where minimized repros go; `None` disables corpus writing.
    pub corpus_dir: Option<PathBuf>,
    /// Delta-debug each deduped finding before writing it out.
    pub reduce: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seeds: 1000,
            start_seed: 0,
            jobs: 0,
            time_limit: None,
            gen: GenConfig::default(),
            oracle: OracleOptions::default(),
            corpus_dir: Some(PathBuf::from("fuzz/corpus")),
            reduce: true,
        }
    }
}

impl FuzzConfig {
    /// Small fast programs and inputs for CI smoke runs.
    pub fn smoke() -> FuzzConfig {
        FuzzConfig {
            gen: GenConfig::smoke(),
            oracle: OracleOptions::smoke(),
            corpus_dir: None,
            ..FuzzConfig::default()
        }
    }
}

/// One deduplicated finding with its reduction and repro artifact.
#[derive(Clone, Debug)]
pub struct CampaignFinding {
    pub finding: Finding,
    pub reduced: Option<Reduced>,
    pub repro_path: Option<PathBuf>,
}

/// Result of a fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    pub seeds_run: u64,
    /// Seeds skipped because the time limit expired.
    pub seeds_skipped: u64,
    pub elapsed: Duration,
    /// Fingerprint-deduplicated findings (first seed wins; the result
    /// is deterministic regardless of thread count).
    pub findings: Vec<CampaignFinding>,
}

impl FuzzOutcome {
    /// Whether any critical (validator-accepted miscompile) finding
    /// survived.
    pub fn has_critical(&self) -> bool {
        self.findings.iter().any(|f| f.finding.critical)
    }
}

/// Run a fuzzing campaign: fan seeds across threads, dedup findings by
/// fingerprint, reduce, and write corpus repros.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    let start = Instant::now();
    let deadline = cfg.time_limit.map(|d| start + d);
    let seeds: Vec<u64> = (cfg.start_seed..cfg.start_seed.saturating_add(cfg.seeds)).collect();
    let threads = if cfg.jobs == 0 {
        default_threads()
    } else {
        cfg.jobs
    };
    let gen = cfg.gen.clone();
    let oracle = cfg.oracle.clone();
    let results = parallel_map(&seeds, threads, move |_, &seed| {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        Some(check_seed(seed, &gen, &oracle))
    });

    let seeds_skipped = results.iter().filter(|r| r.is_none()).count() as u64;
    let mut deduped: BTreeMap<String, Finding> = BTreeMap::new();
    for finding in results.into_iter().flatten().flatten() {
        deduped
            .entry(finding.fingerprint.clone())
            .or_insert(finding);
    }

    let mut findings = Vec::new();
    for (_, finding) in deduped {
        let reduced = cfg.reduce.then(|| reduce_finding(&finding, &cfg.oracle));
        let repro_path = cfg.corpus_dir.as_deref().and_then(|dir| {
            write_repro(dir, &finding, reduced.as_ref())
                .map_err(|e| eprintln!("br-fuzz: cannot write repro: {e}"))
                .ok()
        });
        findings.push(CampaignFinding {
            finding,
            reduced,
            repro_path,
        });
    }
    FuzzOutcome {
        seeds_run: cfg.seeds - seeds_skipped,
        seeds_skipped,
        elapsed: start.elapsed(),
        findings,
    }
}

fn hex(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".to_string();
    }
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if s == "-" {
        return Some(Vec::new());
    }
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

fn slug(fingerprint: &str) -> String {
    fingerprint
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Write a minimized, self-contained `.bir` repro. Metadata rides in
/// `#`-prefixed lines ahead of the module text (the IR parser never
/// sees them; [`replay_file`] strips them).
fn write_repro(dir: &Path, finding: &Finding, reduced: Option<&Reduced>) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    // Re-derive the minimized module and its expected (pre-divergence)
    // behavior from the reduced spec, falling back to the original
    // finding when reduction is off.
    let (spec, train, input) = match reduced {
        Some(r) => (&r.spec, &r.train, &r.input),
        None => (&finding.spec, &finding.train, &finding.input),
    };
    let set = HeuristicSet::ALL
        .into_iter()
        .find(|s| s.name == finding.set)
        .unwrap_or(HeuristicSet::SET_I);
    let mut module = spec.lower(set);
    if spec.optimize {
        br_opt::optimize(&mut module);
    }
    let text = print_module(&module);
    // Expected behavior: the agreed-correct run. For cross-lowering
    // findings that is the Set I lowering's output; otherwise the
    // module's own (original, unreordered) reference run.
    let expect_module = if finding.kind == "lowering-divergence" {
        let mut m = spec.lower(HeuristicSet::SET_I);
        if spec.optimize {
            br_opt::optimize(&mut m);
        }
        m
    } else {
        module
    };
    let expect = run_reference(&expect_module, input, &fuzz_vm_options());
    let expect_line = match &expect {
        Ok(o) => format!("exit={} output={}", o.exit, hex(&o.output)),
        Err(t) => format!("trap={t}"),
    };
    let fault_line = match finding.fault_site {
        Some(FaultSite::Anchor(a)) => format!("# fault anchor={a}\n"),
        Some(FaultSite::LastBranch) => "# fault last\n".to_string(),
        None => String::new(),
    };
    // Set IV findings went through the dispatch emitter; record that so
    // replay re-runs the pipeline with the same structures enabled.
    let opttree_line = if set.opt_tree { "# opttree 1\n" } else { "" };
    let name = format!("{}-s{}.bir", slug(&finding.fingerprint), finding.seed);
    let path = dir.join(&name);
    let contents = format!(
        "# br-fuzz repro v1\n\
         # seed {}\n\
         # set {}\n\
         # kind {}\n\
         # fingerprint {}\n\
         # detail {}\n\
         # train {}\n\
         # input {}\n\
         {fault_line}\
         {opttree_line}\
         # expect {}\n\
         # replay brc fuzz --replay {}\n\
         {}",
        finding.seed,
        finding.set,
        finding.kind,
        finding.fingerprint,
        finding.detail.replace('\n', " "),
        hex(train),
        hex(input),
        expect_line,
        path.display(),
        text,
    );
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Result of replaying one repro file.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Whether any divergence reproduced.
    pub reproduced: bool,
    /// One line per check performed.
    pub checks: Vec<String>,
}

/// Re-run a corpus repro: parse the embedded module, re-run the
/// verifier, both engines, the expectation comparison, and (when a
/// training input is recorded) the reordering differential with the
/// recorded fault re-applied.
pub fn replay_file(path: &Path) -> io::Result<ReplayReport> {
    let contents = std::fs::read_to_string(path)?;
    let mut train = Vec::new();
    let mut input = Vec::new();
    let mut expect: Option<String> = None;
    let mut fault: Option<Option<i64>> = None; // Some(None) = last-branch
    let mut opt_tree = false;
    let mut module_text = String::new();
    for line in contents.lines() {
        if let Some(meta) = line.strip_prefix('#') {
            let meta = meta.trim();
            if let Some(v) = meta.strip_prefix("train ") {
                train = unhex(v).unwrap_or_default();
            } else if let Some(v) = meta.strip_prefix("input ") {
                input = unhex(v).unwrap_or_default();
            } else if let Some(v) = meta.strip_prefix("expect ") {
                expect = Some(v.to_string());
            } else if let Some(v) = meta.strip_prefix("fault ") {
                fault = Some(v.strip_prefix("anchor=").and_then(|a| a.parse().ok()));
            } else if let Some(v) = meta.strip_prefix("opttree ") {
                opt_tree = v.trim() == "1";
            }
        } else {
            module_text.push_str(line);
            module_text.push('\n');
        }
    }
    let module = parse_module(&module_text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("IR parse error: {e}")))?;
    Ok(replay_module(
        &module,
        &train,
        &input,
        expect.as_deref(),
        fault,
        opt_tree,
    ))
}

fn behavior_line(r: &Result<br_vm::RunOutcome, br_vm::Trap>) -> String {
    match r {
        Ok(o) => format!("exit={} output={}", o.exit, hex(&o.output)),
        Err(t) => format!("trap={t}"),
    }
}

fn replay_module(
    module: &Module,
    train: &[u8],
    input: &[u8],
    expect: Option<&str>,
    fault: Option<Option<i64>>,
    opt_tree: bool,
) -> ReplayReport {
    let vm = fuzz_vm_options();
    let mut checks = Vec::new();
    let mut reproduced = false;
    let mut check = |name: &str, bad: bool, detail: String| {
        checks.push(format!(
            "{name}: {}{}",
            if bad { "DIVERGED" } else { "ok" },
            if detail.is_empty() {
                String::new()
            } else {
                format!(" — {detail}")
            }
        ));
        reproduced |= bad;
    };

    let errs = verify_module_all(module);
    check(
        "verify",
        !errs.is_empty(),
        errs.first().map(|e| e.to_string()).unwrap_or_default(),
    );

    let r = run_reference(module, input, &vm);
    let f = run(module, input, &vm);
    check(
        "reference vs fast path",
        diff_full(&r, &f).is_some(),
        format!("{} vs {}", behavior_line(&r), behavior_line(&f)),
    );
    let (pr, ph) = paused_differential(module, input, &vm);
    check(
        "instrumented: reference vs paused fast path",
        diff_full(&pr, &ph).is_some(),
        format!("{} vs {}", behavior_line(&pr), behavior_line(&ph)),
    );

    if let Some(want) = expect {
        let got = behavior_line(&r);
        check("expected behavior", got != want, format!("{got} vs {want}"));
    }

    if !train.is_empty() || fault.is_some() {
        let ropts = ReorderOptions {
            vm: vm.clone(),
            validate: true,
            opt_tree,
            ..ReorderOptions::default()
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reorder_module(module, train, &ropts)
        })) {
            Err(_) => check("reorder pipeline", true, "panicked".to_string()),
            Ok(Err(t)) => check("reorder pipeline", true, format!("training trapped: {t}")),
            Ok(Ok(report)) => {
                let vclean = report
                    .validation
                    .as_ref()
                    .map(|s| s.is_clean())
                    .unwrap_or(true);
                // A rejection is a finding on its own (validator-reject
                // when behavior agrees below, miscompile when it moves).
                check(
                    "validator verdict",
                    !vclean,
                    report
                        .validation
                        .as_ref()
                        .map(|s| s.to_string())
                        .unwrap_or_default(),
                );
                let mut rm = report.module;
                if let Some(site) = fault {
                    let anchors: Vec<i64> = site.into_iter().collect();
                    inject_fault(&mut rm, &anchors, 0);
                }
                let rr = run_reference(&rm, input, &vm);
                let rf = run(&rm, input, &vm);
                let reord_engines = behavior_line(&rr) != behavior_line(&rf);
                check(
                    "reordered: reference vs fast path",
                    reord_engines,
                    format!("{} vs {}", behavior_line(&rr), behavior_line(&rf)),
                );
                let behavior_moved = behavior_line(&rr) != behavior_line(&r);
                check(
                    if vclean {
                        "reordered vs original (validator clean)"
                    } else {
                        "reordered vs original (validator flagged)"
                    },
                    behavior_moved,
                    format!("{} vs {}", behavior_line(&rr), behavior_line(&r)),
                );
            }
        }
    }
    ReplayReport { reproduced, checks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        for bytes in [vec![], vec![0u8], vec![255, 0, 17, 4]] {
            assert_eq!(unhex(&hex(&bytes)).unwrap(), bytes);
        }
        assert_eq!(unhex("zz"), None);
        assert_eq!(unhex("abc"), None);
    }

    #[test]
    fn clean_campaign_has_no_findings_and_is_deterministic() {
        let mut cfg = FuzzConfig::smoke();
        cfg.seeds = 8;
        cfg.jobs = 2;
        let a = run_fuzz(&cfg);
        assert_eq!(a.seeds_run, 8);
        assert_eq!(a.seeds_skipped, 0);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        cfg.jobs = 1;
        let b = run_fuzz(&cfg);
        assert!(b.findings.is_empty());
    }

    #[test]
    fn time_limit_skips_seeds() {
        let mut cfg = FuzzConfig::smoke();
        cfg.seeds = 64;
        cfg.jobs = 1;
        cfg.time_limit = Some(Duration::from_secs(0));
        let out = run_fuzz(&cfg);
        assert_eq!(out.seeds_run + out.seeds_skipped, 64);
        assert!(out.seeds_skipped > 0);
    }
}
