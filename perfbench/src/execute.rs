//! `execute`: run time of the generated code.
//!
//! Set-up builds the 68 (program, Set I-IV) pairs of original and
//! reordered ext-TSP modules and decodes each once. Each operation runs
//! one module on its program's 128 KiB test input with no predictors
//! attached, so the VM's dispatch loop carries the time and every
//! compile pass is idle.

use std::hint::black_box;
use std::time::{Duration, Instant};

use br_minic::{compile, HeuristicSet, Options};
use br_reorder::{reorder_module_with_inputs, LayoutMode, ReorderOptions};
use br_vm::{run_image, ExecStats, Image, VmOptions};

use crate::compile::front_end;
use crate::stats::{geomean, mean, median, ms, normalised, reseed, timed_setup, Reference, SETUPS};
use crate::trace::Tracer;
use crate::{Args, Report};

const TRAIN_BYTES: usize = 1024;
const TEST_BYTES: usize = 128 * 1024;

struct Program {
    name: &'static str,
    set: &'static str,
    input: Vec<u8>,
    original: Image,
    reordered: Image,
    /// Exit and output of the original module, from the warm-up pass.
    expected: (i64, Vec<u8>),
    original_stats: ExecStats,
    reordered_stats: ExecStats,
}

fn setup(seed: u64, decode_ms: &mut Vec<f64>) -> Result<Vec<Program>, String> {
    let vm = VmOptions::default();
    let mut programs = Vec::new();
    for w in br_workloads::all() {
        let train = reseed(w.training, seed, 2).generate(TRAIN_BYTES);
        let input = reseed(w.test, seed, 2).generate(TEST_BYTES);
        for set in [
            HeuristicSet::SET_I,
            HeuristicSet::SET_II,
            HeuristicSet::SET_III,
            HeuristicSet::SET_IV,
        ] {
            let original = front_end(w.source, set)?;
            let opts = ReorderOptions {
                certify: true,
                opt_tree: set.opt_tree,
                layout: LayoutMode::ExtTsp,
                ..ReorderOptions::default()
            };
            let report = reorder_module_with_inputs(&original, &[&train], &opts)
                .map_err(|t| format!("{}: training run trapped: {t}", w.name))?;
            let mut decode = |m| {
                let t = Instant::now();
                let image = Image::decode(m);
                decode_ms.push(ms(t.elapsed()));
                image
            };
            let original = decode(&original);
            let reordered = decode(&report.module);
            // Warm-up pass: both modules once; the original's behaviour
            // is the oracle for every later run of either.
            let a = run_image(&original, &input, &vm)
                .map_err(|t| format!("{}: original trapped: {t}", w.name))?;
            let b = run_image(&reordered, &input, &vm)
                .map_err(|t| format!("{}: reordered trapped: {t}", w.name))?;
            if (a.exit, &a.output) != (b.exit, &b.output) {
                return Err(format!(
                    "{} set {}: reordered output differs",
                    w.name, set.name
                ));
            }
            programs.push(Program {
                name: w.name,
                set: set.name,
                input: input.clone(),
                original,
                reordered,
                expected: (a.exit, a.output),
                original_stats: a.stats,
                reordered_stats: b.stats,
            });
        }
    }
    Ok(programs)
}

/// One pass: every original and reordered module once, in a fixed
/// order. Returns (instructions, seconds) per run; `tr` wraps each run
/// in a span when tracing.
fn pass(
    programs: &[Program],
    report: &mut Report,
    mut tr: Option<&mut Tracer>,
    runs: &mut Vec<(u64, f64)>,
    reference: &mut Reference,
) -> Result<(), String> {
    let vm = VmOptions::default();
    for (i, p) in programs.iter().enumerate() {
        reference.before_op(i, programs.len());
        for image in [&p.original, &p.reordered] {
            if let Some(tr) = tr.as_deref_mut() {
                tr.enter("vm.exec");
            }
            let t = Instant::now();
            let out = run_image(image, &p.input, &vm);
            let secs = t.elapsed().as_secs_f64();
            if let Some(tr) = tr.as_deref_mut() {
                tr.exit();
            }
            let out = out.map_err(|t| format!("{} set {}: trapped: {t}", p.name, p.set))?;
            runs.push((out.stats.insts, secs));
            let ok = (out.exit, &out.output) == (p.expected.0, &p.expected.1);
            report.op((!ok).then(|| format!("{} set {}: output differs", p.name, p.set)));
            black_box(out);
        }
    }
    Ok(())
}

/// (instructions, seconds) of each run of a pass.
type Runs = Vec<(u64, f64)>;

/// Whole passes until `window` has elapsed. Returns (instructions,
/// seconds) per run and the median reference slice of each pass, in ms.
fn measure(
    programs: &[Program],
    window: Duration,
    report: &mut Report,
    mut tr: Option<&mut Tracer>,
) -> Result<(Runs, Vec<f64>), String> {
    let mut runs = Vec::new();
    let mut reference = Reference::new();
    let start = Instant::now();
    while runs.is_empty() || start.elapsed() < window {
        pass(
            programs,
            report,
            tr.as_deref_mut(),
            &mut runs,
            &mut reference,
        )?;
        reference.end_pass();
    }
    Ok((runs, reference.per_pass))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut decode_ms = Vec::new();
    let (setup_s, programs) = timed_setup(SETUPS, || {
        decode_ms.clear();
        setup(args.seed, &mut decode_ms)
    })?;
    if args.trace {
        return traced(args, &programs, &decode_ms, report);
    }
    let (runs, refs) = measure(&programs, args.window, &mut report, None)?;
    let ms: Vec<f64> = runs.iter().map(|r| r.1 * 1e3).collect();
    let pass = 2 * programs.len();
    let op_norm = [
        normalised(&ms, pass, &refs, 0.5),
        normalised(&ms, pass, &refs, 0.9),
    ];
    // The paper's Table 4: reordered / original dynamic instructions.
    report.end_to_end(op_norm, ratio(&programs, |s| s.insts), setup_s)?;
    Ok(report)
}

/// Geomean over the (program, set) pairs of a reordered / original count.
fn ratio(programs: &[Program], f: fn(&ExecStats) -> u64) -> f64 {
    let r: Vec<f64> = programs
        .iter()
        .map(|p| f(&p.reordered_stats) as f64 / f(&p.original_stats) as f64)
        .collect();
    geomean(&r)
}

fn traced(
    args: &Args,
    programs: &[Program],
    decode_ms: &[f64],
    mut report: Report,
) -> Result<Report, String> {
    let half = args.window / 2;
    let (untraced, _) = measure(programs, half, &mut report, None)?;
    let mut tr = Tracer::new(Instant::now());
    let (traced, _) = measure(programs, half, &mut report, Some(&mut tr))?;
    let totals = tr.totals();
    let (n, _, self_ns) = totals["vm.exec"];
    let insts: u64 = traced.iter().map(|r| r.0).sum();
    report.metric("vm.decode_ms", mean(decode_ms), "ms");
    report.metric("vm.exec_ms", self_ns as f64 / 1e6 / n as f64, "ms");
    report.metric("vm.ns_per_inst", self_ns as f64 / insts as f64, "ns");
    let sum = |f: fn(&ExecStats) -> u64| -> f64 {
        programs
            .iter()
            .map(|p| f(&p.original_stats) + f(&p.reordered_stats))
            .sum::<u64>() as f64
    };
    report.metric("vm.insts", sum(|s| s.insts), "count");
    report.metric("vm.cond_branches", sum(|s| s.cond_branches), "count");
    report.metric("vm.taken_branches", sum(|s| s.taken_branches), "count");
    report.metric("vm.delay_stalls", sum(|s| s.delay_stalls), "count");
    report.metric(
        "vm.branches_ratio",
        ratio(programs, |s| s.cond_branches),
        "ratio",
    );
    report.metric("vm.run_setup_us", run_setup_us()?, "us");
    let per_run = |runs: &[(u64, f64)]| median(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
    report.metric(
        "trace.overhead_pct",
        (per_run(&traced) / per_run(&untraced) - 1.0) * 100.0,
        "%",
    );
    tr.write_tsv(&crate::trace::spans_path("execute", args.seed))?;
    Ok(report)
}

/// The VM's fixed cost per run: the median of 200 `run_image` calls of
/// an empty program on empty input (stack and state set-up, no
/// dispatch work).
pub fn run_setup_us() -> Result<f64, String> {
    let module =
        compile("int main() { return 0; }", &Options::default()).map_err(|e| e.to_string())?;
    let image = Image::decode(&module);
    let vm = VmOptions::default();
    let mut us = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        let out = run_image(&image, b"", &vm).map_err(|t| t.to_string())?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(out);
    }
    Ok(median(&us))
}
