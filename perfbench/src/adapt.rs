//! `adapt`: the adaptive runtime on phase-shifting streams.
//!
//! Both `br_workloads::scenarios()` streams are replayed as long runs of
//! phase segments through `AdaptiveRuntime::run_segment`. This is the
//! only traffic on `run_hooked`, drift detection, replanning and
//! certificate-admitted hot swaps. One operation is a round: it builds
//! a fresh runtime per scenario (untimed) and replays both streams side
//! by side, a step being the next segment of each stream. Every round
//! does identical work, so its counts repeat exactly. Per segment, or
//! per step, the times cluster by stream and phase, and their median
//! moved by 22% between two sets of ten runs of unchanged code as it
//! fell on one side of a gap between clusters or the other; a round's
//! time has no such gaps.

use std::time::{Duration, Instant};

use br_adaptive::{AdaptOptions, AdaptiveRuntime};
use br_ir::Module;
use br_minic::{compile, Options};
use br_vm::VmOptions;

use crate::stats::{median, normalised, reseed, timed_setup, Reference, SETUPS};
use crate::trace::Tracer;
use crate::{Args, Report};

const TRAIN_BYTES: usize = 4096;
const SEGMENT_BYTES: usize = 64 * 1024;
/// Consecutive segments drawn from one phase before the stream shifts.
const SEGMENTS_PER_PHASE: usize = 4;
/// Times each scenario cycles through all of its phases.
const CYCLES: usize = 2;

struct Stream {
    name: &'static str,
    optimized: Module,
    training: Vec<u8>,
    segments: Vec<Vec<u8>>,
    /// Exit and output of the optimized module per segment (`br_vm::run`).
    expected: Vec<(i64, Vec<u8>)>,
    /// Instructions of a frozen train-once runtime per segment.
    frozen_insts: u64,
}

/// What one round observed; identical rounds must agree exactly.
#[derive(Clone, Debug, Default, PartialEq)]
struct RoundCounts {
    insts: u64,
    epochs: u64,
    drift_epochs: u64,
    swaps: u64,
    aborted_swaps: u64,
    cert_admissions: u64,
}

fn setup(seed: u64) -> Result<Vec<Stream>, String> {
    let opts = AdaptOptions::default();
    let mut streams = Vec::new();
    for (si, s) in br_workloads::scenarios().into_iter().enumerate() {
        let mut optimized = compile(s.source, &Options::default()).map_err(|e| e.to_string())?;
        br_opt::optimize(&mut optimized);
        let training = reseed(s.training, seed, 3).generate(TRAIN_BYTES);
        let mut segments = Vec::new();
        for cycle in 0..CYCLES {
            for phase in &s.phases {
                for k in 0..SEGMENTS_PER_PHASE {
                    let salt = 4 + ((si * CYCLES + cycle) * SEGMENTS_PER_PHASE + k) as u64;
                    segments.push(reseed(phase.input, seed, salt).generate(SEGMENT_BYTES));
                }
            }
        }
        let mut expected = Vec::with_capacity(segments.len());
        for seg in &segments {
            let out = br_vm::run(&optimized, seg, &VmOptions::default())
                .map_err(|t| format!("{}: reference run trapped: {t}", s.name))?;
            expected.push((out.exit, out.output));
        }
        let frozen = AdaptiveRuntime::new(&optimized, Some(&training), &opts)
            .map_err(|t| format!("{}: training trapped: {t}", s.name))?;
        let mut frozen_insts = 0;
        for seg in &segments {
            let out = frozen
                .run_frozen(seg)
                .map_err(|t| format!("{}: frozen run trapped: {t}", s.name))?;
            frozen_insts += out.stats.insts;
        }
        streams.push(Stream {
            name: s.name,
            optimized,
            training,
            segments,
            expected,
            frozen_insts,
        });
    }
    Ok(streams)
}

/// One round over both streams on fresh runtimes, in steps: a step runs
/// the next segment of each stream, so one operation is one segment of
/// every scenario side by side. Reference kernel slices are spread among
/// the steps. Returns per-step wall seconds.
fn round(
    streams: &[Stream],
    report: &mut Report,
    counts: &mut RoundCounts,
    mut tr: Option<&mut Tracer>,
    reference: &mut Reference,
) -> Result<Vec<f64>, String> {
    let opts = AdaptOptions::default();
    let steps = steps(streams)?;
    let mut runtimes = Vec::with_capacity(streams.len());
    for s in streams {
        if let Some(tr) = tr.as_deref_mut() {
            tr.enter("adaptive.new");
        }
        let rt = AdaptiveRuntime::new(&s.optimized, Some(&s.training), &opts);
        if let Some(tr) = tr.as_deref_mut() {
            tr.exit();
        }
        runtimes.push(rt.map_err(|t| format!("{}: training trapped: {t}", s.name))?);
    }
    let mut secs = Vec::with_capacity(steps);
    for k in 0..steps {
        reference.before_op(k, steps);
        let mut step = 0.0;
        for (s, rt) in streams.iter().zip(&mut runtimes) {
            let (seg, expected) = (&s.segments[k], &s.expected[k]);
            if let Some(tr) = tr.as_deref_mut() {
                tr.enter("adaptive.segment");
            }
            let t = Instant::now();
            let out = rt.run_segment(seg);
            step += t.elapsed().as_secs_f64();
            if let Some(tr) = tr.as_deref_mut() {
                tr.exit();
                // The same segment on the deployed module with adaptation
                // off: the hook overhead's denominator.
                tr.span("vm.frozen", || rt.run_frozen(seg))
                    .map_err(|t| format!("{}: frozen run trapped: {t}", s.name))?;
            }
            let out = out.map_err(|t| format!("{}: segment trapped: {t}", s.name))?;
            counts.insts += out.stats.insts;
            let ok = (out.exit, &out.output) == (expected.0, &expected.1);
            report.op((!ok).then(|| format!("{}: segment output differs", s.name)));
        }
        secs.push(step);
    }
    for rt in &runtimes {
        counts.epochs += rt.epochs();
        counts.drift_epochs += rt.drift_epochs();
        counts.swaps += rt.swaps();
        counts.aborted_swaps += rt.aborted_swaps();
        counts.cert_admissions += rt.cert_admissions();
    }
    Ok(secs)
}

/// Steps of a round: every stream has one segment per step.
fn steps(streams: &[Stream]) -> Result<usize, String> {
    let n = streams[0].segments.len();
    if streams.iter().any(|s| s.segments.len() != n) {
        return Err("scenario streams differ in length".to_string());
    }
    Ok(n)
}

/// Whole rounds until `window` has elapsed; every round's counts must
/// equal the first's. Returns per-step wall seconds, the median
/// reference slice of each round in ms, and the first round's counts.
fn measure(
    streams: &[Stream],
    window: Duration,
    report: &mut Report,
    mut tr: Option<&mut Tracer>,
) -> Result<(Vec<f64>, Vec<f64>, RoundCounts), String> {
    let mut secs = Vec::new();
    let mut reference = Reference::new();
    let mut first: Option<RoundCounts> = None;
    let start = Instant::now();
    while first.is_none() || start.elapsed() < window {
        let mut counts = RoundCounts::default();
        let tr = tr.as_deref_mut();
        secs.extend(round(streams, report, &mut counts, tr, &mut reference)?);
        reference.end_pass();
        match &first {
            None => first = Some(counts),
            Some(f) if *f != counts => {
                report.problems.push(format!(
                    "adaptive rounds diverged: first {f:?}, later {counts:?}"
                ));
            }
            Some(_) => {}
        }
    }
    Ok((secs, reference.per_pass, first.expect("at least one round")))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, streams) = timed_setup(SETUPS, || {
        let streams = setup(args.seed)?;
        // Warm-up round, untimed.
        let mut warm = Report::default();
        let mut reference = Reference::new();
        round(
            &streams,
            &mut warm,
            &mut RoundCounts::default(),
            None,
            &mut reference,
        )?;
        Ok(streams)
    })?;
    if args.trace {
        return traced(args, &streams, report);
    }
    let (secs, refs, counts) = measure(&streams, args.window, &mut report, None)?;
    // One operation is a whole round: its step times summed, so the
    // reference slices among the steps stay out of it.
    let rounds: Vec<f64> = secs
        .chunks_exact(steps(&streams)?)
        .map(|round| round.iter().sum::<f64>() * 1e3)
        .collect();
    let op_norm = [
        normalised(&rounds, 1, &refs, 0.5),
        normalised(&rounds, 1, &refs, 0.9),
    ];
    // Adaptive instructions over a frozen train-once runtime's.
    let frozen: u64 = streams.iter().map(|s| s.frozen_insts).sum();
    let ratio = counts.insts as f64 / frozen as f64;
    report.end_to_end(op_norm, ratio, setup_s)?;
    Ok(report)
}

fn traced(args: &Args, streams: &[Stream], mut report: Report) -> Result<Report, String> {
    let half = args.window / 2;
    let (untraced, _, _) = measure(streams, half, &mut report, None)?;
    let mut tr = Tracer::new(Instant::now());
    let (traced, _, c) = measure(streams, half, &mut report, Some(&mut tr))?;
    let totals = tr.totals();
    let per_span = |name: &str| {
        let (n, _, self_ns) = totals[name];
        self_ns as f64 / 1e6 / n as f64
    };
    let segment_ms = per_span("adaptive.segment");
    let frozen_ms = per_span("vm.frozen");
    report.metric("adaptive.new_ms", per_span("adaptive.new"), "ms");
    report.metric("adaptive.segment_ms", segment_ms, "ms");
    report.metric("vm.frozen_ms", frozen_ms, "ms");
    report.metric("adaptive.hook_overhead", segment_ms / frozen_ms, "ratio");
    report.metric("adaptive.epochs", c.epochs as f64, "count");
    report.metric("adaptive.drift_epochs", c.drift_epochs as f64, "count");
    report.metric("adaptive.swaps", c.swaps as f64, "count");
    report.metric("adaptive.aborted_swaps", c.aborted_swaps as f64, "count");
    report.metric(
        "adaptive.cert_admissions",
        c.cert_admissions as f64,
        "count",
    );
    report.metric(
        "adaptive.swap_yield",
        c.swaps as f64 / (c.swaps + c.aborted_swaps).max(1) as f64,
        "ratio",
    );
    report.metric("vm.run_setup_us", crate::execute::run_setup_us()?, "us");
    report.metric(
        "trace.overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
        "%",
    );
    tr.write_tsv(&crate::trace::spans_path("adapt", args.seed))?;
    Ok(report)
}
