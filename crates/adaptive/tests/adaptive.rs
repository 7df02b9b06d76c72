//! End-to-end tests of the adaptive runtime over phase-shifting input
//! streams, including the headline claims: adaptation strictly beats a
//! train-once deployment on shifting inputs, stays within 5% of a
//! per-phase offline oracle, and never ships an unvalidated replica.

use br_adaptive::{adapt_stream, AdaptOptions, AdaptiveRuntime};
use br_ir::Module;
use br_minic::{compile, Options};
use br_vm::VmOptions;
use br_workloads::phases::scenarios;

fn build(src: &str) -> Module {
    let mut m = compile(src, &Options::default()).expect("compiles");
    br_opt::optimize(&mut m);
    m
}

const PHASE_BYTES: usize = 24 * 1024;

#[test]
fn stationary_stream_converges_without_thrashing() {
    let s = &scenarios()[0];
    let m = build(s.source);
    let mut rt = AdaptiveRuntime::new(
        &m,
        Some(&s.training_input(PHASE_BYTES)),
        &AdaptOptions::default(),
    )
    .expect("training runs");
    let initial = rt.swaps();
    // Same distribution as training, fresh seeds: nothing should drift.
    for seed in [1001, 1002, 1003] {
        let input = br_workloads::InputSpec::new(s.training.kind, seed).generate(PHASE_BYTES);
        rt.run_segment(&input).expect("segment runs");
    }
    assert_eq!(
        rt.swaps(),
        initial,
        "stationary input must not trigger re-swaps"
    );
    assert_eq!(rt.aborted_swaps(), 0);
    assert!(rt.epochs() > 10, "epochs must actually fire");
}

#[test]
fn behaviour_is_preserved_across_shifts_and_swaps() {
    for s in scenarios() {
        let m = build(s.source);
        let mut rt = AdaptiveRuntime::new(
            &m,
            Some(&s.training_input(PHASE_BYTES)),
            &AdaptOptions::default(),
        )
        .expect("training runs");
        for (name, input) in s.phase_inputs(PHASE_BYTES) {
            let base = br_vm::run(&m, &input, &VmOptions::default()).expect("baseline runs");
            let got = rt.run_segment(&input).expect("segment runs");
            assert_eq!(got.output, base.output, "{}:{name} output changed", s.name);
            assert_eq!(got.exit, base.exit, "{}:{name} exit changed", s.name);
        }
        assert!(
            rt.swaps() > 1,
            "{}: phase shifts should cause hot swaps (got {})",
            s.name,
            rt.swaps()
        );
        assert!(rt.drift_epochs() > 0, "{}: drift never flagged", s.name);
        assert_eq!(
            rt.aborted_swaps(),
            0,
            "{}: a replica failed validation",
            s.name
        );
    }
}

#[test]
fn adaptation_beats_train_once_and_nears_the_oracle() {
    for s in scenarios() {
        let m = build(s.source);
        let phases = s.phase_inputs(PHASE_BYTES);
        let report = adapt_stream(
            &m,
            s.name,
            &s.training_input(PHASE_BYTES),
            &phases,
            &AdaptOptions::default(),
        )
        .expect("stream runs");
        assert!(
            report.total_adaptive() < report.total_static(),
            "{}: adaptive {} !< static {}\n{report}",
            s.name,
            report.total_adaptive(),
            report.total_static()
        );
        assert!(
            report.vs_oracle() <= 1.05,
            "{}: {:.4}x of the per-phase oracle\n{report}",
            s.name,
            report.vs_oracle()
        );
        assert_eq!(
            report.aborted_swaps, 0,
            "{}: every deployed replica must pass validation",
            s.name
        );
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), phases.len() + 2, "csv rows");
    }
}

#[test]
fn untrained_runtime_adopts_orderings_on_its_own() {
    let s = &scenarios()[0];
    let m = build(s.source);
    // No training at all: cold start. The first warm epoch adopts the
    // live distribution; later skew shifts still get caught.
    let mut rt = AdaptiveRuntime::new(&m, None, &AdaptOptions::default()).expect("builds");
    assert_eq!(rt.deployed_count(), 0);
    for (_, input) in s.phase_inputs(PHASE_BYTES) {
        rt.run_segment(&input).expect("segment runs");
    }
    assert!(
        rt.deployed_count() > 0,
        "cold start never deployed anything"
    );
    assert_eq!(rt.aborted_swaps(), 0);
}

/// The adaptation decisions themselves, pinned: per-phase instruction
/// counts and swaps (`to_csv`) plus the epoch, drift, swap and
/// certificate-admission totals of both scenarios at 16 KiB per phase,
/// with Set IV trees/tables off and on. These are counts of the
/// modelled machine, so any change to which engine executes a segment,
/// or to where it pauses, must leave them exactly as they are.
#[test]
fn adaptation_decisions_are_pinned() {
    let mut got = String::new();
    for opt_tree in [false, true] {
        let opts = AdaptOptions {
            opt_tree,
            ..AdaptOptions::default()
        };
        for s in scenarios() {
            let m = build(s.source);
            // Two cycles through the phases, so oscillating drift
            // re-deploys proven orderings (certificate admissions).
            let phases = s.phase_inputs(16 * 1024);
            let phases = [phases.clone(), phases].concat();
            let r = adapt_stream(&m, s.name, &s.training_input(16 * 1024), &phases, &opts)
                .expect("stream runs");
            got.push_str(&format!(
                "opt_tree={opt_tree}\n{}epochs={} drift_epochs={} swaps={} cert_admissions={} aborted={}\n",
                r.to_csv(),
                r.epochs,
                r.drift_epochs,
                r.swaps,
                r.cert_admissions,
                r.aborted_swaps
            ));
        }
    }
    assert_eq!(got, PINNED_DECISIONS);
}

const PINNED_DECISIONS: &str = "\
opt_tree=false
program,phase,input_bytes,adaptive_insts,static_insts,oracle_insts,swaps
charclass,prose,16387,142762,142762,142762,0
charclass,digits,16390,186604,386158,182160,2
charclass,spaces,16388,152866,169138,151830,2
charclass,prose,16387,143154,142762,142762,1
charclass,digits,16390,186598,386158,182160,2
charclass,spaces,16388,152866,169138,151830,2
charclass,total,98330,964850,1396116,953504,10
epochs=447 drift_epochs=10 swaps=10 cert_admissions=4 aborted=0
opt_tree=false
program,phase,input_bytes,adaptive_insts,static_insts,oracle_insts,swaps
dispatch,code,16405,209028,209028,209028,0
dispatch,prose,16387,186041,186041,185139,0
dispatch,punct,16391,230763,265676,228963,2
dispatch,code,16405,210140,209028,209028,2
dispatch,prose,16387,186041,186041,185139,0
dispatch,punct,16391,230763,265676,228963,2
dispatch,total,98366,1252776,1321490,1246260,7
epochs=595 drift_epochs=8 swaps=7 cert_admissions=3 aborted=0
opt_tree=true
program,phase,input_bytes,adaptive_insts,static_insts,oracle_insts,swaps
charclass,prose,16387,142762,142762,142762,0
charclass,digits,16390,202764,386158,201583,2
charclass,spaces,16388,155810,169138,151830,1
charclass,prose,16387,143844,142762,142762,1
charclass,digits,16390,202755,386158,201583,2
charclass,spaces,16388,155810,169138,151830,1
charclass,total,98330,1003745,1396116,992350,8
epochs=447 drift_epochs=10 swaps=8 cert_admissions=3 aborted=0
opt_tree=true
program,phase,input_bytes,adaptive_insts,static_insts,oracle_insts,swaps
dispatch,code,16405,221517,221517,221517,0
dispatch,prose,16387,201875,201875,201367,0
dispatch,punct,16391,226176,257273,225511,2
dispatch,code,16405,222021,221517,221517,1
dispatch,prose,16387,201875,201875,201367,0
dispatch,punct,16391,226932,257273,225511,1
dispatch,total,98366,1300396,1361330,1296790,5
epochs=553 drift_epochs=9 swaps=5 cert_admissions=0 aborted=0
";
