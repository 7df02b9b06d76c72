//! Differential fuzzing over synthesized programs: for each random
//! program, observable behaviour must be identical across
//!
//! * unoptimized vs. conventionally optimized code,
//! * all three switch-translation heuristic sets,
//! * before vs. after branch reordering (with an arbitrary profile),
//! * plain vs. profiling-instrumented runs,
//!
//! and dynamic instruction counts must never increase when the training
//! distribution matches the test distribution.

use branch_reorder::minic::{compile, HeuristicSet, Options};
use branch_reorder::reorder::{reorder_module, ReorderOptions};
use branch_reorder::vm::{run, VmOptions};
use branch_reorder::workloads::synth::{generate_program, SynthConfig};

const SEEDS: u64 = 60;

fn inputs_for(seed: u64) -> (Vec<u8>, Vec<u8>) {
    // Byte soup with plenty of ASCII structure, plus some values the
    // generated switches look for.
    let mk = |s: u64| {
        let mut out = Vec::new();
        let mut x = s.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for _ in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.push((x % 128) as u8);
        }
        out
    };
    (mk(seed.wrapping_add(1)), mk(seed.wrapping_add(2)))
}

#[test]
fn optimizer_preserves_behaviour_on_random_programs() {
    let cfg = SynthConfig::default();
    for seed in 0..SEEDS {
        let src = generate_program(seed, &cfg);
        let (input, _) = inputs_for(seed);
        let raw = compile(&src, &Options::default()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let mut optimized = raw.clone();
        branch_reorder::opt::optimize(&mut optimized);
        branch_reorder::ir::verify_module(&optimized)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let a = run(&raw, &input, &VmOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed} raw trapped: {e}\n{src}"));
        let b = run(&optimized, &input, &VmOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed} optimized trapped: {e}\n{src}"));
        assert_eq!(a.exit, b.exit, "seed {seed}\n{src}");
        assert_eq!(a.output, b.output, "seed {seed}\n{src}");
        assert!(
            b.stats.insts <= a.stats.insts,
            "seed {seed}: optimizer pessimized {} -> {}",
            a.stats.insts,
            b.stats.insts
        );
    }
}

#[test]
fn heuristic_sets_agree_on_random_programs() {
    let cfg = SynthConfig::default();
    for seed in 0..SEEDS {
        let src = generate_program(seed, &cfg);
        let (input, _) = inputs_for(seed);
        let mut reference: Option<(i64, Vec<u8>)> = None;
        for h in HeuristicSet::ALL {
            let mut m = compile(&src, &Options::with_heuristics(h)).unwrap();
            branch_reorder::opt::optimize(&mut m);
            let out = run(&m, &input, &VmOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed} set {}: {e}\n{src}", h.name));
            match &reference {
                None => reference = Some((out.exit, out.output)),
                Some((exit, output)) => {
                    assert_eq!(out.exit, *exit, "seed {seed} set {}\n{src}", h.name);
                    assert_eq!(&out.output, output, "seed {seed} set {}\n{src}", h.name);
                }
            }
        }
    }
}

#[test]
fn reordering_preserves_behaviour_on_random_programs() {
    let cfg = SynthConfig::default();
    for seed in 0..SEEDS {
        let src = generate_program(seed, &cfg);
        let (train, test) = inputs_for(seed);
        for h in [HeuristicSet::SET_I, HeuristicSet::SET_III] {
            let mut m = compile(&src, &Options::with_heuristics(h)).unwrap();
            branch_reorder::opt::optimize(&mut m);
            let opts = ReorderOptions {
                validate: true,
                ..ReorderOptions::default()
            };
            let report = reorder_module(&m, &train, &opts)
                .unwrap_or_else(|e| panic!("seed {seed}: training trapped: {e}\n{src}"));
            // Behavioural agreement below is one input's worth of
            // evidence; the translation validator proves every applied
            // sequence equivalent for *all* values.
            let validation = report.validation.as_ref().expect("validation requested");
            assert!(
                validation.is_clean(),
                "seed {seed} set {}: {validation}\n{src}",
                h.name
            );
            branch_reorder::ir::verify_module(&report.module)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            let a = run(&m, &test, &VmOptions::default()).unwrap();
            let b = run(&report.module, &test, &VmOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed}: reordered trapped: {e}\n{src}"));
            assert_eq!(a.exit, b.exit, "seed {seed} set {}\n{src}", h.name);
            assert_eq!(a.output, b.output, "seed {seed} set {}\n{src}", h.name);
        }
    }
}

#[test]
fn perfect_profile_never_increases_branches_on_random_programs() {
    let cfg = SynthConfig::default();
    for seed in 0..SEEDS / 2 {
        let src = generate_program(seed, &cfg);
        let (_, test) = inputs_for(seed);
        let mut m = compile(&src, &Options::with_heuristics(HeuristicSet::SET_III)).unwrap();
        branch_reorder::opt::optimize(&mut m);
        // Train on exactly the measurement input.
        let report = reorder_module(&m, &test, &ReorderOptions::default()).unwrap();
        let a = run(&m, &test, &VmOptions::default()).unwrap();
        let b = run(&report.module, &test, &VmOptions::default()).unwrap();
        assert!(
            b.stats.cond_branches <= a.stats.cond_branches,
            "seed {seed}: branches grew {} -> {} with a perfect profile\n{src}",
            a.stats.cond_branches,
            b.stats.cond_branches,
        );
    }
}

#[test]
fn instrumentation_is_transparent_on_random_programs() {
    let cfg = SynthConfig::default();
    for seed in 0..SEEDS / 2 {
        let src = generate_program(seed, &cfg);
        let (input, _) = inputs_for(seed);
        let mut m = compile(&src, &Options::default()).unwrap();
        branch_reorder::opt::optimize(&mut m);
        let detections = branch_reorder::reorder::profile::detect_all(&m);
        let mut instrumented = m.clone();
        branch_reorder::reorder::profile::instrument_module(&mut instrumented, &detections);
        let a = run(&m, &input, &VmOptions::default()).unwrap();
        let b = run(&instrumented, &input, &VmOptions::default()).unwrap();
        assert_eq!(a.output, b.output, "seed {seed}\n{src}");
        assert_eq!(a.stats, b.stats, "seed {seed}: probes must be free\n{src}");
    }
}

#[test]
fn ir_text_round_trips_on_random_programs() {
    use branch_reorder::ir::{parse_module, print_module};
    let cfg = SynthConfig::default();
    for seed in 0..SEEDS / 2 {
        let src = generate_program(seed, &cfg);
        let (input, _) = inputs_for(seed);
        let mut m = compile(&src, &Options::default()).unwrap();
        branch_reorder::opt::optimize(&mut m);
        let text = print_module(&m);
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        assert_eq!(print_module(&parsed), text, "seed {seed}");
        assert_eq!(parsed, m, "seed {seed}: parse(print(m)) != m");
        // The parsed module must verify and behave identically.
        branch_reorder::ir::verify_module(&parsed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let a = run(&m, &input, &VmOptions::default()).unwrap();
        let b = run(&parsed, &input, &VmOptions::default()).unwrap();
        assert_eq!(a.exit, b.exit, "seed {seed}");
        assert_eq!(a.output, b.output, "seed {seed}");
        assert_eq!(a.stats, b.stats, "seed {seed}");
    }
}

#[test]
fn register_allocation_preserves_behaviour_on_random_programs() {
    use branch_reorder::opt::regalloc::{allocate_registers, RegAllocOptions};
    let cfg = SynthConfig::default();
    for seed in 0..SEEDS {
        let src = generate_program(seed, &cfg);
        let (train, test) = inputs_for(seed);
        let mut m = compile(&src, &Options::default()).unwrap();
        branch_reorder::opt::optimize(&mut m);
        // Allocate AFTER reordering, as a real backend would.
        let report = reorder_module(&m, &train, &ReorderOptions::default()).unwrap();
        for regs in [8u32, 12, 24] {
            let mut allocated = report.module.clone();
            for f in &mut allocated.functions {
                allocate_registers(f, &RegAllocOptions { num_regs: regs })
                    .unwrap_or_else(|| panic!("seed {seed}: params exceed {regs} regs"));
            }
            branch_reorder::ir::verify_module(&allocated)
                .unwrap_or_else(|e| panic!("seed {seed} regs {regs}: {e}\n{src}"));
            let a = run(&report.module, &test, &VmOptions::default()).unwrap();
            let b = run(&allocated, &test, &VmOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed} regs {regs}: {e}\n{src}"));
            assert_eq!(a.exit, b.exit, "seed {seed} regs {regs}\n{src}");
            assert_eq!(a.output, b.output, "seed {seed} regs {regs}\n{src}");
            assert!(
                b.stats.insts >= a.stats.insts,
                "seed {seed}: spill code cannot shrink counts"
            );
        }
    }
}

#[test]
fn each_optimization_pass_is_individually_sound() {
    use branch_reorder::opt as passes;
    type Pass = (&'static str, fn(&mut branch_reorder::ir::Function) -> bool);
    let list: [Pass; 8] = [
        ("fold", passes::fold::fold_constants),
        ("algebra", passes::algebra::simplify_algebra),
        ("copyprop", passes::copyprop::propagate_copies),
        ("cse", passes::cse::eliminate_common_subexpressions),
        ("dce", passes::dce::eliminate_dead_code),
        ("chain", passes::chain::chain_branches),
        ("merge", passes::merge::merge_blocks),
        ("licm", passes::licm::hoist_loop_invariants),
    ];
    let cfg = SynthConfig::default();
    for seed in 0..SEEDS / 3 {
        let src = generate_program(seed, &cfg);
        let (input, _) = inputs_for(seed);
        let base_module = compile(&src, &Options::default()).unwrap();
        let base = run(&base_module, &input, &VmOptions::default()).unwrap();
        for (name, pass) in list {
            let mut m = base_module.clone();
            for f in &mut m.functions {
                pass(f);
            }
            branch_reorder::ir::verify_module(&m)
                .unwrap_or_else(|e| panic!("seed {seed} pass {name}: {e}\n{src}"));
            let got = run(&m, &input, &VmOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed} pass {name} trapped: {e}\n{src}"));
            assert_eq!(got.exit, base.exit, "seed {seed} pass {name}\n{src}");
            assert_eq!(got.output, base.output, "seed {seed} pass {name}\n{src}");
        }
        // The layout pass mutates in place without a changed flag.
        let mut m = base_module.clone();
        for f in &mut m.functions {
            passes::layout::reposition(f);
        }
        branch_reorder::ir::verify_module(&m).unwrap();
        let got = run(&m, &input, &VmOptions::default()).unwrap();
        assert_eq!(got.exit, base.exit, "seed {seed} pass layout");
        assert_eq!(got.output, base.output, "seed {seed} pass layout");
    }
}
