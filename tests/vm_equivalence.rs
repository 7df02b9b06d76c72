//! The pre-decoded VM fast path is *provably boring*: on every workload,
//! under every switch-translation heuristic set, before and after
//! reordering, it must produce the same [`br_vm::RunOutcome`] as the
//! classic tree-walking interpreter — exit value, output bytes, every
//! architectural counter, every profile counter, every predictor result,
//! and the block trace. This is the guard that lets `br_vm::run` (and
//! therefore the whole sweep engine) dispatch through `br_vm::Image`.
//!
//! The memory model is pinned the same way: memory grows on demand up to
//! `globals_end + stack_words` words, and every engine must read zeros,
//! trap, and overflow at exactly the same points.

use branch_reorder::ir::Module;
use branch_reorder::minic::{compile, HeuristicSet, Options};
use branch_reorder::reorder::{reorder_module, ReorderOptions};
use branch_reorder::vm::{
    run, run_hooked, run_image, run_reference, EpochHook, Image, PredictorConfig, RunOutcome,
    Scheme, Trap, VmOptions,
};

/// Assert complete outcome equality, field by field, so a mismatch names
/// the drifting field instead of dumping two full outcomes.
fn assert_same(fast: &RunOutcome, slow: &RunOutcome, what: &str) {
    assert_eq!(fast.exit, slow.exit, "{what}: exit");
    assert_eq!(fast.output, slow.output, "{what}: output");
    assert_eq!(fast.stats, slow.stats, "{what}: stats");
    assert_eq!(fast.profiles, slow.profiles, "{what}: profiles");
    assert_eq!(
        fast.predictor_results, slow.predictor_results,
        "{what}: predictor results"
    );
    assert_eq!(fast.trace, slow.trace, "{what}: trace");
    assert_eq!(fast.block_counts, slow.block_counts, "{what}: block counts");
}

/// An epoch hook that never mutates the module.
struct Idle;

impl EpochHook for Idle {
    fn on_epoch(&mut self, _: &mut Module, _: &mut [Vec<u64>]) -> bool {
        false
    }
}

/// Run `m` through every engine — the fast path, a reused image, the
/// reference interpreter, and the hookable interpreter — assert that all
/// four agree on the outcome or on the trap, and return the result.
fn engines_agree(m: &Module, input: &[u8], vm: &VmOptions, what: &str) -> Result<RunOutcome, Trap> {
    let slow = run_reference(m, input, vm);
    let fast = run(m, input, vm);
    let image = run_image(&Image::decode(m), input, vm);
    let hooked = run_hooked(&mut m.clone(), input, vm, &mut Idle);
    for (other, engine) in [(&fast, "fast"), (&image, "image"), (&hooked, "hooked")] {
        let what = format!("{what}/{engine}");
        match (other, &slow) {
            (Ok(o), Ok(s)) => assert_same(o, s, &what),
            (Err(o), Err(s)) => assert_eq!(o, s, "{what}: trap"),
            (o, s) => panic!(
                "{what}: {} but the reference {}",
                o.as_ref()
                    .map_or_else(|t| format!("trapped ({t})"), |_| "ran".into()),
                s.as_ref()
                    .map_or_else(|t| format!("trapped ({t})"), |_| "ran".into()),
            ),
        }
    }
    slow
}

#[test]
fn fast_path_matches_reference_on_all_workloads_and_sets() {
    workload_matrix(VmOptions::default().stack_words);
}

/// The matrix again with a stack no larger than the memory allocated up
/// front, so no run ever grows its memory.
#[test]
fn engines_agree_on_all_workloads_with_a_small_stack() {
    workload_matrix(1 << 12);
}

fn workload_matrix(stack_words: usize) {
    let mut predictors = vec![PredictorConfig::ultra_sparc()];
    predictors.extend([
        PredictorConfig {
            scheme: Scheme::OneBit,
            entries: 32,
        },
        PredictorConfig {
            scheme: Scheme::Gshare(6),
            entries: 256,
        },
    ]);
    let vm = VmOptions {
        predictors,
        trace_blocks: 64,
        stack_words,
        ..VmOptions::default()
    };
    for w in branch_reorder::workloads::all() {
        let train = w.training_input(2048);
        let test = w.test_input(2048);
        for h in HeuristicSet::ALL {
            let what = format!("{}/{}", w.name, h.name);
            let mut module =
                compile(w.source, &Options::with_heuristics(h)).expect("workload compiles");
            branch_reorder::opt::optimize(&mut module);
            let opts = ReorderOptions {
                // Set IV modules carry DP trees and jump tables; the
                // fast path must agree on those shapes too.
                opt_tree: h.opt_tree,
                ..ReorderOptions::default()
            };
            let report = reorder_module(&module, &train, &opts)
                .unwrap_or_else(|e| panic!("{what}: training trapped: {e}"));
            for (m, stage) in [(&module, "original"), (&report.module, "reordered")] {
                let what = format!("{what}/{stage}");
                let out = engines_agree(m, &test, &vm, &what)
                    .unwrap_or_else(|e| panic!("{what}: trapped: {e}"));
                // The derived per-function layout counters must sum back
                // to the module-wide stats on every workload and set.
                let rows = branch_reorder::vm::function_counters(m, &out);
                assert!(
                    branch_reorder::vm::counters_match_stats(&rows, &out.stats),
                    "{what}: function counters disagree with stats"
                );
            }
        }
    }
}

/// Traps must agree too: the fast path reports the same trap as the
/// reference interpreter, not just the same successes.
#[test]
fn fast_path_matches_reference_on_traps() {
    let src = "int main() { int x; x = getchar(); return 10 / x; }";
    let module = compile(src, &Options::with_heuristics(HeuristicSet::SET_I)).expect("compiles");
    let vm = VmOptions::default();
    // A NUL input byte makes getchar() return 0, so `10 / x` traps.
    let zero = [0u8];
    let slow = run_reference(&module, &zero, &vm).expect_err("10 / 0 must trap");
    let fast = run(&module, &zero, &vm).expect_err("10 / 0 must trap");
    assert_eq!(fast, slow);
}

/// `depth(n)` recurses `n` deep with a 600-word local array per frame;
/// every frame writes its array and reads it back. `main` calls it
/// twice, so the second descent reuses the first one's frames, whose
/// `pad[300]` must read 0 again: every activation starts zeroed.
const RECURSE: &str = "
int depth(int n) {
    int pad[600];
    int stale;
    stale = pad[300];
    pad[300] = n;
    pad[0] = n;
    pad[599] = n + 1;
    if (n == 0) return stale;
    return depth(n - 1) + pad[599] - pad[0] + stale;
}
int main() {
    int n;
    n = getchar();
    putint(depth(n));
    putint(depth(n));
    return n;
}";

fn compile_set_i(src: &str) -> Module {
    compile(src, &Options::with_heuristics(HeuristicSet::SET_I)).expect("compiles")
}

#[test]
fn engines_agree_when_frames_grow_memory_mid_run() {
    let m = compile_set_i(RECURSE);
    // 101 frames of 600 words run far past the memory allocated up front.
    let out = engines_agree(&m, b"d", &VmOptions::default(), "recurse").expect("runs");
    assert_eq!((out.exit, out.output), (100, b"100\n100\n".to_vec()));
}

#[test]
fn engines_overflow_a_small_stack_at_the_same_depth() {
    let m = compile_set_i(RECURSE);
    let vm = VmOptions {
        stack_words: 30 * 600 + 599,
        ..VmOptions::default()
    };
    // Thirty 600-word frames fit; the thirty-first, at call depth 32
    // under `main`, does not.
    let trap = engines_agree(&m, b"d", &vm, "overflow").expect_err("must overflow");
    assert_eq!(trap, Trap::StackOverflow { depth: 32 });
    // One word more and 31 frames (`depth(30)` down to `depth(0)`) fit.
    let vm = VmOptions {
        stack_words: 31 * 600,
        ..VmOptions::default()
    };
    assert!(engines_agree(&m, b"\x1e", &vm, "fits").is_ok());
}

#[test]
fn engines_agree_on_the_last_word_and_the_first_word_past_it() {
    let stack_words = 1 << 16;
    // `g` is the only global, at address 0, so `g[i]` is address `i`
    // and the last valid address is `1 + stack_words - 1`.
    let last = stack_words as i64;
    let vm = VmOptions {
        stack_words,
        ..VmOptions::default()
    };
    let program = |body: &str| compile_set_i(&format!("int g[1];\nint main() {{ {body} }}"));
    let m = program(&format!(
        "int x; x = g[{last}]; g[{last}] = 7; return x + g[{last}];"
    ));
    let out = engines_agree(&m, b"", &vm, "last word").expect("the last word is valid");
    assert_eq!(out.exit, 7, "the last word reads 0 until written");
    let past = last + 1;
    for body in [
        format!("return g[{past}];"),
        format!("g[{past}] = 1; return 0;"),
    ] {
        let trap = engines_agree(&program(&body), b"", &vm, &body).expect_err("must trap");
        assert_eq!(trap, Trap::MemoryOutOfBounds { addr: past }, "{body}");
    }
}
