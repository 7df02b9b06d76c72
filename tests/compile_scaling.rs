//! The compile path must cost close to linear in function size.
//!
//! One generated `minic` program — a `getchar` loop around a k-arm
//! else-if chain, each arm holding a small inner loop — is optimized and
//! reordered with ext-TSP layout at k and at 4k arms. A linear pass
//! takes about 4x as long on the larger program; a pass that rescans the
//! whole function per block, per merge or per placement takes about 16x
//! or more. The bound of 10 sits between the two, with room for timer
//! noise (each time is the best of three runs).

use std::time::{Duration, Instant};

use branch_reorder::ir::Module;
use branch_reorder::layout::LayoutMode;
use branch_reorder::minic::{compile, Options};
use branch_reorder::reorder::{reorder_module, ReorderOptions};

const K: usize = 50;
const MAX_RATIO: f64 = 10.0;
const RUNS: usize = 3;
/// The `minic` front end recurses once per `else if` arm, which takes
/// more than a test thread's default stack for 4K arms in a debug build.
const STACK_BYTES: usize = 64 << 20;

/// A read loop dispatching on `c` through `arms` equality tests; arm `i`
/// runs an inner loop `i % 4 + 2` times with a loop-invariant product in
/// its body.
fn program(arms: usize) -> String {
    let mut s = String::from(
        "int main() {\n    int c; int s; int i; int t;\n    s = 0;\n    c = getchar();\n    while (c != -1) {\n",
    );
    for a in 0..arms {
        let kw = if a == 0 { "if" } else { "else if" };
        s.push_str(&format!(
            "        {kw} (c == {a}) {{ i = 0; while (i < {n}) {{ t = c * {m}; s = s + t; i = i + 1; }} }}\n",
            n = a % 4 + 2,
            m = a + 3,
        ));
    }
    s.push_str("        else s = s + 1;\n        c = getchar();\n    }\n    putint(s);\n    return 0;\n}\n");
    s
}

/// Training input that reaches every arm, the low arms most often.
fn training(arms: usize) -> Vec<u8> {
    (0..4 * arms).map(|i| ((i * i) % arms) as u8).collect()
}

fn best_of<T>(mut run: impl FnMut() -> T) -> Duration {
    (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(run());
            t.elapsed()
        })
        .min()
        .expect("RUNS > 0")
}

/// Best-of-three times of `br_opt::optimize` and of `reorder_module`
/// (ext-TSP) on the `arms`-arm program.
fn times(arms: usize) -> (Duration, Duration) {
    let module: Module = compile(&program(arms), &Options::default()).expect("compiles");
    let optimize = best_of(|| {
        let mut m = module.clone();
        branch_reorder::opt::optimize(&mut m);
        m
    });
    let mut optimized = module;
    branch_reorder::opt::optimize(&mut optimized);
    let options = ReorderOptions {
        layout: LayoutMode::ExtTsp,
        ..ReorderOptions::default()
    };
    let input = training(arms);
    let report = reorder_module(&optimized, &input, &options).expect("training runs");
    assert!(
        report.reordered_count() >= 1,
        "{arms} arms: the dispatch chain must be reordered"
    );
    let reorder = best_of(|| reorder_module(&optimized, &input, &options).expect("training runs"));
    (optimize, reorder)
}

#[test]
fn optimize_and_exttsp_reorder_scale_linearly() {
    let worker = std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(check_scaling)
        .expect("spawns the timing thread");
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

fn check_scaling() {
    // Warm caches and the allocator before timing anything.
    times(K);
    let (opt_small, reorder_small) = times(K);
    let (opt_large, reorder_large) = times(4 * K);
    let ratio =
        |large: Duration, small: Duration| large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    let opt_ratio = ratio(opt_large, opt_small);
    let reorder_ratio = ratio(reorder_large, reorder_small);
    eprintln!(
        "k = {K} -> {}: optimize {opt_small:?} -> {opt_large:?} (x{opt_ratio:.1}), \
         reorder_module {reorder_small:?} -> {reorder_large:?} (x{reorder_ratio:.1})",
        4 * K
    );
    assert!(
        opt_ratio <= MAX_RATIO,
        "br_opt::optimize grew x{opt_ratio:.1} for 4x the arms (bound {MAX_RATIO})"
    );
    assert!(
        reorder_ratio <= MAX_RATIO,
        "reorder_module grew x{reorder_ratio:.1} for 4x the arms (bound {MAX_RATIO})"
    );
}
