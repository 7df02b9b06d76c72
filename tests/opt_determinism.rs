//! `br_opt::optimize` must be a function of its input module: the same
//! source, compiled and optimized repeatedly in one process, prints the
//! same module every time. Hash-ordered iteration reaching the output
//! shows up here as a difference between repetitions, because every
//! `HashMap`/`HashSet` in a process gets its own random hash keys.

use branch_reorder::ir::print_module;
use branch_reorder::minic::{compile, HeuristicSet, Options};

const REPEATS: usize = 8;

#[test]
fn optimize_prints_the_same_module_every_time() {
    for w in branch_reorder::workloads::all() {
        for h in HeuristicSet::ALL {
            let printed = || {
                let mut m = compile(w.source, &Options::with_heuristics(h)).expect("compiles");
                branch_reorder::opt::optimize(&mut m);
                print_module(&m)
            };
            let first = printed();
            for rep in 1..REPEATS {
                assert!(
                    printed() == first,
                    "{}/{}: repetition {rep} printed a different module",
                    w.name,
                    h.name
                );
            }
        }
    }
}
