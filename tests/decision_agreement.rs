//! The offline pipeline and the adaptive runtime's first deployment run
//! one per-sequence decision path (`decide` then `commit`): trained on
//! the same input, they must reorder the same sequences for every
//! workload under every heuristic set, Set IV's trees and tables
//! included.

use branch_reorder::adaptive::{AdaptOptions, AdaptiveRuntime};
use branch_reorder::minic::{compile, HeuristicSet, Options};
use branch_reorder::reorder::{reorder_module, ReorderOptions};

#[test]
fn pipeline_and_adaptive_deploy_the_same_sequences() {
    for w in branch_reorder::workloads::all() {
        let train = w.training_input(4096);
        for set in HeuristicSet::ALL {
            let mut module = compile(w.source, &Options::with_heuristics(set)).expect("compiles");
            branch_reorder::opt::optimize(&mut module);
            let options = ReorderOptions {
                opt_tree: set.opt_tree,
                common_successor: false,
                ..ReorderOptions::default()
            };
            let report = reorder_module(&module, &train, &options).expect("training runs");
            let opts = AdaptOptions {
                opt_tree: set.opt_tree,
                ..AdaptOptions::default()
            };
            let rt = AdaptiveRuntime::new(&module, Some(&train), &opts).expect("training runs");
            let cell = format!("{} set {}", w.name, set.name);
            assert_eq!(rt.deployed_count(), report.reordered_count(), "{cell}");
            assert_eq!(rt.swaps(), report.reordered_count() as u64, "{cell}");
            assert_eq!(rt.aborted_swaps(), 0, "{cell}");
        }
    }
}
