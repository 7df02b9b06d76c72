//! The offline pipeline and the adaptive runtime's first deployment run
//! one per-sequence decision path (`decide` then `commit`): trained on
//! the same input, they must reorder the same sequences for every
//! workload under every heuristic set, Set IV's trees and tables
//! included.
//!
//! Every committed reordering is certified: in `certify` mode the
//! pipeline's `Reordered` records and its proof certificates match one
//! to one by `(func, head)`, and the independent checker accepts each
//! certificate with the signature the prover reported.

use branch_reorder::adaptive::{AdaptOptions, AdaptiveRuntime};
use branch_reorder::analysis::cert;
use branch_reorder::minic::{compile, HeuristicSet, Options};
use branch_reorder::reorder::{reorder_module, ReorderOptions, SequenceOutcome};

#[test]
fn pipeline_and_adaptive_deploy_the_same_sequences() {
    for w in branch_reorder::workloads::all() {
        let train = w.training_input(4096);
        for set in HeuristicSet::ALL {
            let mut module = compile(w.source, &Options::with_heuristics(set)).expect("compiles");
            branch_reorder::opt::optimize(&mut module);
            let options = ReorderOptions {
                opt_tree: set.opt_tree,
                certify: true,
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

            let summary = report.validation.as_ref().expect("certify mode reports");
            assert!(summary.is_clean(), "{cell}: {summary}");
            let mut reordered: Vec<(u32, u32)> = report
                .sequences
                .iter()
                .filter(|s| matches!(s.outcome, SequenceOutcome::Reordered { .. }))
                .map(|s| (s.func.0, s.head.0))
                .collect();
            let mut certified: Vec<(u32, u32)> = summary
                .certificates
                .iter()
                .map(|c| {
                    let key = (c.func.0, c.head.0);
                    let checked = cert::check(&c.text)
                        .unwrap_or_else(|e| panic!("{cell}: certificate {key:?} rejected: {e}"));
                    assert_eq!(checked.sig, c.sig, "{cell}: certificate {key:?} sig");
                    key
                })
                .collect();
            reordered.sort_unstable();
            certified.sort_unstable();
            assert!(
                reordered.windows(2).all(|w| w[0] != w[1]),
                "{cell}: two records share a head: {reordered:?}"
            );
            assert_eq!(
                certified, reordered,
                "{cell}: certificates vs Reordered records"
            );
        }
    }
}
