//! Proof-carrying reordering properties:
//!
//! * every certificate the certifying pipeline emits is independently
//!   accepted by the tiny checker (`analysis::cert::check`), and every
//!   single-line tampering of it is rejected — unsigned edits (caught
//!   by the signature), re-signed semantic edits (range-bound shifts
//!   and class-target swaps, caught by the tiling and walk checks),
//!   and single-line deletions (caught by the fixed-order parse);
//! * every prover refutation of a seeded illegal reordering — a
//!   target swap and a range-bound shift — comes with a concrete
//!   witness input on which the original and corrupted modules
//!   demonstrably diverge under the reference interpreter.

use branch_reorder::analysis::cert::{check, fingerprint};
use branch_reorder::ir::{BlockId, FuncId, Function, Inst, Module, Operand, Terminator};
use branch_reorder::minic::{compile, HeuristicSet, Options};
use branch_reorder::reorder::apply::apply_reordering;
use branch_reorder::reorder::pipeline::eliminable_items;
use branch_reorder::reorder::profile::{order_items, plan_ranges, SequenceProfile};
use branch_reorder::reorder::validate::sequence_exits;
use branch_reorder::reorder::{
    certify_sequence, reorder_module, select_ordering, DetectedSequence, ReorderOptions,
};
use branch_reorder::vm::{run_reference, VmOptions};

/// One real certificate: certify `wc`'s committed reordering.
fn wc_certificate() -> String {
    let w = branch_reorder::workloads::by_name("wc").expect("wc exists");
    let mut m =
        compile(w.source, &Options::with_heuristics(HeuristicSet::SET_I)).expect("wc compiles");
    branch_reorder::opt::optimize(&mut m);
    let opts = ReorderOptions {
        certify: true,
        ..ReorderOptions::default()
    };
    let report = reorder_module(&m, &w.training_input(1024), &opts).expect("pipeline runs");
    let summary = report.validation.expect("certify mode validates");
    assert!(summary.is_clean(), "{summary}");
    summary
        .certificates
        .into_iter()
        .next()
        .expect("wc commits at least one certified reordering")
        .text
}

/// Deterministic single-line mutation: bump the first ASCII digit,
/// else flip the case of the first letter, else append a byte.
fn mutate_line(line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    if let Some(c) = chars.iter_mut().find(|c| c.is_ascii_digit()) {
        *c = char::from_digit((c.to_digit(10).unwrap() + 1) % 10, 10).unwrap();
        return chars.into_iter().collect();
    }
    if let Some(c) = chars.iter_mut().find(|c| c.is_ascii_alphabetic()) {
        *c = if c.is_ascii_lowercase() {
            c.to_ascii_uppercase()
        } else {
            c.to_ascii_lowercase()
        };
        return chars.into_iter().collect();
    }
    format!("{line}x")
}

/// Reassemble a certificate from body lines with a *freshly computed*
/// signature — the attack model where the tamperer controls the whole
/// file and can re-sign.
fn resign(body_lines: &[String]) -> String {
    let mut body = body_lines.join("\n");
    body.push('\n');
    format!("{body}sig {:016x}\n", fingerprint(&body))
}

fn body_lines(cert: &str) -> Vec<String> {
    let lines: Vec<&str> = cert.lines().collect();
    assert!(lines.last().unwrap().starts_with("sig "));
    lines[..lines.len() - 1]
        .iter()
        .map(|l| l.to_string())
        .collect()
}

#[test]
fn checker_rejects_every_unsigned_line_tampering() {
    let cert = wc_certificate();
    check(&cert).expect("pristine certificate is accepted");
    let lines: Vec<&str> = cert.lines().collect();
    for i in 0..lines.len() {
        let mutated = lines
            .iter()
            .enumerate()
            .map(|(j, l)| {
                if j == i {
                    mutate_line(l)
                } else {
                    (*l).to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        assert!(
            check(&mutated).is_err(),
            "unsigned tampering of line {i} ({:?}) was accepted",
            lines[i]
        );
    }
}

#[test]
fn checker_rejects_every_resigned_line_deletion() {
    let cert = wc_certificate();
    let body = body_lines(&cert);
    for i in 0..body.len() {
        let mut truncated = body.clone();
        truncated.remove(i);
        let forged = resign(&truncated);
        assert!(
            check(&forged).is_err(),
            "re-signed deletion of line {i} ({:?}) was accepted",
            body[i]
        );
    }
}

#[test]
fn checker_rejects_every_resigned_bound_shift() {
    let cert = wc_certificate();
    let body = body_lines(&cert);
    let mut tried = 0usize;
    for (i, line) in body.iter().enumerate() {
        let Some(rest) = line.strip_prefix("class ") else {
            continue;
        };
        let tokens: Vec<&str> = rest.split(' ').collect();
        let n_ivs: usize = tokens[0].parse().expect("interval count");
        for k in 0..n_ivs {
            let (lo, hi) = tokens[1 + k].split_once(',').expect("interval");
            let (lo, hi): (i64, i64) = (lo.parse().unwrap(), hi.parse().unwrap());
            for (nlo, nhi) in [
                (lo.saturating_add(1), hi),
                (lo.saturating_sub(1), hi),
                (lo, hi.saturating_add(1)),
                (lo, hi.saturating_sub(1)),
            ] {
                if (nlo, nhi) == (lo, hi) {
                    continue; // saturated at an i64 extreme
                }
                let mut toks: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
                toks[1 + k] = format!("{nlo},{nhi}");
                let mut forged_body = body.clone();
                forged_body[i] = format!("class {}", toks.join(" "));
                let forged = resign(&forged_body);
                assert!(
                    check(&forged).is_err(),
                    "re-signed bound shift {lo},{hi} -> {nlo},{nhi} on line {i} was accepted"
                );
                tried += 1;
            }
        }
    }
    assert!(tried > 0, "certificate declared no intervals to shift");
}

#[test]
fn checker_rejects_every_resigned_target_swap() {
    let cert = wc_certificate();
    let body = body_lines(&cert);
    let exit_of = |line: &str| -> Option<String> {
        line.strip_prefix("class ")?
            .rsplit_once("exit ")
            .map(|(_, t)| t.to_string())
    };
    let class_lines: Vec<(usize, String)> = body
        .iter()
        .enumerate()
        .filter_map(|(i, l)| exit_of(l).map(|t| (i, t)))
        .collect();
    let mut tried = 0usize;
    for &(i, ref ti) in &class_lines {
        for (_, tj) in &class_lines {
            if ti == tj {
                continue;
            }
            let mut forged_body = body.clone();
            let (prefix, _) = forged_body[i].rsplit_once("exit ").unwrap();
            forged_body[i] = format!("{prefix}exit {tj}");
            let forged = resign(&forged_body);
            assert!(
                check(&forged).is_err(),
                "re-signed target swap {ti} -> {tj} on line {i} was accepted"
            );
            tried += 1;
        }
    }
    assert!(tried > 0, "certificate has no pair of distinct class exits");
}

/// The certificates of `workload`'s committed reorderings under `set`.
fn certificates(workload: &str, set: HeuristicSet) -> Vec<String> {
    let w = branch_reorder::workloads::by_name(workload).expect("workload exists");
    let mut m = compile(w.source, &Options::with_heuristics(set)).expect("compiles");
    branch_reorder::opt::optimize(&mut m);
    let opts = ReorderOptions {
        certify: true,
        opt_tree: set.opt_tree,
        ..ReorderOptions::default()
    };
    let report = reorder_module(&m, &w.training_input(1024), &opts).expect("pipeline runs");
    let summary = report.validation.expect("certify mode validates");
    assert!(summary.is_clean(), "{summary}");
    summary.certificates.into_iter().map(|c| c.text).collect()
}

/// `deroff`'s replica duplicates the default exit's code, including a
/// branch on state other than the tested variable, which the checker
/// must walk both ways.
#[test]
fn checker_walks_duplicated_tail_branches_both_ways() {
    let certs = certificates("deroff", HeuristicSet::SET_I);
    assert!(!certs.is_empty(), "deroff commits a certified reordering");
    let mut tried = 0usize;
    for cert in &certs {
        check(cert).unwrap_or_else(|e| panic!("pristine certificate rejected: {e}"));
        let body = body_lines(cert);
        let replica = body
            .iter()
            .find_map(|l| l.strip_prefix("replica "))
            .expect("replica line");
        let reordered = body
            .iter()
            .position(|l| l.starts_with("reordered "))
            .expect("reordered section");
        let first = (reordered..body.len())
            .find(|&i| body[i].starts_with(&format!("b{replica}:")))
            .expect("replica block");
        // Every instruction and terminator of the replica, re-signed
        // after a one-character edit, must be refused.
        for i in first..body.len() - 1 {
            if body[i].ends_with(':') {
                continue;
            }
            let mut forged_body = body.clone();
            forged_body[i] = mutate_line(&body[i]);
            assert!(
                check(&resign(&forged_body)).is_err(),
                "re-signed replica edit {:?} -> {:?} was accepted",
                body[i],
                forged_body[i]
            );
            tried += 1;
        }
    }
    assert!(tried > 0);
}

// ---------------------------------------------------------------------
// Witness divergence properties.
// ---------------------------------------------------------------------

/// A faithfully reordered demo program: else-if classifier on `getchar`
/// where every class bumps a counter by a different amount, so any
/// misrouting changes the exit value.
fn demo_reordered() -> (Module, Function, Module, DetectedSequence, FuncId, u32) {
    let src = "int main() { int c; int n; n = 0; c = getchar();
        while (c != -1) {
            if (c == 32) { n = n + 1; }
            else if (c == 10) { n = n + 2; }
            else if (c < 5) { n = n + 3; }
            else { n = n + 4; }
            c = getchar();
        }
        return n; }";
    let mut module =
        compile(src, &Options::with_heuristics(HeuristicSet::SET_I)).expect("compiles");
    branch_reorder::opt::optimize(&mut module);
    let (fid, seq) = branch_reorder::reorder::detect_all(&module)
        .into_iter()
        .next()
        .expect("demo program has a reorderable sequence");
    let n = plan_ranges(&seq).len();
    let counts: Vec<u64> = (1..=n as u64).rev().collect();
    let items = order_items(&seq, &SequenceProfile { counts });
    let eliminable = eliminable_items(&seq, &items);
    let mut candidates: Vec<BlockId> = sequence_exits(&seq).into_iter().collect();
    candidates.sort();
    let ordering = select_ordering(&items, &candidates, &eliminable, seq.default_target);
    let mut reordered = module.clone();
    let f = reordered.function_mut(fid);
    let original_f = f.clone();
    let replica_start = f.blocks.len() as u32;
    apply_reordering(f, &seq, &items, &ordering);
    (module, original_f, reordered, seq, fid, replica_start)
}

/// Refute the corrupted function, demand a feasible byte-encodable
/// witness, and demonstrate the divergence under `run_reference`.
fn assert_witness_diverges(
    module: &Module,
    original_f: &Function,
    corrupted: &Module,
    seq: &DetectedSequence,
    fid: FuncId,
    replica_start: u32,
    what: &str,
) {
    let refuted = certify_sequence(fid, original_f, corrupted.function(fid), seq, replica_start)
        .err()
        .unwrap_or_else(|| panic!("{what}: seeded corruption was certified"));
    let w = refuted
        .witness
        .unwrap_or_else(|| panic!("{what}: refutation produced no witness"));
    assert!(
        w.is_feasible(),
        "{what}: witness {w} is outside feasibility"
    );
    let input = w
        .input_bytes()
        .unwrap_or_else(|| panic!("{what}: witness {w} has no input encoding"));
    let vm = VmOptions::default();
    let a = run_reference(module, &input, &vm);
    let b = run_reference(corrupted, &input, &vm);
    let diverges = match (&a, &b) {
        (Ok(x), Ok(y)) => x.exit != y.exit || x.output != y.output,
        (Ok(_), Err(_)) | (Err(_), Ok(_)) => true,
        (Err(x), Err(y)) => x != y,
    };
    assert!(
        diverges,
        "{what}: witness {w} does not diverge (original {a:?}, corrupted {b:?})"
    );
}

#[test]
fn target_swap_refutation_witness_diverges_under_run_reference() {
    let (module, original_f, mut corrupted, seq, fid, replica_start) = demo_reordered();
    let f = corrupted.function_mut(fid);
    let mut swapped = false;
    for bi in replica_start..f.blocks.len() as u32 {
        if let Terminator::Branch {
            taken, not_taken, ..
        } = &mut f.block_mut(BlockId(bi)).term
        {
            if taken != not_taken {
                std::mem::swap(taken, not_taken);
                swapped = true;
                break;
            }
        }
    }
    assert!(swapped, "replica contains no conditional branch");
    assert_witness_diverges(
        &module,
        &original_f,
        &corrupted,
        &seq,
        fid,
        replica_start,
        "target swap",
    );
}

#[test]
fn bound_shift_refutation_witness_diverges_under_run_reference() {
    let (module, original_f, mut corrupted, seq, fid, replica_start) = demo_reordered();
    let f = corrupted.function_mut(fid);
    let mut shifted = false;
    'outer: for bi in replica_start..f.blocks.len() as u32 {
        for inst in &mut f.block_mut(BlockId(bi)).insts {
            if let Inst::Cmp {
                rhs: Operand::Imm(c),
                ..
            } = inst
            {
                *c += 1; // the replica now tests a shifted range boundary
                shifted = true;
                break 'outer;
            }
        }
    }
    assert!(shifted, "replica contains no compare against a constant");
    assert_witness_diverges(
        &module,
        &original_f,
        &corrupted,
        &seq,
        fid,
        replica_start,
        "bound shift",
    );
}
