//! Versioned text serialization for cached pipeline artifacts.
//!
//! Two artifact kinds exist, one per cached stage:
//!
//! * **reorder** — the result of the training + reordering stage: every
//!   [`SequenceRecord`], the proof certificates the certifying pipeline
//!   emitted for the committed reorderings, plus the reordered module as
//!   printed IR. The restored report carries the certificates (and the
//!   proven/value-class counts) but not the failure list — artifacts are
//!   only written for cleanly certified runs, so there is nothing to
//!   record. Carrying the certificates is what lets a warm sweep
//!   *re-check* every cached reordering with the independent
//!   `br_analysis::cert::check` before trusting the artifact.
//! * **measure** — the result of one measurement run: exit value, the
//!   eleven architectural counters, every predictor result, the static
//!   instruction count of the measured module, and the output bytes.
//!
//! Formats are line-oriented and human-inspectable on purpose: a cache
//! directory tree of `*.art` files doubles as a record of what the sweep
//! actually computed. Any parse failure is reported as `None` and the
//! caller recomputes, so format evolution never corrupts results.

use br_ir::{parse_module, print_module, BlockId, FuncId};
use br_reorder::pipeline::{SequenceKind, SequenceRecord};
use br_reorder::{ReorderReport, SequenceCertificate, SequenceOutcome, ValidationSummary};
use br_vm::{ExecStats, PredictorConfig, PredictorResult, Scheme};

use crate::MeasuredCell;

fn scheme_str(s: Scheme) -> String {
    match s {
        Scheme::OneBit => "onebit".to_string(),
        Scheme::TwoBit => "twobit".to_string(),
        Scheme::Gshare(bits) => format!("gshare:{bits}"),
    }
}

fn parse_scheme(s: &str) -> Option<Scheme> {
    match s {
        "onebit" => Some(Scheme::OneBit),
        "twobit" => Some(Scheme::TwoBit),
        _ => s.strip_prefix("gshare:")?.parse().ok().map(Scheme::Gshare),
    }
}

/// A stable one-line description of a predictor configuration — also
/// used as part of measurement cache keys.
pub fn predictor_str(c: &PredictorConfig) -> String {
    format!("{} {}", scheme_str(c.scheme), c.entries)
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
        .collect()
}

/// Serialize a reorder report (sequence records + reordered module IR).
pub fn write_reorder(report: &ReorderReport) -> String {
    let mut out = format!("reorder {}\n", crate::cache::FORMAT_VERSION);
    out.push_str(&format!("sequences {}\n", report.sequences.len()));
    for s in &report.sequences {
        let kind = match s.kind {
            SequenceKind::RangeConditions => "range",
            SequenceKind::CommonSuccessor => "common",
        };
        out.push_str(&format!(
            "{kind} {} {} {} {} {} {} {}\n",
            s.structure,
            s.func.0,
            s.head.0,
            s.original_branches,
            s.conditions,
            s.training_executions,
            s.outcome
        ));
    }
    let empty = Vec::new();
    let (proven, value_classes, certs) = match &report.validation {
        Some(v) => (v.proven, v.value_classes, &v.certificates),
        None => (0, 0, &empty),
    };
    out.push_str(&format!(
        "certs {} proven {proven} classes {value_classes}\n",
        certs.len()
    ));
    for c in certs {
        out.push_str(&format!(
            "cert {} {} {:016x} {}\n",
            c.func.0,
            c.head.0,
            c.sig,
            c.text.lines().count()
        ));
        out.push_str(&c.text);
        if !c.text.ends_with('\n') {
            out.push('\n');
        }
    }
    out.push_str("module\n");
    out.push_str(&print_module(&report.module));
    out
}

/// Restore a reorder report; `None` on any format mismatch.
pub fn read_reorder(text: &str) -> Option<ReorderReport> {
    let mut lines = text.lines();
    if lines.next()? != format!("reorder {}", crate::cache::FORMAT_VERSION) {
        return None;
    }
    let n: usize = lines.next()?.strip_prefix("sequences ")?.parse().ok()?;
    let mut sequences = Vec::with_capacity(n);
    for _ in 0..n {
        let line = lines.next()?;
        // Seven fixed fields, then the outcome's own words.
        let mut f = line.splitn(8, ' ');
        let kind = match f.next()? {
            "range" => SequenceKind::RangeConditions,
            "common" => SequenceKind::CommonSuccessor,
            _ => return None,
        };
        let structure = br_reorder::DispatchStructure::parse(f.next()?)?;
        let func = FuncId(f.next()?.parse().ok()?);
        let head = BlockId(f.next()?.parse().ok()?);
        let original_branches = f.next()?.parse().ok()?;
        let conditions = f.next()?.parse().ok()?;
        let training_executions = f.next()?.parse().ok()?;
        let outcome = SequenceOutcome::parse(f.next()?)?;
        sequences.push(SequenceRecord {
            kind,
            structure,
            func,
            head,
            original_branches,
            conditions,
            training_executions,
            outcome,
        });
    }
    let mut cf = lines.next()?.strip_prefix("certs ")?.split(' ');
    let n_certs: usize = cf.next()?.parse().ok()?;
    let proven: usize = cf
        .next()
        .filter(|&k| k == "proven")
        .and(cf.next())?
        .parse()
        .ok()?;
    let value_classes: usize = cf
        .next()
        .filter(|&k| k == "classes")
        .and(cf.next())?
        .parse()
        .ok()?;
    let mut certificates = Vec::with_capacity(n_certs);
    for _ in 0..n_certs {
        let mut f = lines.next()?.strip_prefix("cert ")?.split(' ');
        let func = FuncId(f.next()?.parse().ok()?);
        let head = BlockId(f.next()?.parse().ok()?);
        let sig = u64::from_str_radix(f.next()?, 16).ok()?;
        let cert_lines: usize = f.next()?.parse().ok()?;
        let mut cert_text = String::new();
        for _ in 0..cert_lines {
            cert_text.push_str(lines.next()?);
            cert_text.push('\n');
        }
        certificates.push(SequenceCertificate {
            func,
            head,
            text: cert_text,
            sig,
        });
    }
    if lines.next()? != "module" {
        return None;
    }
    let module_text = text.split_once("\nmodule\n")?.1;
    let module = parse_module(module_text).ok()?;
    Some(ReorderReport {
        module,
        sequences,
        validation: Some(ValidationSummary {
            proven,
            value_classes,
            failures: Vec::new(),
            certificates,
        }),
    })
}

/// Serialize one measured run plus the measured module's static size.
pub fn write_measure(cell: &MeasuredCell) -> String {
    let st = &cell.run.stats;
    let mut out = format!("measure {}\n", crate::cache::FORMAT_VERSION);
    out.push_str(&format!("exit {}\n", cell.run.exit));
    out.push_str(&format!("static {}\n", cell.static_size));
    out.push_str(&format!(
        "stats {} {} {} {} {} {} {} {} {} {} {}\n",
        st.insts,
        st.cond_branches,
        st.taken_branches,
        st.uncond_jumps,
        st.indirect_jumps,
        st.compares,
        st.loads,
        st.stores,
        st.calls,
        st.returns,
        st.delay_stalls
    ));
    out.push_str(&format!("predictors {}\n", cell.run.predictors.len()));
    for p in &cell.run.predictors {
        out.push_str(&format!(
            "{} {} {}\n",
            predictor_str(&p.config),
            p.predictions,
            p.mispredictions
        ));
    }
    out.push_str(&format!("output {}\n", hex(&cell.run.output)));
    out
}

/// Restore one measured run; `None` on any format mismatch.
pub fn read_measure(text: &str) -> Option<MeasuredCell> {
    let mut lines = text.lines();
    if lines.next()? != format!("measure {}", crate::cache::FORMAT_VERSION) {
        return None;
    }
    let exit = lines.next()?.strip_prefix("exit ")?.parse().ok()?;
    let static_size = lines.next()?.strip_prefix("static ")?.parse().ok()?;
    let mut nums = lines.next()?.strip_prefix("stats ")?.split(' ');
    let mut next = || -> Option<u64> { nums.next()?.parse().ok() };
    let stats = ExecStats {
        insts: next()?,
        cond_branches: next()?,
        taken_branches: next()?,
        uncond_jumps: next()?,
        indirect_jumps: next()?,
        compares: next()?,
        loads: next()?,
        stores: next()?,
        calls: next()?,
        returns: next()?,
        delay_stalls: next()?,
    };
    let n: usize = lines.next()?.strip_prefix("predictors ")?.parse().ok()?;
    let mut predictors = Vec::with_capacity(n);
    for _ in 0..n {
        let mut f = lines.next()?.split(' ');
        predictors.push(PredictorResult {
            config: PredictorConfig {
                scheme: parse_scheme(f.next()?)?,
                entries: f.next()?.parse().ok()?,
            },
            predictions: f.next()?.parse().ok()?,
            mispredictions: f.next()?.parse().ok()?,
        });
    }
    let output = unhex(lines.next()?.strip_prefix("output ")?)?;
    Some(MeasuredCell {
        run: br_harness::MeasuredRun {
            exit,
            output,
            stats,
            predictors,
        },
        static_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_roundtrips() {
        let cell = MeasuredCell {
            run: br_harness::MeasuredRun {
                exit: -3,
                output: vec![0, 255, 10, 65],
                stats: ExecStats {
                    insts: 1,
                    cond_branches: 2,
                    taken_branches: 3,
                    uncond_jumps: 4,
                    indirect_jumps: 5,
                    compares: 6,
                    loads: 7,
                    stores: 8,
                    calls: 9,
                    returns: 10,
                    delay_stalls: 11,
                },
                predictors: vec![
                    PredictorResult {
                        config: PredictorConfig {
                            scheme: Scheme::Gshare(6),
                            entries: 256,
                        },
                        predictions: 100,
                        mispredictions: 17,
                    },
                    PredictorResult {
                        config: PredictorConfig {
                            scheme: Scheme::TwoBit,
                            entries: 2048,
                        },
                        predictions: 100,
                        mispredictions: 4,
                    },
                ],
            },
            static_size: 321,
        };
        let text = write_measure(&cell);
        let back = read_measure(&text).expect("parses");
        assert_eq!(back.run.exit, cell.run.exit);
        assert_eq!(back.run.output, cell.run.output);
        assert_eq!(back.run.stats, cell.run.stats);
        assert_eq!(back.run.predictors, cell.run.predictors);
        assert_eq!(back.static_size, cell.static_size);
    }

    #[test]
    fn corrupt_artifacts_are_rejected() {
        assert!(read_measure("measure v0\nexit 0\n").is_none());
        assert!(read_reorder("bogus").is_none());
        assert!(read_measure("").is_none());
        // A v1-era artifact (no certs block) must read as a miss.
        assert!(read_reorder("reorder v1\nsequences 0\nmodule\n").is_none());
    }

    #[test]
    fn reorder_artifact_roundtrips_certificates() {
        let w = br_workloads::by_name("wc").expect("wc exists");
        let mut m = br_minic::compile(
            w.source,
            &br_minic::Options::with_heuristics(br_minic::HeuristicSet::SET_I),
        )
        .expect("wc compiles");
        br_opt::optimize(&mut m);
        let opts = br_reorder::ReorderOptions {
            certify: true,
            ..Default::default()
        };
        let report =
            br_reorder::reorder_module(&m, &w.training_input(512), &opts).expect("pipeline runs");
        let summary = report.validation.as_ref().expect("certify mode validates");
        assert!(
            !summary.certificates.is_empty(),
            "wc must commit a certified reordering"
        );

        let text = write_reorder(&report);
        let back = read_reorder(&text).expect("parses");
        let restored = back.validation.as_ref().expect("certs restored");
        assert_eq!(restored.certificates, summary.certificates);
        assert_eq!(restored.proven, summary.proven);
        assert_eq!(restored.value_classes, summary.value_classes);
        for c in &restored.certificates {
            let checked = br_analysis::check(&c.text).expect("restored certificate checks");
            assert_eq!(checked.sig, c.sig);
        }
        assert_eq!(
            print_module(&back.module),
            print_module(&report.module),
            "module must survive the round trip"
        );
    }

    #[test]
    fn every_sequence_outcome_roundtrips() {
        use br_reorder::{DispatchStructure, Stage};
        let outcomes = [
            SequenceOutcome::Reordered {
                new_branches: 5,
                new_compares: 4,
                original_cost: 7.25,
                new_cost: 2.0 / 3.0,
            },
            SequenceOutcome::NeverExecuted,
            SequenceOutcome::NoImprovement,
            SequenceOutcome::Refused(Stage::Detect),
            SequenceOutcome::Refused(Stage::Order),
            SequenceOutcome::Refused(Stage::Emit),
            SequenceOutcome::Refused(Stage::Cleanup),
            SequenceOutcome::Refused(Stage::Layout),
        ];
        let sequences: Vec<SequenceRecord> = outcomes
            .iter()
            .enumerate()
            .map(|(i, outcome)| SequenceRecord {
                kind: SequenceKind::RangeConditions,
                structure: DispatchStructure::Chain,
                func: FuncId(0),
                head: BlockId(i as u32),
                original_branches: 3,
                conditions: 3,
                training_executions: 40 + i as u64,
                outcome: outcome.clone(),
            })
            .collect();
        let report = ReorderReport {
            module: br_ir::Module::new(),
            sequences,
            validation: None,
        };
        let text = write_reorder(&report);
        assert!(text.contains(" refused order\n"), "{text}");
        let back = read_reorder(&text).expect("parses");
        assert_eq!(back.sequences, report.sequences);
        // A stage name the reader does not know is a miss, not a guess.
        assert!(read_reorder(&text.replace("refused order", "refused sideways")).is_none());
    }

    #[test]
    fn costs_roundtrip_exactly() {
        // f64 costs are serialized with Debug, which is shortest
        // round-trip: parsing must restore the identical bits.
        for v in [0.0f64, 1.5, 2.0 / 3.0, 1e-17, 123456.789] {
            let s = format!("{v:?}");
            let back: f64 = s.parse().expect("parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
    }
}
