//! Measuring what adaptation buys: the phase-stream driver and its
//! report.
//!
//! [`adapt_stream`] runs a program over a sequence of input phases three
//! ways, all on the same probe-carrying, never-cleaned-up apply
//! machinery so the comparison isolates *ordering quality*:
//!
//! * **adaptive** — one runtime, trained once, adapting at every epoch;
//! * **static** — the same initial deployment, frozen (train-once);
//! * **oracle** — per phase, a fresh deployment trained offline on that
//!   phase's own input: the best a train-once pipeline could possibly do
//!   with perfect foreknowledge of each phase.

use br_ir::Module;
use br_vm::Trap;

use crate::runtime::{AdaptOptions, AdaptiveRuntime};

/// Dynamic-instruction counts for one phase under the three regimes.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Phase name.
    pub phase: String,
    /// Input bytes fed in this phase.
    pub input_len: usize,
    /// Dynamic instructions, adapting continuously.
    pub adaptive: u64,
    /// Dynamic instructions, train-once (frozen initial deployment).
    pub static_once: u64,
    /// Dynamic instructions under the per-phase offline oracle.
    pub oracle: u64,
    /// Hot swaps performed during this phase.
    pub swaps: u64,
}

/// Outcome of an [`adapt_stream`] run.
#[derive(Clone, Debug)]
pub struct AdaptReport {
    /// Program name (for display).
    pub program: String,
    /// One row per phase.
    pub rows: Vec<PhaseRow>,
    /// Total successful swaps (including the initial deployment).
    pub swaps: u64,
    /// Swaps aborted by a failed validation.
    pub aborted_swaps: u64,
    /// Swaps admitted by re-checking a cached proof certificate.
    pub cert_admissions: u64,
    /// Epochs in which drift was flagged.
    pub drift_epochs: u64,
    /// Total adaptation epochs.
    pub epochs: u64,
}

impl AdaptReport {
    /// Total dynamic instructions, adapting.
    pub fn total_adaptive(&self) -> u64 {
        self.rows.iter().map(|r| r.adaptive).sum()
    }

    /// Total dynamic instructions, train-once.
    pub fn total_static(&self) -> u64 {
        self.rows.iter().map(|r| r.static_once).sum()
    }

    /// Total dynamic instructions under the per-phase oracle.
    pub fn total_oracle(&self) -> u64 {
        self.rows.iter().map(|r| r.oracle).sum()
    }

    /// Percent of the train-once instruction count saved by adapting
    /// (positive = adaptation wins).
    pub fn savings_vs_static(&self) -> f64 {
        let s = self.total_static();
        if s == 0 {
            return 0.0;
        }
        100.0 * (s as f64 - self.total_adaptive() as f64) / s as f64
    }

    /// Adaptive instructions as a multiple of the oracle's (1.0 =
    /// matches the oracle; 1.05 = within 5% of it).
    pub fn vs_oracle(&self) -> f64 {
        let o = self.total_oracle();
        if o == 0 {
            return 1.0;
        }
        self.total_adaptive() as f64 / o as f64
    }

    /// The report as CSV (one row per phase plus a totals row).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "program,phase,input_bytes,adaptive_insts,static_insts,oracle_insts,swaps\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                self.program, r.phase, r.input_len, r.adaptive, r.static_once, r.oracle, r.swaps
            ));
        }
        out.push_str(&format!(
            "{},total,{},{},{},{},{}\n",
            self.program,
            self.rows.iter().map(|r| r.input_len).sum::<usize>(),
            self.total_adaptive(),
            self.total_static(),
            self.total_oracle(),
            self.swaps
        ));
        out
    }
}

impl std::fmt::Display for AdaptReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<12} {:>10} {:>12} {:>12} {:>12} {:>6}",
            "phase", "bytes", "adaptive", "static", "oracle", "swaps"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>10} {:>12} {:>12} {:>12} {:>6}",
                r.phase, r.input_len, r.adaptive, r.static_once, r.oracle, r.swaps
            )?;
        }
        writeln!(
            f,
            "{:<12} {:>10} {:>12} {:>12} {:>12} {:>6}",
            "total",
            self.rows.iter().map(|r| r.input_len).sum::<usize>(),
            self.total_adaptive(),
            self.total_static(),
            self.total_oracle(),
            self.swaps
        )?;
        write!(
            f,
            "saved vs static: {:+.2}%   vs oracle: {:.3}x   \
             epochs: {} (drifted {})   aborted swaps: {}",
            self.savings_vs_static(),
            self.vs_oracle(),
            self.epochs,
            self.drift_epochs,
            self.aborted_swaps
        )
    }
}

/// Run `optimized` over a stream of input phases under the three
/// regimes (see the module docs) and report per-phase dynamic
/// instruction counts.
///
/// # Errors
///
/// Returns the first [`Trap`] from any training or measurement run.
pub fn adapt_stream(
    optimized: &Module,
    program: &str,
    training: &[u8],
    phases: &[(&str, Vec<u8>)],
    opts: &AdaptOptions,
) -> Result<AdaptReport, Trap> {
    let mut adaptive = AdaptiveRuntime::new(optimized, Some(training), opts)?;
    let static_once = AdaptiveRuntime::new(optimized, Some(training), opts)?;
    let mut rows = Vec::with_capacity(phases.len());
    for (name, input) in phases {
        let swaps_before = adaptive.swaps();
        let a = adaptive.run_segment(input)?;
        let s = static_once.run_frozen(input)?;
        let oracle_rt = AdaptiveRuntime::new(optimized, Some(input), opts)?;
        let o = oracle_rt.run_frozen(input)?;
        debug_assert_eq!(a.output, s.output, "adaptation changed behaviour in {name}");
        debug_assert_eq!(a.exit, s.exit, "adaptation changed the exit code in {name}");
        rows.push(PhaseRow {
            phase: (*name).to_string(),
            input_len: input.len(),
            adaptive: a.stats.insts,
            static_once: s.stats.insts,
            oracle: o.stats.insts,
            swaps: adaptive.swaps() - swaps_before,
        });
    }
    Ok(AdaptReport {
        program: program.to_string(),
        rows,
        swaps: adaptive.swaps(),
        aborted_swaps: adaptive.aborted_swaps(),
        cert_admissions: adaptive.cert_admissions(),
        drift_epochs: adaptive.drift_epochs(),
        epochs: adaptive.epochs(),
    })
}
