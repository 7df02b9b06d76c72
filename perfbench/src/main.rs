//! End-to-end and per-layer benchmark of the branch-reordering system.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile|execute|adapt|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics
//! ([`END_TO_END`]); with `--trace 1` the per-layer metrics of the
//! traced run ([`PER_LAYER`]). Every workload reports every metric of
//! the list its mode selects. The last line of standard output is one
//! JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads and what each metric
//! should move.

mod adapt;
mod compile;
mod execute;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics and their units. Every workload reports each of
/// them; what one operation is differs by workload (see the README).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_norm", "norm_ms"),
    ("op_p90_norm", "norm_ms"),
    ("modelled_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
];

/// Per-layer metrics of the traced run and their units. A workload
/// reports the ones its traced operations record; a layer metric that a
/// workload's operations never record (the layer is not entered, as
/// `adaptive` on `compile`) is reported as 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("minic.compile_ms", "ms"),
    ("opt.optimize_ms", "ms"),
    ("core.detect_ms", "ms"),
    ("core.instrument_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.emit_ms", "ms"),
    ("opt.cleanup_ms", "ms"),
    ("vm.profile_run_ms", "ms"),
    ("analysis.certify_ms", "ms"),
    ("layout.exttsp_ms", "ms"),
    ("analysis.check_layout_ms", "ms"),
    ("ir.verify_ms", "ms"),
    ("compile.trace_coverage", "ratio"),
    ("core.sequences", "count"),
    ("core.reordered", "count"),
    ("core.reorder_yield", "ratio"),
    ("analysis.certificates", "count"),
    ("analysis.cert_rejected", "count"),
    ("vm.profile_runs", "count"),
    ("vm.profile_insts", "count"),
    ("layout.applied_share", "ratio"),
    ("ir.insts_after_optimize", "count"),
    ("ir.insts_after_emit", "count"),
    ("ir.insts_after_cleanup", "count"),
    ("vm.run_setup_us", "us"),
    ("trace.overhead_pct", "%"),
    ("vm.decode_ms", "ms"),
    ("vm.exec_ms", "ms"),
    ("vm.ns_per_inst", "ns"),
    ("vm.insts", "count"),
    ("vm.cond_branches", "count"),
    ("vm.taken_branches", "count"),
    ("vm.delay_stalls", "count"),
    ("vm.branches_ratio", "ratio"),
    ("adaptive.new_ms", "ms"),
    ("adaptive.segment_ms", "ms"),
    ("vm.frozen_ms", "ms"),
    ("adaptive.hook_overhead", "ratio"),
    ("adaptive.epochs", "count"),
    ("adaptive.drift_epochs", "count"),
    ("adaptive.swaps", "count"),
    ("adaptive.aborted_swaps", "count"),
    ("adaptive.cert_admissions", "count"),
    ("adaptive.swap_yield", "ratio"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.miss_ms_p90", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.intern_hit_share", "ratio"),
    ("serve.need_module", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    /// Per-run directory below the working directory (the serve cache),
    /// removed when the run ends.
    pub scratch: PathBuf,
}

/// What one run reports: the operation tally and named metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Problems found by the correctness oracles; any makes the run
    /// report `correct: false`.
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Peak resident set size taken at a fixed point of the work; when
    /// unset, `peak_rss_mb` is taken at the end of the run.
    pub rss_mb: Option<f64>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record one operation; `problem` is `Some` when its oracle failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
    }

    /// `ok_rate`: verified operations over attempted ones.
    pub fn ok_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// The end-to-end metrics of one untraced run: the workload's own
    /// three, then the ones every workload measures the same way.
    pub fn end_to_end(
        &mut self,
        op_norm: [f64; 2],
        modelled_ratio: f64,
        setup_s: f64,
    ) -> Result<(), String> {
        self.metric("op_p50_norm", op_norm[0], "norm_ms");
        self.metric("op_p90_norm", op_norm[1], "norm_ms");
        self.metric("modelled_ratio", modelled_ratio, "ratio");
        self.metric("setup_s", setup_s, "s");
        let rss = match self.rss_mb {
            Some(mb) => mb,
            None => stats::peak_rss_mb()?,
        };
        self.metric("peak_rss_mb", rss, "MB");
        let ok = self.ok_rate();
        self.metric("ok_rate", ok, "ratio");
        Ok(())
    }

    /// Check the metrics against the list `trace` selects, in its order:
    /// every end-to-end metric must be measured; a per-layer metric the
    /// workload did not record is 0. A name or unit outside the list is
    /// an error in the workload.
    fn complete(&mut self, trace: bool) -> Result<(), String> {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, _, unit) in &self.metrics {
            match list.iter().find(|(n, _)| n == name) {
                Some((_, u)) if u == unit => {}
                Some((_, u)) => return Err(format!("metric {name} in {unit}, not {u}")),
                None => return Err(format!("metric {name} is not in the list")),
            }
        }
        let mut ordered = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            match self.metrics.iter().position(|(n, _, _)| n == name) {
                Some(i) => ordered.push(self.metrics.swap_remove(i)),
                None if trace => ordered.push((name.to_string(), 0.0, unit)),
                None => return Err(format!("end-to-end metric {name} was not measured")),
            }
        }
        if !self.metrics.is_empty() {
            return Err(format!("metric {} reported twice", self.metrics[0].0));
        }
        self.metrics = ordered;
        Ok(())
    }

    fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A JSON number with every digit Rust's shortest round-trip format
/// keeps (`Display` for `f64` never uses an exponent).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let scratch = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
        scratch,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("create {}: {e}", args.scratch.display()))?;
    let result = match args.workload.as_str() {
        "compile" => compile::run(args),
        "execute" => execute::run(args),
        "adapt" => adapt::run(args),
        "serve" => serve::run(args),
        other => Err(format!(
            "unknown workload {other:?} (compile, execute, adapt, serve)"
        )),
    };
    // The serve cache is per run; written trace spans live one level up.
    let _ = std::fs::remove_dir_all(&args.scratch);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args).and_then(|mut r| {
        r.complete(args.trace)?;
        Ok((r.to_json()?, r))
    });
    match result {
        Ok((json, report)) => {
            for p in &report.problems {
                eprintln!("perfbench: oracle: {p}");
            }
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (name, unit) pairs of one section of `BENCHMARK.json`, read with
    /// plain string search (the package has no JSON dependency).
    fn manifest_section(key: &str) -> Vec<(String, String)> {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest.find(&format!("\"{key}\"")).expect("section");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section end")];
        let field = |entry: &str, name: &str| {
            let at = entry.find(&format!("\"{name}\": \"")).expect("field") + name.len() + 5;
            entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(manifest_section("end_to_end"), own(&END_TO_END));
        assert_eq!(manifest_section("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn complete_orders_and_fills() {
        let mut r = Report::default();
        r.metric("vm.insts", 5.0, "count");
        r.complete(true).unwrap();
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert!(r
            .metrics
            .iter()
            .all(|(n, v, _)| (*v != 0.0) == (n == "vm.insts")));

        let mut r = Report::default();
        r.metric("op_p50_norm", 1.0, "norm_ms");
        assert!(r.complete(false).is_err(), "missing end-to-end metrics");
        let mut r = Report::default();
        r.metric("vm.insts", 5.0, "ms");
        assert!(r.complete(true).is_err(), "wrong unit");
    }
}
