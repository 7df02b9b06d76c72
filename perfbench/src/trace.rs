//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public entry point: name, start, end, parent span and
//! operation id. They stay in memory until the run ends and are then
//! written out as TSV. A span's self time is its duration minus the part
//! of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Records spans of one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new operation: spans opened from here on carry `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Append another thread's spans (their parents are re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.origin.duration_since(self.origin).as_nanos() as u64;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            self.spans.push(s);
        }
    }

    /// Per span name: (spans, summed duration ns, summed self time ns).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                // Children of one span run on the parent's thread, one
                // after another, so their durations do not overlap.
                child_cover[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, cover) in self.spans.iter().zip(&child_cover) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(*cover);
        }
        out
    }

    /// Summed self time of `name` in milliseconds (0 when absent).
    pub fn self_ms(&self, totals: &BTreeMap<&'static str, (u64, u64, u64)>, name: &str) -> f64 {
        totals.get(name).map_or(0.0, |t| t.2 as f64 / 1e6)
    }

    /// Write every span as `op name start_ns end_ns parent` lines.
    pub fn write_tsv(&self, path: &Path) -> Result<(), String> {
        let err = |e: std::io::Error| format!("write {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(err)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
        writeln!(out, "op\tname\tstart_ns\tend_ns\tparent").map_err(err)?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{parent}",
                s.op, s.name, s.start_ns, s.end_ns
            )
            .map_err(err)?;
        }
        out.flush().map_err(err)
    }
}

/// Where a traced run writes its spans.
pub fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new(".perfbench")
        .join("traces")
        .join(format!("{workload}-seed{seed}.tsv"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.enter("root");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let totals = t.totals();
        let (_, root_dur, root_self) = totals["root"];
        let (_, child_dur, child_self) = totals["child"];
        assert_eq!(child_dur, child_self);
        assert_eq!(root_self + child_dur, root_dur);
    }
}
