//! Live service metrics: lock-free counters and a fixed-bucket latency
//! histogram, rendered as plaintext for the `metrics` endpoint.
//!
//! Everything is atomics so the hot path never takes a lock; the
//! histogram uses power-of-two microsecond buckets, which keeps the
//! quantile estimate within 2x of the true value at every scale from
//! 1 µs to ~34 s — plenty for load shedding and dashboard purposes.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::proto2::kind;

/// Histogram buckets: upper bounds of `1 << i` microseconds, plus a
/// final catch-all. 26 buckets spans 1 µs to ~33.5 s.
pub const BUCKETS: usize = 26;

/// A fixed-bucket latency histogram.
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// Record one latency observation.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().max(1) as u64;
        let bucket = (63 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the per-bucket counts.
    pub fn snapshot(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    /// Add `n` observations directly to bucket `i` — merging another
    /// histogram's snapshot (multi-process load generation).
    pub fn add_bucket(&self, i: usize, n: u64) {
        self.counts[i.min(BUCKETS - 1)].fetch_add(n, Ordering::Relaxed);
    }

    /// The upper bound, in microseconds, of bucket `i`.
    pub fn bucket_bound_us(i: usize) -> u64 {
        2u64 << i
    }

    /// The latency below which `q` (0..=1) of observations fall,
    /// reported as a bucket upper bound; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let counts = self.snapshot();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Duration::from_micros(Self::bucket_bound_us(i)));
            }
        }
        None
    }
}

/// Request-kind counters: one slot per compute endpoint plus a bucket
/// for everything else.
pub const KINDS: [&str; 4] = ["reorder", "measure", "profile", "other"];

/// The [`KINDS`] slot of a request opcode.
fn kind_slot(k: u8) -> usize {
    match k {
        kind::REORDER => 0,
        kind::MEASURE => 1,
        kind::PROFILE => 2,
        _ => KINDS.len() - 1,
    }
}

/// The daemon's counter set. One instance lives for the whole process;
/// every connection and worker thread updates it concurrently.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests admitted, by kind (indexed like [`KINDS`]).
    requests: [AtomicU64; KINDS.len()],
    /// Responses served successfully.
    pub ok: AtomicU64,
    /// Error frames returned (bad input, pipeline failure, panic).
    pub errors: AtomicU64,
    /// Requests shed at admission (queue full → `code::SHED`).
    pub shed: AtomicU64,
    /// Requests whose deadline expired while queued or in flight.
    pub expired: AtomicU64,
    /// Response-cache hits.
    pub cache_hits: AtomicU64,
    /// Response-cache misses.
    pub cache_misses: AtomicU64,
    /// Individual requests carried inside `brs2` batch frames.
    pub batch_items: AtomicU64,
    /// `need-module` responses (a content hash the shard had not
    /// interned; the client re-uploads the body).
    pub need_module: AtomicU64,
    /// Oversized frames answered with an error and drained, and
    /// replies too large for a frame answered with an error instead.
    pub oversized: AtomicU64,
    /// Cache entries installed by `cacheput` (cluster replication).
    pub replicated: AtomicU64,
    /// End-to-end latency of completed requests (admission to response
    /// ready, shed requests excluded).
    pub latency: Histogram,
}

impl Metrics {
    /// Count one admitted request with opcode `k`.
    pub fn count_request(&self, k: u8) {
        self.requests[kind_slot(k)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total admitted requests across all kinds.
    pub fn requests_total(&self) -> u64 {
        self.requests
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Render the whole counter set as plaintext, one metric per line
    /// (Prometheus exposition style, minus the type annotations).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, kind) in KINDS.iter().enumerate() {
            let _ = writeln!(
                out,
                "br_serve_requests_total{{kind=\"{kind}\"}} {}",
                self.requests[i].load(Ordering::Relaxed)
            );
        }
        for (name, value) in [
            ("ok", &self.ok),
            ("error", &self.errors),
            ("shed", &self.shed),
            ("deadline_expired", &self.expired),
            ("cache_hits", &self.cache_hits),
            ("cache_misses", &self.cache_misses),
            ("batch_items", &self.batch_items),
            ("need_module", &self.need_module),
            ("oversized", &self.oversized),
            ("replicated", &self.replicated),
        ] {
            let _ = writeln!(
                out,
                "br_serve_{name}_total {}",
                value.load(Ordering::Relaxed)
            );
        }
        let counts = self.latency.snapshot();
        let mut cumulative = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cumulative += c;
            if *c > 0 {
                let _ = writeln!(
                    out,
                    "br_serve_latency_us_bucket{{le=\"{}\"}} {cumulative}",
                    Histogram::bucket_bound_us(i)
                );
            }
        }
        for (label, q) in [("p50", 0.50), ("p99", 0.99)] {
            let _ = writeln!(
                out,
                "br_serve_latency_us_{label} {}",
                self.latency.quantile(q).map_or(0, |d| d.as_micros() as u64)
            );
        }
        out
    }

    /// Parse a counter back out of [`Metrics::render`] output — the
    /// client half of the metrics contract, used by the load generator
    /// to report server-side cache behaviour.
    pub fn parse_counter(rendered: &str, name: &str) -> Option<u64> {
        let prefix = format!("br_serve_{name}_total ");
        rendered
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .and_then(|v| v.parse().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        for us in [1u64, 3, 100, 100, 100, 100, 100, 100, 100, 5_000] {
            h.record(Duration::from_micros(us));
        }
        // 8 of 10 observations are <= 128 µs, so p50 lands there.
        assert_eq!(h.quantile(0.5), Some(Duration::from_micros(128)));
        // p99 of 10 observations is the max: bucket bound 8192 µs.
        assert_eq!(h.quantile(0.99), Some(Duration::from_micros(8192)));
        // Sub-microsecond and multi-minute observations both land in
        // real buckets instead of panicking.
        h.record(Duration::from_nanos(10));
        h.record(Duration::from_secs(120));
        assert_eq!(h.snapshot().iter().sum::<u64>(), 12);
    }

    #[test]
    fn render_and_parse_roundtrip() {
        let m = Metrics::default();
        m.count_request(kind::REORDER);
        m.count_request(kind::REORDER);
        m.count_request(kind::HEALTH);
        m.ok.fetch_add(2, Ordering::Relaxed);
        m.shed.fetch_add(1, Ordering::Relaxed);
        m.cache_hits.fetch_add(7, Ordering::Relaxed);
        m.latency.record(Duration::from_millis(3));
        let text = m.render();
        assert!(text.contains("br_serve_requests_total{kind=\"reorder\"} 2"));
        assert!(text.contains("br_serve_requests_total{kind=\"other\"} 1"));
        assert_eq!(Metrics::parse_counter(&text, "ok"), Some(2));
        assert_eq!(Metrics::parse_counter(&text, "shed"), Some(1));
        assert_eq!(Metrics::parse_counter(&text, "cache_hits"), Some(7));
        assert_eq!(Metrics::parse_counter(&text, "nonexistent"), None);
        assert_eq!(m.requests_total(), 3);
    }
}
