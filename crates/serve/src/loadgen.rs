//! Load generator (`brc loadgen`): closed-loop and open-loop modes,
//! single- or multi-process, over `brs2` with content-hash module
//! interning (repeat requests stop re-sending printed IR).
//!
//! **Closed loop** (the default) replays the 17 paper workloads from N
//! concurrent connections, each keeping exactly one request (or one
//! batch) in flight — send, wait, repeat — so offered load adapts to
//! service capacity and the reported latency is honest. `--smoke` is
//! the CI contract built on it: cold pass then warm pass with hard
//! assertions (zero errors, zero shed, nonzero cache-hit delta).
//!
//! **Open loop** (`--open`) is the saturation instrument: requests are
//! *scheduled* at a fixed offered rate on a shared tick clock,
//! regardless of how fast the service answers, and each latency is
//! measured from the request's **scheduled** time — not its actual send
//! time — so queueing delay the generator itself suffered is charged to
//! the service (the coordinated-omission correction). Sweeping a list
//! of rates yields the latency-under-saturation curves (p50/p99/p999 vs
//! offered load) that tell you where the knee is; [`write_curves`]
//! emits them as CSV with a fixed schema.
//!
//! **Multi-process** (`--procs N`): one generator process tops out well
//! before a sharded cluster does, so the open loop can fan out N worker
//! processes (re-invoking the current executable with `--worker`), each
//! offering `rate / N`, and merge their counter-and-histogram summaries
//! from stdout. The merged report is indistinguishable from a single
//! generator offering the full rate.
//!
//! **Batching**: `--batch K` packs K requests per frame in closed loop
//! — the shape that amortizes framing and syscalls enough to saturate a
//! cluster from one box.

use std::io::{self, BufRead as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use br_ir::print_module;
use br_minic::{compile, HeuristicSet, Options};
use br_reorder::{reorder_module, ReorderOptions};

use crate::metrics::{Histogram, Metrics, BUCKETS};
use crate::proto2::{self, BatchItem, Client2, Frame2, ModuleRef};

/// Load-generator configuration (`brc loadgen` flags map here 1:1).
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Daemon address.
    pub addr: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Corpus passes per connection.
    pub passes: usize,
    /// Training-input bytes per reorder request.
    pub train_size: usize,
    /// Test-input bytes per measure request.
    pub input_size: usize,
    /// Send only `reorder` requests (skip `measure`), for a pure
    /// pipeline-throughput number.
    pub reorder_only: bool,
    /// Send a `shutdown` frame after the run (graceful drain).
    pub shutdown_after: bool,
    /// Requests per batch frame in closed-loop mode (1 = one request
    /// per frame).
    pub batch: usize,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: "127.0.0.1:7411".to_string(),
            connections: 4,
            passes: 4,
            train_size: 2048,
            input_size: 2048,
            reorder_only: false,
            shutdown_after: false,
            batch: 1,
        }
    }
}

impl LoadgenConfig {
    /// The CI smoke shape: 8 connections x 2 passes over the full
    /// mixed corpus at small input sizes — ≥ 64 requests in flight
    /// across the run, cold pass then warm pass.
    pub fn smoke(addr: &str) -> LoadgenConfig {
        LoadgenConfig {
            addr: addr.to_string(),
            connections: 8,
            passes: 1, // per measured pass; smoke runs two passes itself
            train_size: 512,
            input_size: 512,
            reorder_only: false,
            shutdown_after: false,
            batch: 1,
        }
    }
}

/// Aggregated results of one generator run.
#[derive(Debug)]
pub struct LoadgenReport {
    /// Requests sent.
    pub sent: u64,
    /// `ok` responses.
    pub ok: u64,
    /// `error` responses.
    pub errors: u64,
    /// Shed responses (`code::SHED`).
    pub shed: u64,
    /// Wall-clock time of the measured passes.
    pub elapsed: Duration,
    /// Client-observed request latency.
    pub latency: Histogram,
    /// Up to three example error payloads, for diagnosis.
    pub error_samples: Vec<String>,
    /// Server cache hits gained during this run (from the daemon's
    /// metrics endpoint), when it was reachable.
    pub cache_hit_delta: Option<u64>,
}

impl LoadgenReport {
    /// Achieved requests/second.
    pub fn throughput(&self) -> f64 {
        self.sent as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Shed responses as a fraction of requests sent.
    pub fn shed_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.shed as f64 / self.sent as f64
        }
    }

    /// Human-readable summary: throughput, shed rate, latency histogram.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen: {} requests in {:.2?} — {:.1} req/s; {} ok, {} error(s), {} shed ({:.2}% shed rate)",
            self.sent,
            self.elapsed,
            self.throughput(),
            self.ok,
            self.errors,
            self.shed,
            self.shed_rate() * 100.0,
        );
        for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            if let Some(d) = self.latency.quantile(q) {
                let _ = writeln!(out, "latency {label}: <= {d:.0?}");
            }
        }
        let counts = self.latency.snapshot();
        for (i, c) in counts.iter().enumerate() {
            if *c > 0 {
                let _ = writeln!(out, "  <= {:>9} us: {c}", Histogram::bucket_bound_us(i));
            }
        }
        if let Some(delta) = self.cache_hit_delta {
            let _ = writeln!(out, "server cache hits gained: {delta}");
        }
        for e in &self.error_samples {
            let _ = writeln!(out, "error sample: {e}");
        }
        out
    }
}

/// One prepared request, ready to replay.
pub struct CorpusItem {
    /// Workload name plus request kind, for diagnostics.
    pub label: String,
    /// The request opcode.
    pub kind: u8,
    /// Module operands (interned: sent by hash once the peer has them).
    pub modules: Vec<ModuleRef>,
    /// Non-module sections, in canonical order after the modules.
    pub plain: Vec<(u8, Vec<u8>)>,
}

impl CorpusItem {
    fn plain_refs(&self) -> Vec<(u8, &[u8])> {
        self.plain
            .iter()
            .map(|(id, bytes)| (*id, bytes.as_slice()))
            .collect()
    }
}

/// Build the replay corpus from the 17 bundled workloads: a `reorder`
/// request per workload, plus (unless `reorder_only`) a `measure`
/// request comparing the original against a locally reordered module.
///
/// # Errors
///
/// A workload that fails to compile or train is a hard error — the
/// corpus ships with the repo, so that is a build break, not a load
/// condition.
pub fn build_corpus(config: &LoadgenConfig) -> Result<Vec<CorpusItem>, String> {
    let mut corpus = Vec::new();
    for w in br_workloads::all() {
        let mut module = compile(w.source, &Options::with_heuristics(HeuristicSet::SET_I))
            .map_err(|e| format!("{}: compile error: {e}", w.name))?;
        br_opt::optimize(&mut module);
        let module_text = Arc::new(print_module(&module));
        let train = w.training_input(config.train_size);
        corpus.push(CorpusItem {
            label: format!("{}/reorder", w.name),
            kind: proto2::kind::REORDER,
            modules: vec![ModuleRef::new(
                proto2::sec::MODULE,
                Arc::clone(&module_text),
            )],
            plain: vec![(proto2::sec::TRAIN, train.clone())],
        });
        if config.reorder_only {
            continue;
        }
        let report = reorder_module(&module, &train, &ReorderOptions::default())
            .map_err(|t| format!("{}: training run trapped: {t}", w.name))?;
        let reordered_text = Arc::new(print_module(&report.module));
        let input = w.test_input(config.input_size);
        corpus.push(CorpusItem {
            label: format!("{}/measure", w.name),
            kind: proto2::kind::MEASURE,
            modules: vec![
                ModuleRef::new(proto2::sec::ORIGINAL, Arc::clone(&module_text)),
                ModuleRef::new(proto2::sec::REORDERED, reordered_text),
            ],
            plain: vec![(proto2::sec::INPUT, input)],
        });
    }
    Ok(corpus)
}

/// Read one server-side counter via the metrics endpoint.
fn server_counter(addr: &str, name: &str) -> Option<u64> {
    let mut client = Client2::connect(addr).ok()?;
    let response = client
        .call(&Frame2::request(proto2::kind::METRICS, &[]))
        .ok()?;
    Metrics::parse_counter(&response.payload_text(), name)
}

/// Ask the daemon or router at `addr` to drain (`brc loadgen
/// --shutdown`).
///
/// # Errors
///
/// I/O failure, or a refusal (the error carries its message).
pub fn shutdown(addr: &str) -> io::Result<()> {
    let mut client = Client2::connect(addr)?;
    let bye = client.call(&Frame2::request(proto2::kind::SHUTDOWN, &[]))?;
    if bye.kind != proto2::kind::OK {
        return Err(io::Error::other(format!(
            "shutdown refused: {}",
            bye.payload_text()
        )));
    }
    Ok(())
}

/// The three outcomes a counted request can have.
enum Outcome {
    Ok,
    Shed,
    Error(String),
}

/// Send one corpus item and classify the response.
fn send(client: &mut Client2, item: &CorpusItem) -> io::Result<Outcome> {
    let response = client.call_interned(item.kind, &item.modules, &item.plain_refs())?;
    Ok(classify(response.kind, response.code, &response.payload))
}

fn classify(kind: u8, code: u16, payload: &[u8]) -> Outcome {
    if kind == proto2::kind::OK {
        Outcome::Ok
    } else if code == proto2::code::SHED {
        Outcome::Shed
    } else {
        Outcome::Error(String::from_utf8_lossy(payload).into_owned())
    }
}

struct PassTotals {
    sent: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    latency: Histogram,
    error_samples: std::sync::Mutex<Vec<String>>,
}

impl PassTotals {
    fn new() -> PassTotals {
        PassTotals {
            sent: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            latency: Histogram::default(),
            error_samples: std::sync::Mutex::new(Vec::new()),
        }
    }

    fn count(&self, label: &str, outcome: Outcome) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Outcome::Ok => {
                self.ok.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Shed => {
                self.shed.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Error(text) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                let mut samples = self.error_samples.lock().expect("samples poisoned");
                if samples.len() < 3 {
                    samples.push(format!("{label}: {text}"));
                }
            }
        }
    }
}

/// Run `passes` trips through the corpus on every connection
/// concurrently, accumulating into `totals`.
fn run_passes(
    config: &LoadgenConfig,
    corpus: &[CorpusItem],
    passes: usize,
    totals: &PassTotals,
) -> io::Result<()> {
    let batch = config.batch.max(1);
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for conn in 0..config.connections.max(1) {
            threads.push(scope.spawn(move || -> io::Result<()> {
                let mut client = Client2::connect(&config.addr)?;
                for pass in 0..passes {
                    // Offset each connection's walk so the daemon sees
                    // mixed kinds at any instant, not N copies of the
                    // same request marching in phase.
                    let indices: Vec<usize> = (0..corpus.len())
                        .map(|i| (i + conn * 3 + pass) % corpus.len())
                        .collect();
                    for chunk in indices.chunks(batch) {
                        if batch > 1 {
                            let items: Vec<&CorpusItem> =
                                chunk.iter().map(|&i| &corpus[i]).collect();
                            let plains: Vec<Vec<(u8, &[u8])>> =
                                items.iter().map(|it| it.plain_refs()).collect();
                            let calls: Vec<BatchItem<'_>> = items
                                .iter()
                                .zip(&plains)
                                .map(|(it, plain)| {
                                    (it.kind, it.modules.as_slice(), plain.as_slice())
                                })
                                .collect();
                            let start = Instant::now();
                            let replies = client.call_batch(&calls)?;
                            let elapsed = start.elapsed();
                            for (item, reply) in items.iter().zip(replies) {
                                totals.latency.record(elapsed);
                                totals.count(
                                    &item.label,
                                    classify(reply.kind, reply.code, &reply.payload),
                                );
                            }
                        } else {
                            for &i in chunk {
                                let item = &corpus[i];
                                let start = Instant::now();
                                let outcome = send(&mut client, item)?;
                                totals.latency.record(start.elapsed());
                                totals.count(&item.label, outcome);
                            }
                        }
                    }
                }
                Ok(())
            }));
        }
        for t in threads {
            t.join().expect("loadgen connection thread panicked")?;
        }
        Ok(())
    })
}

/// Run the load generator: build the corpus, fire the passes, gather
/// the report, and optionally drain the daemon.
///
/// # Errors
///
/// Corpus build failures and connection-level I/O errors are fatal;
/// per-request error and shed responses are counted, not thrown.
pub fn run_loadgen(config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let corpus = build_corpus(config).map_err(|e| io::Error::other(format!("corpus: {e}")))?;
    let totals = PassTotals::new();
    let hits_before = server_counter(&config.addr, "cache_hits");
    let start = Instant::now();
    run_passes(config, &corpus, config.passes.max(1), &totals)?;
    let elapsed = start.elapsed();
    let hits_after = server_counter(&config.addr, "cache_hits");
    if config.shutdown_after {
        shutdown(&config.addr)?;
    }
    Ok(LoadgenReport {
        sent: totals.sent.into_inner(),
        ok: totals.ok.into_inner(),
        errors: totals.errors.into_inner(),
        shed: totals.shed.into_inner(),
        elapsed,
        latency: totals.latency,
        error_samples: totals.error_samples.into_inner().expect("samples poisoned"),
        cache_hit_delta: match (hits_before, hits_after) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        },
    })
}

/// The `--smoke` contract: a cold pass then a warm pass, with hard
/// assertions. Returns the warm-pass report and a list of violated
/// assertions (empty = pass).
///
/// # Errors
///
/// Same fatal conditions as [`run_loadgen`].
pub fn run_smoke(config: &LoadgenConfig) -> io::Result<(LoadgenReport, Vec<String>)> {
    let cold = run_loadgen(config)?;
    let warm = run_loadgen(config)?;
    let mut violations = Vec::new();
    for (label, report) in [("cold", &cold), ("warm", &warm)] {
        if report.errors > 0 {
            violations.push(format!(
                "{label} pass returned {} error frame(s): {:?}",
                report.errors, report.error_samples
            ));
        }
        if report.shed > 0 {
            violations.push(format!(
                "{label} pass was shed {} time(s) — queue too small for smoke load",
                report.shed
            ));
        }
    }
    match warm.cache_hit_delta {
        Some(0) => violations.push("warm pass gained zero cache hits".to_string()),
        Some(_) => {}
        None => violations.push("daemon metrics endpoint unreachable".to_string()),
    }
    Ok((warm, violations))
}

/// Open-loop run configuration: a fixed offered rate for a fixed
/// duration, from a number of connections, in one process.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// The closed-loop knobs reused by the open loop (address, corpus
    /// sizes).
    pub base: LoadgenConfig,
    /// Offered load in requests/second (this process's share).
    pub rate: f64,
    /// How long to offer it.
    pub duration: Duration,
}

/// Results of one open-loop run (or a merge of several workers').
#[derive(Debug)]
pub struct OpenReport {
    /// Offered load across all workers, requests/second.
    pub offered: f64,
    /// Requests sent.
    pub sent: u64,
    /// `ok` responses.
    pub ok: u64,
    /// Error responses.
    pub errors: u64,
    /// Shed responses.
    pub shed: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Latency measured from each request's *scheduled* time
    /// (coordinated-omission corrected).
    pub latency: Histogram,
    /// Up to three example error payloads.
    pub error_samples: Vec<String>,
}

impl OpenReport {
    /// Achieved (answered) requests/second.
    pub fn achieved(&self) -> f64 {
        self.sent as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// One human-readable line per run, for the report section.
    pub fn render_line(&self) -> String {
        let q = |q: f64| self.latency.quantile(q).map_or(0, |d| d.as_micros() as u64);
        format!(
            "offered {:>8.0} req/s -> achieved {:>8.1} req/s; {} ok, {} error(s), {} shed; p50 {} us, p99 {} us, p999 {} us",
            self.offered,
            self.achieved(),
            self.ok,
            self.errors,
            self.shed,
            q(0.50),
            q(0.99),
            q(0.999),
        )
    }

    /// Serialize counters + histogram for the `--worker` stdout
    /// protocol (one line, parsed by [`parse_worker_summary`]).
    pub fn worker_summary(&self) -> String {
        let buckets: Vec<String> = self.latency.snapshot().iter().map(u64::to_string).collect();
        format!(
            "loadgen-worker sent={} ok={} errors={} shed={} elapsed_us={} buckets={}",
            self.sent,
            self.ok,
            self.errors,
            self.shed,
            self.elapsed.as_micros(),
            buckets.join(",")
        )
    }
}

/// Parse a worker's summary line back into counters.
///
/// # Errors
///
/// Describes the malformed field; a worker that crashes mid-run will
/// fail here and the parent reports it.
pub fn parse_worker_summary(line: &str) -> Result<OpenReport, String> {
    let rest = line
        .trim()
        .strip_prefix("loadgen-worker ")
        .ok_or_else(|| format!("not a worker summary: {line:?}"))?;
    let mut sent = None;
    let mut ok = None;
    let mut errors = None;
    let mut shed = None;
    let mut elapsed_us = None;
    let mut buckets: Option<Vec<u64>> = None;
    for field in rest.split(' ') {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("bad field {field:?}"))?;
        match key {
            "sent" => sent = value.parse().ok(),
            "ok" => ok = value.parse().ok(),
            "errors" => errors = value.parse().ok(),
            "shed" => shed = value.parse().ok(),
            "elapsed_us" => elapsed_us = value.parse().ok(),
            "buckets" => {
                buckets = value
                    .split(',')
                    .map(|v| v.parse().ok())
                    .collect::<Option<Vec<u64>>>()
            }
            _ => return Err(format!("unknown field {key:?}")),
        }
    }
    let buckets = buckets.ok_or("missing buckets")?;
    if buckets.len() != BUCKETS {
        return Err(format!("expected {BUCKETS} buckets, got {}", buckets.len()));
    }
    let latency = Histogram::default();
    for (i, n) in buckets.iter().enumerate() {
        latency.add_bucket(i, *n);
    }
    Ok(OpenReport {
        offered: 0.0,
        sent: sent.ok_or("missing sent")?,
        ok: ok.ok_or("missing ok")?,
        errors: errors.ok_or("missing errors")?,
        shed: shed.ok_or("missing shed")?,
        elapsed: Duration::from_micros(elapsed_us.ok_or("missing elapsed_us")?),
        latency,
        error_samples: Vec::new(),
    })
}

/// Run one open-loop pass in this process: requests fire on a shared
/// tick clock at `rate`/s for `duration`, spread over the configured
/// connections; latency is charged from the scheduled tick.
///
/// # Errors
///
/// Corpus build failures and connection-level I/O errors are fatal.
pub fn run_open_loop(config: &OpenLoopConfig) -> io::Result<OpenReport> {
    let corpus =
        build_corpus(&config.base).map_err(|e| io::Error::other(format!("corpus: {e}")))?;
    let totals = PassTotals::new();
    let ticks = AtomicU64::new(0);
    let rate = config.rate.max(0.1);
    let start = Instant::now();
    let end = start + config.duration;
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for _ in 0..config.base.connections.max(1) {
            let totals = &totals;
            let ticks = &ticks;
            let corpus = &corpus;
            threads.push(scope.spawn(move || -> io::Result<()> {
                let mut client = Client2::connect(&config.base.addr)?;
                loop {
                    let n = ticks.fetch_add(1, Ordering::Relaxed);
                    let scheduled = start + Duration::from_secs_f64(n as f64 / rate);
                    if scheduled >= end {
                        return Ok(());
                    }
                    let now = Instant::now();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    let item = &corpus[(n as usize) % corpus.len()];
                    let outcome = send(&mut client, item)?;
                    // Measured from the *scheduled* time: if this
                    // connection was stuck waiting on a slow response,
                    // the delay the next request suffered is service
                    // latency, not generator slack.
                    totals.latency.record(scheduled.elapsed());
                    totals.count(&item.label, outcome);
                }
            }));
        }
        for t in threads {
            t.join().expect("open-loop connection thread panicked")?;
        }
        Ok::<(), io::Error>(())
    })?;
    Ok(OpenReport {
        offered: rate,
        sent: totals.sent.into_inner(),
        ok: totals.ok.into_inner(),
        errors: totals.errors.into_inner(),
        shed: totals.shed.into_inner(),
        elapsed: start
            .elapsed()
            .min(config.duration.max(Duration::from_millis(1))),
        latency: totals.latency,
        error_samples: totals.error_samples.into_inner().expect("samples poisoned"),
    })
}

/// Run an open-loop pass across `procs` worker processes, each offering
/// `rate / procs`, and merge their summaries. `worker_args` must
/// re-invoke the current executable in `--worker` mode with the
/// remaining knobs (the `brc loadgen` layer builds it).
///
/// # Errors
///
/// A worker that cannot be spawned, exits nonzero, or prints no
/// parseable summary is fatal.
pub fn run_open_multiproc(
    config: &OpenLoopConfig,
    procs: usize,
    worker_args: &[String],
) -> io::Result<OpenReport> {
    let exe = std::env::current_exe()?;
    let share = config.rate / procs.max(1) as f64;
    let mut children = Vec::new();
    for _ in 0..procs.max(1) {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(worker_args)
            .arg("--rate")
            .arg(format!("{share}"))
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit());
        children.push(cmd.spawn()?);
    }
    let mut merged = OpenReport {
        offered: config.rate,
        sent: 0,
        ok: 0,
        errors: 0,
        shed: 0,
        elapsed: config.duration,
        latency: Histogram::default(),
        error_samples: Vec::new(),
    };
    let mut max_elapsed = Duration::ZERO;
    for mut child in children {
        let stdout = child.stdout.take().expect("stdout piped");
        let mut summary = None;
        for line in io::BufReader::new(stdout).lines() {
            let line = line?;
            if line.starts_with("loadgen-worker ") {
                summary = Some(parse_worker_summary(&line).map_err(io::Error::other)?);
            }
        }
        let status = child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("loadgen worker failed: {status}")));
        }
        let report = summary.ok_or_else(|| io::Error::other("worker printed no summary"))?;
        merged.sent += report.sent;
        merged.ok += report.ok;
        merged.errors += report.errors;
        merged.shed += report.shed;
        max_elapsed = max_elapsed.max(report.elapsed);
        for (i, n) in report.latency.snapshot().iter().enumerate() {
            merged.latency.add_bucket(i, *n);
        }
    }
    if max_elapsed > Duration::ZERO {
        merged.elapsed = max_elapsed;
    }
    Ok(merged)
}

/// Sweep a list of offered rates and collect one [`OpenReport`] per
/// rate — the latency-under-saturation curve. With `procs > 1` each
/// point fans out over worker processes.
///
/// # Errors
///
/// Fatal conditions of the underlying runs.
pub fn run_curves(
    config: &OpenLoopConfig,
    rates: &[f64],
    procs: usize,
    worker_args: &[String],
) -> io::Result<Vec<OpenReport>> {
    let mut rows = Vec::new();
    for &rate in rates {
        let point = OpenLoopConfig {
            rate,
            ..config.clone()
        };
        let report = if procs > 1 {
            run_open_multiproc(&point, procs, worker_args)?
        } else {
            run_open_loop(&point)?
        };
        rows.push(report);
    }
    Ok(rows)
}

/// Write curve rows as CSV with a fixed schema:
/// `offered_rps,achieved_rps,sent,ok,errors,shed,p50_us,p90_us,p99_us,p999_us`.
///
/// The schema, row order (ascending offered load), and quantile set are
/// fixed so downstream plots regenerate deterministically from any run.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn write_curves(path: &std::path::Path, rows: &[OpenReport]) -> io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "offered_rps,achieved_rps,sent,ok,errors,shed,p50_us,p90_us,p99_us,p999_us"
    )?;
    for r in rows {
        let q = |q: f64| r.latency.quantile(q).map_or(0, |d| d.as_micros() as u64);
        writeln!(
            out,
            "{:.0},{:.1},{},{},{},{},{},{},{},{}",
            r.offered,
            r.achieved(),
            r.sent,
            r.ok,
            r.errors,
            r.shed,
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999),
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_every_workload_both_kinds() {
        let config = LoadgenConfig {
            train_size: 256,
            input_size: 256,
            ..LoadgenConfig::default()
        };
        let corpus = build_corpus(&config).expect("corpus builds");
        assert_eq!(corpus.len(), br_workloads::all().len() * 2);
        assert!(corpus.iter().any(|c| c.kind == proto2::kind::REORDER));
        assert!(corpus.iter().any(|c| c.kind == proto2::kind::MEASURE));
        // Every module operand's hash matches its text.
        for item in &corpus {
            assert!(!item.modules.is_empty());
            for m in &item.modules {
                assert_eq!(m.hash, proto2::module_hash(m.text.as_bytes()));
            }
        }

        let reorder_only = LoadgenConfig {
            reorder_only: true,
            ..config
        };
        let corpus = build_corpus(&reorder_only).expect("corpus builds");
        assert_eq!(corpus.len(), br_workloads::all().len());
        assert!(corpus.iter().all(|c| c.kind == proto2::kind::REORDER));
    }

    #[test]
    fn worker_summary_roundtrips() {
        let latency = Histogram::default();
        latency.record(Duration::from_micros(100));
        latency.record(Duration::from_micros(5000));
        let report = OpenReport {
            offered: 500.0,
            sent: 10,
            ok: 8,
            errors: 1,
            shed: 1,
            elapsed: Duration::from_millis(2000),
            latency,
            error_samples: Vec::new(),
        };
        let parsed = parse_worker_summary(&report.worker_summary()).expect("parses");
        assert_eq!(parsed.sent, 10);
        assert_eq!(parsed.ok, 8);
        assert_eq!(parsed.errors, 1);
        assert_eq!(parsed.shed, 1);
        assert_eq!(parsed.elapsed, Duration::from_millis(2000));
        assert_eq!(parsed.latency.snapshot(), report.latency.snapshot());
        assert!(parse_worker_summary("something else").is_err());
        assert!(parse_worker_summary("loadgen-worker sent=1").is_err());
    }

    #[test]
    fn curves_csv_schema_is_fixed() {
        let dir = std::env::temp_dir().join(format!("br-loadgen-curves-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("latency_curves.csv");
        let rows = vec![OpenReport {
            offered: 1000.0,
            sent: 5000,
            ok: 5000,
            errors: 0,
            shed: 0,
            elapsed: Duration::from_secs(5),
            latency: Histogram::default(),
            error_samples: Vec::new(),
        }];
        write_curves(&path, &rows).expect("writes");
        let text = std::fs::read_to_string(&path).expect("readable");
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some("offered_rps,achieved_rps,sent,ok,errors,shed,p50_us,p90_us,p99_us,p999_us")
        );
        assert_eq!(lines.next(), Some("1000,1000.0,5000,5000,0,0,0,0,0,0"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
