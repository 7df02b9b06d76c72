//! `serve`: an in-process `Server` under a closed loop of brs2 requests.
//!
//! The server runs with 2 workers and a fresh cache directory on
//! loopback; everything else is `ServeConfig`'s default. Traffic comes
//! in rounds shaped like `brc loadgen`'s default: each round draws a
//! fresh corpus (every program's `reorder` on a new training input and
//! its `measure` on a new test input) and makes `PASSES` passes over
//! it, each in a seeded order. The first pass is cold, so every request
//! in it is first-seen (the pipeline, then a cache write); the later
//! passes repeat it (response cache, interning, framing). One request
//! in `PASSES` is therefore first-seen.
//!
//! Two generator threads, one `Client2` connection each, split every
//! pass between them and send each request when the previous answer
//! arrives. A pass ends when both have finished their share, so no
//! repeat overtakes the first-seen request it repeats.
//!
//! The loop is closed because on a shared 2-core machine an open loop
//! turned every stall of the machine into a queue: at 400 requests/s the
//! median latency of a run moved between 0.45 and 3.1 ms across ten
//! seeds. With one request in flight per connection a stall delays two
//! requests, not the hundreds scheduled behind it.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use br_ir::{parse_module, print_module};
use br_reorder::{reorder_module, ReorderOptions};
use br_serve::proto2::{self, kind, sec, Frame2};
use br_serve::{Client2, ModuleRef, ServeConfig, Server};
use br_vm::VmOptions;
use br_workloads::rng::SmallRng;
use br_workloads::InputSpec;

use crate::stats::{
    derive, geomean, median, ms, normalised, quantile, reseed, timed_setup, Reference, SETUPS,
};
use crate::trace::Tracer;
use crate::{Args, Report};

/// Passes over each round's corpus, the first cold: `brc loadgen`'s
/// default of 4.
const PASSES: usize = 4;
/// Whole rounds a timed phase must reach: the latency percentiles need
/// at least these, and `peak_rss_mb` and `modelled_ratio` are taken over
/// exactly these, so that they do not depend on the machine's speed.
const FIXED_ROUNDS: usize = 8;
/// In the traced phase, every `PING_EVERY`-th request of a connection is
/// followed by a brs2 `health` frame, which the server answers on the
/// connection without a worker, cache or pipeline.
const PING_EVERY: usize = 8;
const TRAIN_BYTES: usize = 512;
const INPUT_BYTES: usize = 512;
const CONNECTIONS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Key {
    program: usize,
    measure: bool,
    variant: u64,
}

struct Program {
    name: &'static str,
    training: InputSpec,
    test: InputSpec,
    module: ModuleRef,
    reordered: ModuleRef,
}

/// One round's corpus: every key with its input bytes.
type Round = Arc<Vec<(Key, Vec<u8>)>>;

/// One connection's share of a pass: positions in the round, each with
/// its place in the phase's schedule.
struct Job {
    round: Round,
    first_seen: bool,
    items: Vec<(usize, usize)>,
}

/// One request and what happened to it.
struct Sent {
    /// Place in the phase's schedule.
    index: usize,
    key: Key,
    /// Sent in the cold pass of its round.
    first_seen: bool,
    sent: Duration,
    done: Duration,
    by_hash: bool,
    /// Digest of the checked part of the answer (the module section of a
    /// `reorder`, the instruction row of a `measure`), or what went wrong.
    answer: Result<u64, String>,
    /// A `measure` answer's original and reordered instruction counts.
    insts: Option<(u64, u64)>,
}

/// What a closed-loop phase produced, in schedule order.
struct Phase {
    sent: Vec<Sent>,
    tracers: Vec<Tracer>,
    /// Round trips of `health` frames, in ms (traced phases only).
    pings: Vec<f64>,
    /// The median reference slice of each round in ms; a slice runs
    /// after each pass, while no request is in flight.
    refs: Vec<f64>,
    /// Peak resident set size after the first `FIXED_ROUNDS` rounds.
    /// The response cache grows with every round, so at the end of the
    /// run the peak would count the rounds the machine's speed allowed.
    rss_mb: Option<f64>,
}

/// The seeded source of rounds.
struct Traffic {
    rng: SmallRng,
    next_variant: u64,
    inputs: HashMap<Key, Vec<u8>>,
}

impl Traffic {
    /// A fresh corpus: every program's `reorder` and `measure` on new
    /// inputs.
    fn round(&mut self, programs: &[Program]) -> Round {
        let mut corpus = Vec::with_capacity(2 * programs.len());
        for (program, p) in programs.iter().enumerate() {
            for measure in [false, true] {
                self.next_variant += 1;
                let key = Key {
                    program,
                    measure,
                    variant: self.next_variant,
                };
                let spec = if measure { p.test } else { p.training };
                let bytes = InputSpec::new(spec.kind, derive(spec.seed, key.variant))
                    .generate(if measure { INPUT_BYTES } else { TRAIN_BYTES });
                self.inputs.insert(key, bytes.clone());
                corpus.push((key, bytes));
            }
        }
        Arc::new(corpus)
    }

    /// A seeded permutation of `0..n` (Fisher-Yates).
    fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.rng.next_u64() % (i as u64 + 1)) as usize);
        }
        order
    }
}

struct State {
    programs: Vec<Program>,
    server: Option<(
        thread::JoinHandle<std::io::Result<()>>,
        Arc<std::sync::atomic::AtomicBool>,
    )>,
    addr: String,
    metrics: Arc<br_serve::metrics::Metrics>,
    traffic: Traffic,
    /// Answer digests the oracle has accepted per key: a cache hit must
    /// repeat one of them.
    accepted: HashMap<Key, Vec<u64>>,
    /// In-process pipeline time of each `reorder` key, in ms.
    compute_ms: Vec<f64>,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some((handle, stop)) = self.server.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
    }
}

fn setup(args: &Args, attempt: usize) -> Result<State, String> {
    let cache = args.scratch.join(format!("serve-cache-{attempt}"));
    let _ = std::fs::remove_dir_all(&cache);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_dir: Some(cache),
        ..ServeConfig::default()
    };
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr().to_string();
    let metrics = server.metrics();
    let stop = server.shutdown_handle();
    let handle = thread::spawn(move || server.wait());
    let mut programs = Vec::new();
    for w in br_workloads::all() {
        let optimized = crate::compile::front_end(w.source, br_minic::HeuristicSet::SET_I)?;
        let training = reseed(w.training, args.seed, 5);
        let reordered = reorder_module(
            &optimized,
            &training.generate(TRAIN_BYTES),
            &ReorderOptions::default(),
        )
        .map_err(|t| format!("{}: training trapped: {t}", w.name))?;
        programs.push(Program {
            name: w.name,
            training,
            test: reseed(w.test, args.seed, 5),
            module: ModuleRef::new(sec::MODULE, Arc::new(print_module(&optimized))),
            reordered: ModuleRef::new(sec::REORDERED, Arc::new(print_module(&reordered.module))),
        });
    }
    let mut state = State {
        programs,
        server: Some((handle, stop)),
        addr,
        metrics,
        traffic: Traffic {
            rng: SmallRng::seed_from_u64(derive(args.seed, 6)),
            next_variant: 0,
            inputs: HashMap::new(),
        },
        accepted: HashMap::new(),
        compute_ms: Vec::new(),
    };
    // Warm-up: one whole round, so intern tables and connections are set
    // up and every program has been through the pipeline before timing.
    let mut report = Report::default();
    state.phase(Duration::ZERO, false, &mut report)?;
    if let Some(p) = report.problems.first() {
        return Err(format!("warm-up: {p}"));
    }
    Ok(state)
}

impl State {
    /// Whole rounds in a closed loop until `window` has passed (at least
    /// one round); every answer is then checked by the oracle.
    fn phase(
        &mut self,
        window: Duration,
        tracing: bool,
        report: &mut Report,
    ) -> Result<Phase, String> {
        let start = Instant::now();
        let (programs, addr, traffic) = (&self.programs, &self.addr, &mut self.traffic);
        let mut out = Phase {
            sent: Vec::new(),
            tracers: Vec::new(),
            pings: Vec::new(),
            refs: Vec::new(),
            rss_mb: None,
        };
        thread::scope(|scope| {
            let (done_tx, done_rx) = mpsc::channel();
            let mut lanes = Vec::new();
            for _ in 0..CONNECTIONS {
                let (tx, rx) = mpsc::channel::<Job>();
                let done = done_tx.clone();
                let tracer = tracing.then(|| Tracer::new(start));
                lanes.push((
                    tx,
                    scope.spawn(move || lane(programs, addr, start, rx, done, tracer)),
                ));
            }
            drop(done_tx);
            let ended = || "generator thread ended early".to_string();
            let mut reference = Reference::new();
            let mut drive = || -> Result<(), String> {
                let mut index = 0;
                loop {
                    let round = traffic.round(programs);
                    for pass in 0..PASSES {
                        let order = traffic.shuffled(round.len());
                        for (c, (tx, _)) in lanes.iter().enumerate() {
                            let items = order
                                .iter()
                                .enumerate()
                                .skip(c)
                                .step_by(CONNECTIONS)
                                .map(|(i, &at)| (index + i, at))
                                .collect();
                            let job = Job {
                                round: Arc::clone(&round),
                                first_seen: pass == 0,
                                items,
                            };
                            tx.send(job).map_err(|_| ended())?;
                        }
                        for _ in 0..CONNECTIONS {
                            out.sent.extend(done_rx.recv().map_err(|_| ended())??);
                        }
                        index += round.len();
                        reference.slice();
                    }
                    reference.end_pass();
                    if reference.per_pass.len() == FIXED_ROUNDS {
                        out.rss_mb = Some(crate::stats::peak_rss_mb()?);
                    }
                    if start.elapsed() >= window {
                        return Ok(());
                    }
                }
            };
            let result = drive();
            out.refs = std::mem::take(&mut reference.per_pass);
            for (tx, handle) in lanes {
                drop(tx);
                let (tracer, pings) = handle.join().expect("generator thread panicked");
                out.tracers.extend(tracer);
                out.pings.extend(pings);
            }
            result
        })?;
        out.sent.sort_by_key(|s| s.index);
        self.verify(&out.sent, report);
        Ok(out)
    }

    /// Check every answer against the in-process pipeline, outside any
    /// timed span.
    fn verify(&mut self, sent: &[Sent], report: &mut Report) {
        let mut fresh: Vec<Key> = sent
            .iter()
            .filter(|s| s.answer.is_ok() && !self.accepted.contains_key(&s.key))
            .map(|s| s.key)
            .collect();
        fresh.sort_by_key(|k| k.variant);
        fresh.dedup();
        let expected = self.in_process(&fresh);
        for s in sent {
            let problem = match &s.answer {
                Err(e) => Some(e.clone()),
                Ok(got) => match self.accepts(s.key, *got, &expected) {
                    Ok(true) => None,
                    Ok(false) => Some(format!(
                        "{} {}: response differs from the in-process pipeline",
                        self.programs[s.key.program].name,
                        if s.key.measure { "measure" } else { "reorder" }
                    )),
                    Err(e) => Some(e),
                },
            };
            report.op(problem);
        }
    }

    /// The in-process pipeline's answer digest for each of `keys`,
    /// computed on `CONNECTIONS` threads; `reorder` times go to
    /// `compute_ms`.
    fn in_process(&mut self, keys: &[Key]) -> HashMap<Key, Result<u64, String>> {
        let (programs, inputs) = (&self.programs, &self.traffic.inputs);
        let share = keys.len().div_ceil(CONNECTIONS).max(1);
        let answers: Vec<(Key, Result<u64, String>, f64)> = thread::scope(|scope| {
            let handles: Vec<_> = keys
                .chunks(share)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&key| {
                                let (p, bytes) = (&programs[key.program], &inputs[&key]);
                                let t = Instant::now();
                                let text = if key.measure {
                                    measure_in_process(p, bytes)
                                } else {
                                    reorder_in_process(p, bytes)
                                };
                                (key, text.map(|t| digest(&t)), ms(t.elapsed()))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        let mut expected = HashMap::new();
        for (key, answer, took) in answers {
            if !key.measure {
                self.compute_ms.push(took);
            }
            expected.insert(key, answer);
        }
        expected
    }

    /// Whether `got`, an answer's digest, is what the in-process pipeline
    /// gives for `key`. A repeat of an answer already accepted for the
    /// key (a cache hit) is not re-run. `reorder` is not deterministic
    /// call to call, so a differing `reorder` answer is re-run until one
    /// matches (`compile::one_of_outputs`).
    fn accepts(
        &mut self,
        key: Key,
        got: u64,
        expected: &HashMap<Key, Result<u64, String>>,
    ) -> Result<bool, String> {
        let accepted = self.accepted.entry(key).or_default();
        if accepted.contains(&got) {
            return Ok(true);
        }
        let ok = match expected.get(&key) {
            Some(Err(e)) => return Err(e.clone()),
            Some(Ok(first)) if *first == got => true,
            _ if key.measure => false,
            _ => {
                let (p, bytes) = (&self.programs[key.program], &self.traffic.inputs[&key]);
                crate::compile::one_of_outputs(&got, || {
                    reorder_in_process(p, bytes).map(|t| digest(&t))
                })?
            }
        };
        if ok {
            accepted.push(got);
        }
        Ok(ok)
    }
}

/// One generator thread: a `Client2` connection that sends each job's
/// requests in order, each when the previous answer has arrived, and
/// reports what happened per job. Returns its spans and `health` round
/// trips when tracing.
fn lane(
    programs: &[Program],
    addr: &str,
    start: Instant,
    jobs: mpsc::Receiver<Job>,
    done: mpsc::Sender<Result<Vec<Sent>, String>>,
    mut tracer: Option<Tracer>,
) -> (Option<Tracer>, Vec<f64>) {
    let mut pings = Vec::new();
    let mut client = match Client2::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            let _ = done.send(Err(format!("connect {addr}: {e}")));
            return (tracer, pings);
        }
    };
    let mut known = HashSet::new();
    let mut sent_here = 0;
    for job in jobs {
        let mut out = Vec::with_capacity(job.items.len());
        for &(index, at) in &job.items {
            let (key, bytes) = &job.round[at];
            let p = &programs[key.program];
            let (k, modules, plain_id) = if key.measure {
                let original = ModuleRef {
                    body_sec: sec::ORIGINAL,
                    ..p.module.clone()
                };
                (
                    kind::MEASURE,
                    vec![original, p.reordered.clone()],
                    sec::INPUT,
                )
            } else {
                (kind::REORDER, vec![p.module.clone()], sec::TRAIN)
            };
            let plain = [(plain_id, bytes.as_slice())];
            let by_hash = modules.iter().all(|m| known.contains(&m.hash));
            if let Some(tr) = tracer.as_mut() {
                tr.set_op((index + 1) as u64);
                tr.enter("serve.encode");
                std::hint::black_box(proto2::request_payload(&modules, &plain, |h| {
                    known.contains(&h)
                }));
                tr.exit();
                tr.enter("serve.call");
            }
            let sent = start.elapsed();
            let response = client.call_interned(k, &modules, &plain);
            let done_at = start.elapsed();
            if let Some(tr) = tracer.as_mut() {
                tr.exit();
            }
            let mut insts = None;
            let answer = match response {
                Ok(f) if f.kind == kind::OK => {
                    known.extend(modules.iter().map(|m| m.hash));
                    let sections = match tracer.as_mut() {
                        Some(tr) => tr.span("serve.decode", || decode(&f.payload)),
                        None => decode(&f.payload),
                    };
                    let part = sections.and_then(|secs| checked_part(&secs, key.measure));
                    if key.measure {
                        insts = part.as_deref().and_then(insts_row);
                    }
                    part.map(|part| digest(&part))
                        .ok_or_else(|| "malformed response payload".to_string())
                }
                Ok(f) => Err(format!(
                    "error response code {}: {}",
                    f.code,
                    f.payload_text()
                )),
                Err(e) => Err(format!("request failed: {e}")),
            };
            out.push(Sent {
                index,
                key: *key,
                first_seen: job.first_seen,
                sent,
                done: done_at,
                by_hash,
                answer,
                insts,
            });
            sent_here += 1;
            if tracer.is_some() && sent_here % PING_EVERY == 0 {
                let t = Instant::now();
                match client.call(&Frame2::request(kind::HEALTH, &[])) {
                    Ok(f) if f.kind == kind::OK => pings.push(ms(t.elapsed())),
                    other => {
                        let why =
                            other.map_or_else(|e| e.to_string(), |f| format!("code {}", f.code));
                        let _ = done.send(Err(format!("health: {why}")));
                        return (tracer, pings);
                    }
                }
            }
        }
        if done.send(Ok(out)).is_err() {
            break;
        }
    }
    (tracer, pings)
}

/// What the reorder endpoint computes, in process: parse the printed
/// module, run the certifying pipeline, print the result.
fn reorder_in_process(p: &Program, train: &[u8]) -> Result<String, String> {
    let module = parse_module(&p.module.text).map_err(|e| e.to_string())?;
    let opts = ReorderOptions {
        validate: true,
        certify: true,
        ..ReorderOptions::default()
    };
    let r = reorder_module(&module, train, &opts).map_err(|t| t.to_string())?;
    Ok(print_module(&r.module))
}

/// The instruction row the measure endpoint answers, from in-process VM
/// runs of the original and reordered modules.
fn measure_in_process(p: &Program, input: &[u8]) -> Result<String, String> {
    let vm = VmOptions::default();
    let parse = |m: &ModuleRef| parse_module(&m.text).map_err(|e| e.to_string());
    let a = br_vm::run(&parse(&p.module)?, input, &vm).map_err(|t| t.to_string())?;
    let b = br_vm::run(&parse(&p.reordered)?, input, &vm).map_err(|t| t.to_string())?;
    let pct = br_vm::pct_change(a.stats.insts, b.stats.insts);
    Ok(format!(
        "insts,{},{},{pct:.4}",
        a.stats.insts, b.stats.insts
    ))
}

/// The part of an answer the oracle checks: a `reorder`'s module text,
/// a `measure`'s instruction row.
fn checked_part(sections: &HashMap<String, &[u8]>, measure: bool) -> Option<String> {
    if measure {
        let csv = std::str::from_utf8(sections.get("csv")?).ok()?;
        csv.lines().nth(1).map(str::to_string)
    } else {
        String::from_utf8(sections.get("module")?.to_vec()).ok()
    }
}

/// The original and reordered counts of an `insts,<a>,<b>,<pct>` row.
fn insts_row(row: &str) -> Option<(u64, u64)> {
    let mut fields = row.split(',');
    if fields.next()? != "insts" {
        return None;
    }
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// Geomean of reordered / original instructions over the first-seen
/// `measure` answers of the first `FIXED_ROUNDS` rounds, which the
/// seed alone fixes.
fn insts_ratio(state: &State, sent: &[Sent]) -> Result<f64, String> {
    let wanted = FIXED_ROUNDS * state.programs.len();
    let ratios: Vec<f64> = sent
        .iter()
        .filter(|s| s.first_seen && s.key.measure)
        .take(wanted)
        .map(|s| s.insts.map(|(a, b)| b as f64 / a as f64))
        .collect::<Option<_>>()
        .ok_or("a measure answer had no instruction row")?;
    if ratios.len() < wanted {
        return Err(format!(
            "{} measure answers, fewer than {wanted}",
            ratios.len()
        ));
    }
    Ok(geomean(&ratios))
}

fn digest(text: &str) -> u64 {
    proto2::module_hash(text.as_bytes())
}

/// The named sections of a response payload (the `brs1` section stream
/// that brs2 compute responses carry verbatim: `name len\n bytes \n`).
fn decode(payload: &[u8]) -> Option<HashMap<String, &[u8]>> {
    let mut out = HashMap::new();
    let mut rest = payload;
    while !rest.is_empty() {
        let nl = rest.iter().position(|&b| b == b'\n')?;
        let header = std::str::from_utf8(&rest[..nl]).ok()?;
        let (name, len) = header.split_once(' ')?;
        let len: usize = len.parse().ok()?;
        let body = rest.get(nl + 1..nl + 1 + len)?;
        out.insert(name.to_string(), body);
        rest = rest.get(nl + 2 + len..)?;
    }
    Some(out)
}

/// Round-trip latency of each request, in ms.
fn latencies(sent: &[Sent]) -> Vec<f64> {
    sent.iter().map(|s| ms(s.done - s.sent)).collect()
}

/// Quantile `q` of the normalised latency of every request of the whole
/// rounds, each divided by the reference slices of its round. At least
/// `FIXED_ROUNDS` rounds are required.
fn latency(state: &State, phase: &Phase, q: f64) -> Result<f64, String> {
    let lat = latencies(&phase.sent);
    let chunk = FIXED_ROUNDS * PASSES * 2 * state.programs.len();
    if lat.len() < chunk {
        return Err(format!(
            "{} requests are fewer than {FIXED_ROUNDS} rounds ({chunk}); raise --seconds",
            lat.len()
        ));
    }
    let round = PASSES * 2 * state.programs.len();
    Ok(normalised(&lat, round, &phase.refs, q))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut attempt = 0;
    let (setup_s, mut state) = timed_setup(SETUPS, || {
        attempt += 1;
        setup(args, attempt)
    })?;
    if args.trace {
        return traced(args, &mut state, report);
    }
    let phase = state.phase(args.window, false, &mut report)?;
    report.rss_mb = phase.rss_mb;
    let op_norm = [latency(&state, &phase, 0.5)?, latency(&state, &phase, 0.9)?];
    // The paper's Table 4 as the `measure` endpoint answers it.
    report.end_to_end(op_norm, insts_ratio(&state, &phase.sent)?, setup_s)?;
    Ok(report)
}

fn traced(args: &Args, state: &mut State, mut report: Report) -> Result<Report, String> {
    let half = args.window / 2;
    let untraced = state.phase(half, false, &mut report)?.sent;
    let compute_before = state.compute_ms.len();
    let traced = state.phase(half, true, &mut report)?;
    let sent = &traced.sent;
    let mut tracers = traced.tracers.into_iter();
    let mut tr = tracers.next().ok_or("no generator traced")?;
    for t in tracers {
        tr.absorb(t);
    }
    let totals = tr.totals();
    let per_us = |name: &str| {
        let (n, _, self_ns) = totals[name];
        self_ns as f64 / 1e3 / n as f64
    };
    report.metric("serve.encode_us", per_us("serve.encode"), "us");
    report.metric("serve.decode_us", per_us("serve.decode"), "us");
    let rtt = |first_seen: bool| -> Vec<f64> {
        sent.iter()
            .filter(|s| s.first_seen == first_seen)
            .map(|s| ms(s.done - s.sent))
            .collect()
    };
    let (hits, misses) = (rtt(false), rtt(true));
    report.metric("serve.hit_ms_p50", median(&hits), "ms");
    report.metric("serve.miss_ms_p50", median(&misses), "ms");
    report.metric("serve.miss_ms_p90", quantile(&misses, 0.9), "ms");
    report.metric("serve.wire_ms", median(&traced.pings), "ms");
    let compute = &state.compute_ms[compute_before..];
    report.metric("serve.compute_ms", crate::stats::mean(compute), "ms");
    let m = &state.metrics;
    let hits_total = m.cache_hits.load(Ordering::Relaxed) as f64;
    let misses_total = m.cache_misses.load(Ordering::Relaxed) as f64;
    report.metric(
        "serve.cache_hit_share",
        hits_total / (hits_total + misses_total),
        "ratio",
    );
    let need = m.need_module.load(Ordering::Relaxed) as f64;
    let by_hash = sent.iter().chain(&untraced).filter(|s| s.by_hash).count() as f64;
    report.metric(
        "serve.intern_hit_share",
        if by_hash > 0.0 {
            (by_hash - need).max(0.0) / by_hash
        } else {
            0.0
        },
        "ratio",
    );
    report.metric("serve.need_module", need, "count");
    report.metric("serve.shed", m.shed.load(Ordering::Relaxed) as f64, "count");
    report.metric(
        "serve.expired",
        m.expired.load(Ordering::Relaxed) as f64,
        "count",
    );
    report.metric("vm.run_setup_us", crate::execute::run_setup_us()?, "us");
    report.metric(
        "trace.overhead_pct",
        (median(&latencies(sent)) / median(&latencies(&untraced)) - 1.0) * 100.0,
        "%",
    );
    tr.write_tsv(&crate::trace::spans_path("serve", args.seed))?;
    Ok(report)
}
