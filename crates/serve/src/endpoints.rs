//! The daemon's compute endpoints: `reorder`, `measure`, `profile`.
//!
//! Each handler is a pure function from a request frame to a response
//! frame — no connection state, no global state beyond the response
//! cache — which is what lets the worker pool run them on any thread
//! and `catch_unwind` treat a panic as just another error response.
//!
//! Payloads reuse the repo's existing text formats: modules travel as
//! printed IR (`br_ir::print_module` / `parse_module`), results as CSV
//! rows and the validator's `Display` lines. See [`crate::proto`] for
//! the framing.
//!
//! **Response cache.** Responses are content-addressed in a
//! [`br_sweep::cache::ArtifactCache`] — the same store, key scheme
//! (length-delimited FNV-1a) and format-version discipline the sweep
//! engine uses — keyed by (endpoint, module text, options, input
//! bytes). The pipeline is deterministic, so two requests that agree on
//! those bytes have byte-identical responses; a warm daemon answers
//! repeat traffic without touching the VM at all.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use br_ir::{parse_module, print_module, Module};
use br_reorder::pipeline::SequenceKind;
use br_reorder::profile::plan_ranges;
use br_reorder::{
    detect_all, instrument_module, profiles_from_run, reorder_module, ReorderOptions,
};
use br_sweep::cache::{fnv1a, ArtifactCache, FORMAT_VERSION};
use br_vm::{function_counters, pct_change, run, VmOptions};

use crate::intern::ModuleIntern;
use crate::metrics::Metrics;
use crate::proto::{section, Frame, OwnedSection, Section};
use crate::proto2::code;

/// A handled request: the `brs1` response frame plus the structured
/// metadata `brs2` carries in its header.
///
/// `frame` is the whole story for a `brs1` client. A `brs2` endpoint
/// additionally sends `code` (stable error taxonomy) and `cache_key`
/// (the response-cache key, which a cluster router uses to replicate
/// the entry to a successor shard) in the binary header — the payload
/// bytes stay identical across protocols.
pub struct Response {
    /// The response frame (`ok` or `error`), protocol-v1 shaped.
    pub frame: Frame,
    /// Stable response code ([`crate::proto2::code`]).
    pub code: u16,
    /// Response-cache key; 0 when the response is not cacheable.
    pub cache_key: u64,
}

impl Response {
    /// A successful response.
    pub fn ok(payload: Vec<u8>, cache_key: u64) -> Response {
        Response {
            frame: Frame {
                kind: "ok".to_string(),
                payload,
            },
            code: code::OK,
            cache_key,
        }
    }

    /// An error response with a stable code.
    pub fn error(code: u16, message: &str) -> Response {
        Response {
            frame: Frame::text("error", message),
            code,
            cache_key: 0,
        }
    }
}

/// The shared endpoint state: response cache, metrics, debug gating.
pub struct Endpoints {
    cache: ArtifactCache,
    metrics: Arc<Metrics>,
    /// Content-addressed module intern table (`brs2` delta upload).
    pub intern: ModuleIntern,
    /// Expose the `sleep`/`panic` fault-injection endpoints (tests and
    /// operational drills only; off in normal service).
    pub debug_endpoints: bool,
}

/// Everything the VM contributes to a measure response, fixed here so
/// cache keys change when measurement semantics do.
fn measure_vm() -> (VmOptions, &'static str) {
    (VmOptions::default(), "vm=default ijump=3 preds=[]")
}

impl Endpoints {
    /// Endpoint state backed by a response cache at `cache_dir`
    /// (`None` disables caching).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the cache directory cannot be
    /// created.
    pub fn new(
        cache_dir: Option<&std::path::Path>,
        metrics: Arc<Metrics>,
    ) -> std::io::Result<Endpoints> {
        let cache = match cache_dir {
            Some(dir) => ArtifactCache::at(dir)?,
            None => ArtifactCache::disabled(),
        };
        Ok(Endpoints {
            cache,
            metrics,
            intern: ModuleIntern::default(),
            debug_endpoints: false,
        })
    }

    /// Dispatch one compute request. Unknown kinds and malformed
    /// payloads come back as `error` frames; this function never
    /// panics on bad input (a panic here is a bug, and the pool still
    /// contains it).
    ///
    /// Content-hash pseudo-sections (`module#`, `original#`,
    /// `reordered#` — how `brs2` delta upload reaches the handler) are
    /// resolved against the intern table *before* anything else, so the
    /// response cache is keyed over resolved payloads and `brs1` and
    /// `brs2` clients share cache entries byte-for-byte.
    pub fn handle(&self, request: &Frame) -> Response {
        let request = match self.resolve_hashes(request) {
            Ok(resolved) => resolved,
            Err(response) => return response,
        };
        let result = match request.kind.as_str() {
            "reorder" => self.cached(&request, "reorder", reorder_endpoint),
            "measure" => self.cached(&request, "measure", measure_endpoint),
            "profile" => self.cached(&request, "profile", profile_endpoint),
            "cacheput" => return self.cacheput(&request),
            "sleep" if self.debug_endpoints => {
                return match sleep_endpoint(&request) {
                    Ok(frame) => Response {
                        frame,
                        code: code::OK,
                        cache_key: 0,
                    },
                    Err(message) => Response::error(code::BAD_REQUEST, &message),
                }
            }
            "panic" if self.debug_endpoints => {
                panic!("fault injection: {}", request.payload_text())
            }
            other => Err(format!("unknown request kind {other:?}")),
        };
        match result {
            Ok(response) => response,
            Err(message) => Response::error(code::BAD_REQUEST, &message),
        }
    }

    /// Resolve `name#` hash pseudo-sections to interned bodies and
    /// intern every full module body on sight. Requests without hash
    /// sections pass through with their payload untouched.
    fn resolve_hashes(&self, request: &Frame) -> Result<Frame, Response> {
        // `name# <len>\n` can only appear if some section name ends in
        // '#'; a cheap scan keeps the common full-body path parse-free.
        let structured = matches!(request.kind.as_str(), "reorder" | "measure" | "profile");
        if !structured {
            return Ok(request.clone());
        }
        let Ok(sections) = request.sections() else {
            // Leave malformed payloads for the endpoint's own error.
            return Ok(request.clone());
        };
        let mut missing: Vec<u64> = Vec::new();
        let mut resolved: Vec<(String, Vec<u8>)> = Vec::with_capacity(sections.len());
        let mut any_hash = false;
        for s in &sections {
            if let Some(body_name) = s.name.strip_suffix('#') {
                any_hash = true;
                if !matches!(body_name, "module" | "original" | "reordered") {
                    return Err(Response::error(
                        code::BAD_REQUEST,
                        &format!("unknown hash section {:?}", s.name),
                    ));
                }
                let bytes: [u8; 8] = match s.bytes.as_slice().try_into() {
                    Ok(bytes) => bytes,
                    Err(_) => {
                        return Err(Response::error(
                            code::BAD_REQUEST,
                            &format!("hash section {:?} must be exactly 8 bytes", s.name),
                        ))
                    }
                };
                let hash = u64::from_le_bytes(bytes);
                match self.intern.resolve(hash, &self.cache) {
                    Some(text) => {
                        resolved.push((body_name.to_string(), text.as_bytes().to_vec()));
                    }
                    None => missing.push(hash),
                }
            } else {
                if matches!(s.name.as_str(), "module" | "original" | "reordered") {
                    if let Ok(text) = s.text() {
                        self.intern.insert(text, &self.cache);
                    }
                }
                resolved.push((s.name.clone(), s.bytes.clone()));
            }
        }
        if !missing.is_empty() {
            self.metrics.need_module.fetch_add(1, Ordering::Relaxed);
            let list: Vec<String> = missing.iter().map(|h| format!("{h:016x}")).collect();
            return Err(Response::error(
                code::NEED_MODULE,
                &format!("need-module {}", list.join(" ")),
            ));
        }
        if !any_hash {
            return Ok(request.clone());
        }
        let borrowed: Vec<Section<'_>> = resolved
            .iter()
            .map(|(name, bytes)| Section { name, bytes })
            .collect();
        Ok(Frame::structured(&request.kind, &borrowed))
    }

    /// `cacheput`: install a replicated response-cache entry (cluster
    /// routers push hot entries to the successor shard through this).
    fn cacheput(&self, request: &Frame) -> Response {
        let parse = || -> Result<(u64, String), String> {
            let sections = request.sections()?;
            let key = u64::from_str_radix(section(&sections, "key")?.text()?.trim(), 16)
                .map_err(|_| "key section must be 16 hex digits".to_string())?;
            let body = section(&sections, "body")?.text()?.to_string();
            Ok((key, body))
        };
        match parse() {
            Ok((key, body)) => {
                self.cache.put(key, &body);
                self.metrics.replicated.fetch_add(1, Ordering::Relaxed);
                Response::ok(b"replicated\n".to_vec(), key)
            }
            Err(message) => Response::error(code::BAD_REQUEST, &message),
        }
    }

    /// Run `endpoint` through the response cache: key over the whole
    /// (hash-resolved) request payload, store the whole response
    /// payload. The key travels back on the response so a router can
    /// replicate the entry without re-deriving it.
    fn cached(
        &self,
        request: &Frame,
        tag: &str,
        endpoint: fn(&[OwnedSection]) -> Result<Vec<u8>, String>,
    ) -> Result<Response, String> {
        let key = fnv1a(&[
            b"serve",
            FORMAT_VERSION.as_bytes(),
            tag.as_bytes(),
            &request.payload,
        ]);
        if let Some(text) = self.cache.get(key) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Response::ok(text.into_bytes(), key));
        }
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        let sections = request.sections()?;
        let payload = endpoint(&sections)?;
        // Responses are pure text (IR, CSV, validator lines), so the
        // string store the sweep cache offers fits as-is.
        if let Ok(text) = std::str::from_utf8(&payload) {
            self.cache.put(key, text);
        }
        Ok(Response::ok(payload, key))
    }
}

/// Parse and structurally verify a module section.
fn module_section(sections: &[OwnedSection], name: &str) -> Result<Module, String> {
    let text = section(sections, name)?.text()?;
    let module =
        parse_module(text).map_err(|e| format!("section {name}: IR parse error at {e}"))?;
    br_ir::verify_module(&module)
        .map_err(|e| format!("section {name}: module fails verification: {e}"))?;
    Ok(module)
}

/// Reorder options from the optional `options` section: lines of
/// `exhaustive|common|static|opttree 0|1`. Validation is not a knob — the
/// service contract is that every response carries a verdict, and the
/// pipeline runs in `certify` mode so every committed reordering also
/// carries a proof certificate whose hash the response exposes.
fn parse_options(sections: &[OwnedSection]) -> Result<ReorderOptions, String> {
    let mut opts = ReorderOptions {
        validate: true,
        certify: true,
        ..ReorderOptions::default()
    };
    let Ok(options) = section(sections, "options") else {
        return Ok(opts);
    };
    for line in options.text()?.lines() {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("bad options line {line:?}"))?;
        let on = match value {
            "0" => false,
            "1" => true,
            _ => return Err(format!("bad options value {line:?} (expected 0 or 1)")),
        };
        match key {
            "exhaustive" => opts.exhaustive = on,
            "common" => opts.common_successor = on,
            "static" => opts.static_heuristic = on,
            "opttree" => opts.opt_tree = on,
            _ => return Err(format!("unknown option {key:?}")),
        }
    }
    Ok(opts)
}

/// `reorder`: printed-IR module + training bytes in; reordered module,
/// per-sequence records, the translation validator's verdict, and one
/// `func head sig` line per proof certificate out — the client can
/// demand the full certificate be re-derived locally and compare
/// content addresses.
fn reorder_endpoint(sections: &[OwnedSection]) -> Result<Vec<u8>, String> {
    let module = module_section(sections, "module")?;
    let train = &section(sections, "train")?.bytes;
    let opts = parse_options(sections)?;
    let report =
        reorder_module(&module, train, &opts).map_err(|t| format!("training run trapped: {t}"))?;

    let mut sequences = String::new();
    for s in &report.sequences {
        let kind = match s.kind {
            SequenceKind::RangeConditions => "range",
            SequenceKind::CommonSuccessor => "common",
        };
        sequences.push_str(&format!(
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

    let summary = report
        .validation
        .as_ref()
        .ok_or("internal error: pipeline returned no validation summary")?;
    let mut validation = format!(
        "proven {} value_classes {} failures {}\n",
        summary.proven,
        summary.value_classes,
        summary.failures.len()
    );
    for f in &summary.failures {
        validation.push_str(&format!("{f}\n"));
    }

    let mut certs = String::new();
    for c in &summary.certificates {
        certs.push_str(&format!("{} {} {:016x}\n", c.func.0, c.head.0, c.sig));
    }

    Ok(Frame::structured(
        "ok",
        &[
            Section {
                name: "module",
                bytes: print_module(&report.module).as_bytes(),
            },
            Section {
                name: "sequences",
                bytes: sequences.as_bytes(),
            },
            Section {
                name: "validation",
                bytes: validation.as_bytes(),
            },
            Section {
                name: "certs",
                bytes: certs.as_bytes(),
            },
        ],
    )
    .payload)
}

/// `measure`: two printed-IR modules plus one input; both run on the
/// VM fast path and the Table-4 event counters come back as CSV deltas.
/// After the 11 module-wide counters, one `fn:<name>:taken_branches`
/// and one `fn:<name>:delay_stalls` row per function attribute the
/// layout-sensitive events to the function that paid them. Divergent
/// observable behaviour (exit or output) is an error — the daemon
/// refuses to measure a miscompile as if it were a speedup.
fn measure_endpoint(sections: &[OwnedSection]) -> Result<Vec<u8>, String> {
    let original = module_section(sections, "original")?;
    let reordered = module_section(sections, "reordered")?;
    let input = &section(sections, "input")?.bytes;
    let (vm, _) = measure_vm();
    let a = run(&original, input, &vm).map_err(|t| format!("original run trapped: {t}"))?;
    let b = run(&reordered, input, &vm).map_err(|t| format!("reordered run trapped: {t}"))?;
    if a.exit != b.exit || a.output != b.output {
        return Err(format!(
            "observable behaviour differs: exit {} vs {}, {} vs {} output bytes",
            a.exit,
            b.exit,
            a.output.len(),
            b.output.len()
        ));
    }
    let mut csv = String::from("counter,original,reordered,pct_change\n");
    let rows: [(&str, u64, u64); 11] = [
        ("insts", a.stats.insts, b.stats.insts),
        (
            "cond_branches",
            a.stats.cond_branches,
            b.stats.cond_branches,
        ),
        (
            "taken_branches",
            a.stats.taken_branches,
            b.stats.taken_branches,
        ),
        ("uncond_jumps", a.stats.uncond_jumps, b.stats.uncond_jumps),
        (
            "indirect_jumps",
            a.stats.indirect_jumps,
            b.stats.indirect_jumps,
        ),
        ("compares", a.stats.compares, b.stats.compares),
        ("loads", a.stats.loads, b.stats.loads),
        ("stores", a.stats.stores, b.stats.stores),
        ("calls", a.stats.calls, b.stats.calls),
        ("returns", a.stats.returns, b.stats.returns),
        ("delay_stalls", a.stats.delay_stalls, b.stats.delay_stalls),
    ];
    for (name, orig, reord) in rows {
        csv.push_str(&format!(
            "{name},{orig},{reord},{:.4}\n",
            pct_change(orig, reord)
        ));
    }
    // Per-function layout counters after the global rows, so existing
    // clients that read the first 12 lines keep working. Functions are
    // paired by name; the pipeline never adds or removes functions, but
    // a function absent on one side simply counts zero there.
    let fa = function_counters(&original, &a);
    let fb = function_counters(&reordered, &b);
    for ca in &fa {
        let (taken_b, stalls_b) = fb
            .iter()
            .find(|cb| cb.name == ca.name)
            .map_or((0, 0), |cb| (cb.taken_branches, cb.delay_stalls));
        csv.push_str(&format!(
            "fn:{}:taken_branches,{},{},{:.4}\n",
            ca.name,
            ca.taken_branches,
            taken_b,
            pct_change(ca.taken_branches, taken_b)
        ));
        csv.push_str(&format!(
            "fn:{}:delay_stalls,{},{},{:.4}\n",
            ca.name,
            ca.delay_stalls,
            stalls_b,
            pct_change(ca.delay_stalls, stalls_b)
        ));
    }
    Ok(Frame::structured(
        "ok",
        &[Section {
            name: "csv",
            bytes: csv.as_bytes(),
        }],
    )
    .payload)
}

/// `profile`: instrument every detected sequence, run on the supplied
/// input, and return the per-range exit counts as CSV.
fn profile_endpoint(sections: &[OwnedSection]) -> Result<Vec<u8>, String> {
    let module = module_section(sections, "module")?;
    let input = &section(sections, "input")?.bytes;
    let mut instrumented = module.clone();
    let detections = detect_all(&instrumented);
    let ids = instrument_module(&mut instrumented, &detections);
    let out = run(&instrumented, input, &VmOptions::default())
        .map_err(|t| format!("profiling run trapped: {t}"))?;
    let profiles = profiles_from_run(&ids, &out.profiles);
    let mut csv = String::from("seq,func,head,range_lo,range_hi,count\n");
    for (i, (fid, seq)) in detections.iter().enumerate() {
        for (j, (range, _, _)) in plan_ranges(seq).iter().enumerate() {
            csv.push_str(&format!(
                "{i},{},{},{},{},{}\n",
                fid.0, seq.head.0, range.lo, range.hi, profiles[i].counts[j]
            ));
        }
    }
    Ok(Frame::structured(
        "ok",
        &[Section {
            name: "csv",
            bytes: csv.as_bytes(),
        }],
    )
    .payload)
}

/// Debug-only: hold a worker for N milliseconds — the knob tests and
/// drills use to wedge the pool and watch admission control shed load.
fn sleep_endpoint(request: &Frame) -> Result<Frame, String> {
    let ms: u64 = request
        .payload_text()
        .trim()
        .parse()
        .map_err(|_| "sleep payload must be milliseconds".to_string())?;
    std::thread::sleep(std::time::Duration::from_millis(ms.min(10_000)));
    Ok(Frame::text("ok", "slept"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_minic::{compile, HeuristicSet, Options};

    fn endpoints(cache: bool) -> (Endpoints, Arc<Metrics>, Option<std::path::PathBuf>) {
        let metrics = Arc::new(Metrics::default());
        let dir = cache.then(|| {
            std::env::temp_dir().join(format!(
                "br-serve-ep-test-{}-{:p}",
                std::process::id(),
                &metrics
            ))
        });
        let e = Endpoints::new(dir.as_deref(), Arc::clone(&metrics)).expect("cache dir");
        (e, metrics, dir)
    }

    fn wc_module() -> Module {
        let w = br_workloads::by_name("wc").expect("wc exists");
        let mut m =
            compile(w.source, &Options::with_heuristics(HeuristicSet::SET_I)).expect("wc compiles");
        br_opt::optimize(&mut m);
        m
    }

    fn reorder_request(module: &Module, train: &[u8]) -> Frame {
        Frame::structured(
            "reorder",
            &[
                Section {
                    name: "module",
                    bytes: print_module(module).as_bytes(),
                },
                Section {
                    name: "train",
                    bytes: train,
                },
            ],
        )
    }

    #[test]
    fn reorder_matches_in_process_pipeline() {
        let (e, metrics, dir) = endpoints(true);
        let module = wc_module();
        let train = br_workloads::by_name("wc").unwrap().training_input(512);
        let request = reorder_request(&module, &train);

        let response = e.handle(&request).frame;
        assert_eq!(response.kind, "ok", "{}", response.payload_text());
        let sections = response.sections().unwrap();
        let served = section(&sections, "module").unwrap().text().unwrap();

        let opts = ReorderOptions {
            validate: true,
            certify: true,
            ..ReorderOptions::default()
        };
        let local = reorder_module(&module, &train, &opts).expect("pipeline runs");
        assert_eq!(
            served,
            print_module(&local.module),
            "service must be bit-for-bit"
        );
        let verdict = section(&sections, "validation").unwrap().text().unwrap();
        assert!(verdict.contains("failures 0"), "{verdict}");

        // Certificate hashes: one line per committed reordering, equal
        // to the content addresses an in-process certify run derives.
        let local_summary = local.validation.as_ref().unwrap();
        assert!(
            !local_summary.certificates.is_empty(),
            "wc must commit at least one certified reordering"
        );
        let certs = section(&sections, "certs").unwrap().text().unwrap();
        assert_eq!(certs.lines().count(), local_summary.certificates.len());
        for (line, c) in certs.lines().zip(&local_summary.certificates) {
            assert_eq!(line, format!("{} {} {:016x}", c.func.0, c.head.0, c.sig));
        }

        // Identical request → cache hit with the identical payload.
        let again = e.handle(&request).frame;
        assert_eq!(again.payload, response.payload);
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 1);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn measure_reports_deltas_and_rejects_divergence() {
        let (e, _metrics, _) = endpoints(false);
        let module = wc_module();
        let w = br_workloads::by_name("wc").unwrap();
        let report = reorder_module(&module, &w.training_input(512), &ReorderOptions::default())
            .expect("pipeline runs");
        let input = w.test_input(768);
        let request = Frame::structured(
            "measure",
            &[
                Section {
                    name: "original",
                    bytes: print_module(&module).as_bytes(),
                },
                Section {
                    name: "reordered",
                    bytes: print_module(&report.module).as_bytes(),
                },
                Section {
                    name: "input",
                    bytes: &input,
                },
            ],
        );
        let response = e.handle(&request).frame;
        assert_eq!(response.kind, "ok", "{}", response.payload_text());
        let sections = response.sections().unwrap();
        let csv = section(&sections, "csv").unwrap().text().unwrap();
        assert!(csv.starts_with("counter,original,reordered,pct_change\n"));
        // Header + 11 global counters, then 2 per-function rows per
        // module function.
        assert_eq!(
            csv.lines().count(),
            12 + 2 * module.functions.len(),
            "{csv}"
        );
        assert!(csv.contains("\ncond_branches,"), "{csv}");

        // Two genuinely different programs: measurement must refuse.
        let other = {
            let w2 = br_workloads::by_name("cb").expect("cb exists");
            let mut m = compile(w2.source, &Options::with_heuristics(HeuristicSet::SET_I))
                .expect("cb compiles");
            br_opt::optimize(&mut m);
            m
        };
        let bad = Frame::structured(
            "measure",
            &[
                Section {
                    name: "original",
                    bytes: print_module(&module).as_bytes(),
                },
                Section {
                    name: "reordered",
                    bytes: print_module(&other).as_bytes(),
                },
                Section {
                    name: "input",
                    bytes: &input,
                },
            ],
        );
        let refused = e.handle(&bad);
        assert_eq!(refused.frame.kind, "error");
        assert_eq!(refused.code, crate::proto2::code::BAD_REQUEST);
        assert!(refused.frame.payload_text().contains("behaviour differs"));
    }

    #[test]
    fn measure_per_function_rows_pin_schema_and_sum_to_globals() {
        let (e, _metrics, _) = endpoints(false);
        let module = wc_module();
        let w = br_workloads::by_name("wc").unwrap();
        let report = reorder_module(&module, &w.training_input(512), &ReorderOptions::default())
            .expect("pipeline runs");
        let input = w.test_input(768);
        let request = Frame::structured(
            "measure",
            &[
                Section {
                    name: "original",
                    bytes: print_module(&module).as_bytes(),
                },
                Section {
                    name: "reordered",
                    bytes: print_module(&report.module).as_bytes(),
                },
                Section {
                    name: "input",
                    bytes: &input,
                },
            ],
        );
        let response = e.handle(&request).frame;
        assert_eq!(response.kind, "ok", "{}", response.payload_text());
        let sections = response.sections().unwrap();
        let csv = section(&sections, "csv").unwrap().text().unwrap();

        // Schema: the global block is pinned — line 1 header, lines 2–12
        // the 11 counters in fixed order — and every later line is a
        // per-function row `fn:<name>:<counter>,orig,reord,pct`.
        let lines: Vec<&str> = csv.lines().collect();
        let global: Vec<&str> = lines[1..12]
            .iter()
            .map(|l| l.split(',').next().unwrap())
            .collect();
        assert_eq!(
            global,
            [
                "insts",
                "cond_branches",
                "taken_branches",
                "uncond_jumps",
                "indirect_jumps",
                "compares",
                "loads",
                "stores",
                "calls",
                "returns",
                "delay_stalls"
            ]
        );
        let fn_rows: Vec<&str> = lines[12..].to_vec();
        assert!(!fn_rows.is_empty(), "{csv}");
        assert!(
            fn_rows.iter().all(|l| l.starts_with("fn:")),
            "per-function rows must come last: {csv}"
        );
        for f in &module.functions {
            assert!(
                fn_rows
                    .iter()
                    .any(|l| l.starts_with(&format!("fn:{}:taken_branches,", f.name))),
                "{csv}"
            );
            assert!(
                fn_rows
                    .iter()
                    .any(|l| l.starts_with(&format!("fn:{}:delay_stalls,", f.name))),
                "{csv}"
            );
        }

        // The attribution is exact: per-function rows sum to the global
        // counter, per column.
        let field =
            |line: &str, col: usize| -> u64 { line.split(',').nth(col).unwrap().parse().unwrap() };
        let global_row = |name: &str| {
            lines
                .iter()
                .find(|l| l.split(',').next() == Some(name))
                .copied()
                .unwrap()
        };
        for (counter, col) in [("taken_branches", 1), ("taken_branches", 2)] {
            let total: u64 = fn_rows
                .iter()
                .filter(|l| l.contains(&format!(":{counter},")))
                .map(|l| field(l, col))
                .sum();
            assert_eq!(total, field(global_row(counter), col), "{csv}");
        }
        for (counter, col) in [("delay_stalls", 1), ("delay_stalls", 2)] {
            let total: u64 = fn_rows
                .iter()
                .filter(|l| l.contains(&format!(":{counter},")))
                .map(|l| field(l, col))
                .sum();
            assert_eq!(total, field(global_row(counter), col), "{csv}");
        }
    }

    #[test]
    fn profile_returns_range_counts() {
        let (e, _metrics, _) = endpoints(false);
        let module = wc_module();
        let w = br_workloads::by_name("wc").unwrap();
        let input = w.training_input(512);
        let request = Frame::structured(
            "profile",
            &[
                Section {
                    name: "module",
                    bytes: print_module(&module).as_bytes(),
                },
                Section {
                    name: "input",
                    bytes: &input,
                },
            ],
        );
        let response = e.handle(&request).frame;
        assert_eq!(response.kind, "ok", "{}", response.payload_text());
        let sections = response.sections().unwrap();
        let csv = section(&sections, "csv").unwrap().text().unwrap();
        assert!(csv.starts_with("seq,func,head,range_lo,range_hi,count\n"));
        // wc's classifier loop runs once per input byte, so some range
        // must have accumulated real counts.
        let total: u64 = csv
            .lines()
            .skip(1)
            .map(|l| l.rsplit(',').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert!(total > 0, "profiling counted nothing:\n{csv}");
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        let (e, _metrics, _) = endpoints(false);
        for request in [
            Frame::text("reorder", "not sections"),
            Frame::structured(
                "reorder",
                &[Section {
                    name: "module",
                    bytes: b"garbage ir",
                }],
            ),
            Frame::text("unknown-kind", ""),
            Frame::text("sleep", "5"), // debug endpoints off by default
        ] {
            let response = e.handle(&request);
            assert_eq!(response.frame.kind, "error", "{}", request.kind);
        }
    }

    #[test]
    fn options_section_is_honoured() {
        let (e, _metrics, _) = endpoints(false);
        let module = wc_module();
        let train = br_workloads::by_name("wc").unwrap().training_input(512);
        let request = Frame::structured(
            "reorder",
            &[
                Section {
                    name: "module",
                    bytes: print_module(&module).as_bytes(),
                },
                Section {
                    name: "train",
                    bytes: &train,
                },
                Section {
                    name: "options",
                    bytes: b"exhaustive 1\nstatic 0\nopttree 1",
                },
            ],
        );
        let response = e.handle(&request).frame;
        assert_eq!(response.kind, "ok", "{}", response.payload_text());
        let bad = Frame::structured(
            "reorder",
            &[
                Section {
                    name: "module",
                    bytes: print_module(&module).as_bytes(),
                },
                Section {
                    name: "train",
                    bytes: &train,
                },
                Section {
                    name: "options",
                    bytes: b"warp-speed 1",
                },
            ],
        );
        assert_eq!(e.handle(&bad).frame.kind, "error");
    }
}
