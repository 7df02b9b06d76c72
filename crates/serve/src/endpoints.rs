//! The daemon's compute endpoints: `reorder`, `measure`, `profile`.
//!
//! Each handler is a pure function from a request (opcode + `brs2`
//! section payload) to a response — no connection state, no global
//! state beyond the response cache — which is what lets the worker pool
//! run them on any thread and `catch_unwind` treat a panic as just
//! another error response.
//!
//! Payloads reuse the repo's existing text formats: modules travel as
//! printed IR (`br_ir::print_module` / `parse_module`), results as CSV
//! rows and the validator's `Display` lines, in a named-section
//! response body ([`proto2::response_sections`] reads it).
//!
//! **Response cache.** Responses are content-addressed in a
//! [`br_sweep::cache::ArtifactCache`] — the same store, key scheme
//! (length-delimited FNV-1a) and format-version discipline the sweep
//! engine uses — keyed by the opcode and the request's sections with
//! every content hash resolved to its module body. The pipeline is
//! deterministic, so two requests that agree on those bytes have
//! byte-identical responses, whether they sent a module by body or by
//! hash; a warm daemon answers repeat traffic without touching the VM.
//! A fresh response is answered before it reaches the directory: a
//! [`ResponseStore`] keeps it in memory until its writer thread has
//! persisted it.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use br_ir::{parse_module, print_module, Module};
use br_reorder::profile::plan_ranges;
use br_reorder::{
    detect_all, instrument_module, profiles_from_run, reorder_module, ReorderOptions,
};
use br_sweep::cache::{fnv1a, FORMAT_VERSION};
use br_vm::{function_counters, pct_change, run, VmOptions};

use crate::intern::ModuleIntern;
use crate::metrics::Metrics;
use crate::proto2::{self, code, kind, sec, BatchReply};
use crate::store::ResponseStore;

/// A handled request: the fields a `brs2` response frame carries.
#[derive(Debug)]
pub struct Response {
    /// `kind::OK` or `kind::ERROR`.
    pub kind: u8,
    /// Stable response code ([`crate::proto2::code`]).
    pub code: u16,
    /// Response-cache key; 0 when the response is not cacheable.
    pub cache_key: u64,
    /// The response body, or the error message.
    pub payload: Vec<u8>,
}

impl Response {
    /// A successful response.
    pub fn ok(payload: Vec<u8>, cache_key: u64) -> Response {
        Response {
            kind: kind::OK,
            code: code::OK,
            cache_key,
            payload,
        }
    }

    /// An error response with a stable code.
    pub fn error(code: u16, message: &str) -> Response {
        Response {
            kind: kind::ERROR,
            code,
            cache_key: 0,
            payload: message.as_bytes().to_vec(),
        }
    }
}

impl From<Response> for BatchReply {
    fn from(response: Response) -> BatchReply {
        BatchReply {
            kind: response.kind,
            code: response.code,
            aux: response.cache_key,
            payload: response.payload,
        }
    }
}

/// The sections of a request, every content hash resolved to its body.
type Sections<'a> = [(u8, &'a [u8])];

/// The shared endpoint state: response cache, metrics, debug gating.
pub struct Endpoints {
    cache: ResponseStore,
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
        Ok(Endpoints {
            cache: ResponseStore::new(cache_dir)?,
            metrics,
            intern: ModuleIntern::default(),
            debug_endpoints: false,
        })
    }

    /// Dispatch one request by opcode. Unknown opcodes and malformed
    /// payloads come back as error responses; this function never
    /// panics on bad input (a panic here is a bug, and the pool still
    /// contains it).
    pub fn handle(&self, k: u8, payload: &[u8]) -> Response {
        let endpoint = match k {
            kind::REORDER => reorder_endpoint,
            kind::MEASURE => measure_endpoint,
            kind::PROFILE => profile_endpoint,
            kind::CACHEPUT => return self.cacheput(payload),
            kind::SLEEP if self.debug_endpoints => return sleep_endpoint(payload),
            kind::PANIC if self.debug_endpoints => {
                panic!("fault injection: {}", String::from_utf8_lossy(payload))
            }
            other => {
                return Response::error(
                    code::BAD_REQUEST,
                    &format!("unknown request opcode {other}"),
                )
            }
        };
        self.compute(k, payload, endpoint)
    }

    /// Run a compute endpoint: resolve content-hash sections against
    /// the intern table (interning every full module body on sight),
    /// then answer through the response cache. The cache key covers the
    /// opcode and the *resolved* sections, so a hash-referenced request
    /// and its full-body twin share one entry; it travels back on the
    /// response so a router can replicate the entry without re-deriving
    /// it.
    fn compute(
        &self,
        k: u8,
        payload: &[u8],
        endpoint: fn(&Sections<'_>) -> Result<Vec<u8>, String>,
    ) -> Response {
        let bad = |message: String| Response::error(code::BAD_REQUEST, &message);
        let sections = match proto2::sections(payload) {
            Ok(sections) => sections,
            Err(e) => return bad(e),
        };
        let mut bodies: Vec<Option<Arc<str>>> = Vec::with_capacity(sections.len());
        let mut missing: Vec<u64> = Vec::new();
        for &(id, bytes) in &sections {
            if proto2::hash_target(id).is_some() {
                let Ok(hash) = <[u8; 8]>::try_from(bytes) else {
                    return bad(format!("hash section id {id} must be exactly 8 bytes"));
                };
                let hash = u64::from_le_bytes(hash);
                let body = self.intern.resolve(hash, self.cache.disk());
                if body.is_none() {
                    missing.push(hash);
                }
                bodies.push(body);
                continue;
            }
            if proto2::sec_name(id).is_none() {
                return bad(format!("unknown brs2 section id {id}"));
            }
            if proto2::hash_of_body(id).is_some() {
                if let Ok(text) = std::str::from_utf8(bytes) {
                    self.intern.insert(text, self.cache.disk());
                }
            }
            bodies.push(None);
        }
        if !missing.is_empty() {
            self.metrics.need_module.fetch_add(1, Ordering::Relaxed);
            let list: Vec<String> = missing.iter().map(|h| format!("{h:016x}")).collect();
            return Response::error(
                code::NEED_MODULE,
                &format!("need-module {}", list.join(" ")),
            );
        }
        let resolved: Vec<(u8, &[u8])> = sections
            .iter()
            .zip(&bodies)
            .map(|(&(id, bytes), body)| match body {
                Some(text) => (
                    proto2::hash_target(id).expect("only hash sections resolve"),
                    text.as_bytes(),
                ),
                None => (id, bytes),
            })
            .collect();

        let mut key_parts: Vec<&[u8]> = vec![
            b"serve",
            FORMAT_VERSION.as_bytes(),
            std::slice::from_ref(&k),
        ];
        for (id, bytes) in &resolved {
            key_parts.push(std::slice::from_ref(id));
            key_parts.push(bytes);
        }
        let key = fnv1a(&key_parts);
        if let Some(text) = self.cache.get(key) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Response::ok(text.into_bytes(), key);
        }
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        match endpoint(&resolved) {
            Ok(body) => {
                // Responses are pure text (IR, CSV, validator lines), so
                // the string store the sweep cache offers fits as-is.
                if let Ok(text) = std::str::from_utf8(&body) {
                    self.cache.put(key, text);
                }
                Response::ok(body, key)
            }
            Err(message) => bad(message),
        }
    }

    /// `cacheput`: install a replicated response-cache entry (cluster
    /// routers push hot entries to the successor shard through this).
    fn cacheput(&self, payload: &[u8]) -> Response {
        let parse = || -> Result<(u64, &str), String> {
            let sections = proto2::sections(payload)?;
            let key = u64::from_str_radix(text(&sections, sec::KEY)?.trim(), 16)
                .map_err(|_| "key section must be 16 hex digits".to_string())?;
            Ok((key, text(&sections, sec::BODY)?))
        };
        match parse() {
            Ok((key, body)) => {
                self.cache.put(key, body);
                self.metrics.replicated.fetch_add(1, Ordering::Relaxed);
                Response::ok(b"replicated\n".to_vec(), key)
            }
            Err(message) => Response::error(code::BAD_REQUEST, &message),
        }
    }
}

/// Find section `id` among a request's sections.
fn section<'a>(sections: &Sections<'a>, id: u8) -> Result<&'a [u8], String> {
    sections
        .iter()
        .find(|(i, _)| *i == id)
        .map(|(_, bytes)| *bytes)
        .ok_or_else(|| format!("missing section {}", proto2::sec_name(id).unwrap_or("?")))
}

/// Find section `id` and read it as UTF-8 text.
fn text<'a>(sections: &Sections<'a>, id: u8) -> Result<&'a str, String> {
    std::str::from_utf8(section(sections, id)?).map_err(|_| {
        format!(
            "section {} is not UTF-8",
            proto2::sec_name(id).unwrap_or("?")
        )
    })
}

/// Parse and structurally verify a module section.
fn module_section(sections: &Sections<'_>, id: u8) -> Result<Module, String> {
    let name = proto2::sec_name(id).unwrap_or("?");
    let module = parse_module(text(sections, id)?)
        .map_err(|e| format!("section {name}: IR parse error at {e}"))?;
    br_ir::verify_module(&module)
        .map_err(|e| format!("section {name}: module fails verification: {e}"))?;
    Ok(module)
}

/// Reorder options from the optional `options` section: lines of
/// `exhaustive|static|opttree 0|1`. Validation is not a knob — the
/// service contract is that every response carries a verdict, and the
/// pipeline runs in `certify` mode so every committed reordering also
/// carries a proof certificate whose hash the response exposes.
fn parse_options(sections: &Sections<'_>) -> Result<ReorderOptions, String> {
    let mut opts = ReorderOptions {
        validate: true,
        certify: true,
        ..ReorderOptions::default()
    };
    if section(sections, sec::OPTIONS).is_err() {
        return Ok(opts);
    }
    for line in text(sections, sec::OPTIONS)?.lines() {
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
fn reorder_endpoint(sections: &Sections<'_>) -> Result<Vec<u8>, String> {
    let module = module_section(sections, sec::MODULE)?;
    let train = section(sections, sec::TRAIN)?;
    let opts = parse_options(sections)?;
    let report =
        reorder_module(&module, train, &opts).map_err(|t| format!("training run trapped: {t}"))?;

    let mut sequences = String::new();
    for s in &report.sequences {
        sequences.push_str(&format!(
            "{} {} {} {} {} {} {}\n",
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

    Ok(proto2::response_body(&[
        ("module", print_module(&report.module).as_bytes()),
        ("sequences", sequences.as_bytes()),
        ("validation", validation.as_bytes()),
        ("certs", certs.as_bytes()),
    ]))
}

/// `measure`: two printed-IR modules plus one input; both run on the
/// VM fast path and the Table-4 event counters come back as CSV deltas.
/// After the 11 module-wide counters, one `fn:<name>:taken_branches`
/// and one `fn:<name>:delay_stalls` row per function attribute the
/// layout-sensitive events to the function that paid them. Divergent
/// observable behaviour (exit or output) is an error — the daemon
/// refuses to measure a miscompile as if it were a speedup.
fn measure_endpoint(sections: &Sections<'_>) -> Result<Vec<u8>, String> {
    let original = module_section(sections, sec::ORIGINAL)?;
    let reordered = module_section(sections, sec::REORDERED)?;
    let input = section(sections, sec::INPUT)?;
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
    Ok(proto2::response_body(&[("csv", csv.as_bytes())]))
}

/// `profile`: instrument every detected sequence, run on the supplied
/// input, and return the per-range exit counts as CSV.
fn profile_endpoint(sections: &Sections<'_>) -> Result<Vec<u8>, String> {
    let module = module_section(sections, sec::MODULE)?;
    let input = section(sections, sec::INPUT)?;
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
    Ok(proto2::response_body(&[("csv", csv.as_bytes())]))
}

/// Debug-only: hold a worker for N milliseconds — the knob tests and
/// drills use to wedge the pool and watch admission control shed load.
fn sleep_endpoint(payload: &[u8]) -> Response {
    let Some(ms) = std::str::from_utf8(payload)
        .ok()
        .and_then(|t| t.trim().parse::<u64>().ok())
    else {
        return Response::error(code::BAD_REQUEST, "sleep payload must be milliseconds");
    };
    std::thread::sleep(std::time::Duration::from_millis(ms.min(10_000)));
    Response::ok(b"slept".to_vec(), 0)
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

    /// A request payload from `(section id, bytes)` pairs.
    fn payload(sections: &[(u8, &[u8])]) -> Vec<u8> {
        proto2::Frame2::request(0, sections).payload
    }

    /// The named section of an ok response body, as text.
    fn body_text<'a>(response: &'a Response, name: &str) -> &'a str {
        let sections = proto2::response_sections(&response.payload).expect("section body");
        let (_, bytes) = sections
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("missing section {name}"));
        std::str::from_utf8(bytes).expect("UTF-8 section")
    }

    fn message(response: &Response) -> String {
        String::from_utf8_lossy(&response.payload).into_owned()
    }

    #[test]
    fn reorder_matches_in_process_pipeline() {
        let (e, metrics, dir) = endpoints(true);
        let module = wc_module();
        let text = print_module(&module);
        let train = br_workloads::by_name("wc").unwrap().training_input(512);
        let request = payload(&[(sec::MODULE, text.as_bytes()), (sec::TRAIN, &train)]);

        let response = e.handle(kind::REORDER, &request);
        assert_eq!(response.kind, kind::OK, "{}", message(&response));
        let served = body_text(&response, "module");

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
        let verdict = body_text(&response, "validation");
        assert!(verdict.contains("failures 0"), "{verdict}");

        // Certificate hashes: one line per committed reordering, equal
        // to the content addresses an in-process certify run derives.
        let local_summary = local.validation.as_ref().unwrap();
        assert!(
            !local_summary.certificates.is_empty(),
            "wc must commit at least one certified reordering"
        );
        let certs = body_text(&response, "certs");
        assert_eq!(certs.lines().count(), local_summary.certificates.len());
        for (line, c) in certs.lines().zip(&local_summary.certificates) {
            assert_eq!(line, format!("{} {} {:016x}", c.func.0, c.head.0, c.sig));
        }

        // Identical request → cache hit with the identical payload.
        let again = e.handle(kind::REORDER, &request);
        assert_eq!(again.payload, response.payload);
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 1);

        // The same request by content hash resolves to the same cache
        // entry: same key, same bytes, one more hit.
        let hash = proto2::module_hash(text.as_bytes()).to_le_bytes();
        let by_hash = payload(&[(sec::MODULE_HASH, &hash), (sec::TRAIN, &train)]);
        let hashed = e.handle(kind::REORDER, &by_hash);
        assert_eq!(hashed.kind, kind::OK, "{}", message(&hashed));
        assert_eq!(hashed.cache_key, response.cache_key);
        assert_eq!(hashed.payload, response.payload);
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 2);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn measure_request(original: &Module, reordered: &Module, input: &[u8]) -> Vec<u8> {
        payload(&[
            (sec::ORIGINAL, print_module(original).as_bytes()),
            (sec::REORDERED, print_module(reordered).as_bytes()),
            (sec::INPUT, input),
        ])
    }

    #[test]
    fn measure_reports_deltas_and_rejects_divergence() {
        let (e, _metrics, _) = endpoints(false);
        let module = wc_module();
        let w = br_workloads::by_name("wc").unwrap();
        let report = reorder_module(&module, &w.training_input(512), &ReorderOptions::default())
            .expect("pipeline runs");
        let input = w.test_input(768);
        let response = e.handle(
            kind::MEASURE,
            &measure_request(&module, &report.module, &input),
        );
        assert_eq!(response.kind, kind::OK, "{}", message(&response));
        let csv = body_text(&response, "csv");
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
        let refused = e.handle(kind::MEASURE, &measure_request(&module, &other, &input));
        assert_eq!(refused.kind, kind::ERROR);
        assert_eq!(refused.code, code::BAD_REQUEST);
        assert!(message(&refused).contains("behaviour differs"));
    }

    #[test]
    fn measure_per_function_rows_pin_schema_and_sum_to_globals() {
        let (e, _metrics, _) = endpoints(false);
        let module = wc_module();
        let w = br_workloads::by_name("wc").unwrap();
        let report = reorder_module(&module, &w.training_input(512), &ReorderOptions::default())
            .expect("pipeline runs");
        let input = w.test_input(768);
        let response = e.handle(
            kind::MEASURE,
            &measure_request(&module, &report.module, &input),
        );
        assert_eq!(response.kind, kind::OK, "{}", message(&response));
        let csv = body_text(&response, "csv");

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
        let request = payload(&[
            (sec::MODULE, print_module(&module).as_bytes()),
            (sec::INPUT, &input),
        ]);
        let response = e.handle(kind::PROFILE, &request);
        assert_eq!(response.kind, kind::OK, "{}", message(&response));
        let csv = body_text(&response, "csv");
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
        let unknown_hash = payload(&[(sec::MODULE_HASH, &7u64.to_le_bytes())]);
        for (k, request, want) in [
            (kind::REORDER, b"not sections".to_vec(), code::BAD_REQUEST),
            (
                kind::REORDER,
                payload(&[(sec::MODULE, b"garbage ir")]),
                code::BAD_REQUEST,
            ),
            (kind::REORDER, payload(&[(200, b"x")]), code::BAD_REQUEST),
            (
                kind::REORDER,
                payload(&[(sec::MODULE_HASH, b"short")]),
                code::BAD_REQUEST,
            ),
            (kind::REORDER, unknown_hash, code::NEED_MODULE),
            (
                kind::CACHEPUT,
                payload(&[(sec::KEY, b"zz")]),
                code::BAD_REQUEST,
            ),
            (200, Vec::new(), code::BAD_REQUEST),
            // Debug endpoints are off by default.
            (kind::SLEEP, b"5".to_vec(), code::BAD_REQUEST),
        ] {
            let response = e.handle(k, &request);
            assert_eq!(response.kind, kind::ERROR, "opcode {k}: {request:?}");
            assert_eq!(response.code, want, "opcode {k}: {}", message(&response));
        }
    }

    #[test]
    fn options_section_is_honoured() {
        let (e, _metrics, _) = endpoints(false);
        let module = wc_module();
        let text = print_module(&module);
        let train = br_workloads::by_name("wc").unwrap().training_input(512);
        let with_options = |options: &[u8]| {
            payload(&[
                (sec::MODULE, text.as_bytes()),
                (sec::TRAIN, &train),
                (sec::OPTIONS, options),
            ])
        };
        let response = e.handle(
            kind::REORDER,
            &with_options(b"exhaustive 1\nstatic 0\nopttree 1"),
        );
        assert_eq!(response.kind, kind::OK, "{}", message(&response));
        let bad = e.handle(kind::REORDER, &with_options(b"warp-speed 1"));
        assert_eq!(bad.kind, kind::ERROR);
    }
}
