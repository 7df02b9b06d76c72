//! Cluster end-to-end tests: real shard daemons (in-process servers on
//! real sockets) behind a real router.
//!
//! The contracts pinned here:
//!
//! * a reorder served through the router is **byte-identical** to a
//!   single daemon's answer and to the in-process pipeline, proof
//!   certificates included — batched or not;
//! * a cacheable response is replicated to its ring successor, and
//!   after the primary shard is killed the same request is served from
//!   the replica (a cache hit on the successor, a failover at the
//!   router, zero client-visible errors);
//! * a request repeated past the hot threshold is answered from the
//!   router's memo without touching a shard;
//! * bytes that are not a `brs2` frame draw a `code::PROTOCOL` error
//!   naming `brs2`, and a fresh connection is then served;
//! * draining the router propagates the shutdown to every shard, and
//!   `loadgen --shutdown` drives a whole run through a router and
//!   drains it, reading the shards' cache hits from the router.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use br_cluster::ring::Ring;
use br_cluster::router::{Router, RouterConfig, RouterMetrics};
use br_ir::print_module;
use br_minic::{compile, HeuristicSet, Options};
use br_serve::proto2::{self, module_hash, response_sections, Client2, Frame2, ModuleRef};
use br_serve::server::{ServeConfig, Server};
use br_serve::{run_loadgen, LoadgenConfig};

struct Shard {
    addr: String,
    metrics: Arc<br_serve::metrics::Metrics>,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

fn start_shard(cache_dir: Option<std::path::PathBuf>) -> Shard {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        cache_dir,
        ..ServeConfig::default()
    })
    .expect("bind shard");
    let addr = server.addr().to_string();
    let metrics = server.metrics();
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.wait().expect("clean shard shutdown"));
    Shard {
        addr,
        metrics,
        shutdown,
        thread,
    }
}

fn start_router(shards: &[&Shard], config: RouterConfig) -> (Router, String) {
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: shards.iter().map(|s| s.addr.clone()).collect(),
        ..config
    })
    .expect("bind router");
    let addr = router.addr().to_string();
    (router, addr)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("br-cluster-it-{tag}-{}", std::process::id()))
}

fn workload_operands(name: &str, train_size: usize) -> (Arc<String>, Vec<u8>) {
    let w = br_workloads::by_name(name).expect("workload exists");
    let mut module =
        compile(w.source, &Options::with_heuristics(HeuristicSet::SET_I)).expect("compiles");
    br_opt::optimize(&mut module);
    (
        Arc::new(print_module(&module)),
        w.training_input(train_size),
    )
}

fn shutdown_router(addr: &str) {
    let mut c = Client2::connect(addr).expect("connect for shutdown");
    let bye = c
        .call(&Frame2::request(proto2::kind::SHUTDOWN, &[]))
        .expect("shutdown answered");
    assert_eq!(bye.kind, proto2::kind::OK, "{}", bye.payload_text());
}

fn router_counter(addr: &str, name: &str) -> u64 {
    let mut c = Client2::connect(addr).expect("connect for metrics");
    let m = c
        .call(&Frame2::request(proto2::kind::METRICS, &[]))
        .expect("metrics answered");
    assert_eq!(m.kind, proto2::kind::OK);
    RouterMetrics::parse_counter(&m.payload_text(), name)
        .unwrap_or_else(|| panic!("counter {name} missing from:\n{}", m.payload_text()))
}

#[test]
fn routed_reorder_is_byte_identical_to_single_daemon_and_in_process() {
    let shard_a = start_shard(None);
    let shard_b = start_shard(None);
    let lone = start_shard(None);
    let (router, router_addr) = start_router(
        &[&shard_a, &shard_b],
        RouterConfig {
            replicate: false,
            hot_threshold: 0,
            ..RouterConfig::default()
        },
    );
    let router_thread = std::thread::spawn(move || router.wait().expect("router drains"));

    let mut via_router = Client2::connect(&router_addr).expect("connect router");
    let mut direct = Client2::connect(&lone.addr).expect("connect lone daemon");
    for name in ["wc", "cb", "grep"] {
        let (module_text, train) = workload_operands(name, 512);
        let modules = vec![ModuleRef::new(
            proto2::sec::MODULE,
            Arc::clone(&module_text),
        )];
        let plain: Vec<(u8, &[u8])> = vec![(proto2::sec::TRAIN, &train)];
        let routed = via_router
            .call_interned(proto2::kind::REORDER, &modules, &plain)
            .expect("routed call");
        assert_eq!(
            routed.kind,
            proto2::kind::OK,
            "{name}: {}",
            routed.payload_text()
        );
        let lone_response = direct
            .call_interned(proto2::kind::REORDER, &modules, &plain)
            .expect("direct call");
        assert_eq!(
            routed.payload, lone_response.payload,
            "{name}: the cluster must answer byte-identically to a single daemon"
        );

        // And both match the in-process pipeline, certificates included.
        let sections = response_sections(&routed.payload).expect("structured response");
        let section = |name: &str| {
            sections
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, bytes)| *bytes)
                .unwrap_or_else(|| panic!("{name} section"))
        };
        let served = std::str::from_utf8(section("module")).expect("utf8");
        let w = br_workloads::by_name(name).unwrap();
        let mut module =
            compile(w.source, &Options::with_heuristics(HeuristicSet::SET_I)).expect("compiles");
        br_opt::optimize(&mut module);
        let opts = br_reorder::ReorderOptions {
            validate: true,
            certify: true,
            ..br_reorder::ReorderOptions::default()
        };
        let local = br_reorder::reorder_module(&module, &train, &opts).expect("pipeline runs");
        assert_eq!(
            served,
            print_module(&local.module),
            "{name}: routed answer must match the in-process pipeline bit-for-bit"
        );
        assert!(!section("certs").is_empty(), "{name}: certs must travel");
    }

    // Batched through the router: same bytes, split across shards.
    let (wc_text, wc_train) = workload_operands("wc", 512);
    let (cb_text, cb_train) = workload_operands("cb", 512);
    let wc_modules = vec![ModuleRef::new(proto2::sec::MODULE, wc_text)];
    let cb_modules = vec![ModuleRef::new(proto2::sec::MODULE, cb_text)];
    let wc_plain: Vec<(u8, &[u8])> = vec![(proto2::sec::TRAIN, &wc_train)];
    let cb_plain: Vec<(u8, &[u8])> = vec![(proto2::sec::TRAIN, &cb_train)];
    let replies = via_router
        .call_batch(&[
            (proto2::kind::REORDER, &wc_modules, &wc_plain),
            (proto2::kind::REORDER, &cb_modules, &cb_plain),
        ])
        .expect("batched call");
    let mut direct2 = Client2::connect(&lone.addr).expect("connect lone daemon");
    for (i, (k, modules, plain)) in [
        (proto2::kind::REORDER, &wc_modules, &wc_plain),
        (proto2::kind::REORDER, &cb_modules, &cb_plain),
    ]
    .iter()
    .enumerate()
    {
        assert_eq!(replies[i].kind, proto2::kind::OK);
        let lone_reply = direct2.call_interned(*k, modules, plain).expect("direct");
        assert_eq!(
            replies[i].payload, lone_reply.payload,
            "batch item {i}: routed batch must be byte-identical"
        );
    }

    // Both shards did real work (the ring spread the modules).
    let served_a = shard_a.metrics.requests_total();
    let served_b = shard_b.metrics.requests_total();
    assert!(
        served_a + served_b >= 5,
        "shards served {served_a} + {served_b} requests"
    );

    shutdown_router(&router_addr);
    router_thread.join().expect("router thread");
    // Drain propagated: the shards' wait() loops observe the shutdown.
    shard_a.thread.join().expect("shard a drained");
    shard_b.thread.join().expect("shard b drained");
    lone.shutdown.store(true, Ordering::SeqCst);
    lone.thread.join().expect("lone daemon drained");
}

#[test]
fn replicated_cache_entries_survive_killing_the_primary_shard() {
    let cache_a = temp_dir("repl-a");
    let cache_b = temp_dir("repl-b");
    let _ = std::fs::remove_dir_all(&cache_a);
    let _ = std::fs::remove_dir_all(&cache_b);
    let shards = [
        start_shard(Some(cache_a.clone())),
        start_shard(Some(cache_b.clone())),
    ];
    let (router, router_addr) = start_router(
        &[&shards[0], &shards[1]],
        RouterConfig {
            replicate: true,
            hot_threshold: 0,
            probe_interval_ms: 50,
            ..RouterConfig::default()
        },
    );
    let router_thread = std::thread::spawn(move || router.wait().expect("router drains"));

    let (module_text, train) = workload_operands("wc", 512);
    let modules = vec![ModuleRef::new(
        proto2::sec::MODULE,
        Arc::clone(&module_text),
    )];
    let plain: Vec<(u8, &[u8])> = vec![(proto2::sec::TRAIN, &train)];
    let ring = Ring::new(2);
    let primary = ring.primary(module_hash(module_text.as_bytes()));
    let successor = 1 - primary;

    let mut client = Client2::connect(&router_addr).expect("connect router");
    let first = client
        .call_interned(proto2::kind::REORDER, &modules, &plain)
        .expect("first call");
    assert_eq!(first.kind, proto2::kind::OK, "{}", first.payload_text());
    assert_ne!(first.aux, 0, "cacheable response carries its key");
    assert_eq!(
        router_counter(&router_addr, "replications"),
        1,
        "the response must be replicated to the ring successor"
    );
    let successor_hits_before = shards[successor].metrics.cache_hits.load(Ordering::Relaxed);

    // Kill the primary: drain it directly, bypassing the router.
    shards[primary].shutdown.store(true, Ordering::SeqCst);
    // The shard's accept loop polls every ~20 ms; its connection
    // threads notice within their 200 ms read timeout.
    std::thread::sleep(Duration::from_millis(500));

    // Same request again: fails over to the successor and is answered
    // from the replicated cache entry — byte-identical, no recompute.
    let survived = client
        .call_interned(proto2::kind::REORDER, &modules, &plain)
        .expect("failover call");
    assert_eq!(
        survived.kind,
        proto2::kind::OK,
        "request must survive the primary's death: {}",
        survived.payload_text()
    );
    assert_eq!(
        survived.payload, first.payload,
        "replica must be byte-identical"
    );
    // Either the send failed over mid-request, or the prober had
    // already ejected the corpse and routing skipped it up front —
    // both are the designed reaction to a dead primary.
    let failovers = router_counter(&router_addr, "failovers");
    let ejections = router_counter(&router_addr, "ejections");
    assert!(
        failovers >= 1 || ejections >= 1,
        "the router must have routed around the dead primary (failovers {failovers}, ejections {ejections})"
    );
    let successor_hits_after = shards[successor].metrics.cache_hits.load(Ordering::Relaxed);
    assert!(
        successor_hits_after > successor_hits_before,
        "the successor must serve from the replicated entry (hits {successor_hits_before} -> {successor_hits_after})"
    );

    // The prober (50 ms interval, two strikes) has ejected the corpse.
    for _ in 0..100 {
        if router_counter(&router_addr, "ejections") >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        router_counter(&router_addr, "ejections") >= 1,
        "prober must eject"
    );

    shutdown_router(&router_addr);
    router_thread.join().expect("router thread");
    let [a, b] = shards;
    a.thread.join().expect("shard a");
    b.thread.join().expect("shard b");
    let _ = std::fs::remove_dir_all(&cache_a);
    let _ = std::fs::remove_dir_all(&cache_b);
}

#[test]
fn hot_requests_are_answered_from_the_router_memo() {
    let shard = start_shard(None);
    let (router, router_addr) = start_router(
        &[&shard],
        RouterConfig {
            replicate: false,
            hot_threshold: 2,
            ..RouterConfig::default()
        },
    );
    let router_thread = std::thread::spawn(move || router.wait().expect("router drains"));

    let (module_text, train) = workload_operands("wc", 256);
    let modules = vec![ModuleRef::new(proto2::sec::MODULE, module_text)];
    let plain: Vec<(u8, &[u8])> = vec![(proto2::sec::TRAIN, &train)];
    let mut client = Client2::connect(&router_addr).expect("connect");
    let mut payloads = Vec::new();
    for _ in 0..5 {
        let r = client
            .call_interned(proto2::kind::REORDER, &modules, &plain)
            .expect("call");
        assert_eq!(r.kind, proto2::kind::OK, "{}", r.payload_text());
        payloads.push(r.payload);
    }
    assert!(
        payloads.windows(2).all(|w| w[0] == w[1]),
        "answers must not drift"
    );
    let memo_hits = router_counter(&router_addr, "memo_hits");
    assert!(
        memo_hits >= 2,
        "repeats past the threshold must be served router-side (memo_hits {memo_hits})"
    );

    shutdown_router(&router_addr);
    router_thread.join().expect("router thread");
    shard.thread.join().expect("shard drained");
}

#[test]
fn a_text_header_draws_a_protocol_error_and_a_fresh_connection_is_routed() {
    use std::io::Write as _;
    let shard = start_shard(None);
    let (router, router_addr) = start_router(&[&shard], RouterConfig::default());
    let router_thread = std::thread::spawn(move || router.wait().expect("router drains"));

    let mut stream = std::net::TcpStream::connect(&router_addr).expect("connect");
    stream
        .write_all(b"brs1 health 0\n")
        .expect("send a text header");
    let refused = Frame2::read_from(&mut stream).expect("answered in brs2");
    assert_eq!(refused.kind, proto2::kind::ERROR);
    assert_eq!(refused.code, proto2::code::PROTOCOL);
    let text = refused.payload_text();
    assert!(text.contains("brs2"), "the error must name brs2: {text}");
    drop(stream);

    // A fresh connection in the right protocol: routed and served.
    let mut client = Client2::connect(&router_addr).expect("reconnect");
    let ok = client
        .call(&Frame2::request(proto2::kind::HEALTH, &[]))
        .expect("health");
    assert_eq!(ok.kind, proto2::kind::OK);
    drop(client);

    shutdown_router(&router_addr);
    router_thread.join().expect("router thread");
    shard.thread.join().expect("shard drained");
}

#[test]
fn loadgen_shutdown_drains_the_router_and_reads_the_shards_cache_hits() {
    let cache = temp_dir("loadgen");
    let _ = std::fs::remove_dir_all(&cache);
    let shard = start_shard(Some(cache.clone()));
    let (router, router_addr) = start_router(
        &[&shard],
        RouterConfig {
            hot_threshold: 0,
            ..RouterConfig::default()
        },
    );
    let router_thread = std::thread::spawn(move || router.wait().expect("router drains"));

    // Two passes over the corpus: the second is answered from the
    // shard's response cache, which the router's metrics report.
    let report = run_loadgen(&LoadgenConfig {
        addr: router_addr,
        connections: 2,
        passes: 2,
        train_size: 256,
        input_size: 256,
        reorder_only: true,
        shutdown_after: true,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs and drains the router");
    assert_eq!(report.errors, 0, "{:?}", report.error_samples);
    let hits = report
        .cache_hit_delta
        .expect("the router reports the shards' cache hits");
    assert!(hits > 0, "the second pass must hit the shard's cache");

    router_thread.join().expect("router drained");
    shard
        .thread
        .join()
        .expect("shutdown propagated to the shard");
    let _ = std::fs::remove_dir_all(&cache);
}
