//! End-to-end service contract tests: a real daemon on a real socket.
//!
//! These are the acceptance criteria of the serving layer:
//!
//! * responses are byte-identical to the in-process pipeline, with the
//!   translation validator's verdict attached;
//! * a queue-depth-1 daemon under slow requests sheds excess load with
//!   `code::SHED` errors instead of queueing it;
//! * a request that panics the pipeline yields an error frame while
//!   the daemon keeps serving;
//! * a warm 4-thread daemon sustains >= 1000 reorder requests/sec with
//!   p99 under the configured deadline;
//! * a `shutdown` frame drains the daemon cleanly.

use std::time::Duration;

use br_ir::print_module;
use br_minic::{compile, HeuristicSet, Options};
use br_reorder::{reorder_module, ReorderOptions};
use br_serve::proto2::{code, kind, response_sections, sec, Client2, Frame2};
use br_serve::server::{ServeConfig, Server};
use br_serve::{run_loadgen, LoadgenConfig};

/// Start a daemon on an ephemeral port; returns the server thread's
/// join handle and the bound address.
fn start_daemon(mut config: ServeConfig) -> (std::thread::JoinHandle<()>, String) {
    config.addr = "127.0.0.1:0".to_string();
    let server = Server::start(config).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let handle = std::thread::spawn(move || server.wait().expect("clean shutdown"));
    (handle, addr)
}

fn shutdown(addr: &str) -> Frame2 {
    let mut client = Client2::connect(addr).expect("connect for shutdown");
    client
        .call(&Frame2::request(kind::SHUTDOWN, &[]))
        .expect("shutdown acknowledged")
}

/// A debug `sleep` request holding a worker for `ms` milliseconds.
fn sleep(ms: u64) -> Frame2 {
    Frame2 {
        payload: ms.to_string().into_bytes(),
        ..Frame2::request(kind::SLEEP, &[])
    }
}

/// The named section of an ok response body, as text.
fn section<'a>(response: &'a Frame2, name: &str) -> &'a str {
    let sections = response_sections(&response.payload).expect("structured response");
    let (_, bytes) = sections
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("missing section {name}"));
    std::str::from_utf8(bytes).expect("UTF-8 section")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("br-serve-it-{tag}-{}", std::process::id()))
}

fn workload_module(name: &str) -> br_ir::Module {
    let w = br_workloads::by_name(name).expect("workload exists");
    let mut m =
        compile(w.source, &Options::with_heuristics(HeuristicSet::SET_I)).expect("compiles");
    br_opt::optimize(&mut m);
    m
}

fn reorder_request(module: &br_ir::Module, train: &[u8]) -> Frame2 {
    Frame2::request(
        kind::REORDER,
        &[
            (sec::MODULE, print_module(module).as_bytes()),
            (sec::TRAIN, train),
        ],
    )
}

#[test]
fn served_reorder_is_byte_identical_to_in_process_pipeline() {
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 2,
        cache_dir: None,
        ..ServeConfig::default()
    });
    let mut client = Client2::connect(&addr).expect("connect");
    for name in ["wc", "cb", "grep"] {
        let module = workload_module(name);
        let train = br_workloads::by_name(name).unwrap().training_input(512);
        let response = client
            .call(&reorder_request(&module, &train))
            .expect("call succeeds");
        assert_eq!(
            response.kind,
            kind::OK,
            "{name}: {}",
            response.payload_text()
        );
        let served = section(&response, "module");

        let opts = ReorderOptions {
            validate: true,
            ..ReorderOptions::default()
        };
        let local = reorder_module(&module, &train, &opts).expect("pipeline runs");
        assert_eq!(
            served,
            print_module(&local.module),
            "{name}: daemon and in-process pipeline must agree bit-for-bit"
        );

        // The verdict travels with the module, and it is clean.
        let verdict = section(&response, "validation");
        assert!(verdict.starts_with("proven "), "{name}: {verdict}");
        assert!(verdict.contains("failures 0"), "{name}: {verdict}");
        let local_summary = local.validation.expect("validate on");
        assert!(
            verdict.contains(&format!("proven {}", local_summary.proven)),
            "{name}: proven count must match in-process run: {verdict}"
        );
    }
    assert_eq!(shutdown(&addr).kind, kind::OK);
    daemon.join().expect("daemon thread");
}

#[test]
fn queue_depth_one_sheds_excess_load_with_overloaded_frames() {
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 1,
        queue: 1,
        deadline_ms: 0,
        cache_dir: None,
        debug_endpoints: true,
        ..ServeConfig::default()
    });
    // Wedge the single worker, then fill the depth-1 queue.
    let occupy = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client2::connect(&addr).expect("connect");
            c.call(&sleep(800)).expect("slow request")
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    let queued = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client2::connect(&addr).expect("connect");
            c.call(&sleep(10)).expect("queued request")
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    // Worker busy, queue full: this request must be shed, immediately.
    let mut c = Client2::connect(&addr).expect("connect");
    let response = c.call(&sleep(10)).expect("shed request");
    assert_eq!(response.kind, kind::ERROR, "{}", response.payload_text());
    assert_eq!(response.code, code::SHED, "{}", response.payload_text());

    // The wedged and queued requests still complete normally.
    assert_eq!(occupy.join().expect("occupier").kind, kind::OK);
    assert_eq!(queued.join().expect("queued").kind, kind::OK);
    assert_eq!(shutdown(&addr).kind, kind::OK);
    daemon.join().expect("daemon thread");
}

#[test]
fn pipeline_panic_yields_error_frame_and_daemon_survives() {
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 2,
        cache_dir: None,
        debug_endpoints: true,
        ..ServeConfig::default()
    });
    let mut client = Client2::connect(&addr).expect("connect");
    let panic = Frame2 {
        payload: b"poisoned module".to_vec(),
        ..Frame2::request(kind::PANIC, &[])
    };
    let response = client.call(&panic).expect("panic answered, not dropped");
    assert_eq!(response.kind, kind::ERROR);
    assert_eq!(response.code, code::INTERNAL);
    assert!(
        response.payload_text().contains("poisoned module"),
        "{}",
        response.payload_text()
    );

    // Same connection, next request: the daemon is still serving.
    let module = workload_module("wc");
    let train = br_workloads::by_name("wc").unwrap().training_input(512);
    let ok = client
        .call(&reorder_request(&module, &train))
        .expect("daemon survived the panic");
    assert_eq!(ok.kind, kind::OK, "{}", ok.payload_text());
    assert_eq!(shutdown(&addr).kind, kind::OK);
    daemon.join().expect("daemon thread");
}

#[test]
fn health_and_metrics_report_live_state() {
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 1,
        cache_dir: None,
        ..ServeConfig::default()
    });
    let mut client = Client2::connect(&addr).expect("connect");
    let health = client
        .call(&Frame2::request(kind::HEALTH, &[]))
        .expect("health");
    assert_eq!(health.kind, kind::OK);
    assert_eq!(health.payload_text(), "ok\n");

    let module = workload_module("wc");
    let train = br_workloads::by_name("wc").unwrap().training_input(256);
    client
        .call(&reorder_request(&module, &train))
        .expect("reorder");
    let metrics = client
        .call(&Frame2::request(kind::METRICS, &[]))
        .expect("metrics");
    let text = metrics.payload_text();
    assert!(
        text.contains("br_serve_requests_total{kind=\"reorder\"} 1"),
        "{text}"
    );
    assert!(text.contains("br_serve_ok_total 1"), "{text}");
    assert!(text.contains("br_serve_latency_us_p99"), "{text}");
    assert_eq!(shutdown(&addr).kind, kind::OK);
    daemon.join().expect("daemon thread");
}

#[test]
fn warm_daemon_sustains_1000_reorder_requests_per_second() {
    let deadline_ms = 5_000;
    let cache = temp_dir("throughput");
    let _ = std::fs::remove_dir_all(&cache);
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 4,
        queue: 256,
        deadline_ms,
        cache_dir: Some(cache.clone()),
        ..ServeConfig::default()
    });

    // Warm pass: populate the response cache (pipeline runs once per
    // distinct request; debug builds also pay validation here).
    let warm = LoadgenConfig {
        addr: addr.clone(),
        connections: 4,
        passes: 1,
        train_size: 512,
        input_size: 512,
        reorder_only: true,
        shutdown_after: false,
        ..LoadgenConfig::default()
    };
    let cold_report = run_loadgen(&warm).expect("warm-up pass");
    assert_eq!(cold_report.errors, 0, "{:?}", cold_report.error_samples);

    // Measured pass: the same corpus, many passes, all cache hits.
    let measured = LoadgenConfig { passes: 30, ..warm };
    let report = run_loadgen(&measured).expect("measured pass");
    assert_eq!(report.errors, 0, "{:?}", report.error_samples);
    assert_eq!(report.shed, 0, "shed under closed-loop warm load");
    assert!(
        report.throughput() >= 1000.0,
        "sustained {:.1} req/s < 1000 over {} requests in {:.2?}",
        report.throughput(),
        report.sent,
        report.elapsed
    );
    let p99 = report.latency.quantile(0.99).expect("latency recorded");
    assert!(
        p99 < Duration::from_millis(deadline_ms),
        "p99 {p99:?} breaches the {deadline_ms} ms deadline"
    );
    assert_eq!(shutdown(&addr).kind, kind::OK);
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn deadline_expired_in_queue_is_an_error_frame() {
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 1,
        queue: 8,
        deadline_ms: 150,
        cache_dir: None,
        debug_endpoints: true,
        ..ServeConfig::default()
    });
    // Wedge the worker past the deadline of anything queued behind it.
    let occupy = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client2::connect(&addr).expect("connect");
            c.call(&sleep(600)).expect("slow request")
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    let mut c = Client2::connect(&addr).expect("connect");
    let response = c.call(&sleep(10)).expect("late request");
    assert_eq!(response.kind, kind::ERROR, "{}", response.payload_text());
    assert_eq!(response.code, code::DEADLINE, "{}", response.payload_text());
    assert!(
        response.payload_text().contains("deadline expired"),
        "{}",
        response.payload_text()
    );
    assert_eq!(occupy.join().expect("occupier").kind, kind::OK);
    assert_eq!(shutdown(&addr).kind, kind::OK);
    daemon.join().expect("daemon thread");
}

#[test]
fn graceful_drain_answers_in_flight_work_and_counts_are_consistent() {
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 2,
        cache_dir: None,
        ..ServeConfig::default()
    });
    let module = workload_module("wc");
    let train = br_workloads::by_name("wc").unwrap().training_input(256);
    let mut client = Client2::connect(&addr).expect("connect");
    let ok = client
        .call(&reorder_request(&module, &train))
        .expect("reorder");
    assert_eq!(ok.kind, kind::OK);
    let bye = shutdown(&addr);
    assert_eq!(bye.kind, kind::OK);
    assert_eq!(bye.payload_text(), "draining\n");
    daemon.join().expect("daemon drains cleanly");
    // A post-drain connect must fail: the listener is gone.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        Client2::connect(&addr).is_err(),
        "listener closed after drain"
    );
}
