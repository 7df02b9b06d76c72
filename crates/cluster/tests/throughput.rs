//! The 10x acceptance bench: a warm cluster behind the router must
//! sustain >= 10,000 reorder requests/second — ten times the PR-5
//! single-daemon closed-loop baseline of ~1,000 req/s.
//!
//! Ignored by default (it is a benchmark, not a correctness test);
//! run it in release mode:
//!
//! ```text
//! cargo test -p br-cluster --release --test throughput -- --ignored --nocapture
//! ```
//!
//! Where the 10x comes from, on one box: the `brs2` binary framing
//! removes text parsing, batching amortizes a round trip over 64
//! requests, warm shard response caches remove recompute, and the
//! router's hot-key memo serves repeats without a shard round trip at
//! all. The numbers are recorded in EXPERIMENTS.md §"Cluster".

use br_cluster::router::{Router, RouterConfig};
use br_serve::loadgen::{run_loadgen, LoadgenConfig};
use br_serve::server::{ServeConfig, Server};

#[test]
#[ignore = "benchmark: run in release with -- --ignored"]
fn warm_cluster_sustains_10x_the_single_daemon_baseline() {
    let mut shards = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            queue: 512,
            cache_dir: None,
            ..ServeConfig::default()
        })
        .expect("bind shard");
        addrs.push(server.addr().to_string());
        shards.push((
            server.shutdown_handle(),
            std::thread::spawn(move || server.wait().expect("shard drains")),
        ));
    }
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: addrs,
        replicate: true,
        hot_threshold: 2,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let router_addr = router.addr().to_string();
    let router_thread = std::thread::spawn(move || router.wait().expect("router drains"));

    // Warm pass: every distinct request computed once, shard caches and
    // the router memo populated.
    let warm = LoadgenConfig {
        addr: router_addr.clone(),
        connections: 4,
        passes: 3,
        train_size: 512,
        input_size: 512,
        reorder_only: true,
        shutdown_after: false,
        batch: 1,
    };
    let warm_report = run_loadgen(&warm).expect("warm pass");
    assert_eq!(warm_report.errors, 0, "{:?}", warm_report.error_samples);

    // Measured pass: closed loop, 64-deep batches.
    let measured = LoadgenConfig {
        passes: 200,
        batch: 64,
        ..warm
    };
    let report = run_loadgen(&measured).expect("measured pass");
    assert_eq!(report.errors, 0, "{:?}", report.error_samples);
    assert_eq!(report.shed, 0, "shed under closed-loop warm load");
    println!(
        "cluster throughput: {:.1} req/s over {} requests in {:.2?}",
        report.throughput(),
        report.sent,
        report.elapsed
    );
    assert!(
        report.throughput() >= 10_000.0,
        "sustained {:.1} req/s < 10,000 (10x the PR-5 baseline) over {} requests in {:.2?}",
        report.throughput(),
        report.sent,
        report.elapsed
    );

    let mut bye = br_serve::Client2::connect(&router_addr).expect("connect");
    let drained = bye
        .call(&br_serve::Frame2::request(
            br_serve::proto2::kind::SHUTDOWN,
            &[],
        ))
        .expect("shutdown answered");
    assert_eq!(drained.kind, br_serve::proto2::kind::OK);
    router_thread.join().expect("router thread");
    for (_, thread) in shards {
        thread.join().expect("shard drained");
    }
}
