//! `brs2` protocol end-to-end tests: a real daemon on a real socket.
//!
//! The contracts pinned here:
//!
//! * a reorder response is **byte-identical** — including the `certs`
//!   proof section — whether the module travelled as a full body or as
//!   a content hash resolved from the intern table;
//! * module interning: a hash the shard has never seen draws a
//!   `need-module` error naming the hash; after one upload the same
//!   hash-only request succeeds, and survives a daemon **restart** via
//!   the shared artifact cache;
//! * batched requests answer item-for-item identically to unbatched;
//! * bytes that are not a `brs2` frame (a text header, say) draw one
//!   `code::PROTOCOL` error naming `brs2`, then a hang-up;
//! * an oversized frame is answered with an error and the connection
//!   stays usable, and so is a reply too large for one frame;
//! * an unknown `options` line (the retired `common`, say) draws a
//!   `bad_request` error naming it, and the connection stays usable;
//! * admission control under deterministic saturation: a wedged
//!   worker plus a full queue sheds exactly the overflow with the
//!   `shed` code, and every accepted request completes within its
//!   deadline (`deadline_expired` stays 0).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use br_ir::print_module;
use br_minic::{compile, HeuristicSet, Options};
use br_serve::metrics::Metrics;
use br_serve::proto2::{
    self, code, kind, request_payload, response_sections, sec, Frame2, ModuleRef, MAX_PAYLOAD,
};
use br_serve::server::{ServeConfig, Server};
use br_serve::Client2;

fn start_daemon(mut config: ServeConfig) -> (std::thread::JoinHandle<()>, String) {
    config.addr = "127.0.0.1:0".to_string();
    let server = Server::start(config).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let handle = std::thread::spawn(move || server.wait().expect("clean shutdown"));
    (handle, addr)
}

fn shutdown(addr: &str) {
    let mut client = Client2::connect(addr).expect("connect for shutdown");
    let bye = client
        .call(&Frame2::request(kind::SHUTDOWN, &[]))
        .expect("shutdown acknowledged");
    assert_eq!(bye.kind, kind::OK, "{}", bye.payload_text());
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("br-serve-brs2-{tag}-{}", std::process::id()))
}

fn counter(addr: &str, name: &str) -> u64 {
    let mut client = Client2::connect(addr).expect("connect for metrics");
    let response = client
        .call(&Frame2::request(kind::METRICS, &[]))
        .expect("metrics");
    assert_eq!(response.kind, kind::OK);
    Metrics::parse_counter(&response.payload_text(), name)
        .unwrap_or_else(|| panic!("counter {name} missing from:\n{}", response.payload_text()))
}

fn health(stream: &mut TcpStream) -> Frame2 {
    Frame2::request(kind::HEALTH, &[])
        .write_to(stream)
        .expect("send health");
    Frame2::read_from(stream).expect("health answer")
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

#[test]
fn hash_referenced_reorder_is_byte_identical_to_full_body_including_certs() {
    // No cache: both forms compute fresh, so equality checks hash
    // resolution, not a shared cache entry.
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 2,
        cache_dir: None,
        ..ServeConfig::default()
    });
    let mut client = Client2::connect(&addr).expect("connect");
    for name in ["wc", "grep"] {
        let (module_text, train) = workload_operands(name, 512);
        let full_body = client
            .call(&Frame2::request(
                kind::REORDER,
                &[(sec::MODULE, module_text.as_bytes()), (sec::TRAIN, &train)],
            ))
            .expect("full-body call");
        assert_eq!(
            full_body.kind,
            kind::OK,
            "{name}: {}",
            full_body.payload_text()
        );

        // The proof certificates travel in the answer.
        let sections = response_sections(&full_body.payload).expect("structured response");
        let (_, certs) = sections
            .iter()
            .find(|(n, _)| *n == "certs")
            .expect("certs section");
        assert!(!certs.is_empty(), "{name}: certs section must be populated");

        // Steady state: the same request by hash only, no body, and the
        // answer is still byte-identical.
        let modules = vec![ModuleRef::new(sec::MODULE, Arc::clone(&module_text))];
        let hash_only = client
            .call(&Frame2 {
                payload: request_payload(&modules, &[(sec::TRAIN, &train)], |_| true),
                ..Frame2::request(kind::REORDER, &[])
            })
            .expect("hash-only call");
        assert_eq!(hash_only.kind, kind::OK, "{}", hash_only.payload_text());
        assert_eq!(hash_only.payload, full_body.payload, "{name}");
        assert_eq!(hash_only.aux, full_body.aux, "{name}: one cache key");
    }
    shutdown(&addr);
    daemon.join().expect("daemon thread");
}

#[test]
fn need_module_flow_uploads_once_and_survives_restart() {
    let cache = temp_dir("intern");
    let _ = std::fs::remove_dir_all(&cache);
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 1,
        cache_dir: Some(cache.clone()),
        ..ServeConfig::default()
    });
    let (module_text, train) = workload_operands("wc", 256);
    let modules = vec![ModuleRef::new(sec::MODULE, Arc::clone(&module_text))];

    // A hash the daemon has never seen draws need-module, naming it.
    let mut v2 = Client2::connect(&addr).expect("connect");
    let optimistic = Frame2 {
        kind: kind::REORDER,
        flags: 0,
        code: 0,
        aux: 0,
        payload: request_payload(&modules, &[(sec::TRAIN, &train)], |_| true),
    };
    let refused = v2.call(&optimistic).expect("answered");
    assert_eq!(refused.kind, kind::ERROR);
    assert_eq!(
        refused.code,
        code::NEED_MODULE,
        "{}",
        refused.payload_text()
    );
    assert!(
        refused
            .payload_text()
            .contains(&format!("{:016x}", modules[0].hash)),
        "need-module must name the missing hash: {}",
        refused.payload_text()
    );
    assert_eq!(counter(&addr, "need_module"), 1);

    // One full upload, then hash-only succeeds — same bytes.
    let uploaded = v2
        .call_interned(kind::REORDER, &modules, &[(sec::TRAIN, &train)])
        .expect("upload call");
    assert_eq!(uploaded.kind, kind::OK, "{}", uploaded.payload_text());
    let by_hash = v2.call(&optimistic).expect("hash-only call");
    assert_eq!(by_hash.kind, kind::OK, "{}", by_hash.payload_text());
    assert_eq!(by_hash.payload, uploaded.payload);
    assert_eq!(counter(&addr, "need_module"), 1, "no second upload needed");
    shutdown(&addr);
    daemon.join().expect("daemon thread");

    // Restart on the same cache directory: the interned body comes back
    // from disk, so the very first hash-only request succeeds.
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 1,
        cache_dir: Some(cache.clone()),
        ..ServeConfig::default()
    });
    let mut v2 = Client2::connect(&addr).expect("reconnect");
    let after_restart = v2.call(&optimistic).expect("hash-only after restart");
    assert_eq!(
        after_restart.kind,
        kind::OK,
        "interned module must survive restart via the artifact cache: {}",
        after_restart.payload_text()
    );
    assert_eq!(after_restart.payload, uploaded.payload);
    assert_eq!(counter(&addr, "need_module"), 0);
    assert_eq!(
        counter(&addr, "cache_hits"),
        1,
        "the hash-only request must hit the full-body upload's cache entry"
    );
    shutdown(&addr);
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn batched_requests_answer_identically_to_unbatched() {
    let cache = temp_dir("batch");
    let _ = std::fs::remove_dir_all(&cache);
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 2,
        cache_dir: Some(cache.clone()),
        ..ServeConfig::default()
    });
    let (wc_text, wc_train) = workload_operands("wc", 256);
    let (cb_text, cb_train) = workload_operands("cb", 256);
    let wc_modules = vec![ModuleRef::new(sec::MODULE, wc_text)];
    let cb_modules = vec![ModuleRef::new(sec::MODULE, cb_text)];
    let wc_plain: Vec<(u8, &[u8])> = vec![(sec::TRAIN, &wc_train)];
    let cb_plain: Vec<(u8, &[u8])> = vec![(sec::TRAIN, &cb_train)];

    let mut batcher = Client2::connect(&addr).expect("connect");
    let items: Vec<proto2::BatchItem<'_>> = vec![
        (kind::REORDER, &wc_modules, &wc_plain),
        (kind::REORDER, &cb_modules, &cb_plain),
        (kind::REORDER, &wc_modules, &wc_plain),
    ];
    let replies = batcher.call_batch(&items).expect("batch call");
    assert_eq!(replies.len(), 3);
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply.kind, kind::OK, "item {i}: {:?}", reply.payload);
        assert_ne!(reply.aux, 0, "item {i}: cacheable response carries its key");
    }
    assert_eq!(
        replies[0].payload, replies[2].payload,
        "same request, same bytes"
    );
    assert_eq!(
        replies[0].aux, replies[2].aux,
        "same request, same cache key"
    );
    assert_eq!(counter(&addr, "batch_items"), 3);

    // A fresh unbatched client gets the same bytes per item.
    let mut single = Client2::connect(&addr).expect("connect");
    for (i, (k, modules, plain)) in items.iter().enumerate() {
        let lone = single.call_interned(*k, modules, plain).expect("call");
        assert_eq!(lone.kind, kind::OK);
        assert_eq!(
            lone.payload, replies[i].payload,
            "item {i}: batched and unbatched answers must be byte-identical"
        );
    }
    shutdown(&addr);
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn a_text_header_draws_a_protocol_error_naming_brs2_then_a_hangup() {
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 1,
        cache_dir: None,
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"brs1 health 0\n")
        .expect("send a text header");
    let refused = Frame2::read_from(&mut stream).expect("answered in brs2");
    assert_eq!(refused.kind, kind::ERROR);
    assert_eq!(refused.code, code::PROTOCOL);
    let text = refused.payload_text();
    assert!(
        text.contains("brs2"),
        "the error must name the protocol: {text}"
    );
    // The stream position is unknowable after garbage: the daemon hangs
    // up rather than guess. (The unread rest of the header may turn the
    // close into a reset.)
    let mut rest = Vec::new();
    match stream.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "nothing after the error: {rest:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }

    // A fresh connection is served.
    let mut fresh = TcpStream::connect(&addr).expect("reconnect");
    assert_eq!(health(&mut fresh).kind, kind::OK);
    drop(fresh);
    assert_eq!(counter(&addr, "error"), 1);
    shutdown(&addr);
    daemon.join().expect("daemon thread");
}

#[test]
fn oversized_frames_are_answered_and_connection_stays_usable() {
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 1,
        cache_dir: None,
        ..ServeConfig::default()
    });
    let oversize = MAX_PAYLOAD as u64 + 1;
    let chunk = vec![0u8; 1 << 20];

    // A hand-built header declaring one byte past the limit.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut header = Vec::new();
    header.extend_from_slice(b"brs2");
    header.push(kind::REORDER);
    header.push(0); // flags
    header.extend_from_slice(&0u16.to_le_bytes()); // code
    header.extend_from_slice(&0u64.to_le_bytes()); // aux
    header.extend_from_slice(&(oversize as u32).to_le_bytes());
    stream.write_all(&header).expect("header");
    let mut left = oversize;
    while left > 0 {
        let n = (left as usize).min(chunk.len());
        stream.write_all(&chunk[..n]).expect("bulk write");
        left -= n as u64;
    }
    let refused = Frame2::read_from(&mut stream).expect("answered");
    assert_eq!(refused.kind, kind::ERROR);
    assert_eq!(refused.code, code::OVERSIZED, "{}", refused.payload_text());
    // The connection survived the drain and keeps serving.
    assert_eq!(health(&mut stream).kind, kind::OK);
    drop(stream);

    assert_eq!(counter(&addr, "oversized"), 1);
    shutdown(&addr);
    daemon.join().expect("daemon thread");
}

#[test]
fn an_unknown_option_is_a_bad_request_and_connection_stays_usable() {
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 1,
        cache_dir: None,
        ..ServeConfig::default()
    });
    let (module_text, train) = workload_operands("wc", 512);
    let mut client = Client2::connect(&addr).expect("connect");
    let reorder = |options: &[u8]| {
        Frame2::request(
            kind::REORDER,
            &[
                (sec::MODULE, module_text.as_bytes()),
                (sec::TRAIN, &train),
                (sec::OPTIONS, options),
            ],
        )
    };
    // An option the service does not know, such as `common`, is refused.
    let refused = client.call(&reorder(b"common 1")).expect("answered");
    let text = refused.payload_text();
    assert_eq!(
        (refused.kind, refused.code),
        (kind::ERROR, code::BAD_REQUEST),
        "{text}"
    );
    assert!(text.contains("unknown option \"common\""), "{text}");
    let ok = client.call(&reorder(b"exhaustive 1")).expect("answered");
    assert_eq!(ok.kind, kind::OK, "{}", ok.payload_text());
    drop(client);
    shutdown(&addr);
    daemon.join().expect("daemon thread");
}

#[test]
fn a_batch_reply_past_the_frame_limit_is_answered_oversized_and_connection_stays_usable() {
    let cache = temp_dir("big-reply");
    let _ = std::fs::remove_dir_all(&cache);
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 1,
        cache_dir: Some(cache.clone()),
        ..ServeConfig::default()
    });
    let (module_text, train) = workload_operands("wc", 64);
    let request = Frame2::request(
        kind::REORDER,
        &[(sec::MODULE, module_text.as_bytes()), (sec::TRAIN, &train)],
    );
    let mut client = Client2::connect(&addr).expect("connect");
    let first = client.call(&request).expect("reorder");
    assert_eq!(first.kind, kind::OK, "{}", first.payload_text());

    // Replace the request's cache entry with a body more than half a
    // frame long: one answer fits a frame, two in a batch do not.
    let body = "x".repeat(MAX_PAYLOAD / 2 + 1024);
    let key = format!("{:016x}", first.aux);
    let put = Frame2::request(
        kind::CACHEPUT,
        &[(sec::KEY, key.as_bytes()), (sec::BODY, body.as_bytes())],
    );
    let stored = client.call(&put).expect("cacheput");
    assert_eq!(stored.kind, kind::OK, "{}", stored.payload_text());

    let mut batch = Vec::new();
    for _ in 0..2 {
        proto2::push_batch_item(&mut batch, kind::REORDER, &request.payload);
    }
    let reply = client
        .call(&Frame2 {
            flags: proto2::flags::BATCH,
            payload: batch,
            ..Frame2::request(kind::BATCH, &[])
        })
        .expect("the batch reply fits a frame");
    assert!(reply.payload.len() <= MAX_PAYLOAD);
    let items = proto2::batch_replies(&reply.payload).expect("batch replies");
    assert_eq!(items.len(), 2);
    assert_eq!(items[0].kind, kind::OK);
    assert_eq!(items[0].payload, body.as_bytes());
    assert_eq!(
        (items[1].kind, items[1].code),
        (kind::ERROR, code::OVERSIZED),
        "{}",
        String::from_utf8_lossy(&items[1].payload)
    );

    // The same connection is still frame-aligned.
    let ok = client
        .call(&Frame2::request(kind::HEALTH, &[]))
        .expect("health after the big reply");
    assert_eq!(ok.kind, kind::OK);
    drop(client);
    shutdown(&addr);
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn saturated_admission_queue_sheds_exactly_the_overflow_and_accepted_work_meets_deadline() {
    let deadline_ms = 5_000;
    let (daemon, addr) = start_daemon(ServeConfig {
        threads: 1,
        queue: 1,
        deadline_ms,
        cache_dir: None,
        debug_endpoints: true,
        ..ServeConfig::default()
    });
    let sleep = |ms: &str| Frame2 {
        payload: ms.as_bytes().to_vec(),
        ..Frame2::request(kind::SLEEP, &[])
    };

    // Wedge the single worker with a slow request, then fill the
    // depth-1 queue.
    let occupy = {
        let addr = addr.clone();
        let slow = sleep("800");
        std::thread::spawn(move || {
            let mut c = Client2::connect(&addr).expect("connect");
            c.call(&slow).expect("slow request")
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    let queued = {
        let addr = addr.clone();
        let quick = sleep("10");
        std::thread::spawn(move || {
            let mut c = Client2::connect(&addr).expect("connect");
            c.call(&quick).expect("queued request")
        })
    };
    std::thread::sleep(Duration::from_millis(200));

    // Worker busy, queue full: exactly these five must be shed, each
    // answered immediately with the shed code.
    const OVERFLOW: usize = 5;
    for i in 0..OVERFLOW {
        let mut c = Client2::connect(&addr).expect("connect");
        let shed = c.call(&sleep("10")).expect("shed answered");
        assert_eq!(shed.kind, kind::ERROR, "overflow request {i}");
        assert_eq!(
            shed.code,
            code::SHED,
            "overflow request {i}: {}",
            shed.payload_text()
        );
    }

    // Every accepted request completes fine and within deadline.
    let occupied = occupy.join().expect("occupier");
    assert_eq!(occupied.kind, kind::OK, "{}", occupied.payload_text());
    let queued = queued.join().expect("queued");
    assert_eq!(queued.kind, kind::OK, "{}", queued.payload_text());

    assert_eq!(counter(&addr, "shed"), OVERFLOW as u64);
    assert_eq!(counter(&addr, "deadline_expired"), 0);
    shutdown(&addr);
    daemon.join().expect("daemon thread");
}
