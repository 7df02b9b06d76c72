//! The cluster router: a `brs2` front door that fans requests out to
//! shards by content hash.
//!
//! Every compute request is routed by the **module's content hash** —
//! the same 64-bit [`proto2::module_hash`] the interning layer uses —
//! through the consistent-hash [`Ring`]. Consequences:
//!
//! * a module's requests always land on the shard that has it interned
//!   and its responses cached, so the cluster behaves like one big
//!   content-addressed cache;
//! * `need-module` flows through unchanged: the router is a dumb pipe
//!   for the delta-upload handshake, and because routing is
//!   deterministic, the client's re-upload lands on the very shard
//!   that asked;
//! * batches are split per shard, forwarded as sub-batches, and the
//!   replies re-assembled in request order.
//!
//! Resilience:
//!
//! * **replication** — an `ok` response carrying a cache key (`aux`)
//!   is re-installed on the key's ring successor via `cacheput`, so a
//!   shard's death does not cold-start its working set;
//! * **failover** — a send that fails walks the key's candidate list;
//!   with replication on, the first hop is exactly the shard holding
//!   the replicas;
//! * **health probes** — a prober thread marks a shard dead after two
//!   consecutive failed probes (eject) and live again on the first
//!   success (readmit); routing skips dead shards without rebuilding
//!   the ring;
//! * **hot-key memo** — a request seen [`RouterConfig::hot_threshold`]
//!   times is answered from a bounded router-side memo of its
//!   (deterministic, cacheable) response without touching a shard;
//! * **graceful drain** — `shutdown` stops the accept loop, finishes
//!   in-flight connections, then propagates the shutdown to every
//!   live shard.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use br_serve::metrics::Metrics;
use br_serve::proto2::{
    self, batch_items, batch_replies, module_hash, push_batch_item, BatchReply, Client2, Frame2,
};
use br_serve::server::{accept_until_shutdown, serve_frames};
use br_sweep::cache::fnv1a;

use crate::ring::Ring;

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Shard addresses; ring position = index in this list.
    pub shards: Vec<String>,
    /// Replicate cacheable responses to the key's ring successor.
    pub replicate: bool,
    /// Identical requests before the router memoizes the response
    /// (0 disables the hot-key memo).
    pub hot_threshold: u32,
    /// Maximum memoized responses held at once.
    pub memo_capacity: usize,
    /// Health-probe interval.
    pub probe_interval_ms: u64,
    /// Read/write timeout on shard connections — a shard slower than
    /// this is treated as failed and the request fails over.
    pub shard_timeout_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:7410".to_string(),
            shards: Vec::new(),
            replicate: true,
            hot_threshold: 8,
            memo_capacity: 256,
            probe_interval_ms: 250,
            shard_timeout_ms: 30_000,
        }
    }
}

/// Router-side counters, rendered as `br_cluster_*` plaintext.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Frames accepted from clients (batch = 1 frame).
    pub requests: AtomicU64,
    /// Individual requests forwarded to shards.
    pub forwarded: AtomicU64,
    /// Requests retried on another shard after a send failed.
    pub failovers: AtomicU64,
    /// Requests answered with an error because no shard could.
    pub unrouteable: AtomicU64,
    /// Responses replicated to their ring successor.
    pub replications: AtomicU64,
    /// Requests answered from the hot-key memo.
    pub memo_hits: AtomicU64,
    /// Oversized frames answered and drained.
    pub oversized: AtomicU64,
    /// Shards ejected by the health prober.
    pub ejections: AtomicU64,
    /// Shards readmitted after probes recovered.
    pub readmissions: AtomicU64,
}

impl RouterMetrics {
    /// Plaintext rendering, one `br_cluster_<name>_total` line per
    /// counter (the `metrics` endpoint's payload, minus the per-shard
    /// liveness gauges and the shards' summed cache hits).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in [
            ("requests", &self.requests),
            ("forwarded", &self.forwarded),
            ("failovers", &self.failovers),
            ("unrouteable", &self.unrouteable),
            ("replications", &self.replications),
            ("memo_hits", &self.memo_hits),
            ("oversized", &self.oversized),
            ("ejections", &self.ejections),
            ("readmissions", &self.readmissions),
        ] {
            let _ = writeln!(
                out,
                "br_cluster_{name}_total {}",
                value.load(Ordering::Relaxed)
            );
        }
        out
    }

    /// Parse one counter back out of [`RouterMetrics::render`] output.
    pub fn parse_counter(rendered: &str, name: &str) -> Option<u64> {
        let prefix = format!("br_cluster_{name}_total ");
        rendered
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .and_then(|v| v.parse().ok())
    }
}

/// One shard as the router sees it.
struct ShardState {
    addr: String,
    alive: AtomicBool,
    fails: AtomicU32,
}

/// Consecutive failed probes (or sends) before a shard is ejected.
const EJECT_AFTER: u32 = 2;

impl ShardState {
    fn record_failure(&self, metrics: &RouterMetrics) {
        let fails = self.fails.fetch_add(1, Ordering::SeqCst) + 1;
        if fails >= EJECT_AFTER && self.alive.swap(false, Ordering::SeqCst) {
            metrics.ejections.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_success(&self, metrics: &RouterMetrics) {
        self.fails.store(0, Ordering::SeqCst);
        if !self.alive.swap(true, Ordering::SeqCst) {
            metrics.readmissions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Hot-key memo: request-hash -> seen count, then the memoized reply.
struct Memo {
    counts: HashMap<u64, u32>,
    replies: HashMap<u64, BatchReply>,
}

struct RouterState {
    config: RouterConfig,
    ring: Ring,
    shards: Vec<ShardState>,
    metrics: RouterMetrics,
    memo: Mutex<Memo>,
    /// `(cache key, successor)` pairs already replicated.
    replicated: Mutex<HashSet<(u64, usize)>>,
    draining: AtomicBool,
}

impl RouterState {
    /// Candidate shard order for a key, live shards first; dead shards
    /// stay as last-resort candidates (the prober may lag reality).
    fn candidate_order(&self, key: u64) -> Vec<usize> {
        let candidates = self.ring.candidates(key);
        let (live, dead): (Vec<usize>, Vec<usize>) = candidates
            .into_iter()
            .partition(|&s| self.shards[s].alive.load(Ordering::SeqCst));
        live.into_iter().chain(dead).collect()
    }
}

/// A running router. Obtained from [`Router::start`]; serves until
/// [`Router::wait`] observes shutdown and finishes draining.
pub struct Router {
    addr: SocketAddr,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    state: Arc<RouterState>,
    prober: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Bind the listener and start the health prober.
    ///
    /// # Errors
    ///
    /// Binding the address fails, or the shard list is empty.
    pub fn start(config: RouterConfig) -> io::Result<Router> {
        if config.shards.is_empty() {
            return Err(io::Error::other("router needs at least one shard"));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shards = config
            .shards
            .iter()
            .map(|addr| ShardState {
                addr: addr.clone(),
                alive: AtomicBool::new(true),
                fails: AtomicU32::new(0),
            })
            .collect();
        let state = Arc::new(RouterState {
            ring: Ring::new(config.shards.len()),
            shards,
            metrics: RouterMetrics::default(),
            memo: Mutex::new(Memo {
                counts: HashMap::new(),
                replies: HashMap::new(),
            }),
            replicated: Mutex::new(HashSet::new()),
            draining: AtomicBool::new(false),
            config,
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let prober = {
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || probe_loop(&state, &shutdown))
        };
        Ok(Router {
            addr,
            listener,
            shutdown,
            state,
            prober: Some(prober),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router's live counters.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.state.metrics
    }

    /// A handle that makes [`Router::wait`] begin draining.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serve until a `shutdown` frame or signal arrives, then drain:
    /// in-flight connections finish, the shutdown propagates to every
    /// live shard, the prober joins.
    ///
    /// # Errors
    ///
    /// Only fatal listener errors.
    pub fn wait(mut self) -> io::Result<()> {
        let connections = accept_until_shutdown(&self.listener, &self.shutdown, |stream| {
            let state = Arc::clone(&self.state);
            let shutdown = Arc::clone(&self.shutdown);
            std::thread::spawn(move || route_connection(stream, &state, &shutdown))
        })?;
        self.shutdown.store(true, Ordering::SeqCst);
        self.state.draining.store(true, Ordering::SeqCst);
        for c in connections {
            let _ = c.join();
        }
        // Propagate the drain: every live shard gets a shutdown frame.
        for shard in &self.state.shards {
            if let Ok(mut client) = Client2::connect_with(
                &shard.addr,
                Duration::from_millis(500),
                Some(Duration::from_millis(2_000)),
            ) {
                let _ = client.call(&Frame2::request(proto2::kind::SHUTDOWN, &[]));
            }
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        Ok(())
    }
}

/// The health prober: one probe round per interval; two consecutive
/// failures eject a shard, one success readmits it.
fn probe_loop(state: &RouterState, shutdown: &AtomicBool) {
    let interval = Duration::from_millis(state.config.probe_interval_ms.max(10));
    let probe_timeout = Duration::from_millis(state.config.probe_interval_ms.max(10));
    while !shutdown.load(Ordering::SeqCst) && !br_serve::terminated() {
        for shard in &state.shards {
            let healthy = Client2::connect_with(&shard.addr, probe_timeout, Some(probe_timeout))
                .and_then(|mut c| c.call(&Frame2::request(proto2::kind::HEALTH, &[])))
                .map(|r| r.kind == proto2::kind::OK)
                .unwrap_or(false);
            if healthy {
                shard.record_success(&state.metrics);
            } else {
                shard.record_failure(&state.metrics);
            }
        }
        // Sleep in short slices so drain is not held up by the interval.
        let mut slept = Duration::ZERO;
        while slept < interval && !shutdown.load(Ordering::SeqCst) {
            let slice = Duration::from_millis(20).min(interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// One shard's `cache_hits` counter, read from its metrics endpoint
/// with the health probe's timeouts.
fn shard_cache_hits(state: &RouterState, shard: &ShardState) -> Option<u64> {
    let timeout = Duration::from_millis(state.config.probe_interval_ms.max(10));
    let response = Client2::connect_with(&shard.addr, timeout, Some(timeout))
        .and_then(|mut c| c.call(&Frame2::request(proto2::kind::METRICS, &[])))
        .ok()?;
    Metrics::parse_counter(&response.payload_text(), "cache_hits")
}

/// The routing key of one request: the first module operand's content
/// hash (from its body or its 8-byte hash section), falling back to a
/// hash of the whole payload for section-less requests.
fn routing_key(payload: &[u8]) -> u64 {
    if let Ok(sections) = proto2::sections(payload) {
        for (id, bytes) in &sections {
            if proto2::hash_of_body(*id).is_some() {
                return module_hash(bytes);
            }
            if proto2::hash_target(*id).is_some() && bytes.len() == 8 {
                return u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
            }
        }
    }
    fnv1a(&[b"route", payload])
}

/// The memo key of one request: opcode + full payload.
fn memo_key(kind: u8, payload: &[u8]) -> u64 {
    fnv1a(&[b"memo", &[kind], payload])
}

/// One router connection: read `brs2` frames, route, respond.
fn route_connection(stream: TcpStream, state: &RouterState, shutdown: &AtomicBool) {
    // Shard connections are pooled per client connection: steady-state
    // forwarding reuses them, and the shard's per-connection intern
    // beliefs stay coherent with this client's.
    let mut pool: HashMap<usize, Client2> = HashMap::new();
    serve_frames(
        stream,
        || shutdown.load(Ordering::SeqCst) || br_serve::terminated(),
        |refused| {
            if refused == proto2::code::OVERSIZED {
                state.metrics.oversized.fetch_add(1, Ordering::Relaxed);
            }
        },
        |request| {
            state.metrics.requests.fetch_add(1, Ordering::Relaxed);
            route_frame(&request, state, shutdown, &mut pool)
        },
    );
}

/// Dispatch one `brs2` frame at the router: control verbs answered
/// locally, compute verbs routed, batches split per shard.
fn route_frame(
    request: &Frame2,
    state: &RouterState,
    shutdown: &AtomicBool,
    pool: &mut HashMap<usize, Client2>,
) -> (Frame2, bool) {
    match request.kind {
        proto2::kind::HEALTH => {
            if state.draining.load(Ordering::SeqCst) {
                (
                    Frame2::error(proto2::code::DRAINING, "router is draining"),
                    true,
                )
            } else {
                (Frame2::ok(0, b"ok\n".to_vec()), true)
            }
        }
        proto2::kind::METRICS => {
            use std::fmt::Write as _;
            let mut text = state.metrics.render();
            let mut cache_hits = 0;
            for (i, shard) in state.shards.iter().enumerate() {
                let alive = shard.alive.load(Ordering::SeqCst);
                let _ = writeln!(
                    text,
                    "br_cluster_shard_alive{{shard=\"{i}\",addr=\"{}\"}} {}",
                    shard.addr,
                    u8::from(alive)
                );
                if alive {
                    cache_hits += shard_cache_hits(state, shard).unwrap_or(0);
                }
            }
            // The live shards' response-cache hits under the daemon's
            // own metric name: a client reads a cluster's hits the way
            // it reads one daemon's.
            let _ = writeln!(text, "br_serve_cache_hits_total {cache_hits}");
            (Frame2::ok(0, text.into_bytes()), true)
        }
        proto2::kind::SHUTDOWN => {
            shutdown.store(true, Ordering::SeqCst);
            state.draining.store(true, Ordering::SeqCst);
            (Frame2::ok(0, b"draining\n".to_vec()), false)
        }
        proto2::kind::BATCH => {
            let items = match batch_items(&request.payload) {
                Ok(items) => items,
                Err(e) => {
                    return (
                        Frame2::error(proto2::code::BAD_REQUEST, &format!("bad batch: {e}")),
                        true,
                    )
                }
            };
            (
                proto2::batch_response(route_batch(&items, state, pool)),
                true,
            )
        }
        kind => (route_item(kind, &request.payload, state, pool).into(), true),
    }
}

/// Split a batch by owning shard, forward each group as a sub-batch,
/// and reassemble the replies in request order. Memoized items are
/// answered without forwarding.
fn route_batch(
    items: &[(u8, &[u8])],
    state: &RouterState,
    pool: &mut HashMap<usize, Client2>,
) -> Vec<BatchReply> {
    let mut replies: Vec<Option<BatchReply>> = (0..items.len()).map(|_| None).collect();
    // shard -> (original item index, kind, payload)
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, (kind, payload)) in items.iter().enumerate() {
        if let Some(hit) = memo_lookup(*kind, payload, state) {
            replies[i] = Some(hit);
            continue;
        }
        let key = routing_key(payload);
        let order = state.candidate_order(key);
        let Some(&primary) = order.first() else {
            replies[i] = Some(BatchReply {
                kind: proto2::kind::ERROR,
                code: proto2::code::INTERNAL,
                aux: 0,
                payload: b"no shard available".to_vec(),
            });
            continue;
        };
        groups.entry(primary).or_default().push(i);
    }
    for (shard, indices) in groups {
        let mut payload = Vec::new();
        for &i in &indices {
            push_batch_item(&mut payload, items[i].0, items[i].1);
        }
        let sub_batch = Frame2 {
            kind: proto2::kind::BATCH,
            flags: proto2::flags::BATCH,
            code: 0,
            aux: 0,
            payload,
        };
        match forward_to(shard, &sub_batch, state, pool) {
            Some(response)
                if response.kind == proto2::kind::OK
                    && response.flags & proto2::flags::BATCH != 0 =>
            {
                match batch_replies(&response.payload) {
                    Ok(sub_replies) if sub_replies.len() == indices.len() => {
                        for (reply, &i) in sub_replies.into_iter().zip(&indices) {
                            finish_item(items[i].0, items[i].1, &reply, shard, state, pool);
                            replies[i] = Some(reply);
                        }
                        continue;
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        // The whole sub-batch failed (shard down or malformed answer):
        // retry each item individually so failover can re-route it.
        for &i in &indices {
            replies[i] = Some(route_item(items[i].0, items[i].1, state, pool));
        }
    }
    replies
        .into_iter()
        .map(|r| r.expect("every batch item answered"))
        .collect()
}

/// Route one request: memo, then the candidate walk with failover,
/// then post-processing (replication, memoization).
fn route_item(
    kind: u8,
    payload: &[u8],
    state: &RouterState,
    pool: &mut HashMap<usize, Client2>,
) -> BatchReply {
    if let Some(hit) = memo_lookup(kind, payload, state) {
        return hit;
    }
    let key = routing_key(payload);
    let request = Frame2 {
        kind,
        flags: 0,
        code: 0,
        aux: 0,
        payload: payload.to_vec(),
    };
    let order = state.candidate_order(key);
    for (attempt, &shard) in order.iter().enumerate() {
        if attempt > 0 {
            state.metrics.failovers.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(response) = forward_to(shard, &request, state, pool) {
            let reply = BatchReply::from(response);
            finish_item(kind, payload, &reply, shard, state, pool);
            return reply;
        }
    }
    state.metrics.unrouteable.fetch_add(1, Ordering::Relaxed);
    BatchReply {
        kind: proto2::kind::ERROR,
        code: proto2::code::INTERNAL,
        aux: 0,
        payload: format!("no shard could serve the request (tried {})", order.len()).into_bytes(),
    }
}

/// Send one frame to a shard over its pooled connection (reconnecting
/// once on a stale connection). `None` = the shard failed.
fn forward_to(
    shard: usize,
    request: &Frame2,
    state: &RouterState,
    pool: &mut HashMap<usize, Client2>,
) -> Option<Frame2> {
    state.metrics.forwarded.fetch_add(1, Ordering::Relaxed);
    let timeout = Duration::from_millis(state.config.shard_timeout_ms.max(100));
    for fresh in [false, true] {
        if fresh {
            pool.remove(&shard);
        }
        let client = match pool.entry(shard) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                match Client2::connect_with(
                    &state.shards[shard].addr,
                    Duration::from_millis(1_000),
                    Some(timeout),
                ) {
                    Ok(c) => e.insert(c),
                    Err(_) => continue,
                }
            }
        };
        match client.call(request) {
            Ok(response) => {
                state.shards[shard].record_success(&state.metrics);
                return Some(response);
            }
            Err(_) => {
                pool.remove(&shard);
            }
        }
    }
    state.shards[shard].record_failure(&state.metrics);
    None
}

/// Post-process a successful forward: replicate the cache entry to the
/// key's successor and feed the hot-key memo.
fn finish_item(
    kind: u8,
    payload: &[u8],
    reply: &BatchReply,
    served_by: usize,
    state: &RouterState,
    pool: &mut HashMap<usize, Client2>,
) {
    if reply.kind != proto2::kind::OK || reply.aux == 0 {
        return;
    }
    if state.config.replicate {
        let key = routing_key(payload);
        // Successor = next live candidate after the shard that served —
        // under failover that is where the key's traffic goes next.
        let successor = state
            .candidate_order(key)
            .into_iter()
            .find(|&s| s != served_by);
        if let Some(successor) = successor {
            let new = {
                let mut seen = state.replicated.lock().expect("replicated poisoned");
                if seen.len() > 65_536 {
                    seen.clear();
                }
                seen.insert((reply.aux, successor))
            };
            if new {
                let put = Frame2::request(
                    proto2::kind::CACHEPUT,
                    &[
                        (proto2::sec::KEY, format!("{:016x}", reply.aux).as_bytes()),
                        (proto2::sec::BODY, &reply.payload),
                    ],
                );
                // A reply at the frame limit leaves no room for the
                // cacheput sections: it stays unreplicated rather than
                // failing a healthy successor with a refused write.
                if put.payload.len() <= proto2::MAX_PAYLOAD {
                    if let Some(response) = forward_to(successor, &put, state, pool) {
                        if response.kind == proto2::kind::OK {
                            state.metrics.replications.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    }
    if state.config.hot_threshold > 0 {
        let mkey = memo_key(kind, payload);
        let mut memo = state.memo.lock().expect("memo poisoned");
        if memo.counts.len() > 65_536 {
            memo.counts.clear();
        }
        let count = memo.counts.entry(mkey).or_insert(0);
        *count += 1;
        if *count >= state.config.hot_threshold && memo.replies.len() < state.config.memo_capacity {
            memo.replies.entry(mkey).or_insert_with(|| reply.clone());
        }
    }
}

/// Answer from the hot-key memo, if this exact request is memoized.
fn memo_lookup(kind: u8, payload: &[u8], state: &RouterState) -> Option<BatchReply> {
    if state.config.hot_threshold == 0 {
        return None;
    }
    let memo = state.memo.lock().expect("memo poisoned");
    let hit = memo.replies.get(&memo_key(kind, payload)).cloned();
    if hit.is_some() {
        state.metrics.memo_hits.fetch_add(1, Ordering::Relaxed);
    }
    hit
}
