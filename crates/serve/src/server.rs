//! The daemon: TCP listener, connection threads, graceful drain.
//!
//! Architecture: one accept loop, one thread per connection, one
//! bounded worker pool for compute. Connection threads only read and
//! write `brs2` frames ([`serve_frames`], shared with the cluster
//! router); everything that can take real time or panic runs in the
//! pool behind admission control ([`crate::pool`]).
//!
//! `health`, `metrics`, and `shutdown` bypass the pool on purpose: an
//! overloaded daemon must still answer its health check (reporting
//! *overloaded* via the shed counter, not by timing out), and a drain
//! request must not sit in the very queue it is trying to empty.
//!
//! **Shutdown** is triggered by a `shutdown` frame or by SIGTERM/SIGINT
//! (a minimal pure-std handler — the flag is the only thing the signal
//! context touches). Both paths drain identically: stop accepting,
//! finish queued work, answer in-flight requests, join every thread.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::endpoints::Endpoints;
use crate::metrics::Metrics;
use crate::pool::{Handler, Job, Pool};
use crate::proto2::{self, code, kind, BatchReply, Frame2, Incoming, MAX_PAYLOAD};

/// Daemon configuration (`brc serve` flags map here 1:1).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7411`; port 0 picks a free port
    /// (the bound address is reported by [`Server::addr`]).
    pub addr: String,
    /// Worker threads; 0 picks the machine's available parallelism.
    pub threads: usize,
    /// Admission-queue depth; requests beyond it are shed.
    pub queue: usize,
    /// Per-request deadline in milliseconds; 0 disables deadlines.
    pub deadline_ms: u64,
    /// Response-cache directory; `None` disables the cache.
    pub cache_dir: Option<PathBuf>,
    /// Expose the `sleep`/`panic` fault-injection endpoints.
    pub debug_endpoints: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7411".to_string(),
            threads: 0,
            queue: 128,
            deadline_ms: 10_000,
            cache_dir: Some(PathBuf::from("target/serve-cache")),
            debug_endpoints: false,
        }
    }
}

/// Process-wide termination flag, set by the signal handler. Shared by
/// every server in the process (in practice there is one).
static TERMINATED: AtomicBool = AtomicBool::new(false);

/// Has the process received SIGTERM/SIGINT? Exposed so embedders (the
/// cluster supervisor, long-running CLIs) can share the daemon's
/// signal handling instead of installing their own.
pub fn terminated() -> bool {
    TERMINATED.load(Ordering::SeqCst)
}

/// Install the pure-std SIGTERM/SIGINT handler (idempotent). Normally
/// called by [`Server::start`]; exposed for processes that want signal
/// observability before (or without) starting a server.
#[cfg(unix)]
pub fn install_signal_handler() {
    // Pure-std SIGTERM/SIGINT: declare libc's `signal` ourselves (the
    // symbol is always linked) and do nothing in the handler beyond an
    // atomic store, the canonical async-signal-safe operation.
    extern "C" fn on_signal(_: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Install the pure-std SIGTERM/SIGINT handler (no-op off unix).
#[cfg(not(unix))]
pub fn install_signal_handler() {}

/// A running daemon. Obtained from [`Server::start`]; lives until
/// [`Server::wait`] observes a shutdown trigger and finishes draining.
pub struct Server {
    addr: SocketAddr,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    pool: Option<Pool>,
    metrics: Arc<Metrics>,
    config: ServeConfig,
}

impl Server {
    /// Bind the listener and start the worker pool. The daemon is
    /// serving when this returns; call [`Server::wait`] to block until
    /// shutdown completes.
    ///
    /// # Errors
    ///
    /// Binding the address or creating the cache directory can fail.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        install_signal_handler();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let metrics = Arc::new(Metrics::default());
        let mut endpoints = Endpoints::new(config.cache_dir.as_deref(), Arc::clone(&metrics))?;
        endpoints.debug_endpoints = config.debug_endpoints;
        let endpoints = Arc::new(endpoints);
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.threads
        };
        let handler: Arc<Handler> = Arc::new(move |k, payload| endpoints.handle(k, payload));
        let pool = Pool::start(threads, config.queue, Arc::clone(&metrics), handler);
        Ok(Server {
            addr,
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
            pool: Some(pool),
            metrics,
            config,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's live counters.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// A handle that makes [`Server::wait`] begin draining, for tests
    /// and embedders; network clients use the `shutdown` frame.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serve until a `shutdown` frame or signal arrives, then drain:
    /// connection threads finish their in-flight request, queued jobs
    /// complete, workers join.
    ///
    /// # Errors
    ///
    /// Only fatal listener errors; per-connection errors are contained
    /// in their connection thread.
    pub fn wait(mut self) -> io::Result<()> {
        let mut connections = Vec::new();
        let pool = self.pool.take().expect("pool present until wait");
        let pool = Arc::new(pool);
        loop {
            if self.shutdown.load(Ordering::SeqCst) || TERMINATED.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let pool = Arc::clone(&pool);
                    let metrics = Arc::clone(&self.metrics);
                    let shutdown = Arc::clone(&self.shutdown);
                    let deadline_ms = self.config.deadline_ms;
                    connections.push(std::thread::spawn(move || {
                        serve_frames(
                            stream,
                            || shutdown.load(Ordering::SeqCst) || terminated(),
                            |refused| {
                                metrics.errors.fetch_add(1, Ordering::Relaxed);
                                if refused == code::OVERSIZED {
                                    metrics.oversized.fetch_add(1, Ordering::Relaxed);
                                }
                            },
                            |request| dispatch(request, &pool, &metrics, &shutdown, deadline_ms),
                        );
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                    // Opportunistically reap finished connection threads
                    // so a long-lived daemon does not accumulate handles.
                    connections.retain(|c| !c.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain: connection threads observe the flag via their read
        // timeout and exit after answering what they already read.
        self.shutdown.store(true, Ordering::SeqCst);
        for c in connections {
            let _ = c.join();
        }
        pool.drain();
        Ok(())
    }
}

/// A [`std::io::Read`] wrapper that separates *idle at a frame boundary* from
/// *stalled mid-frame*. At a boundary (no byte of the next frame seen
/// yet) a read timeout surfaces as `WouldBlock` so the caller can poll
/// the shutdown flag. Once a frame has started, timeouts are retried —
/// a slow sender must not desynchronize the stream — up to a bound, so
/// a wedged client cannot hold a drain hostage forever.
struct FrameReader<R: io::Read> {
    inner: R,
    mid_frame: bool,
}

impl<R: io::Read> FrameReader<R> {
    /// Wrap a stream whose read timeout doubles as the drain poll tick.
    fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            mid_frame: false,
        }
    }

    /// Mark the frame boundary: the next timeout is *idle*, not a
    /// mid-frame stall. Call before each frame read.
    fn reset(&mut self) {
        self.mid_frame = false;
    }
}

/// Mid-frame stall bound: 50 retries x the 200 ms socket timeout = 10 s.
const MID_FRAME_RETRIES: u32 = 50;

impl<R: io::Read> io::Read for FrameReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut stalls = 0u32;
        loop {
            match self.inner.read(buf) {
                Ok(n) => {
                    if n > 0 {
                        self.mid_frame = true;
                    }
                    return Ok(n);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if !self.mid_frame {
                        return Err(io::Error::new(io::ErrorKind::WouldBlock, e));
                    }
                    stalls += 1;
                    if stalls > MID_FRAME_RETRIES {
                        // Not TimedOut/WouldBlock: the connection loop
                        // treats those as idle polls; a mid-frame stall
                        // must tear the connection down instead.
                        return Err(io::Error::new(
                            io::ErrorKind::BrokenPipe,
                            "peer stalled mid-frame",
                        ));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Serve one connection: read `brs2` frames ([`proto2::read_request`]),
/// answer each with `dispatch`, until EOF, an I/O error, a frame that
/// is not `brs2`, `dispatch` returning `false`, or `stopping()` seen
/// while idle. The connection loop of the daemon and the cluster
/// router.
///
/// The loop answers what `dispatch` never sees, calling `refused` with
/// the code of each: an oversized frame (`code::OVERSIZED`; the payload
/// was drained, so the connection stays usable), bytes that are not a
/// `brs2` frame (`code::PROTOCOL`; then it hangs up, the stream
/// position being unknowable), and a reply too large for a frame
/// (`code::OVERSIZED`, in place of the reply).
pub fn serve_frames(
    stream: TcpStream,
    stopping: impl Fn() -> bool,
    mut refused: impl FnMut(u16),
    mut dispatch: impl FnMut(Frame2) -> (Frame2, bool),
) {
    // The read timeout doubles as the drain poll interval: an idle
    // connection notices shutdown within 200 ms.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = io::BufWriter::new(stream);
    loop {
        reader.reset();
        let (mut response, keep_going) = match proto2::read_request(&mut reader) {
            Ok(Some(Incoming::Frame(request))) => dispatch(request),
            Ok(Some(Incoming::Oversized { kind, len })) => {
                refused(code::OVERSIZED);
                let message = format!(
                    "oversized frame: opcode {kind} declared {len} bytes, limit is {MAX_PAYLOAD}"
                );
                (Frame2::error(code::OVERSIZED, &message), true)
            }
            Ok(None) => return,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stopping() {
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                refused(code::PROTOCOL);
                let message = format!("protocol error: {e}");
                (Frame2::error(code::PROTOCOL, &message), false)
            }
            Err(_) => return,
        };
        if response.payload.len() > MAX_PAYLOAD {
            refused(code::OVERSIZED);
            response = proto2::oversized_reply(response.payload.len()).into();
        }
        if response.write_to(&mut writer).is_err() || !keep_going {
            return;
        }
    }
}

/// Answer one `brs2` frame: control verbs on the connection thread,
/// compute requests (single or batched) through the pool. The flag is
/// `false` when the connection should close after the response.
fn dispatch(
    request: Frame2,
    pool: &Pool,
    metrics: &Metrics,
    shutdown: &AtomicBool,
    deadline_ms: u64,
) -> (Frame2, bool) {
    let response =
        match request.kind {
            kind::HEALTH => {
                metrics.count_request(kind::HEALTH);
                let state = if shutdown.load(Ordering::SeqCst) {
                    "draining"
                } else {
                    "ok"
                };
                Frame2::ok(0, format!("{state}\n").into_bytes())
            }
            kind::METRICS => {
                metrics.count_request(kind::METRICS);
                Frame2::ok(0, metrics.render().into_bytes())
            }
            kind::SHUTDOWN => {
                metrics.count_request(kind::SHUTDOWN);
                shutdown.store(true, Ordering::SeqCst);
                return (Frame2::ok(0, b"draining\n".to_vec()), false);
            }
            kind::BATCH => match proto2::batch_items(&request.payload) {
                Ok(items) => {
                    metrics
                        .batch_items
                        .fetch_add(items.len() as u64, Ordering::Relaxed);
                    proto2::batch_response(items.into_iter().map(|(k, payload)| {
                        run_item(k, payload.to_vec(), pool, metrics, deadline_ms)
                    }))
                }
                Err(e) => {
                    metrics.errors.fetch_add(1, Ordering::Relaxed);
                    Frame2::error(code::BAD_REQUEST, &format!("bad batch: {e}"))
                }
            },
            k => run_item(k, request.payload, pool, metrics, deadline_ms).into(),
        };
    (response, true)
}

/// Run one compute request through the pool, returning the reply in
/// batch-item shape (also used, unbatched, for single frames).
fn run_item(
    k: u8,
    payload: Vec<u8>,
    pool: &Pool,
    metrics: &Metrics,
    deadline_ms: u64,
) -> BatchReply {
    let error = |code: u16, message: String| BatchReply {
        kind: kind::ERROR,
        code,
        aux: 0,
        payload: message.into_bytes(),
    };
    let Some(name) = proto2::kind_name(k) else {
        metrics.errors.fetch_add(1, Ordering::Relaxed);
        return error(code::BAD_REQUEST, format!("unknown brs2 opcode {k}"));
    };
    if matches!(k, kind::HEALTH | kind::METRICS | kind::SHUTDOWN) {
        metrics.errors.fetch_add(1, Ordering::Relaxed);
        return error(
            code::BAD_REQUEST,
            format!("{name} is not batchable; send it as its own frame"),
        );
    }
    metrics.count_request(k);
    let (reply, result) = mpsc::channel();
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
    let job = Job {
        kind: k,
        payload,
        accepted: Instant::now(),
        deadline,
        reply,
    };
    match pool.submit(job) {
        Ok(()) => match result.recv() {
            Ok(response) => response.into(),
            Err(_) => error(
                code::DRAINING,
                "worker pool drained mid-request".to_string(),
            ),
        },
        Err(_job) => {
            metrics.shed.fetch_add(1, Ordering::Relaxed);
            error(
                code::SHED,
                "admission queue full; retry with backoff".to_string(),
            )
        }
    }
}
