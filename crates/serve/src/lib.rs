//! # br-serve
//!
//! Reordering-as-a-service: a pure-std, multi-threaded TCP daemon that
//! exposes the repo's probe → plan → splice pipeline as long-lived
//! endpoints, shaped for sustained load rather than one-shot CLI runs.
//!
//! Endpoints, all over the `brs2` binary protocol ([`proto2`]):
//!
//! * **`reorder`** — printed-IR module + training input in; reordered
//!   module, per-sequence records, and the PR-1 translation validator's
//!   verdict out. The response is byte-identical to running
//!   [`br_reorder::reorder_module`] in-process.
//! * **`measure`** — two modules + one input; both run on the VM fast
//!   path and the Table-4 event-counter deltas come back as CSV.
//! * **`profile`** — one module + input; the daemon instruments every
//!   detected sequence and returns the per-range exit counts.
//! * **`health` / `metrics`** — plaintext liveness and counters
//!   (request/hit/shed/error totals, latency histogram with p50/p99),
//!   answered off the connection thread so they work under overload.
//!
//! Production shape:
//!
//! * bounded worker pool behind an **admission queue** — excess load is
//!   shed with explicit `code::SHED` errors, never queued unboundedly
//!   ([`pool`]);
//! * **per-request deadlines** — work whose deadline expired in the
//!   queue is answered without being started;
//! * **panic isolation** — a request that panics the pipeline produces
//!   an `error` frame; the daemon keeps serving;
//! * **graceful drain** on SIGTERM/SIGINT or a `shutdown` frame;
//! * a **content-addressed response cache** layered on the sweep
//!   engine's artifact cache, keyed by (endpoint, module, options,
//!   input) ([`endpoints`]);
//! * a closed-loop **load generator** ([`loadgen`]) that replays the 17
//!   paper workloads and reports achieved throughput, shed rate, and
//!   the latency histogram.
//!
//! ```no_run
//! use br_serve::server::{ServeConfig, Server};
//!
//! let config = ServeConfig {
//!     addr: "127.0.0.1:0".to_string(), // port 0: pick a free port
//!     ..ServeConfig::default()
//! };
//! let server = Server::start(config).expect("bind");
//! println!("serving on {}", server.addr());
//! server.wait().expect("clean shutdown");
//! ```

pub mod endpoints;
pub mod intern;
pub mod loadgen;
pub mod metrics;
pub mod pool;
pub mod proto2;
pub mod server;

pub use loadgen::{run_loadgen, run_smoke, LoadgenConfig, LoadgenReport};
pub use proto2::{Client2, Frame2, ModuleRef};
pub use server::{install_signal_handler, terminated, ServeConfig, Server};
