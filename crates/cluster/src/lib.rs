//! # br-cluster
//!
//! Sharded reordering service: N independent `br-serve` daemons behind
//! a consistent-hash router, speaking the `brs2` binary protocol.
//!
//! One daemon's throughput ceiling is one machine's worker pool and one
//! response cache. The cluster keeps the daemon untouched and adds the
//! scale-out pieces around it:
//!
//! * [`ring`] — a consistent-hash ring (64 virtual nodes per shard)
//!   over **module content hashes**, so every request about a module
//!   lands on the shard that has it interned and its responses cached,
//!   and a membership change remaps only O(1/N) of the key space;
//! * [`router`] — the `brs2` front door: routes singles and splits
//!   batches per shard, fails over along the ring's candidate order,
//!   replicates cacheable responses to each key's ring successor
//!   (`cacheput`), memoizes hot keys router-side, probes shard health
//!   (two strikes ejects, one success readmits), and drains gracefully
//!   — propagating `shutdown` to every shard;
//! * [`supervisor`] — `brc cluster`: spawns the shards as child
//!   processes of the current executable, waits for readiness, runs
//!   the router in-process, and reaps the tree on drain.
//!
//! Responses are byte-identical to a single daemon's — the router
//! forwards payloads verbatim in both directions — so everything pinned
//! about a daemon's answers holds through the cluster too. The router
//! reads frames with the daemon's own connection loop
//! ([`br_serve::server::serve_frames`]).

pub mod ring;
pub mod router;
pub mod supervisor;

pub use ring::{Ring, VNODES};
pub use router::{Router, RouterConfig, RouterMetrics};
pub use supervisor::{run_cluster, ClusterConfig};
