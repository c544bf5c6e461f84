//! `subsim-serve` — sharded RR pools behind an async multi-connection
//! server.
//!
//! Two layers, composable but independent:
//!
//! - [`sharded`] — [`ShardedDeltaIndex`] partitions chunk generation
//!   across N shards by chunk ownership (`chunk % shards`), each shard
//!   holding its own arena, cached inverted coverage index, and
//!   atomically published snapshot. Selection merges per-shard partial
//!   coverage counts at greedy-pick time and evaluates the OPIM Eq. 1 /
//!   Eq. 2 certificate on the union, so the N-shard index answers
//!   **byte-identically** to the sequential [`subsim_delta::DeltaIndex`]
//!   for the same `(seed, script)` — sharding changes wall-clock, never
//!   output. Delta application keeps the single-version barrier: one
//!   snapshot swap republishes every shard at the new version.
//! - [`net`] — a dependency-free readiness loop (epoll on Linux,
//!   `poll(2)` elsewhere) serving the length-framed line protocol over
//!   many unix-socket/TCP connections: batched admission, per-connection
//!   in-order replies, bounded write queues with high/low-water
//!   backpressure, per-connection delta barriers, typed per-frame
//!   errors, per-tenant counters, and graceful shutdown.

#![warn(missing_docs)]

pub mod net;
pub mod sharded;

pub use net::frame::{encode_frame, FrameDecoder, FrameItem, HEADER_LEN};
pub use net::server::{serve_framed, Listener, ServerConfig, ServerReport, SocketPathGuard};
pub use sharded::{ShardedDeltaIndex, ShardedSnapshot};
