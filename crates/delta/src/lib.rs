//! `subsim-delta` — versioned graph updates with incremental RR-sketch
//! repair.
//!
//! Every layer below this crate treats the graph as frozen: the CSR is
//! immutable, the RR pool is a pure function of `(graph, seed, strategy,
//! chunk_size, size)`, and snapshots pin the graph by fingerprint. Real
//! serving graphs mutate — edges appear, disappear, and reweight — and
//! the naive answer (rebuild the index per update) throws away almost all
//! of the pool for a delta that touches a handful of edges.
//!
//! This crate keeps the frozen-graph machinery *and* absorbs updates:
//!
//! - [`GraphDelta`] / [`DeltaOp`] — a batched edge mutation (insert,
//!   delete, reweight) with a one-line-per-op text format.
//! - [`VersionedGraph`] — an overlay over the CSR substrate: deltas apply
//!   atomically into an epoch-stamped current version (rebuilt CSR +
//!   fresh [`subsim_index::graph_fingerprint`]), with the overlay
//!   periodically compacted into a new base.
//! - [`repair_pool`] / [`RepairReport`] — the repair engine: the inverted
//!   coverage index finds exactly the RR sets containing a mutated edge
//!   target, their chunks regenerate from their **original** chunk seeds
//!   on the new graph over the persistent worker pool, and clean chunks
//!   splice through untouched. The result is bit-identical to a full
//!   rebuild — `(seed, chunk, version)` fully determines pool content,
//!   independent of thread count and update history.
//! - [`DeltaIndex`] — the sequential serving surface: [`DeltaIndex::query`]
//!   matches [`subsim_index::RrIndex`] exactly at every version;
//!   [`DeltaIndex::apply_delta`] runs repair and re-certifies on the next
//!   query without discarding clean samples. Snapshots save/load behind
//!   the *versioned* fingerprint, so stale pools are rejected with a
//!   typed error. It is the model the concurrent, sharded serving index
//!   (`subsim_serve::ShardedDeltaIndex`) is checked against.
//! - [`Session`] — the per-connection serving protocol (reply order, the
//!   `delta` barrier, deferral) as one sans-IO state machine, with
//!   [`execute`] running its jobs against any [`ServeIndex`]. The line
//!   transport [`serve_queries`] (CLI stdin and unframed `--socket`),
//!   the framed server in `subsim-serve` and the test simulator all pump
//!   it; per-line typed failures surface through a [`ServeSink`].

#![warn(missing_docs)]

mod delta;
mod error;
mod index;
mod repair;
mod serve;
mod session;
mod versioned;

pub use delta::{DeltaOp, GraphDelta};
pub use error::DeltaError;
pub use index::DeltaIndex;
pub use repair::{
    repair_half, repair_pool, repair_sketch, RepairReport, RepairedHalf, RepairedPool,
    RepairedSketch,
};
pub use serve::{
    parse_query, serve_queries, FrameViolation, LineError, NullSink, ServeError, ServeEvent,
    ServeIndex, ServeSink,
};
pub use session::{execute, seed_line, work, Done, Job, JobKind, Reply, Session, DEFERRED_CAP};
pub use versioned::{VersionedGraph, DEFAULT_COMPACT_THRESHOLD};
