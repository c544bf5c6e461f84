//! Facade crate for the SUBSIM / HIST influence-maximization library.
//!
//! Re-exports the public API of the workspace crates:
//!
//! - [`sampling`] — subset-sampling primitives (geometric skips, alias
//!   tables, bucketed and index-free samplers).
//! - [`graph`] — the directed-graph substrate (CSR storage, IC/LT weight
//!   models, generators, edge-list I/O).
//! - [`diffusion`] — cascade simulation and reverse-reachable-set
//!   generation (vanilla, SUBSIM, general-IC, LT, sentinel-stopped).
//! - [`core`] — the influence-maximization algorithms (IMM, SSA, OPIM-C,
//!   SUBSIM, HIST) with their approximation guarantees.
//! - [`index`] — the amortized RR-sketch index for serving repeated IM
//!   queries over a fixed graph, with snapshot persistence and a
//!   concurrent serving layer ([`index::ConcurrentRrIndex`]).
//! - [`delta`] — versioned graph updates with incremental RR-sketch
//!   repair: batched edge mutations apply into epoch-stamped graph
//!   versions, and only the RR sets touching mutated edges regenerate
//!   ([`delta::DeltaIndex`]).
//! - [`serve`] — the sharded serving layer: RR pools partitioned by
//!   chunk ownership across shards with merged greedy selection
//!   ([`serve::ShardedDeltaIndex`]) behind a framed multi-connection
//!   server ([`serve::serve_framed`]); output is bit-identical to the
//!   sequential index for any shard count, and one shard is the
//!   concurrent delta-stream index.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![warn(missing_docs)]

pub use subsim_core as core;
pub use subsim_delta as delta;
pub use subsim_diffusion as diffusion;
pub use subsim_graph as graph;
pub use subsim_index as index;
pub use subsim_sampling as sampling;
pub use subsim_serve as serve;

/// Commonly used items, collected for `use subsim::prelude::*;`.
pub mod prelude {
    pub use subsim_core::prelude::*;
    pub use subsim_delta::{DeltaIndex, GraphDelta, VersionedGraph};
    pub use subsim_diffusion::prelude::*;
    pub use subsim_graph::prelude::*;
    pub use subsim_index::{ConcurrentRrIndex, IndexConfig, MetricsSnapshot, QueryAnswer, RrIndex};
    pub use subsim_serve::ShardedDeltaIndex;
}
