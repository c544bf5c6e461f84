//! Directed-graph substrate for influence maximization.
//!
//! The SUBSIM paper operates on social networks `G = (V, E)` where each
//! directed edge `(u, v)` carries a propagation probability `p(u, v)`.
//! This crate provides everything the algorithms need from the graph side:
//!
//! - [`csr::Graph`] — compressed sparse row storage with both forward
//!   (out-neighbor) and reverse (in-neighbor) adjacency; reverse traversal
//!   is the backbone of RR-set generation.
//! - [`weights`] — the paper's weight models: WC (`1/d_in`), the WC variant
//!   (`min(1, θ/d_in)`) used for the high-influence experiments, Uniform IC
//!   (constant `p`), exponential and Weibull skewed distributions
//!   (Section 7 parameter settings), trivalency, and LT normalization.
//! - [`builder::GraphBuilder`] — edge-list ingestion with deduplication,
//!   self-loop removal, and optional undirected doubling.
//! - [`generators`] — synthetic networks (Barabási–Albert, Erdős–Rényi,
//!   R-MAT, and small fixtures) used to stand in for the
//!   paper's SNAP/KONECT datasets at laptop scale (see `DESIGN.md` §3).
//! - [`io`] — whitespace-separated edge-list text I/O.
//! - [`lt`] — per-node alias tables for O(1) Linear-Threshold reverse
//!   steps.
//! - [`stats`] — degree and weight summaries (Table 2 reproduction).
//! - [`components`] / [`transform`] — connectivity analysis and the
//!   preprocessing transforms (induced subgraph, largest WCC) IM
//!   pipelines apply before seeding.

#![warn(missing_docs)]

pub mod builder;
pub mod components;
pub mod csr;
pub mod error;
pub mod generators;
pub mod io;
pub mod lt;
pub mod stats;
pub mod transform;
pub mod weights;

pub use builder::GraphBuilder;
pub use components::{weakly_connected_components, Components};
pub use csr::{Graph, InProbs, NodeId};
pub use error::GraphError;
pub use lt::LtIndex;
pub use stats::GraphStats;
pub use transform::{induced_subgraph, largest_wcc};
pub use weights::WeightModel;

/// Commonly used items.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::csr::{Graph, NodeId};
    pub use crate::error::GraphError;
    pub use crate::generators;
    pub use crate::stats::GraphStats;
    pub use crate::weights::WeightModel;
}
