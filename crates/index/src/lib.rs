//! `subsim-index` — an amortized RR-sketch index for multi-query
//! influence maximization.
//!
//! One-shot IM algorithms (IMM, OPIM-C, HIST) generate their RR sets,
//! answer a single `(k, ε, δ)` query, and throw the sketches away. In any
//! realistic serving scenario the graph is fixed while queries vary, and
//! RR sets are reusable across *all* of them: an RR set depends only on
//! the graph, the weight model, and the diffusion process — never on `k`
//! or `ε`. This crate keeps the pool alive.
//!
//! [`RrIndex`] owns two independently sampled halves of RR sets
//! ([`PoolState`]), mirroring OPIM-C's `R₁`/`R₂` split, and answers each
//! query by running greedy max-coverage plus the OPIM lower/upper bounds
//! over the *current* pool. Every index in the workspace answers through
//! the same [`certified_query`] loop over a [`PoolView`] (see
//! [`mod@certify`]).
//! Only when the certificate fails does it generate more sets — doubling,
//! capped by the worst-case `θ_max` — so the first query pays roughly a
//! full OPIM-C run and later queries at comparable accuracy are answered
//! from the warmed pool in milliseconds.
//!
//! Three properties make the pool a real index rather than a cache:
//!
//! - **Determinism** — generation is chunked, every chunk's RNG is derived
//!   from `(seed, chunk number)` alone, and pool sizes are whole chunks.
//!   The pool content is a pure function of its size: query order and
//!   thread count cannot change what any query sees.
//! - **Persistence** — [`RrIndex::save`]/[`RrIndex::load`] snapshot the
//!   pool and its RNG cursor behind a graph fingerprint
//!   ([`graph_fingerprint`]); a loaded index continues the exact chunk
//!   stream, and loading against a different graph is refused.
//! - **Bounded memory** — an optional [`IndexConfig::max_nodes`] budget
//!   turns unbounded growth into a clean [`IndexError::MemoryBudget`],
//!   leaving the index serving whatever its current pool can certify.
//!
//! With [`IndexConfig::threads`] `> 1`, pool top-ups run on a persistent
//! work-stealing worker pool (spawned once, reused across growth rounds)
//! and the per-query selection phase parallelizes its preparation — the
//! inverted coverage index and initial counts — while the greedy loop
//! stays sequential. Both are output-invariant: thread count changes
//! wall-clock and nothing else, preserving the determinism contract
//! above bit for bit.
//!
//! Per-query costs surface in [`QueryStats`]; lifetime totals in
//! [`IndexCounters`]. Serving-side metrics (latency histograms, selection
//! and generation timings) live in [`IndexMetrics`].

#![warn(missing_docs)]

pub mod certify;
mod error;
mod fingerprint;
mod index;
mod pool;
mod snapshot;
mod stats;
mod sync;

pub use certify::{certified_query, certify, Certificate, CertifiedPool, PoolView, Validation};
pub use error::IndexError;
pub use fingerprint::graph_fingerprint;
pub use index::{
    IndexConfig, QueryAnswer, RrIndex, SentinelState, R2_STREAM, SENTINEL_WARMUP_CHUNKS,
};
pub use pool::{for_each_arena, Arena, ChunkMap, Generated, PoolState};
pub use snapshot::{read_index, write_index};
pub use stats::{IndexCounters, QueryStats};
pub use subsim_sketch::SketchedPool;
pub use sync::{
    quantile_ns, ConcurrentRrIndex, IndexMetrics, LatencyHistogram, MetricsSnapshot,
    TenantCounters, TenantMetrics,
};
