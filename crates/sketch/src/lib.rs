//! `subsim-sketch`: count-distinct sketched validation pools for
//! memory-bounded OPIM-C serving.
//!
//! The serving stack keeps two exact RR pools alive per index. Selection
//! (`R₁`) must stay exact — greedy max-coverage reads individual sets —
//! but validation (`R₂`) is only ever consulted through one statistic:
//! `Λ_{R₂}(S)`, the number of `R₂` sets the chosen seeds cover. That is
//! a count-distinct query over set ids, so `R₂` compresses into per-node
//! HyperLogLog sketches (Göktürk & Kaya, "Fast and Error-Adaptive
//! Influence Maximization based on Count-Distinct Sketches") at a
//! fraction of the arena's footprint.
//!
//! Three properties make the tier drop into the existing stack without
//! weakening any determinism contract:
//!
//! - **Deterministic hashing** ([`hll`]): set ids are global
//!   (`chunk · chunk_size + offset`) and mixed with the same splitmix64
//!   finalizer the pool generators use, so sketch content is a pure
//!   function of pool content — independent of threads, shards, and
//!   build order.
//! - **Lossless merge** ([`pool`]): HLL union is register-wise max, so
//!   per-shard sketches fold into exactly the sequential registers for
//!   any shard count, and per-chunk sub-sketches let delta repair
//!   rebuild only dirty chunks bit-identically to a full rebuild.
//! - **Conservative certificate**: the union estimate is deflated by
//!   [`SLACK_SIGMAS`] standard errors before Eq. 1, so a passing
//!   certificate still carries the `(1 - 1/e - ε)` guarantee. The round
//!   itself is `subsim_index::certify`, which also tells the caller when
//!   a failure was due to the slack alone — the cue to promote precision
//!   (the error-adaptive ladder) instead of growing the pool.

pub mod hll;
pub mod pool;

pub use hll::{DEFAULT_PRECISION, MAX_PRECISION, MIN_PRECISION, SLACK_SIGMAS};
pub use pool::{ChunkSketch, SketchedPool, SKETCH_MAGIC};
