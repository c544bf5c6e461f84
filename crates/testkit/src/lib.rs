//! `subsim-testkit` — ground truth, determinism, and fault injection for
//! the subsim workspace.
//!
//! Every layer below this crate is tested against *itself*: unit tests
//! pin refactors to previous behavior, property tests pin invariants,
//! differential tests pin one implementation to another. None of that
//! catches a bug both sides share. This crate closes the loop with three
//! independent referees:
//!
//! - [`oracle`] — an **exact influence oracle**: on graphs small enough
//!   to enumerate every live-edge world (`2^m` of them), influence
//!   spread, the optimal seed set, and the full RR-set size distribution
//!   are computed in closed form. RR-based estimates, greedy seed
//!   quality, and the paper's `(1 - 1/e - ε)` guarantee are then checked
//!   against *truth*, not against another sampler. A Monte-Carlo path
//!   with Hoeffding-certified half-widths covers graphs past the
//!   enumeration limit.
//! - [`lt_oracle`] — the same referee for **Linear Threshold**: LT's
//!   live-edge worlds are a product over per-node in-edge choices
//!   (`Π (d_in + 1)` of them), enumerated in mixed radix and answered
//!   through the shared world-ensemble queries, with an LT Monte-Carlo
//!   certificate as the fallback.
//! - [`sim`] — a **deterministic serving simulator**: a single `u64`
//!   seed generates a whole serving session (interleaved queries,
//!   version-pinned queries, and graph deltas), drives the real
//!   sharded serving path with it at any shard count, and replays the same session
//!   against the sequential model index. Any divergence reproduces
//!   bit-identically from the printed seed.
//! - [`fault`] — **fault injection**: a byte-level faulty reader for
//!   snapshot I/O plus the worker-pool chunk hooks let tests inject
//!   truncation, corruption, mid-stream I/O errors, and worker panics,
//!   asserting every fault surfaces as a *typed* error with the index
//!   still answering queries correctly afterwards.
//! - [`stats`] — the supporting statistics: χ² goodness-of-fit with a
//!   hardcoded critical-value table (no runtime chi-square inversion)
//!   and Hoeffding half-widths, used by the conformance suites.
//!
//! The heavy batteries live in this crate's `tests/` directory; see
//! `TESTING.md` at the workspace root for the tier map and how to run
//! them.

#![warn(missing_docs)]

pub mod fault;
pub mod lt_oracle;
pub mod oracle;
pub mod sim;
pub mod stats;

pub use fault::{panic_on_chunk, panic_on_chunk_id, Fault, FaultyReader};
pub use lt_oracle::{mc_certified_lt, ExactLtOracle, MAX_LT_ORACLE_WORLDS};
pub use oracle::{mc_certified, CertifiedEstimate, ExactOracle, MAX_ORACLE_EDGES};
pub use sim::{
    check_seed, generate_script, generate_session, run_model, run_serving, run_sessions,
    SessionInput, SessionRun, Sim, SimOutcome, SimStep,
};
pub use stats::{chi_square_critical, chi_square_stat, hoeffding_half_width, merge_small_bins};
