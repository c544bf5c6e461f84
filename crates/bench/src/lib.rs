//! Benchmark harness for the SUBSIM/HIST reproduction.
//!
//! - [`workloads`] — Table 2 stand-in datasets and the θ/p calibration
//!   that realizes the paper's average-RR-size sweeps.
//! - [`harness`] — one function per paper figure/table, plus the
//!   artifact provenance block; the `experiments` binary dispatches into
//!   them.
//! - [`layers`] — the one gated sweep of kernel and tier comparisons
//!   (`experiments layers`).

#![warn(missing_docs)]

pub mod harness;
pub mod layers;
pub mod workloads;
