//! Influence-maximization algorithms from *"Influence Maximization
//! Revisited: Efficient Reverse Reachable Set Generation with Bound
//! Tightened"* (Guo, Wang, Wei, Chen — SIGMOD 2020).
//!
//! Everything here returns a `(1 - 1/e - ε)`-approximate seed set with
//! probability at least `1 - δ` (except the Monte-Carlo greedy baseline,
//! whose guarantee is `1 - 1/e` up to estimation noise):
//!
//! | algorithm | struct | paper role |
//! |---|---|---|
//! | Monte-Carlo greedy | [`algorithms::McGreedy`] | Kempe et al. baseline, ground truth on small graphs |
//! | IMM | [`algorithms::Imm`] | Tang et al. 2015 baseline |
//! | TIM⁺ | [`algorithms::TimPlus`] | Tang et al. 2014 baseline |
//! | SSA | [`algorithms::Ssa`] | Nguyen et al. 2016 baseline (stop-and-stare) |
//! | OPIM-C | [`algorithms::OpimC`] | Tang et al. 2018 baseline and SUBSIM's host |
//! | SUBSIM | [`algorithms::OpimC::subsim`] | OPIM-C + geometric-skip RR generation (Section 3) |
//! | HIST | [`algorithms::Hist`] | sentinel-set two-phase algorithm (Section 4) |
//!
//! All algorithms implement [`ImAlgorithm`] and accept any
//! [`subsim_diffusion::RrStrategy`], so IC (vanilla/SUBSIM/bucketed) and
//! LT variants come from one code path — exactly the modularity the paper
//! exploits ("we only modify the RR set generation algorithm").

#![warn(missing_docs)]

pub mod algorithms;
pub mod bounds;
pub mod certificate;
pub mod coverage;
pub mod error;
pub mod options;
pub mod result;
pub mod sentinel;

pub use algorithms::{Hist, Imm, McGreedy, OpimC, Ssa, TimPlus};
pub use certificate::{certify_seed_set, certify_seed_set_auto, InfluenceCertificate};
pub use error::ImError;
pub use options::ImOptions;
pub use result::{ImResult, RunStats};
pub use sentinel::SentinelSet;

use subsim_graph::Graph;

/// One influence-maximization algorithm, runnable on any graph.
///
/// ```
/// use subsim_core::{ImAlgorithm, ImOptions, OpimC};
/// use subsim_graph::{generators, WeightModel};
///
/// let g = generators::star_graph(50, WeightModel::UniformIc { p: 0.5 });
/// let result = OpimC::subsim().run(&g, &ImOptions::new(1)).unwrap();
/// assert_eq!(result.seeds, vec![0]); // the hub dominates
/// ```
pub trait ImAlgorithm {
    /// Human-readable name used by the benchmark harness.
    fn name(&self) -> String;

    /// Selects a size-`opts.k` seed set.
    fn run(&self, g: &Graph, opts: &ImOptions) -> Result<ImResult, ImError>;
}

/// Commonly used items.
pub mod prelude {
    pub use crate::algorithms::{Hist, Imm, McGreedy, OpimC, Ssa, TimPlus};
    pub use crate::certificate::{certify_seed_set, InfluenceCertificate};
    pub use crate::error::ImError;
    pub use crate::options::ImOptions;
    pub use crate::result::{ImResult, RunStats};
    pub use crate::ImAlgorithm;
}
