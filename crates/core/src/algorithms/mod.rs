//! The IM algorithms. See the crate docs for the role of each.

mod hist;
mod imm;
mod mc_greedy;
mod opim;
mod ssa;
mod tim;

pub use hist::Hist;
pub use imm::Imm;
pub use mc_greedy::McGreedy;
pub use opim::OpimC;
pub use ssa::Ssa;
pub use tim::TimPlus;

use crate::result::RunStats;
use rand::rngs::SmallRng;
use subsim_diffusion::{RrCollection, RrContext, RrSampler, RrStrategy};
use subsim_graph::{Graph, NodeId};
use subsim_sampling::rng_from_seed;

/// Shared RR-generation driver: owns the sampler, scratch context, and
/// RNG, and keeps the running statistics every algorithm reports.
pub(crate) struct Driver<'g> {
    pub sampler: RrSampler<'g>,
    pub ctx: RrContext,
    pub rng: SmallRng,
    pub rr_generated: u64,
    pub rr_total_nodes: u64,
}

impl<'g> Driver<'g> {
    pub fn new(g: &'g Graph, strategy: RrStrategy, seed: u64) -> Self {
        Driver {
            sampler: RrSampler::new(g, strategy),
            ctx: RrContext::new(g.n()),
            rng: rng_from_seed(seed),
            rr_generated: 0,
            rr_total_nodes: 0,
        }
    }

    /// Appends `count` random RR sets to `rr`, honouring the context's
    /// sentinel if one is installed.
    pub fn generate_into(&mut self, rr: &mut RrCollection, count: usize) {
        for _ in 0..count {
            let size = self.sampler.generate(&mut self.ctx, &mut self.rng);
            rr.push(self.ctx.last());
            self.rr_total_nodes += size as u64;
        }
        self.rr_generated += count as u64;
    }

    /// Installs a sentinel set for subsequent generations.
    pub fn set_sentinel(&mut self, sentinel: &[NodeId]) {
        self.ctx.set_sentinel(sentinel);
    }

    /// Removes the sentinel.
    pub fn clear_sentinel(&mut self) {
        self.ctx.clear_sentinel();
    }

    /// Snapshot of the statistics accumulated so far.
    pub fn stats(&self) -> RunStats {
        RunStats {
            rr_generated: self.rr_generated,
            rr_total_nodes: self.rr_total_nodes,
            cost: self.ctx.cost,
            sentinel_hits: self.ctx.sentinel_hits,
            ..RunStats::default()
        }
    }
}

/// `1 - 1/e`, the submodular greedy factor.
pub(crate) fn one_minus_inv_e() -> f64 {
    1.0 - (-1.0f64).exp()
}
