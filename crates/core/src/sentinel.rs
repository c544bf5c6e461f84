//! Sentinel sets for long-lived serving pools.
//!
//! The one-shot [`crate::algorithms::Hist`] implements the paper's
//! sentinel machinery (Algorithms 5–8) but throws its RR sample away when
//! it returns. Serving pools keep theirs, and [`SentinelSet::select`]
//! picks the sentinel set `Z` as a hitting set over an **existing** plain
//! pool prefix (iterative covering via the revised greedy, Algorithm 6's
//! out-degree tie-break) instead of rerunning Algorithm 7's doubling
//! schedule. The certification round over a pool whose later chunks were
//! generated under Algorithm 5 truncation — and the argument that its
//! bounds stay sound — lives with the other rounds in
//! `subsim_index::certify`.

use crate::coverage::{greedy_max_coverage_sharded, GreedyConfig};
use subsim_diffusion::RrCollection;
use subsim_graph::{Graph, NodeId};

/// A sentinel set pinned to one graph version.
///
/// Selected once per version over the plain warmup prefix of the pool;
/// every later top-up chunk runs Algorithm 5 truncation against it. The
/// serving layers persist it in snapshots and drop it (re-selecting) when
/// a graph delta touches any of its nodes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SentinelSet {
    nodes: Vec<NodeId>,
}

impl SentinelSet {
    /// Wraps an explicit node list (snapshot load path). Duplicates are
    /// removed; order is preserved (greedy pick order matters for the
    /// `k < |Z|` prefix answer).
    pub fn from_nodes(nodes: Vec<NodeId>) -> Self {
        let mut seen = std::collections::HashSet::new();
        let nodes = nodes.into_iter().filter(|&v| seen.insert(v)).collect();
        SentinelSet { nodes }
    }

    /// Selects up to `b` sentinels as a hitting set over `prefix` — the
    /// plain (untruncated) warmup chunks of the current pool — using the
    /// revised greedy (coverage ties break towards large out-degree, so
    /// sentinels are nodes RR traversals are likely to hit).
    ///
    /// This is the iterative-covering shortcut: the pool prefix is an
    /// i.i.d. RR sample that already exists, so no fresh Algorithm 7
    /// doubling run is needed. Deterministic given `(prefix, g, b)`.
    pub fn select(prefix: &[&RrCollection], g: &Graph, b: usize) -> Self {
        if b == 0 || prefix.iter().all(|rr| rr.is_empty()) {
            return SentinelSet::default();
        }
        let out = greedy_max_coverage_sharded(prefix, &GreedyConfig::revised(b.min(g.n()), g));
        SentinelSet { nodes: out.seeds }
    }

    /// The sentinel nodes in greedy pick order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of sentinels.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no sentinel is installed (plain-pool behaviour).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `v` is a sentinel — the staleness test delta repair runs
    /// on every touched endpoint.
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.contains(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_diffusion::{RrContext, RrSampler, RrStrategy};
    use subsim_graph::generators::{barabasi_albert, star_graph};
    use subsim_graph::WeightModel;
    use subsim_sampling::rng_from_seed;

    fn plain_pool(g: &subsim_graph::Graph, count: usize, seed: u64) -> RrCollection {
        let sampler = RrSampler::new(g, RrStrategy::SubsimIc);
        let mut ctx = RrContext::new(g.n());
        let mut rng = rng_from_seed(seed);
        let mut rr = RrCollection::new(g.n());
        rr.generate(&sampler, &mut ctx, &mut rng, count);
        rr
    }

    #[test]
    fn selection_is_deterministic_and_bounded() {
        let g = barabasi_albert(300, 3, WeightModel::Wc, 11);
        let prefix = plain_pool(&g, 2000, 12);
        let a = SentinelSet::select(&[&prefix], &g, 4);
        let b = SentinelSet::select(&[&prefix], &g, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        for &v in a.nodes() {
            assert!(a.contains(v));
        }
    }

    #[test]
    fn selection_prefers_hubs() {
        // The star hub is in every RR set rooted at a leaf; it must be
        // the first sentinel.
        let g = star_graph(80, WeightModel::UniformIc { p: 0.5 });
        let prefix = plain_pool(&g, 1000, 13);
        let z = SentinelSet::select(&[&prefix], &g, 2);
        assert_eq!(z.nodes()[0], 0);
    }

    #[test]
    fn empty_prefix_or_zero_b_selects_nothing() {
        let g = star_graph(10, WeightModel::Wc);
        let empty = RrCollection::new(g.n());
        assert!(SentinelSet::select(&[&empty], &g, 3).is_empty());
        let prefix = plain_pool(&g, 50, 14);
        assert!(SentinelSet::select(&[&prefix], &g, 0).is_empty());
    }

    #[test]
    fn from_nodes_dedups_preserving_order() {
        let z = SentinelSet::from_nodes(vec![5, 3, 5, 7, 3]);
        assert_eq!(z.nodes(), &[5, 3, 7]);
    }
}
