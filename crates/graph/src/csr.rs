//! Compressed-sparse-row graph storage with forward and reverse adjacency.

use crate::error::GraphError;

/// Node identifier. `u32` keeps adjacency arrays compact (the paper's
/// largest graph has 65.6M nodes, comfortably within range).
pub type NodeId = u32;

/// Propagation probabilities of a node's incoming edges.
///
/// RR-set generators branch on this: the `Uniform` arm enables the plain
/// geometric-skip sampler (paper Algorithm 3); the `PerEdge` arm carries
/// probabilities sorted in *descending* order per node, as required by the
/// index-free general-IC sampler (paper Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InProbs<'a> {
    /// Every in-edge of the node has this probability.
    Uniform(f64),
    /// One probability per in-edge, aligned with
    /// [`Graph::in_neighbors`] and sorted descending.
    PerEdge(&'a [f64]),
}

/// Edge-probability storage shared by the whole graph.
#[derive(Debug, Clone)]
pub(crate) enum EdgeWeights {
    /// `per_node[v]` applies to every in-edge of `v` (WC, WC-variant,
    /// Uniform IC).
    Uniform(Vec<f64>),
    /// Aligned with the reverse CSR's `in_sources`; each node's segment is
    /// sorted descending (general IC, LT).
    PerEdge(Vec<f64>),
}

/// A directed graph with propagation probabilities, stored as twin CSR
/// structures (forward for cascade simulation and out-degree tie-breaks,
/// reverse for RR-set generation).
///
/// Construct via [`crate::builder::GraphBuilder`] or the
/// [`crate::generators`] module.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
    weights: EdgeWeights,
}

impl Graph {
    /// Assembles a graph from prebuilt CSR arrays. Internal: the builder
    /// validates invariants before calling this.
    pub(crate) fn from_parts(
        n: usize,
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<usize>,
        in_sources: Vec<NodeId>,
        weights: EdgeWeights,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), n + 1);
        debug_assert_eq!(in_offsets.len(), n + 1);
        debug_assert_eq!(out_targets.len(), *out_offsets.last().unwrap());
        debug_assert_eq!(in_sources.len(), *in_offsets.last().unwrap());
        Graph {
            n,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            weights,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of directed edges `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// Out-neighbors of `v` (targets of edges leaving `v`).
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// In-neighbors of `v` (sources of edges entering `v`). When the graph
    /// carries per-edge probabilities, the order matches
    /// [`Graph::in_probs`]'s descending-probability order.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// The raw reverse-CSR offset array: `n + 1` entries, with node `v`'s
    /// in-neighbors at `in_csr_sources()[offsets[v]..offsets[v + 1]]`.
    ///
    /// Flat traversal kernels index these arrays directly instead of going
    /// through [`Graph::in_neighbors`] per node.
    #[inline]
    pub fn in_csr_offsets(&self) -> &[usize] {
        &self.in_offsets
    }

    /// The raw reverse-CSR source array (see [`Graph::in_csr_offsets`]).
    #[inline]
    pub fn in_csr_sources(&self) -> &[NodeId] {
        &self.in_sources
    }

    /// The per-node uniform in-probability array (`probs[v]` applies to
    /// every in-edge of `v`), or `None` when the graph carries per-edge
    /// weights.
    #[inline]
    pub fn uniform_in_probs(&self) -> Option<&[f64]> {
        match &self.weights {
            EdgeWeights::Uniform(per_node) => Some(per_node),
            EdgeWeights::PerEdge(_) => None,
        }
    }

    /// The per-edge in-probability array aligned with
    /// [`Graph::in_csr_sources`] (each node's segment sorted descending),
    /// or `None` when weights are per-node uniform.
    #[inline]
    pub fn per_edge_in_probs(&self) -> Option<&[f64]> {
        match &self.weights {
            EdgeWeights::Uniform(_) => None,
            EdgeWeights::PerEdge(probs) => Some(probs),
        }
    }

    /// Propagation probabilities of `v`'s incoming edges.
    #[inline]
    pub fn in_probs(&self, v: NodeId) -> InProbs<'_> {
        match &self.weights {
            EdgeWeights::Uniform(per_node) => InProbs::Uniform(per_node[v as usize]),
            EdgeWeights::PerEdge(probs) => {
                let v = v as usize;
                InProbs::PerEdge(&probs[self.in_offsets[v]..self.in_offsets[v + 1]])
            }
        }
    }

    /// `Σ_{(u,v) ∈ E} p(u, v)` — the total incoming weight of `v`, the `μ`
    /// of the subset-sampling cost bound (paper Lemma 3).
    pub fn in_prob_sum(&self, v: NodeId) -> f64 {
        match self.in_probs(v) {
            InProbs::Uniform(p) => p * self.in_degree(v) as f64,
            InProbs::PerEdge(ps) => ps.iter().sum(),
        }
    }

    /// Whether every node's in-edges share one probability (WC / Uniform
    /// IC / WC-variant), enabling the fast path of Algorithm 3.
    pub fn has_uniform_in_probs(&self) -> bool {
        matches!(self.weights, EdgeWeights::Uniform(_))
    }

    /// The probability of the `idx`-th in-edge of `v` (panics if out of
    /// range). Convenience for tests and the vanilla generator.
    pub fn in_prob_at(&self, v: NodeId, idx: usize) -> f64 {
        match self.in_probs(v) {
            InProbs::Uniform(p) => {
                assert!(idx < self.in_degree(v));
                p
            }
            InProbs::PerEdge(ps) => ps[idx],
        }
    }

    /// Probability of the edge `u -> v`, or `None` if absent.
    ///
    /// `O(1)` for per-node-uniform weights; `O(d_in(v))` scan otherwise
    /// (the in-list is sorted by probability, not source id). Forward
    /// simulation is the only caller on the per-edge path.
    pub fn prob_of_edge(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let nbrs = self.in_neighbors(v);
        match self.in_probs(v) {
            InProbs::Uniform(p) => nbrs.contains(&u).then_some(p),
            InProbs::PerEdge(ps) => nbrs.iter().position(|&x| x == u).map(|i| ps[i]),
        }
    }

    /// Iterates all edges as `(source, target, probability)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n as NodeId).flat_map(move |v| {
            let nbrs = self.in_neighbors(v);
            (0..nbrs.len()).map(move |i| (nbrs[i], v, self.in_prob_at(v, i)))
        })
    }

    /// This graph with its weights in per-edge storage: each in-edge of
    /// `v` carries `v`'s per-node rate, and the CSR arrays are kept as
    /// they are. A graph that already stores per-edge probabilities is
    /// returned unchanged. O(m).
    ///
    /// On a graph with edges this equals rebuilding it through explicit
    /// per-edge weights: the builder lists each in-segment by ascending
    /// source, and the descending-probability sort leaves a segment of
    /// equal rates alone.
    pub fn with_per_edge_weights(self) -> Graph {
        let EdgeWeights::Uniform(per_node) = &self.weights else {
            return self;
        };
        let mut probs = Vec::with_capacity(self.in_sources.len());
        for (v, w) in self.in_offsets.windows(2).enumerate() {
            debug_assert!(self.in_sources[w[0]..w[1]].windows(2).all(|s| s[0] < s[1]));
            probs.resize(w[1], per_node[v]);
        }
        Graph {
            weights: EdgeWeights::PerEdge(probs),
            ..self
        }
    }

    /// Validates that every probability lies in `[0, 1]`.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let check = |p: f64| {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                Err(GraphError::InvalidProbability { value: p })
            } else {
                Ok(())
            }
        };
        match &self.weights {
            EdgeWeights::Uniform(per_node) => {
                for (v, &p) in per_node.iter().enumerate() {
                    if self.in_degree(v as NodeId) > 0 {
                        check(p)?;
                    }
                }
            }
            EdgeWeights::PerEdge(probs) => {
                for &p in probs {
                    check(p)?;
                }
            }
        }
        Ok(())
    }

    /// Approximate heap footprint in bytes (adjacency + weights).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let w = match &self.weights {
            EdgeWeights::Uniform(v) => v.len() * size_of::<f64>(),
            EdgeWeights::PerEdge(v) => v.len() * size_of::<f64>(),
        };
        (self.out_offsets.len() + self.in_offsets.len()) * size_of::<usize>()
            + (self.out_targets.len() + self.in_sources.len()) * size_of::<NodeId>()
            + w
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::csr::InProbs;
    use crate::weights::WeightModel;

    /// 0 -> 1 -> 2, 0 -> 2.
    fn triangle() -> crate::Graph {
        GraphBuilder::new(3)
            .edges([(0, 1), (1, 2), (0, 2)])
            .weights(WeightModel::Wc)
            .build()
            .unwrap()
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(2), 2);
        assert_eq!(g.in_degree(0), 0);
        let mut out0 = g.out_neighbors(0).to_vec();
        out0.sort_unstable();
        assert_eq!(out0, vec![1, 2]);
        let mut in2 = g.in_neighbors(2).to_vec();
        in2.sort_unstable();
        assert_eq!(in2, vec![0, 1]);
    }

    #[test]
    fn wc_probabilities() {
        let g = triangle();
        assert_eq!(g.in_probs(1), InProbs::Uniform(1.0));
        assert_eq!(g.in_probs(2), InProbs::Uniform(0.5));
        assert!((g.in_prob_sum(2) - 1.0).abs() < 1e-12);
        assert!(g.has_uniform_in_probs());
    }

    #[test]
    fn edges_iterator_covers_all() {
        let g = triangle();
        let mut edges: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
        for (_, _, p) in g.edges() {
            assert!(p > 0.0 && p <= 1.0);
        }
    }

    #[test]
    fn validate_accepts_wellformed() {
        triangle().validate().unwrap();
    }

    #[test]
    fn memory_accounting_positive() {
        assert!(triangle().memory_bytes() > 0);
    }
}
