//! Edge-list graph construction.

use crate::csr::{EdgeWeights, Graph, NodeId};
use crate::error::GraphError;
use crate::weights::{sort_segments_desc, WeightModel};

/// Builds a [`Graph`] from an edge list.
///
/// ```
/// use subsim_graph::{GraphBuilder, WeightModel};
///
/// let g = GraphBuilder::new(4)
///     .edges([(0, 1), (1, 2), (2, 3), (0, 3)])
///     .weights(WeightModel::Wc)
///     .build()
///     .unwrap();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    custom_probs: Option<Vec<f64>>,
    model: WeightModel,
    undirected: bool,
    keep_self_loops: bool,
    weight_seed: u64,
}

impl GraphBuilder {
    /// Starts a builder for a graph with nodes `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            custom_probs: None,
            model: WeightModel::Wc,
            undirected: false,
            keep_self_loops: false,
            weight_seed: 0x5eed,
        }
    }

    /// Adds one directed edge `u -> v`.
    pub fn add_edge(mut self, u: NodeId, v: NodeId) -> Self {
        self.edges.push((u, v));
        self
    }

    /// Adds many directed edges.
    pub fn edges<I: IntoIterator<Item = (NodeId, NodeId)>>(mut self, iter: I) -> Self {
        self.edges.extend(iter);
        self
    }

    /// Adds one edge with an explicit probability; switches the graph to
    /// per-edge weights (overrides [`GraphBuilder::weights`]).
    pub fn add_weighted_edge(self, u: NodeId, v: NodeId, p: f64) -> Self {
        self.weighted_edges([(u, v, p)])
    }

    /// Adds many `(u, v, p)` edges with explicit probabilities, as
    /// [`GraphBuilder::add_weighted_edge`] does one at a time. An empty
    /// `iter` adds nothing and leaves the weight mode as it was.
    pub fn weighted_edges<I: IntoIterator<Item = (NodeId, NodeId, f64)>>(
        mut self,
        iter: I,
    ) -> Self {
        let mut iter = iter.into_iter().peekable();
        if iter.peek().is_some() {
            let probs = self.custom_probs.get_or_insert_with(Vec::new);
            probs.resize(self.edges.len(), f64::NAN);
            for (u, v, p) in iter {
                self.edges.push((u, v));
                probs.push(p);
            }
        }
        self
    }

    /// Selects the weight model used to derive edge probabilities.
    pub fn weights(mut self, model: WeightModel) -> Self {
        self.model = model;
        self
    }

    /// Seed for the random weight models (exponential, Weibull,
    /// trivalency). Defaults to a fixed constant so builds are
    /// reproducible.
    pub fn weight_seed(mut self, seed: u64) -> Self {
        self.weight_seed = seed;
        self
    }

    /// Treats every added edge as undirected: both directions are
    /// materialized (matching how the paper handles Orkut/Friendster).
    pub fn undirected(mut self, yes: bool) -> Self {
        self.undirected = yes;
        self
    }

    /// Keeps self-loops instead of dropping them (default: drop).
    pub fn keep_self_loops(mut self, yes: bool) -> Self {
        self.keep_self_loops = yes;
        self
    }

    /// Finalizes the graph: validates endpoints, dedups parallel edges,
    /// builds both CSR directions, and materializes edge probabilities.
    ///
    /// A counting sort by source does the work: one pass validates and
    /// counts, one scatters each edge's target (and, with custom weights,
    /// its probability) into its source's bucket in insertion order, and
    /// each bucket is then sorted by target and deduplicated in place,
    /// keeping the first occurrence of a parallel edge. The reverse CSR is
    /// a second counting sort.
    ///
    /// Cost: O(n + m + Σ d_out log d_out) time. The input list (8 bytes
    /// per edge, 16 with custom weights) is freed after the scatter. Beside
    /// the output arrays, transient memory is an `n`-entry cursor, the
    /// target scatter's slack before it is compacted into `out_targets`
    /// (4 bytes per dropped duplicate), and with custom weights the 8-byte
    /// probability scatter per edge slot and one bucket's sort buffer.
    pub fn build(self) -> Result<Graph, GraphError> {
        let GraphBuilder {
            n,
            edges,
            custom_probs,
            model,
            undirected,
            keep_self_loops,
            weight_seed,
        } = self;
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }

        // Resolve custom probabilities: edges added via `add_edge` after a
        // weighted edge get NaN placeholders, which we reject.
        if let Some(probs) = &custom_probs {
            if probs.len() != edges.len() {
                return Err(GraphError::WeightLengthMismatch {
                    expected: edges.len(),
                    got: probs.len(),
                });
            }
            for &p in probs {
                if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                    return Err(GraphError::InvalidProbability { value: p });
                }
            }
        }

        // Pass 1: validate endpoints in insertion order and count each
        // source's bucket (self-loops dropped, undirected edges doubled).
        let mut out_offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u as u64, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v as u64, n });
            }
            if u == v && !keep_self_loops {
                continue;
            }
            out_offsets[u as usize + 1] += 1;
            if undirected && u != v {
                out_offsets[v as usize + 1] += 1;
            }
        }
        prefix_sum(&mut out_offsets);

        // Pass 2: scatter targets (and probabilities) in insertion order.
        let slots = out_offsets[n];
        let mut out_targets = vec![0 as NodeId; slots];
        let weighted = custom_probs.is_some();
        let mut out_probs = vec![0.0f64; if weighted { slots } else { 0 }];
        let mut cursor = out_offsets[..n].to_vec();
        let mut place = |u: NodeId, v: NodeId, i: usize| {
            let slot = cursor[u as usize];
            cursor[u as usize] += 1;
            out_targets[slot] = v;
            if let Some(ps) = &custom_probs {
                out_probs[slot] = ps[i];
            }
        };
        for (i, &(u, v)) in edges.iter().enumerate() {
            if u == v && !keep_self_loops {
                continue;
            }
            place(u, v, i);
            if undirected && u != v {
                place(v, u, i);
            }
        }
        drop(edges);
        drop(custom_probs);

        // Sort each bucket by target, dedup, and compact it in place.
        let mut m = 0;
        let mut scratch: Vec<(NodeId, f64)> = Vec::new();
        for u in 0..n {
            let (lo, hi) = (out_offsets[u], out_offsets[u + 1]);
            out_offsets[u] = m;
            if weighted {
                // Stable on the target, so the first occurrence's
                // probability survives the dedup.
                scratch.clear();
                scratch.extend(
                    out_targets[lo..hi]
                        .iter()
                        .copied()
                        .zip(out_probs[lo..hi].iter().copied()),
                );
                scratch.sort_by_key(|&(v, _)| v);
                scratch.dedup_by_key(|&mut (v, _)| v);
                for (k, &(v, p)) in scratch.iter().enumerate() {
                    out_targets[m + k] = v;
                    out_probs[m + k] = p;
                }
                m += scratch.len();
            } else {
                out_targets[lo..hi].sort_unstable();
                let start = m;
                for k in lo..hi {
                    let v = out_targets[k];
                    if m == start || out_targets[m - 1] != v {
                        out_targets[m] = v;
                        m += 1;
                    }
                }
            }
        }
        out_offsets[n] = m;
        out_targets.truncate(m);
        out_targets.shrink_to_fit();
        out_probs.truncate(m);

        // Reverse CSR via counting sort on target: each in-segment lists
        // its sources in ascending order.
        let mut in_offsets = vec![0usize; n + 1];
        for &v in &out_targets {
            in_offsets[v as usize + 1] += 1;
        }
        prefix_sum(&mut in_offsets);
        let mut cursor = in_offsets[..n].to_vec();
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_probs = vec![0.0f64; out_probs.len()];
        for (u, w) in out_offsets.windows(2).enumerate() {
            for (e, &v) in (w[0]..w[1]).zip(&out_targets[w[0]..w[1]]) {
                let slot = cursor[v as usize];
                cursor[v as usize] += 1;
                in_sources[slot] = u as NodeId;
                if let Some(&p) = out_probs.get(e) {
                    in_probs[slot] = p;
                }
            }
        }
        drop(out_probs);

        let weights = if weighted {
            sort_segments_desc(&in_offsets, &mut in_sources, &mut in_probs);
            EdgeWeights::PerEdge(in_probs)
        } else {
            model.assign(n, &in_offsets, &mut in_sources, weight_seed)
        };

        let g = Graph::from_parts(n, out_offsets, out_targets, in_offsets, in_sources, weights);
        g.validate()?;
        Ok(g)
    }
}

/// Turns per-bucket counts at `offsets[1..]` into bucket start offsets.
fn prefix_sum(offsets: &mut [usize]) {
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::InProbs;

    #[test]
    fn rejects_out_of_range_nodes() {
        let err = GraphBuilder::new(2).add_edge(0, 5).build().unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, n: 2 }));
    }

    #[test]
    fn rejects_empty_graph() {
        assert!(matches!(
            GraphBuilder::new(0).build().unwrap_err(),
            GraphError::EmptyGraph
        ));
    }

    #[test]
    fn drops_self_loops_by_default() {
        let g = GraphBuilder::new(2)
            .edges([(0, 0), (0, 1)])
            .build()
            .unwrap();
        assert_eq!(g.m(), 1);
        let g = GraphBuilder::new(2)
            .edges([(0, 0), (0, 1)])
            .keep_self_loops(true)
            .build()
            .unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn dedups_parallel_edges() {
        let g = GraphBuilder::new(2)
            .edges([(0, 1), (0, 1), (0, 1)])
            .build()
            .unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn undirected_doubles_edges() {
        let g = GraphBuilder::new(3)
            .edges([(0, 1), (1, 2)])
            .undirected(true)
            .build()
            .unwrap();
        assert_eq!(g.m(), 4);
        assert_eq!(g.in_degree(0), 1);
        assert_eq!(g.out_degree(2), 1);
    }

    #[test]
    fn custom_weights_respected() {
        let g = GraphBuilder::new(3)
            .add_weighted_edge(0, 2, 0.25)
            .add_weighted_edge(1, 2, 0.75)
            .build()
            .unwrap();
        let InProbs::PerEdge(ps) = g.in_probs(2) else {
            panic!()
        };
        assert_eq!(ps, &[0.75, 0.25]); // sorted descending
        assert_eq!(g.in_neighbors(2), &[1, 0]); // aligned with probs
    }

    #[test]
    fn custom_weights_validate_range() {
        let err = GraphBuilder::new(2)
            .add_weighted_edge(0, 1, 1.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, GraphError::InvalidProbability { .. }));
    }

    #[test]
    fn mixing_weighted_and_unweighted_edges_fails() {
        let err = GraphBuilder::new(3)
            .add_weighted_edge(0, 1, 0.5)
            .add_edge(1, 2)
            .build()
            .unwrap_err();
        assert!(matches!(err, GraphError::WeightLengthMismatch { .. }));
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = GraphBuilder::new(10).add_edge(0, 1).build().unwrap();
        assert_eq!(g.n(), 10);
        assert_eq!(g.in_degree(9), 0);
        assert_eq!(g.out_degree(9), 0);
    }

    #[test]
    fn out_neighbors_sorted_by_construction() {
        let g = GraphBuilder::new(4)
            .edges([(0, 3), (0, 1), (0, 2)])
            .build()
            .unwrap();
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
    }
}
