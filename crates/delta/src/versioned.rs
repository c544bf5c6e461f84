//! An epoch-versioned edge-mutation overlay on the CSR substrate.

use crate::delta::{DeltaOp, GraphDelta};
use crate::error::DeltaError;
use std::collections::HashMap;
use std::sync::Arc;
use subsim_graph::{Graph, GraphBuilder, GraphError, NodeId};
use subsim_index::graph_fingerprint;

/// Overlay size (net mutated edges vs. the compacted base) at which
/// [`VersionedGraph`] folds the overlay into a fresh base CSR.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 4096;

/// Net overlay entry for one `(u, v)` pair: `Some(p)` means the edge
/// exists with probability `p` (insert or reweight), `None` is a
/// tombstone over a base edge.
type Overlay = HashMap<(NodeId, NodeId), Option<f64>>;

/// A mutable graph built from a compacted base CSR plus a bounded overlay
/// of net edge mutations, rebuilt into a fresh CSR on every applied
/// delta.
///
/// Three invariants carry the determinism contract of the repair engine
/// (see [`crate::repair`]):
///
/// - **Fixed node set** — deltas mutate edges only, so RR roots keep
///   drawing from the same `0..n` range at every version.
/// - **Normalized storage** — the graph carries explicit per-edge
///   weights: per-node rates are expanded into per-edge storage at
///   construction, and every delta rebuilds through them, so RR
///   generation always takes the per-edge sampler path and consumes the
///   same RNG stream shape across versions. (Normalization preserves the
///   fingerprint: edge triples are unchanged, only the storage
///   representation is. A version without edges has no weights to carry
///   and keeps the builder's plain storage.)
/// - **Versioned fingerprint** — every applied delta bumps `version` and
///   recomputes the [`graph_fingerprint`], so stale snapshots are
///   detected structurally, not by timestamps.
///
/// Application is transactional: every op of a [`GraphDelta`] validates
/// against the running state (in op order) before anything commits, so a
/// failed delta leaves the graph untouched.
///
/// The overlay is compacted into a fresh base whenever it reaches the
/// compaction threshold, bounding validation-lookup cost; the rebuild of
/// the *current* CSR is `O(m + |overlay|)` per delta either way.
///
/// Note the LT diffusion model additionally requires each node's incoming
/// probabilities to sum to at most 1; deltas can violate that sum. The
/// overlay is strategy-agnostic and does not enforce it — LT callers must
/// keep their deltas row-stochastic themselves.
#[derive(Debug, Clone)]
pub struct VersionedGraph {
    /// Last compacted CSR; `current = base ⊕ pending`.
    base: Graph,
    /// The CSR serving reads at `version`.
    current: Arc<Graph>,
    /// Net mutations vs. `base`.
    pending: Overlay,
    version: u64,
    fingerprint: u64,
    compact_threshold: usize,
    compactions: u64,
}

/// Validates a probability the way [`GraphBuilder`] will.
fn check_prob(p: f64) -> Result<(), DeltaError> {
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(DeltaError::Graph(GraphError::InvalidProbability {
            value: p,
        }));
    }
    Ok(())
}

/// Rebuilds a CSR from `base` with `overlay` applied, through explicit
/// per-edge weights (the normalized storage form).
fn rebuild(base: &Graph, overlay: &Overlay) -> Result<Graph, GraphError> {
    // Base edges take their overlay entry (tombstone or reweight); the
    // entries left over are inserts, appended in `(u, v)` order.
    let mut leftover = overlay.clone();
    let kept = base
        .edges()
        .filter_map(|(u, v, p)| match leftover.remove(&(u, v)) {
            Some(entry) => entry.map(|p2| (u, v, p2)),
            None => Some((u, v, p)),
        });
    let b = GraphBuilder::new(base.n())
        .keep_self_loops(true)
        .weighted_edges(kept);
    let mut inserts: Vec<(NodeId, NodeId, f64)> = leftover
        .into_iter()
        .filter_map(|((u, v), p)| p.map(|p| (u, v, p)))
        .collect();
    inserts.sort_unstable_by_key(|&(u, v, _)| (u, v));
    b.weighted_edges(inserts).build()
}

impl VersionedGraph {
    /// Wraps `g` as version 0, normalizing its weight storage (see the
    /// type docs). The fingerprint of version 0 equals `g`'s.
    pub fn new(g: Graph) -> Result<Self, DeltaError> {
        Self::with_compaction_threshold(g, DEFAULT_COMPACT_THRESHOLD)
    }

    /// [`VersionedGraph::new`] with an explicit compaction threshold
    /// (minimum 1: every delta compacts).
    pub fn with_compaction_threshold(g: Graph, threshold: usize) -> Result<Self, DeltaError> {
        assert!(threshold > 0, "compaction threshold must be at least 1");
        let fingerprint = graph_fingerprint(&g);
        // Expanding per-node rates in place gives what a rebuild would; an
        // edgeless graph has none and rebuilds to the builder's plain
        // storage, as a delta that deletes every edge does.
        let base = if g.m() == 0 {
            rebuild(&g, &Overlay::new())?
        } else {
            g.with_per_edge_weights()
        };
        debug_assert_eq!(
            graph_fingerprint(&base),
            fingerprint,
            "storage normalization must preserve the fingerprint"
        );
        let current = Arc::new(base.clone());
        Ok(VersionedGraph {
            base,
            current,
            pending: Overlay::new(),
            version: 0,
            fingerprint,
            compact_threshold: threshold,
            compactions: 0,
        })
    }

    /// The CSR at the current version.
    pub fn graph(&self) -> &Graph {
        &self.current
    }

    /// A shared handle to the current CSR (what concurrent serving
    /// layers publish in their snapshots).
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.current)
    }

    /// The epoch: number of deltas applied since construction.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Structural fingerprint of the current version.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Net mutated edges pending vs. the compacted base.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Compactions performed since construction.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether the edge `u -> v` exists at the current version.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.current.prob_of_edge(u, v).is_some()
    }

    /// Applies `delta` atomically: validates every op in order against
    /// the running state, then commits a rebuilt CSR, bumps the version,
    /// and recomputes the fingerprint. On error nothing changes.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<(), DeltaError> {
        let n = self.base.n();
        let mut staged = self.pending.clone();
        for op in delta.ops() {
            let (u, v) = op.endpoints();
            for node in [u, v] {
                if node as usize >= n {
                    return Err(DeltaError::NodeOutOfRange { node, n });
                }
            }
            let in_base = self.base.prob_of_edge(u, v).is_some();
            let exists = match staged.get(&(u, v)) {
                Some(entry) => entry.is_some(),
                None => in_base,
            };
            match *op {
                DeltaOp::InsertEdge { p, .. } => {
                    if exists {
                        return Err(DeltaError::DuplicateEdge { u, v });
                    }
                    check_prob(p)?;
                    staged.insert((u, v), Some(p));
                }
                DeltaOp::DeleteEdge { .. } => {
                    if !exists {
                        return Err(DeltaError::UnknownEdge { u, v });
                    }
                    if in_base {
                        staged.insert((u, v), None);
                    } else {
                        staged.remove(&(u, v));
                    }
                }
                DeltaOp::ReweightEdge { p, .. } => {
                    if !exists {
                        return Err(DeltaError::UnknownEdge { u, v });
                    }
                    check_prob(p)?;
                    staged.insert((u, v), Some(p));
                }
            }
        }
        let current = rebuild(&self.base, &staged)?;
        self.pending = staged;
        self.current = Arc::new(current);
        self.version += 1;
        self.fingerprint = graph_fingerprint(&self.current);
        if self.pending.len() >= self.compact_threshold {
            self.base = (*self.current).clone();
            self.pending.clear();
            self.compactions += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_graph::generators::{barabasi_albert, cycle_graph, rmat};
    use subsim_graph::WeightModel;

    /// Edges are exactly `i -> (i+1) % 60`, so any other pair is known
    /// absent — deterministic fodder for insert/delete validation.
    fn sample() -> Graph {
        cycle_graph(60, WeightModel::Wc)
    }

    #[test]
    fn normalization_preserves_fingerprint() {
        let g = sample();
        let before = graph_fingerprint(&g);
        let vg = VersionedGraph::new(g).unwrap();
        assert_eq!(vg.fingerprint(), before);
        assert_eq!(vg.version(), 0);
        assert!(!vg.graph().has_uniform_in_probs(), "storage not normalized");
    }

    /// Every CSR array of `g`, whether it stores probabilities per edge,
    /// and the probabilities as IEEE-754 bits.
    type Arrays = (Vec<Vec<NodeId>>, Vec<usize>, Vec<NodeId>, bool, Vec<u64>);

    fn arrays(g: &Graph) -> Arrays {
        let out = (0..g.n() as NodeId)
            .map(|u| g.out_neighbors(u).to_vec())
            .collect();
        let probs = g.per_edge_in_probs().or(g.uniform_in_probs()).unwrap();
        (
            out,
            g.in_csr_offsets().to_vec(),
            g.in_csr_sources().to_vec(),
            !g.has_uniform_in_probs(),
            probs.iter().map(|p| p.to_bits()).collect(),
        )
    }

    #[test]
    fn expanded_normalization_equals_a_rebuild() {
        let looped = GraphBuilder::new(4)
            .edges([(0, 0), (1, 0), (2, 0), (0, 1), (3, 3)])
            .keep_self_loops(true)
            .build()
            .unwrap();
        let per_edge = barabasi_albert(300, 3, WeightModel::Exponential { lambda: 1.0 }, 5);
        for g in [
            barabasi_albert(300, 3, WeightModel::Wc, 5),
            barabasi_albert(300, 3, WeightModel::WcVariant { theta: 4.0 }, 5),
            rmat(10, 8192, WeightModel::Wc, 3),
            looped,
            per_edge.clone(),
            GraphBuilder::new(5).build().unwrap(),
            GraphBuilder::new(5)
                .weights(WeightModel::UniformIc { p: 0.3 })
                .build()
                .unwrap(),
        ] {
            let rebuilt = rebuild(&g, &Overlay::new()).unwrap();
            let normalized = VersionedGraph::new(g).unwrap();
            assert_eq!(arrays(normalized.graph()), arrays(&rebuilt));
            assert_eq!(normalized.fingerprint(), graph_fingerprint(&rebuilt));
        }
        assert_eq!(
            arrays(&per_edge.clone().with_per_edge_weights()),
            arrays(&per_edge),
            "per-edge storage passes through unchanged"
        );
    }

    /// Deleting every edge leaves the builder's plain storage of an
    /// edgeless graph; the next insert is per-edge again.
    #[test]
    fn deleting_every_edge_leaves_plain_storage() {
        let g = cycle_graph(4, WeightModel::Wc);
        let mut vg = VersionedGraph::new(g).unwrap();
        let mut all = GraphDelta::new();
        for u in 0..4 {
            all = all.delete_edge(u, (u + 1) % 4);
        }
        vg.apply(&all).unwrap();
        let edgeless = GraphBuilder::new(4).build().unwrap();
        assert_eq!(arrays(vg.graph()), arrays(&edgeless));
        vg.apply(&GraphDelta::new().insert_edge(2, 0, 0.5)).unwrap();
        assert!(!vg.graph().has_uniform_in_probs());
        assert_eq!(vg.graph().prob_of_edge(2, 0), Some(0.5));
    }

    #[test]
    fn insert_delete_reweight_round_trip() {
        let g = sample();
        let mut vg = VersionedGraph::new(g).unwrap();
        let v0_fp = vg.fingerprint();
        assert!(!vg.has_edge(0, 59));
        vg.apply(&GraphDelta::new().insert_edge(0, 59, 0.25))
            .unwrap();
        assert!(vg.has_edge(0, 59));
        assert_eq!(vg.version(), 1);
        assert_ne!(vg.fingerprint(), v0_fp);
        vg.apply(&GraphDelta::new().reweight_edge(0, 59, 0.75))
            .unwrap();
        assert_eq!(vg.graph().prob_of_edge(0, 59), Some(0.75));
        vg.apply(&GraphDelta::new().delete_edge(0, 59)).unwrap();
        assert!(!vg.has_edge(0, 59));
        assert_eq!(vg.version(), 3);
        assert_eq!(
            vg.fingerprint(),
            v0_fp,
            "net no-op sequence must restore the original fingerprint"
        );
    }

    #[test]
    fn failed_delta_leaves_state_untouched() {
        let g = sample();
        let mut vg = VersionedGraph::new(g).unwrap();
        let fp = vg.fingerprint();
        let m = vg.graph().m();
        // Second op is invalid: the whole batch must roll back.
        let err = vg
            .apply(&GraphDelta::new().insert_edge(0, 59, 0.5).delete_edge(0, 58))
            .unwrap_err();
        assert!(matches!(err, DeltaError::UnknownEdge { u: 0, v: 58 }));
        assert_eq!(vg.version(), 0);
        assert_eq!(vg.fingerprint(), fp);
        assert_eq!(vg.graph().m(), m);
        assert!(!vg.has_edge(0, 59));
    }

    #[test]
    fn rejects_bad_ops() {
        let g = sample();
        let mut vg = VersionedGraph::new(g).unwrap();
        let (u, v, _) = vg.graph().edges().next().unwrap();
        assert!(matches!(
            vg.apply(&GraphDelta::new().insert_edge(u, v, 0.5)),
            Err(DeltaError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            vg.apply(&GraphDelta::new().insert_edge(0, 600, 0.5)),
            Err(DeltaError::NodeOutOfRange { node: 600, .. })
        ));
        assert!(matches!(
            vg.apply(&GraphDelta::new().insert_edge(0, 59, 1.5)),
            Err(DeltaError::Graph(GraphError::InvalidProbability { .. }))
        ));
        assert!(matches!(
            vg.apply(&GraphDelta::new().reweight_edge(0, 59, 0.5)),
            Err(DeltaError::UnknownEdge { .. })
        ));
        assert_eq!(vg.version(), 0, "failed deltas must not bump the version");
    }

    #[test]
    fn within_batch_ops_see_earlier_ops() {
        let g = sample();
        let mut vg = VersionedGraph::new(g).unwrap();
        // Insert then reweight then delete the same edge, in one batch.
        vg.apply(
            &GraphDelta::new()
                .insert_edge(0, 59, 0.1)
                .reweight_edge(0, 59, 0.9)
                .delete_edge(0, 59),
        )
        .unwrap();
        assert!(!vg.has_edge(0, 59));
        assert_eq!(vg.version(), 1);
    }

    #[test]
    fn compaction_folds_overlay_and_preserves_graph() {
        let g = sample();
        let mut vg = VersionedGraph::with_compaction_threshold(g.clone(), 2).unwrap();
        let mut reference = VersionedGraph::new(g).unwrap();
        // One batch with a self-loop and a zero-weight edge; overlay size
        // 3 crosses the threshold, so the batch compacts them into base.
        let d1 = GraphDelta::new()
            .insert_edge(0, 59, 0.25)
            .insert_edge(5, 5, 0.5)
            .insert_edge(1, 58, 0.0);
        vg.apply(&d1).unwrap();
        reference.apply(&d1).unwrap();
        assert_eq!(vg.compactions(), 1);
        assert_eq!(vg.pending_len(), 0);
        assert_eq!(
            vg.fingerprint(),
            reference.fingerprint(),
            "compaction must not change the graph"
        );
        // The next rebuild enumerates the compacted base: the loop and
        // the zero-weight edge must survive it.
        let d2 = GraphDelta::new().insert_edge(2, 57, 0.1);
        vg.apply(&d2).unwrap();
        reference.apply(&d2).unwrap();
        assert_eq!(vg.fingerprint(), reference.fingerprint());
        assert_eq!(vg.graph().prob_of_edge(5, 5), Some(0.5));
        assert_eq!(vg.graph().prob_of_edge(1, 58), Some(0.0));
    }

    #[test]
    fn versions_with_same_edges_have_same_fingerprint_regardless_of_history() {
        let g = sample();
        let mut a = VersionedGraph::with_compaction_threshold(g.clone(), 1).unwrap();
        let mut b = VersionedGraph::with_compaction_threshold(g, 1000).unwrap();
        for d in [
            GraphDelta::new().insert_edge(0, 59, 0.3),
            GraphDelta::new().reweight_edge(0, 59, 0.6),
            GraphDelta::new().insert_edge(7, 52, 0.2).delete_edge(0, 59),
        ] {
            a.apply(&d).unwrap();
            b.apply(&d).unwrap();
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
        let ea: Vec<_> = a.graph().edges().collect();
        let eb: Vec<_> = b.graph().edges().collect();
        assert_eq!(ea, eb, "compaction cadence must not affect the CSR");
    }
}
