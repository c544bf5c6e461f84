//! Graph transformations used in IM preprocessing pipelines.

use crate::builder::GraphBuilder;
use crate::components::weakly_connected_components;
use crate::csr::{Graph, NodeId};
use crate::error::GraphError;

/// The subgraph induced by `nodes` (deduplicated), with probabilities
/// preserved. Returns the graph over compacted ids plus the mapping
/// `new_id -> old_id`.
pub fn induced_subgraph(g: &Graph, nodes: &[NodeId]) -> Result<(Graph, Vec<NodeId>), GraphError> {
    let mut keep: Vec<bool> = vec![false; g.n()];
    for &v in nodes {
        if v as usize >= g.n() {
            return Err(GraphError::NodeOutOfRange {
                node: v as u64,
                n: g.n(),
            });
        }
        keep[v as usize] = true;
    }
    let mut old_of_new: Vec<NodeId> = Vec::new();
    let mut new_of_old: Vec<u32> = vec![u32::MAX; g.n()];
    for v in 0..g.n() {
        if keep[v] {
            new_of_old[v] = old_of_new.len() as u32;
            old_of_new.push(v as NodeId);
        }
    }
    if old_of_new.is_empty() {
        return Err(GraphError::EmptyGraph);
    }
    let mut b = GraphBuilder::new(old_of_new.len());
    let mut any_edge = false;
    for (u, v, p) in g.edges() {
        if keep[u as usize] && keep[v as usize] {
            b = b.add_weighted_edge(new_of_old[u as usize], new_of_old[v as usize], p);
            any_edge = true;
        }
    }
    if !any_edge {
        // GraphBuilder with custom probs needs at least zero edges — fine;
        // but an edgeless builder with custom_probs=None is what we get,
        // so just build a plain empty graph.
        let g2 = GraphBuilder::new(old_of_new.len()).build()?;
        return Ok((g2, old_of_new));
    }
    Ok((b.build()?, old_of_new))
}

/// Restricts `g` to its largest weakly connected component. Returns the
/// subgraph and the `new_id -> old_id` mapping.
pub fn largest_wcc(g: &Graph) -> (Graph, Vec<NodeId>) {
    let comps = weakly_connected_components(g);
    let (biggest, _) = comps.largest();
    let nodes: Vec<NodeId> = (0..g.n() as NodeId)
        .filter(|&v| comps.label[v as usize] == biggest)
        .collect();
    induced_subgraph(g, &nodes).expect("largest WCC is nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::path_graph;
    use crate::weights::WeightModel;

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        // 0 -> 1 -> 2 -> 3; induce on {1, 2, 3}.
        let g = path_graph(4, WeightModel::Wc);
        let (sub, map) = induced_subgraph(&g, &[1, 2, 3]).unwrap();
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        assert_eq!(map, vec![1, 2, 3]);
    }

    #[test]
    fn induced_subgraph_rejects_bad_nodes() {
        let g = path_graph(3, WeightModel::Wc);
        assert!(induced_subgraph(&g, &[7]).is_err());
        assert!(induced_subgraph(&g, &[]).is_err());
    }

    #[test]
    fn induced_subgraph_without_edges() {
        let g = path_graph(4, WeightModel::Wc);
        let (sub, map) = induced_subgraph(&g, &[0, 2]).unwrap();
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.m(), 0);
        assert_eq!(map, vec![0, 2]);
    }

    #[test]
    fn largest_wcc_selects_big_island() {
        let g = GraphBuilder::new(7)
            .edges([(0, 1), (1, 2), (2, 3), (4, 5)])
            .build()
            .unwrap();
        let (sub, map) = largest_wcc(&g);
        assert_eq!(sub.n(), 4);
        assert_eq!(map, vec![0, 1, 2, 3]);
        assert_eq!(sub.m(), 3);
    }
}
