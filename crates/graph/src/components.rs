//! Connectivity analysis: weakly connected components.
//!
//! IM preprocessing routinely restricts to the largest weakly connected
//! component (isolated islands cannot be influenced from outside).

use crate::csr::{Graph, NodeId};

/// A labeling of nodes into components.
#[derive(Debug, Clone)]
pub struct Components {
    /// `label[v]` is the component id of `v`, in `0..count`.
    pub label: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Sizes of all components, indexed by component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.label {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Id and size of the largest component.
    pub fn largest(&self) -> (u32, usize) {
        let sizes = self.sizes();
        let (id, &size) = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &s)| s)
            .expect("at least one component");
        (id as u32, size)
    }
}

/// Weakly connected components (edge direction ignored), by BFS. `O(n + m)`.
pub fn weakly_connected_components(g: &Graph) -> Components {
    let n = g.n();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue: Vec<NodeId> = Vec::new();
    for start in 0..n as NodeId {
        if label[start as usize] != u32::MAX {
            continue;
        }
        label[start as usize] = count;
        queue.clear();
        queue.push(start);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &w in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
                if label[w as usize] == u32::MAX {
                    label[w as usize] = count;
                    queue.push(w);
                }
            }
        }
        count += 1;
    }
    Components {
        label,
        count: count as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::path_graph;
    use crate::weights::WeightModel;

    #[test]
    fn path_is_one_wcc() {
        let g = path_graph(5, WeightModel::Wc);
        let wcc = weakly_connected_components(&g);
        assert_eq!(wcc.count, 1);
    }

    #[test]
    fn two_islands() {
        let g = GraphBuilder::new(6)
            .edges([(0, 1), (1, 2), (3, 4), (4, 5)])
            .build()
            .unwrap();
        let wcc = weakly_connected_components(&g);
        assert_eq!(wcc.count, 2);
        assert_eq!(wcc.label[0], wcc.label[2]);
        assert_ne!(wcc.label[0], wcc.label[3]);
        assert_eq!(wcc.sizes(), vec![3, 3]);
    }

    #[test]
    fn isolated_nodes_are_singletons() {
        let g = GraphBuilder::new(4).add_edge(0, 1).build().unwrap();
        let wcc = weakly_connected_components(&g);
        assert_eq!(wcc.count, 3);
    }

    #[test]
    fn labels_cover_all_nodes() {
        let g = crate::generators::rmat(8, 1000, WeightModel::Wc, 7);
        let comps = weakly_connected_components(&g);
        assert_eq!(comps.label.len(), g.n());
        assert!(comps.label.iter().all(|&l| (l as usize) < comps.count));
        assert_eq!(comps.sizes().iter().sum::<usize>(), g.n());
    }
}
