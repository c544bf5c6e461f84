//! Synthetic graph generators.
//!
//! These stand in for the paper's SNAP/KONECT datasets (Table 2) at laptop
//! scale; `DESIGN.md` §3 documents the substitution. The heavy-tailed
//! generators (Barabási–Albert, R-MAT) reproduce the in-degree skew that
//! makes WC-model RR sets cheap and WC-variant RR sets explosive — the
//! regimes the paper's experiments sweep.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use crate::weights::WeightModel;
use rand::Rng;
use std::collections::HashSet;
use subsim_sampling::rng_from_seed;

/// Barabási–Albert preferential attachment: each new node attaches to
/// `m_per_node` existing nodes chosen proportionally to degree. Edges are
/// materialized in both directions (the classic model is undirected),
/// yielding `≈ 2·m_per_node·n` directed edges.
///
/// # Panics
///
/// Panics if `n < 2` or `m_per_node == 0`.
pub fn barabasi_albert(n: usize, m_per_node: usize, model: WeightModel, seed: u64) -> Graph {
    assert!(n >= 2, "barabasi_albert needs at least 2 nodes");
    assert!(m_per_node >= 1, "m_per_node must be positive");
    let mut rng = rng_from_seed(seed);
    // `targets` holds one entry per edge endpoint; sampling an index
    // uniformly is degree-proportional sampling.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m_per_node);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * m_per_node);
    // Seed clique on the first m_per_node+1 nodes (or a single edge).
    let core = (m_per_node + 1).min(n);
    for u in 0..core {
        for v in 0..u {
            edges.push((u as NodeId, v as NodeId));
            endpoints.push(u as NodeId);
            endpoints.push(v as NodeId);
        }
    }
    for u in core..n {
        // Small Vec keeps insertion order deterministic (HashSet iteration
        // order would vary across runs and break seeded reproducibility).
        let mut picked: Vec<NodeId> = Vec::with_capacity(m_per_node);
        while picked.len() < m_per_node {
            let v = endpoints[rng.gen_range(0..endpoints.len())];
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        for v in picked {
            edges.push((u as NodeId, v));
            endpoints.push(u as NodeId);
            endpoints.push(v);
        }
    }
    GraphBuilder::new(n)
        .edges(edges)
        .undirected(true)
        .weights(model)
        .weight_seed(seed ^ 0x9e37_79b9)
        .build()
        .expect("generator produces valid edges")
}

/// Erdős–Rényi `G(n, m)`: `m` distinct directed edges chosen uniformly at
/// random (no self-loops).
///
/// # Panics
///
/// Panics if `m` exceeds the number of possible edges `n·(n-1)`.
pub fn erdos_renyi_gnm(n: usize, m: usize, model: WeightModel, seed: u64) -> Graph {
    assert!(n >= 2, "erdos_renyi_gnm needs at least 2 nodes");
    assert!(
        (m as u128) <= (n as u128) * (n as u128 - 1),
        "m too large for simple directed graph"
    );
    let mut rng = rng_from_seed(seed);
    let mut seen: HashSet<u64> = HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u == v {
            continue;
        }
        let key = (u as u64) << 32 | v as u64;
        if seen.insert(key) {
            edges.push((u, v));
        }
    }
    GraphBuilder::new(n)
        .edges(edges)
        .weights(model)
        .weight_seed(seed ^ 0x9e37_79b9)
        .build()
        .expect("generator produces valid edges")
}

/// R-MAT recursive matrix generator: `n = 2^scale` nodes, `m` directed
/// edges with power-law in/out degrees. Default partition probabilities
/// `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)` follow the Graph500 spec;
/// duplicates and self-loops are dropped, so the realized edge count may
/// be slightly below `m`.
pub fn rmat(scale: u32, m: usize, model: WeightModel, seed: u64) -> Graph {
    rmat_with(scale, m, 0.57, 0.19, 0.19, model, seed)
}

/// R-MAT with explicit quadrant probabilities `a`, `b`, `c` (and
/// `d = 1 - a - b - c`).
///
/// # Panics
///
/// Panics unless `a, b, c >= 0` and `a + b + c <= 1`.
fn rmat_with(scale: u32, m: usize, a: f64, b: f64, c: f64, model: WeightModel, seed: u64) -> Graph {
    assert!(a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0 + 1e-12);
    let n = 1usize << scale;
    let mut rng = rng_from_seed(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            let r = rng.gen::<f64>();
            // Add ±10% noise per level (standard smoothing) to avoid exact
            // self-similarity artifacts.
            let noise = 0.9 + 0.2 * rng.gen::<f64>();
            let aa = a * noise;
            let bb = b * noise;
            let cc = c * noise;
            let total = aa + bb + cc + (1.0 - a - b - c) * noise;
            let r = r * total;
            u <<= 1;
            v <<= 1;
            if r < aa {
                // top-left
            } else if r < aa + bb {
                v |= 1;
            } else if r < aa + bb + cc {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        if u != v {
            edges.push((u as NodeId, v as NodeId));
        }
    }
    GraphBuilder::new(n)
        .edges(edges)
        .weights(model)
        .weight_seed(seed ^ 0x9e37_79b9)
        .build()
        .expect("generator produces valid edges")
}

/// Directed path `0 -> 1 -> … -> n-1`.
pub fn path_graph(n: usize, model: WeightModel) -> Graph {
    GraphBuilder::new(n)
        .edges((0..n.saturating_sub(1)).map(|u| (u as NodeId, u as NodeId + 1)))
        .weights(model)
        .build()
        .expect("valid path")
}

/// Directed cycle on `n` nodes.
pub fn cycle_graph(n: usize, model: WeightModel) -> Graph {
    GraphBuilder::new(n)
        .edges((0..n).map(|u| (u as NodeId, ((u + 1) % n) as NodeId)))
        .weights(model)
        .build()
        .expect("valid cycle")
}

/// Star with the hub pointing at every leaf: `0 -> i` for `i in 1..n`.
pub fn star_graph(n: usize, model: WeightModel) -> Graph {
    GraphBuilder::new(n)
        .edges((1..n).map(|v| (0, v as NodeId)))
        .weights(model)
        .build()
        .expect("valid star")
}

/// Complete directed graph (every ordered pair, no self-loops). Quadratic;
/// only for tiny fixtures.
pub fn complete_graph(n: usize, model: WeightModel) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1));
    for u in 0..n {
        for v in 0..n {
            if u != v {
                edges.push((u as NodeId, v as NodeId));
            }
        }
    }
    GraphBuilder::new(n)
        .edges(edges)
        .weights(model)
        .build()
        .expect("valid complete graph")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ba_size_and_connectivity() {
        let g = barabasi_albert(500, 4, WeightModel::Wc, 42);
        assert_eq!(g.n(), 500);
        // ~2 * 4 * 500 directed edges (minus clique adjustment, dedup)
        assert!(g.m() > 3000, "m = {}", g.m());
        // No isolated nodes: everyone attached at birth.
        for v in 0..500 {
            assert!(g.out_degree(v) + g.in_degree(v) > 0);
        }
    }

    #[test]
    fn ba_degree_skew() {
        let g = barabasi_albert(2000, 3, WeightModel::Wc, 7);
        let max_deg = (0..2000u32).map(|v| g.in_degree(v)).max().unwrap();
        let avg = g.m() as f64 / g.n() as f64;
        assert!(
            max_deg as f64 > 5.0 * avg,
            "expected heavy tail: max {max_deg} vs avg {avg}"
        );
    }

    #[test]
    fn gnm_exact_edge_count() {
        let g = erdos_renyi_gnm(100, 500, WeightModel::Wc, 1);
        assert_eq!(g.m(), 500);
        for (u, v, _) in g.edges() {
            assert_ne!(u, v);
        }
    }

    #[test]
    fn rmat_size_and_skew() {
        let g = rmat(10, 8192, WeightModel::Wc, 3);
        assert_eq!(g.n(), 1024);
        assert!(g.m() > 6000, "m = {}", g.m());
        let max_deg = (0..1024u32).map(|v| g.in_degree(v)).max().unwrap();
        assert!(max_deg > 40, "expected hub, max in-degree {max_deg}");
    }

    #[test]
    fn fixtures_shapes() {
        let p = path_graph(5, WeightModel::Wc);
        assert_eq!(p.m(), 4);
        assert_eq!(p.out_degree(4), 0);
        let c = cycle_graph(5, WeightModel::Wc);
        assert_eq!(c.m(), 5);
        assert_eq!(c.in_degree(0), 1);
        let s = star_graph(5, WeightModel::Wc);
        assert_eq!(s.out_degree(0), 4);
        assert_eq!(s.in_degree(0), 0);
        let k = complete_graph(4, WeightModel::Wc);
        assert_eq!(k.m(), 12);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = barabasi_albert(300, 3, WeightModel::Wc, 9);
        let b = barabasi_albert(300, 3, WeightModel::Wc, 9);
        assert_eq!(a.m(), b.m());
        let ea: Vec<_> = a.edges().map(|(u, v, _)| (u, v)).collect();
        let eb: Vec<_> = b.edges().map(|(u, v, _)| (u, v)).collect();
        assert_eq!(ea, eb);
    }
}
