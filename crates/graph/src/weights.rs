//! Propagation-probability models (paper Section 7, "Parameter Settings").

use crate::csr::{EdgeWeights, NodeId};
use rand::Rng;
use subsim_sampling::rng_from_seed;

/// How to assign the propagation probability `p(u, v)` of each edge.
///
/// The first three variants produce *per-node-uniform* probabilities (every
/// in-edge of a node shares one value), which enables the plain
/// geometric-skip RR generator (paper Algorithm 3). The remaining variants
/// produce skewed per-edge probabilities handled by the general-IC
/// samplers (paper Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightModel {
    /// Weighted-cascade: `p(u, v) = 1 / d_in(v)`. The paper's default.
    Wc,
    /// The high-influence "WC variant": `p(u, v) = min(1, θ / d_in(v))`.
    /// Increasing `θ` grows the average RR-set size (Figures 4–6).
    WcVariant {
        /// The boost factor `θ >= 1`.
        theta: f64,
    },
    /// Uniform IC: every edge has the same probability `p` (Figure 7).
    UniformIc {
        /// The shared probability.
        p: f64,
    },
    /// Per-edge weights drawn from `Exponential(λ)` and then scaled so
    /// each node's incoming weights sum to 1 (paper Section 7).
    Exponential {
        /// Rate parameter; the paper uses `λ = 1`.
        lambda: f64,
    },
    /// Per-edge weights drawn from `Weibull(a, b)` with `a, b ~ U(0, 10]`
    /// resampled per edge, then scaled so each node's incoming weights sum
    /// to 1 (paper Section 7, following Tang et al. \[38\]).
    Weibull,
    /// Trivalency: each edge uniformly gets one of `{0.1, 0.01, 0.001}`.
    /// A classic IC benchmark setting; included for completeness.
    Trivalency,
    /// Logarithmic incoming mass: `p(u, v) = min(1, ln(1 + d_in(v)) / d_in(v))`,
    /// so each node's incoming weights sum to `Θ(log d_in)` — the paper's
    /// Theorem 1 "Case 2", where SUBSIM still wins a factor
    /// `(m/n)/log(m/n)` over vanilla generation.
    LogDegree,
    /// Linear-Threshold edge weights: `p(u, v) = 1 / d_in(v)`, which makes
    /// each node's incoming weights sum to exactly 1 as the LT model
    /// requires. Numerically identical to [`WeightModel::Wc`]; kept
    /// separate to document intent.
    Lt,
}

impl WeightModel {
    /// Whether the model yields one probability per node (fast path).
    pub fn is_per_node_uniform(&self) -> bool {
        matches!(
            self,
            WeightModel::Wc
                | WeightModel::WcVariant { .. }
                | WeightModel::UniformIc { .. }
                | WeightModel::LogDegree
                | WeightModel::Lt
        )
    }

    /// Materializes edge weights for a graph given by its reverse CSR.
    ///
    /// `in_sources` segments may be reordered (sorted by descending
    /// probability) for per-edge models; the caller passes a mutable
    /// reference so neighbor order and probabilities stay aligned.
    pub(crate) fn assign(
        &self,
        n: usize,
        in_offsets: &[usize],
        in_sources: &mut [NodeId],
        seed: u64,
    ) -> EdgeWeights {
        match *self {
            WeightModel::Wc | WeightModel::Lt => EdgeWeights::Uniform(
                (0..n)
                    .map(|v| {
                        let d = in_offsets[v + 1] - in_offsets[v];
                        if d == 0 {
                            0.0
                        } else {
                            1.0 / d as f64
                        }
                    })
                    .collect(),
            ),
            WeightModel::WcVariant { theta } => EdgeWeights::Uniform(
                (0..n)
                    .map(|v| {
                        let d = in_offsets[v + 1] - in_offsets[v];
                        if d == 0 {
                            0.0
                        } else {
                            (theta / d as f64).min(1.0)
                        }
                    })
                    .collect(),
            ),
            WeightModel::UniformIc { p } => EdgeWeights::Uniform(vec![p; n]),
            WeightModel::LogDegree => EdgeWeights::Uniform(
                (0..n)
                    .map(|v| {
                        let d = in_offsets[v + 1] - in_offsets[v];
                        if d == 0 {
                            0.0
                        } else {
                            ((1.0 + d as f64).ln() / d as f64).min(1.0)
                        }
                    })
                    .collect(),
            ),
            WeightModel::Exponential { lambda } => {
                per_edge_normalized(n, in_offsets, in_sources, seed, |rng| {
                    sample_exponential(rng, lambda)
                })
            }
            WeightModel::Weibull => {
                per_edge_normalized(n, in_offsets, in_sources, seed, sample_weibull_u10)
            }
            WeightModel::Trivalency => {
                let mut rng = rng_from_seed(seed);
                let mut probs: Vec<f64> = (0..in_sources.len())
                    .map(|_| [0.1, 0.01, 0.001][rng.gen_range(0..3usize)])
                    .collect();
                sort_segments_desc(in_offsets, in_sources, &mut probs);
                EdgeWeights::PerEdge(probs)
            }
        }
    }
}

/// Draws `Exponential(λ)` via inverse CDF.
fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    let u = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -u.ln() / lambda
}

/// Draws `Weibull(a, b)` with `a, b ~ U(0, 10]` resampled per call.
fn sample_weibull_u10<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let a = rng.gen::<f64>() * 10.0 + f64::MIN_POSITIVE;
    let b = rng.gen::<f64>() * 10.0 + f64::MIN_POSITIVE;
    let u = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    b * (-u.ln()).powf(1.0 / a)
}

/// Draws one raw weight per in-edge, scales each node's incoming weights to
/// sum to 1, and sorts each segment descending.
fn per_edge_normalized<F>(
    n: usize,
    in_offsets: &[usize],
    in_sources: &mut [NodeId],
    seed: u64,
    mut draw: F,
) -> EdgeWeights
where
    F: FnMut(&mut rand::rngs::SmallRng) -> f64,
{
    let mut rng = rng_from_seed(seed);
    // Clamp raw draws: a Weibull shape parameter near zero yields an
    // astronomically heavy tail whose draws overflow to infinity, which
    // would poison the per-node normalization with NaNs.
    let mut probs: Vec<f64> = (0..in_sources.len())
        .map(|_| {
            let w = draw(&mut rng);
            if w.is_finite() {
                w.min(1e12)
            } else {
                1e12
            }
        })
        .collect();
    for v in 0..n {
        let (lo, hi) = (in_offsets[v], in_offsets[v + 1]);
        if lo == hi {
            continue;
        }
        let sum: f64 = probs[lo..hi].iter().sum();
        if sum > 0.0 {
            for p in &mut probs[lo..hi] {
                *p /= sum;
            }
        } else {
            // Degenerate draw (all zeros): fall back to uniform.
            let d = (hi - lo) as f64;
            probs[lo..hi].fill(1.0 / d);
        }
    }
    sort_segments_desc(in_offsets, in_sources, &mut probs);
    EdgeWeights::PerEdge(probs)
}

/// Sorts each node's in-edge segment by descending probability, keeping
/// `in_sources` aligned — the precondition of the index-free sampler.
///
/// The sort is stable under `total_cmp`, so segments that are already
/// non-increasing are skipped unchanged; one scratch buffer serves every
/// segment.
pub(crate) fn sort_segments_desc(
    in_offsets: &[usize],
    in_sources: &mut [NodeId],
    probs: &mut [f64],
) {
    let mut scratch: Vec<(f64, NodeId)> = Vec::new();
    for w in in_offsets.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if probs[lo..hi]
            .windows(2)
            .all(|p| p[0].total_cmp(&p[1]).is_ge())
        {
            continue;
        }
        scratch.clear();
        scratch.extend(
            probs[lo..hi]
                .iter()
                .copied()
                .zip(in_sources[lo..hi].iter().copied()),
        );
        scratch.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (k, &(p, s)) in scratch.iter().enumerate() {
            probs[lo + k] = p;
            in_sources[lo + k] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::InProbs;

    fn star_into(n_leaves: usize, model: WeightModel) -> crate::Graph {
        // leaves 1..=L all point at node 0
        GraphBuilder::new(n_leaves + 1)
            .edges((1..=n_leaves).map(|u| (u as NodeId, 0)))
            .weights(model)
            .weight_seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn wc_is_one_over_indegree() {
        let g = star_into(4, WeightModel::Wc);
        assert_eq!(g.in_probs(0), InProbs::Uniform(0.25));
    }

    #[test]
    fn wc_variant_boosts_and_caps() {
        let g = star_into(4, WeightModel::WcVariant { theta: 2.0 });
        assert_eq!(g.in_probs(0), InProbs::Uniform(0.5));
        let g = star_into(4, WeightModel::WcVariant { theta: 100.0 });
        assert_eq!(g.in_probs(0), InProbs::Uniform(1.0));
    }

    #[test]
    fn uniform_ic_constant() {
        let g = star_into(4, WeightModel::UniformIc { p: 0.03 });
        assert_eq!(g.in_probs(0), InProbs::Uniform(0.03));
    }

    #[test]
    fn exponential_normalizes_to_one_and_sorts_desc() {
        let g = star_into(8, WeightModel::Exponential { lambda: 1.0 });
        let InProbs::PerEdge(ps) = g.in_probs(0) else {
            panic!("expected per-edge probs");
        };
        let sum: f64 = ps.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(
            ps.windows(2).all(|w| w[0] >= w[1]),
            "not descending: {ps:?}"
        );
        assert!(ps.iter().all(|&p| p > 0.0 && p <= 1.0));
    }

    #[test]
    fn weibull_normalizes_to_one() {
        let g = star_into(8, WeightModel::Weibull);
        let InProbs::PerEdge(ps) = g.in_probs(0) else {
            panic!("expected per-edge probs");
        };
        assert!((ps.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(ps.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn trivalency_values_from_palette() {
        let g = star_into(20, WeightModel::Trivalency);
        let InProbs::PerEdge(ps) = g.in_probs(0) else {
            panic!("expected per-edge probs");
        };
        for &p in ps {
            assert!(
                [0.1, 0.01, 0.001].iter().any(|&t| (p - t).abs() < 1e-12),
                "unexpected trivalency value {p}"
            );
        }
    }

    #[test]
    fn log_degree_mass_is_logarithmic() {
        let g = star_into(64, WeightModel::LogDegree);
        let expect = (65f64).ln();
        assert!((g.in_prob_sum(0) - expect).abs() < 1e-9);
        // Single in-edge saturates at 1: ln(2)/1 < 1 so stays below.
        let g = star_into(1, WeightModel::LogDegree);
        assert!((g.in_prob_sum(0) - 2f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn lt_weights_sum_to_one() {
        let g = star_into(5, WeightModel::Lt);
        assert!((g.in_prob_sum(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn neighbor_alignment_preserved_after_sorting() {
        // Node 0 has in-edges from 1..=8; the multiset of in-neighbors must
        // survive the descending-probability reorder.
        let g = star_into(8, WeightModel::Weibull);
        let mut nbrs = g.in_neighbors(0).to_vec();
        nbrs.sort_unstable();
        assert_eq!(nbrs, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn weight_seed_is_deterministic() {
        let a = star_into(8, WeightModel::Weibull);
        let b = star_into(8, WeightModel::Weibull);
        let (InProbs::PerEdge(pa), InProbs::PerEdge(pb)) = (a.in_probs(0), b.in_probs(0)) else {
            panic!()
        };
        assert_eq!(pa, pb);
    }

    #[test]
    fn isolated_node_has_zero_prob_mass() {
        let g = GraphBuilder::new(3)
            .edges([(0, 1)])
            .weights(WeightModel::Wc)
            .build()
            .unwrap();
        assert_eq!(g.in_prob_sum(2), 0.0);
    }
}
