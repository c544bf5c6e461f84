//! Structural graph fingerprints for snapshot validation.
//!
//! A snapshot of RR sets is only meaningful against the exact graph it was
//! sampled from: same node count, same edges, same activation
//! probabilities (the weight model is captured *through* the realized
//! per-edge probabilities, so two models that assign identical weights
//! hash identically — which is exactly when their RR distributions
//! coincide). The fingerprint is a 64-bit FNV-1a over `(n, m)` and every
//! `(u, v, p)` edge triple in CSR order.

use subsim_graph::Graph;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_u64(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A 64-bit structural fingerprint of `g`.
///
/// Deterministic across runs and platforms (CSR edge order is fixed by
/// construction; probabilities hash by IEEE-754 bit pattern).
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_u64(h, g.n() as u64);
    h = fnv_u64(h, g.m() as u64);
    for (u, v, p) in g.edges() {
        h = fnv_u64(h, u as u64);
        h = fnv_u64(h, v as u64);
        h = fnv_u64(h, p.to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_graph::generators::{barabasi_albert, erdos_renyi_gnm, rmat, star_graph};
    use subsim_graph::WeightModel;

    #[test]
    fn stable_across_calls() {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 11);
        assert_eq!(graph_fingerprint(&g), graph_fingerprint(&g));
        let same = barabasi_albert(200, 3, WeightModel::Wc, 11);
        assert_eq!(graph_fingerprint(&g), graph_fingerprint(&same));
    }

    #[test]
    fn sensitive_to_structure_and_weights() {
        let a = barabasi_albert(200, 3, WeightModel::Wc, 11);
        let other_seed = barabasi_albert(200, 3, WeightModel::Wc, 12);
        let other_model = barabasi_albert(200, 3, WeightModel::UniformIc { p: 0.1 }, 11);
        let other_size = barabasi_albert(201, 3, WeightModel::Wc, 11);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&other_seed));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&other_model));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&other_size));
    }

    /// Every generator's `(n, m, fingerprint)` is pinned: a change to
    /// the builder or a generator that moves one edge or one probability
    /// bit fails here. The R-MAT pins are the benchmark's `pokec-s`
    /// graphs.
    #[test]
    fn generators_are_pinned() {
        let pinned = |g: &subsim_graph::Graph| (g.n(), g.m(), graph_fingerprint(g));
        for model in [WeightModel::Wc, WeightModel::Lt] {
            let g = rmat(14, 16384 * 19, model, 1);
            assert_eq!(pinned(&g), (16384, 266977, 0x1913_e5b6_9b08_b90e));
        }
        let g = rmat(14, 16384 * 19, WeightModel::WcVariant { theta: 4.0 }, 1);
        assert_eq!(pinned(&g), (16384, 266977, 0x13d0_3e4a_4d64_a7a6));
        let g = barabasi_albert(2000, 4, WeightModel::Wc, 7);
        assert_eq!(pinned(&g), (2000, 15980, 0xf679_d044_c0bc_e2ee));
        let g = erdos_renyi_gnm(2000, 20000, WeightModel::Wc, 3);
        assert_eq!(pinned(&g), (2000, 20000, 0xe872_b322_e364_9a92));
    }

    #[test]
    fn distinguishes_small_fixtures() {
        let s3 = star_graph(3, WeightModel::Wc);
        let s4 = star_graph(4, WeightModel::Wc);
        assert_ne!(graph_fingerprint(&s3), graph_fingerprint(&s4));
    }
}
