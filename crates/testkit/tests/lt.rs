//! The Linear Threshold battery: every LT sampler path χ²-tested
//! against the exact per-step law, LT algorithm runs and index queries
//! certified against the exact LT live-edge oracle, and the full
//! serving stack model-checked under `RrStrategy::Lt`.
//!
//! The step law is hand-derivable — node `v` keeps in-edge `(u, v)`
//! with probability `p(u, v)` and none with `1 - Σ p` — so the
//! conformance tests pin the alias-table path, the linear-scan oracle,
//! and both traversal kernels (scalar and flat-frontier) to the same
//! finite distribution. Whole-walk distributions and the
//! `(1 - 1/e - ε)` certificate are judged against the mixed-radix
//! world enumeration in [`ExactLtOracle`], not against another LT
//! sampler. All seeds are fixed — a pass is a pass forever.

use subsim_core::{ImAlgorithm, ImOptions, ImResult, OpimC};
use subsim_diffusion::{rr_influence, RrContext, RrSampler, RrStrategy};
use subsim_graph::generators::{barabasi_albert, complete_graph, path_graph, star_graph};
use subsim_graph::lt::sample_in_neighbor_linear;
use subsim_graph::{Graph, GraphBuilder, LtIndex, WeightModel};
use subsim_index::{IndexConfig, RrIndex};
use subsim_testkit::{
    check_seed, chi_square_critical, chi_square_stat, hoeffding_half_width, merge_small_bins,
    ExactLtOracle, Sim,
};

const SAMPLES: usize = 30_000;

fn uniform(p: f64) -> WeightModel {
    WeightModel::UniformIc { p }
}

/// 7 spokes point at node 0 with skewed weights summing to 0.9, so the
/// reverse step from 0 engages the alias table and keeps a real
/// no-in-neighbor arm (probability 0.1).
const FAN_PROBS: [f64; 7] = [0.04, 0.07, 0.1, 0.14, 0.18, 0.22, 0.15];

fn weighted_fan_in() -> Graph {
    let mut b = GraphBuilder::new(8);
    for (i, &p) in FAN_PROBS.iter().enumerate() {
        b = b.add_weighted_edge(i as u32 + 1, 0, p);
    }
    b.build().unwrap()
}

/// The 6-node heterogeneous fixture shared with the IC oracle battery;
/// under LT its 216 live-edge worlds enumerate exactly, and node 5's
/// in-weights sum past 1, exercising the clamped arm end to end.
fn weighted_fixture() -> Graph {
    GraphBuilder::new(6)
        .add_weighted_edge(0, 1, 0.8)
        .add_weighted_edge(0, 2, 0.15)
        .add_weighted_edge(1, 2, 0.5)
        .add_weighted_edge(1, 3, 0.05)
        .add_weighted_edge(2, 3, 0.6)
        .add_weighted_edge(3, 4, 0.35)
        .add_weighted_edge(4, 5, 0.9)
        .add_weighted_edge(5, 0, 0.25)
        .add_weighted_edge(2, 5, 0.45)
        .build()
        .unwrap()
}

/// χ²-tests observed counts against expected probabilities (α = 0.001),
/// merging bins below an expected count of 5.
fn assert_fits(label: &str, observed: &[u64], expected_probs: &[f64]) {
    let total: u64 = observed.iter().sum();
    let expected: Vec<f64> = expected_probs.iter().map(|p| p * total as f64).collect();
    let (obs, exp) = merge_small_bins(observed, &expected, 5.0);
    assert!(obs.len() >= 2, "{label}: degenerate binning {obs:?}");
    let stat = chi_square_stat(&obs, &exp);
    let critical = chi_square_critical(obs.len() - 1);
    assert!(
        stat <= critical,
        "{label}: χ² = {stat:.2} exceeds critical {critical} (df {}); \
         observed {obs:?} expected {exp:?}",
        obs.len() - 1
    );
}

/// The exact one-step law from node 0 of [`weighted_fan_in`]: spokes
/// `1..=7` with their edge weights, plus the none arm at `1 - Σ p`.
fn fan_in_step_probs() -> Vec<f64> {
    let mut probs = FAN_PROBS.to_vec();
    probs.push(1.0 - FAN_PROBS.iter().sum::<f64>());
    probs
}

/// Satellite: the LT reverse step, drawn through the per-node alias
/// table, matches the per-edge weights — including the no-in-neighbor
/// arm at probability `1 - Σ p`.
#[test]
fn alias_step_distribution_matches_edge_weights() {
    let g = weighted_fan_in();
    let idx = LtIndex::new(&g);
    let mut rng = subsim_sampling::rng_from_seed(0x17A5);
    let mut counts = vec![0u64; 8];
    for _ in 0..SAMPLES {
        match idx.sample_in_neighbor(&g, &mut rng, 0) {
            Some(u) => counts[u as usize - 1] += 1,
            None => counts[7] += 1,
        }
    }
    assert_fits("lt-step/alias", &counts, &fan_in_step_probs());
}

/// The index-free linear-scan oracle draws the same step law.
#[test]
fn linear_scan_step_distribution_matches_edge_weights() {
    let g = weighted_fan_in();
    let mut rng = subsim_sampling::rng_from_seed(0x11EA);
    let mut counts = vec![0u64; 8];
    for _ in 0..SAMPLES {
        match sample_in_neighbor_linear(&g, &mut rng, 0) {
            Some(u) => counts[u as usize - 1] += 1,
            None => counts[7] += 1,
        }
    }
    assert_fits("lt-step/linear", &counts, &fan_in_step_probs());
}

/// Whole-walk form of the same check through both traversal kernels:
/// rooted at node 0, the RR set is `{0, u}` with probability `p(u, 0)`
/// and `{0}` otherwise, so the first step's law is read straight off
/// the generated sets — scalar walk and flat-frontier chain kernel
/// alike.
#[test]
fn both_kernels_draw_the_exact_step_law_from_a_fixed_root() {
    let g = weighted_fan_in();
    let expected = fan_in_step_probs();
    let kernels = [
        ("scalar", RrSampler::scalar(&g, RrStrategy::Lt)),
        ("frontier", RrSampler::new(&g, RrStrategy::Lt)),
    ];
    for (label, sampler) in &kernels {
        if *label == "frontier" {
            assert!(sampler.uses_frontier(), "LT must build a chain kernel");
        }
        let mut ctx = RrContext::new(g.n());
        let mut rng = subsim_sampling::rng_from_seed(0xFA2);
        let mut counts = vec![0u64; 8];
        for _ in 0..SAMPLES {
            let size = sampler.generate_from(&mut ctx, &mut rng, 0);
            if size == 1 {
                counts[7] += 1;
            } else {
                counts[ctx.last()[1] as usize - 1] += 1;
            }
        }
        assert_fits(&format!("lt-step/{label}"), &counts, &expected);
    }
}

/// Uniform in-weights bypass the alias table (the `gen_range` arm); the
/// step must still be uniform over in-neighbors with the correct
/// none-probability.
#[test]
fn uniform_weight_step_is_uniform_over_in_neighbors() {
    // 4 spokes into node 0 at p = 0.2 each: Σ = 0.8, none arm 0.2.
    let g = GraphBuilder::new(5)
        .edges([(1, 0), (2, 0), (3, 0), (4, 0)])
        .weights(uniform(0.2))
        .build()
        .unwrap();
    let idx = LtIndex::new(&g);
    assert!(idx.table(0).is_none(), "uniform weights must skip tables");
    let mut rng = subsim_sampling::rng_from_seed(0x5EED);
    let mut counts = vec![0u64; 5];
    for _ in 0..SAMPLES {
        match idx.sample_in_neighbor(&g, &mut rng, 0) {
            Some(u) => counts[u as usize - 1] += 1,
            None => counts[4] += 1,
        }
    }
    assert_fits("lt-step/uniform", &counts, &[0.2, 0.2, 0.2, 0.2, 0.2]);
}

/// Whole-distribution conformance against the mixed-radix enumeration:
/// root uniformity and the full RR-size law, for the scalar and
/// frontier kernels alike.
#[test]
fn lt_rr_distributions_match_the_exact_oracle() {
    let g = weighted_fixture();
    let oracle = ExactLtOracle::new(&g);
    assert_eq!(oracle.worlds(), 216);
    let expected_size = oracle.rr_size_distribution();
    let uniform_root = vec![1.0 / g.n() as f64; g.n()];
    let kernels = [
        ("scalar", RrSampler::scalar(&g, RrStrategy::Lt)),
        ("frontier", RrSampler::new(&g, RrStrategy::Lt)),
    ];
    for (label, sampler) in &kernels {
        let mut ctx = RrContext::new(g.n());
        let mut rng = subsim_sampling::rng_from_seed(0xD1CE);
        let mut roots = vec![0u64; g.n()];
        let mut sizes = vec![0u64; g.n()];
        for _ in 0..SAMPLES {
            let size = sampler.generate(&mut ctx, &mut rng);
            roots[ctx.last()[0] as usize] += 1;
            sizes[size - 1] += 1;
        }
        assert_fits(&format!("lt-dist/{label}/root"), &roots, &uniform_root);
        assert_fits(&format!("lt-dist/{label}/size"), &sizes, &expected_size);
    }
}

/// The LT debug-tier shapes (all within the world-enumeration budget).
fn shapes() -> Vec<(&'static str, Graph)> {
    vec![
        ("star", star_graph(8, uniform(0.3))),
        ("path", path_graph(7, uniform(0.6))),
        ("complete", complete_graph(4, uniform(0.2))),
        ("weighted", weighted_fixture()),
    ]
}

/// LT spread estimates from the RR sampler land inside the
/// Hoeffding-certified interval around the exact LT truth.
#[test]
fn lt_rr_spread_estimates_match_truth_within_certified_width() {
    let count = 20_000;
    let delta = 1e-6;
    for (name, g) in shapes() {
        let oracle = ExactLtOracle::new(&g);
        let width = hoeffding_half_width(g.n() as f64, delta, count);
        let seed_sets: [&[u32]; 3] = [&[0], &[1], &[0, g.n() as u32 - 1]];
        for seeds in seed_sets {
            let truth = oracle.influence(seeds);
            let est = rr_influence(&g, seeds, RrStrategy::Lt, count, 97);
            assert!(
                (est - truth).abs() <= width,
                "{name} seeds {seeds:?}: estimate {est} vs truth {truth} (width {width})"
            );
        }
    }
}

/// Asserts an LT algorithm result clears the paper's guarantee against
/// the brute-forced LT optimum, with its certified bounds bracketing
/// what they claim.
fn assert_lt_guarantee(
    label: &str,
    oracle: &ExactLtOracle,
    result: &ImResult,
    k: usize,
    epsilon: f64,
) {
    let spread = oracle.influence(&result.seeds);
    let (_, opt) = oracle.exact_opt(k);
    let floor = (1.0 - 1.0 / std::f64::consts::E - epsilon) * opt;
    assert_eq!(result.seeds.len(), k, "{label}: wrong seed count");
    assert!(
        spread >= floor - 1e-9,
        "{label}: spread {spread} below the (1-1/e-ε) floor {floor} (OPT {opt})"
    );
    if result.stats.upper_bound > 0.0 {
        assert!(
            result.stats.upper_bound >= opt - 1e-9,
            "{label}: certified upper bound {} below OPT {opt}",
            result.stats.upper_bound
        );
        assert!(
            result.stats.lower_bound <= spread + 1e-9,
            "{label}: certified lower bound {} above true spread {spread}",
            result.stats.lower_bound
        );
    }
}

/// Tentpole acceptance: the LT OPIM-C run clears `(1 - 1/e - ε)` against
/// the exact LT oracle's brute-forced OPT on every shape.
#[test]
fn lt_opimc_clears_the_guarantee_on_every_shape() {
    let opts = ImOptions::new(2).epsilon(0.1).delta(0.01).seed(19);
    for (name, g) in shapes() {
        let oracle = ExactLtOracle::new(&g);
        let result = OpimC::lt().run(&g, &opts).unwrap();
        assert_lt_guarantee(&format!("opimc-lt/{name}"), &oracle, &result, 2, 0.1);
    }
}

/// The serving index under `RrStrategy::Lt` answers with seed sets that
/// clear the same floor — the certificate holds through the pool, not
/// just the one-shot algorithm.
#[test]
fn lt_index_queries_clear_the_guarantee_against_the_oracle() {
    for (name, g) in shapes() {
        let oracle = ExactLtOracle::new(&g);
        let mut index = RrIndex::new(&g, IndexConfig::new(RrStrategy::Lt).seed(7).chunk_size(32));
        for k in [1usize, 2] {
            let ans = index.query(k, 0.1, 0.01).unwrap();
            let spread = oracle.influence(&ans.seeds);
            let (_, opt) = oracle.exact_opt(k);
            let floor = (1.0 - 1.0 / std::f64::consts::E - 0.1) * opt;
            assert!(
                spread >= floor - 1e-9,
                "index-lt/{name} k={k}: spread {spread} below floor {floor} (OPT {opt})"
            );
            assert!(
                ans.stats.upper_bound >= opt - 1e-9,
                "index-lt/{name} k={k}: upper bound {} below OPT {opt}",
                ans.stats.upper_bound
            );
        }
    }
}

fn sim_graph() -> Graph {
    // Trivalency weights store per-edge, so serving-stack LT generation
    // runs through the alias arm of the chain kernel, not just gen_range.
    barabasi_albert(48, 2, WeightModel::Trivalency, 17)
}

/// The concurrent LT serving stack replays every scripted session
/// exactly as the sequential LT model does.
#[test]
fn lt_serving_matches_sequential_model_across_seeds() {
    let g = sim_graph();
    for seed in 0..6 {
        check_seed(&g, Sim::lt(), seed, 40).unwrap();
    }
}

/// Chunk-ownership sharding under LT: byte-identical sessions for every
/// shard count.
#[test]
fn lt_sharded_serving_matches_model() {
    let g = sim_graph();
    for shards in [2usize, 3] {
        for seed in [5u64, 23] {
            check_seed(&g, Sim::lt().shards(shards), seed, 40).unwrap();
        }
    }
}

/// Sentinel-truncated LT chains through growth, repair, and refresh.
#[test]
fn lt_sentinel_serving_matches_model() {
    let g = sim_graph();
    for seed in 0..3 {
        check_seed(&g, Sim::lt().sentinel(), seed, 30).unwrap();
    }
}

/// HLL-sketched validation pools under LT, concurrent and sharded.
#[test]
fn lt_sketch_serving_matches_model() {
    let g = sim_graph();
    for seed in 0..3 {
        check_seed(&g, Sim::lt().sketch(), seed, 30).unwrap();
    }
    check_seed(&g, Sim::lt().sketch().shards(3), 5, 30).unwrap();
}

/// Release-tier: wider LT seed sweep plus a uniform-weight (Wc) graph
/// where the chain kernel runs its `gen_range`-only arm.
#[test]
#[ignore = "wide LT sim sweep; run in release (see TESTING.md)"]
fn heavy_lt_serving_sweep() {
    let g = sim_graph();
    for seed in 0..32 {
        check_seed(&g, Sim::lt(), seed, 60).unwrap();
    }
    for shards in [2usize, 3, 4] {
        for seed in 0..8 {
            check_seed(&g, Sim::lt().shards(shards), seed, 50).unwrap();
        }
    }
    let uniform_g = barabasi_albert(48, 2, WeightModel::Wc, 19);
    for seed in 0..8 {
        check_seed(&uniform_g, Sim::lt(), seed, 50).unwrap();
        check_seed(&uniform_g, Sim::lt().sketch(), seed, 40).unwrap();
    }
}
