//! Sketch-tier conformance: the count-distinct serving path checked
//! against ground truth and against the exact pool as oracle.
//!
//! The sketched validation tier trades the exact `R₂` arena for
//! per-node HLL count-distinct registers; its certificate subtracts a
//! `2σ` slack so it stays `(ε, δ)`-sound, but nothing in the unit tests
//! of the sketch crate pins the *system* behavior. This battery does:
//!
//! - **Certificate conformance** — on graphs small enough to enumerate
//!   every live-edge world, seed sets served through the sketched
//!   certificate must clear the same `(1 - 1/e - ε)` floor against the
//!   brute-forced `OPT_k` as exact pools, with certified bounds
//!   bracketing truth.
//! - **Exact path as oracle** — at matched pool sizes the sketched and
//!   exact indexes select identical seed sets (selection is exact in
//!   both; only validation is sketched), and the sketch's union
//!   cardinality estimates stay within the standard-error envelope of
//!   the exact coverage counts.
//! - **Simulation lockstep** — the scripted serving simulator runs the
//!   sketched tier through the concurrent and N-shard stacks against
//!   the sequential sketched model, byte for byte, shards ∈ {1,2,3,5}.
//! - **Corruption injection** — a persisted v4 sketch block damaged in
//!   any probed byte must surface as a typed
//!   [`IndexError::SnapshotMismatch`] (or typed I/O failure), never
//!   load as a silently-plain or silently-wrong pool.

use subsim_delta::DeltaIndex;
use subsim_diffusion::RrStrategy;
use subsim_graph::generators::{barabasi_albert, complete_graph};
use subsim_graph::{Graph, GraphBuilder, NodeId, WeightModel};
use subsim_index::{read_index, write_index, IndexConfig, IndexError, RrIndex};
use subsim_testkit::{check_seed, ExactOracle, Fault, FaultyReader, Sim};

fn uniform(p: f64) -> WeightModel {
    WeightModel::UniformIc { p }
}

/// Star with heterogeneous hub→leaf probabilities (shared with the
/// sentinel battery): the hub dominates influence, so small seed sets
/// have meaningfully different spreads.
fn weighted_star() -> Graph {
    let probs = [0.15, 0.2, 0.35, 0.5, 0.6, 0.7, 0.9];
    let mut b = GraphBuilder::new(8);
    for (i, &p) in probs.iter().enumerate() {
        b = b.add_weighted_edge(0, i as u32 + 1, p);
    }
    b.build().unwrap()
}

fn config(sketch: usize) -> IndexConfig {
    IndexConfig::new(RrStrategy::SubsimIc)
        .seed(13)
        .chunk_size(16)
        .threads(2)
        .sketch(sketch)
}

const WARM_SETS: usize = 16 * 12;

/// Sketched answers clear the same `(ε, δ)` certificate as exact pools,
/// judged against the brute-forced optimum: spread above the paper's
/// floor, certified bounds bracketing truth. The sketch slack may delay
/// certification (more samples), never unsound bounds.
#[test]
fn sketched_seed_sets_meet_the_plain_certificate_against_opt() {
    let shapes: Vec<(&str, Graph)> = vec![
        ("complete5", complete_graph(5, uniform(0.3))),
        ("weighted-star", weighted_star()),
    ];
    let (k, epsilon, delta) = (2usize, 0.1, 0.01);
    for (name, g) in shapes {
        let oracle = ExactOracle::new(&g);
        let (_, opt) = oracle.exact_opt(k);
        let floor = (1.0 - 1.0 / std::f64::consts::E - epsilon) * opt;
        for sketch in [0usize, 6] {
            let mut index = RrIndex::new(&g, config(sketch));
            index.warm(WARM_SETS).unwrap();
            if sketch > 0 {
                assert!(
                    index.sketch_state().is_some(),
                    "{name}: sketch tier inactive"
                );
            }
            let ans = index.query(k, epsilon, delta).unwrap();
            let label = format!("{name}/sketch={sketch}");
            assert!(
                ans.stats.certified_by_bounds,
                "{label}: query did not certify"
            );
            let spread = oracle.influence(&ans.seeds);
            assert!(
                spread >= floor - 1e-9,
                "{label}: spread {spread} below the (1-1/e-ε) floor {floor} (OPT {opt})"
            );
            assert!(
                ans.stats.lower_bound <= spread + 1e-9,
                "{label}: certified lower bound {} above true spread {spread}",
                ans.stats.lower_bound
            );
            assert!(
                ans.stats.upper_bound >= opt - 1e-9,
                "{label}: certified upper bound {} below OPT {opt}",
                ans.stats.upper_bound
            );
        }
    }
}

/// At matched pool sizes the sketched index selects exactly the seed
/// sets the exact index does: selection is exact in both tiers, and the
/// conservative sketch certificate must not perturb it.
#[test]
fn sketched_and_exact_paths_select_identical_seeds() {
    let g = barabasi_albert(150, 3, WeightModel::Wc, 71);
    let base = IndexConfig::new(RrStrategy::SubsimIc)
        .seed(17)
        .chunk_size(32)
        .threads(2);
    let mut exact = DeltaIndex::new(g.clone(), base).unwrap();
    let mut sketched = DeltaIndex::new(g.clone(), base.sketch(8)).unwrap();
    // Warm far past the certification threshold so neither path grows
    // during the queries — seed selection is then compared at identical
    // pool sizes, where it must be bit-identical (selection is exact in
    // both tiers).
    exact.warm(1280).unwrap();
    sketched.warm(1280).unwrap();
    for k in [1usize, 3, 5, 8] {
        let a = exact.query(k, 0.15, 0.01).unwrap();
        let b = sketched.query(k, 0.15, 0.01).unwrap();
        assert_eq!(
            a.stats.pool_after, b.stats.pool_after,
            "k={k}: pools diverged — the comparison needs a bigger warm"
        );
        assert_eq!(a.seeds, b.seeds, "k={k}: seed sets diverge");
    }
}

/// The sketch's union count-distinct estimates track the exact coverage
/// counts of the displaced `R₂` arena within the HLL standard-error
/// envelope (`σ = 1.04/√2^p`, checked at `4σ` with a fixed seed — no
/// flake budget).
#[test]
fn sketch_union_estimates_track_exact_coverage() {
    let g = barabasi_albert(150, 3, WeightModel::Wc, 73);
    let base = IndexConfig::new(RrStrategy::SubsimIc)
        .seed(19)
        .chunk_size(32)
        .threads(2);
    let precision = 8usize;
    let mut exact = DeltaIndex::new(g.clone(), base).unwrap();
    let mut sketched = DeltaIndex::new(g.clone(), base.sketch(precision)).unwrap();
    exact.warm(640).unwrap();
    sketched.warm(640).unwrap();
    // No queries on either index: a failed certificate would grow one
    // pool past the other and skew the comparison baseline.
    let r2 = exact.validation_pool();
    let sk = sketched.sketch_state().expect("sketch tier active");
    assert_eq!(r2.len(), sk.len_sets(), "pools must be the same size");
    let sigma = 1.04 / ((1u64 << precision) as f64).sqrt();

    let coverage = |seeds: &[NodeId]| -> usize {
        r2.iter()
            .filter(|set| set.iter().any(|v| seeds.contains(v)))
            .count()
    };
    let hub = (0..g.n() as u32).max_by_key(|&v| g.in_degree(v)).unwrap();
    let mut by_degree: Vec<NodeId> = (0..g.n() as u32).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.in_degree(v)));
    let probes: Vec<Vec<NodeId>> = vec![vec![hub], vec![0, 1, 2], by_degree[..4].to_vec()];
    for seeds in probes {
        let truth = coverage(&seeds) as f64;
        assert!(truth > 0.0, "degenerate probe {seeds:?}");
        let est = sk.estimate_union(&seeds);
        let rel = (est - truth).abs() / truth;
        assert!(
            rel <= 4.0 * sigma,
            "seeds {seeds:?}: estimate {est:.1} vs exact coverage {truth} \
             (relative error {rel:.4} > 4σ = {:.4})",
            4.0 * sigma
        );
    }
}

/// The scripted serving simulator stays in lockstep through the real
/// concurrent stack with the sketch tier active.
#[test]
fn sketched_sim_concurrent_matches_sequential_model() {
    let g = barabasi_albert(60, 3, WeightModel::Wc, 91);
    for seed in [1u64, 2] {
        check_seed(&g, Sim::ic().sketch(), seed, 18).unwrap();
    }
}

/// N-shard sketched serving is the same pure function of the script as
/// the sequential sketched model, for every shard count.
#[test]
fn sketched_sim_sharded_matches_sequential_model() {
    let g = barabasi_albert(60, 3, WeightModel::Wc, 93);
    for shards in [1usize, 2, 3, 5] {
        check_seed(&g, Sim::ic().sketch().shards(shards), 5, 18).unwrap();
    }
}

/// Every probed byte of the persisted v4 sketch block is protected:
/// flipping it fails the load with a typed error — never a silent
/// fallback to a plain pool, never a wrong sketch.
#[test]
fn corrupt_persisted_sketch_block_fails_typed_never_plain() {
    let g = weighted_star();
    let mut index = RrIndex::new(&g, config(6));
    index.warm(WARM_SETS).unwrap();
    let want = index.sketch_state().expect("sketch tier active").clone();
    let mut bytes = Vec::new();
    write_index(&index, &mut bytes).unwrap();

    // Probe spread across the file: header region, mid-file (inside the
    // sketch registers), near the end, and the FNV trailer itself.
    let len = bytes.len();
    let offsets = [len / 3, len / 2, 2 * len / 3, len - 12, len - 1];
    for offset in offsets {
        let reader = FaultyReader::new(bytes.clone(), Fault::CorruptByte { offset, xor: 0x20 });
        let err = read_index(&g, reader)
            .expect_err(&format!("corruption at byte {offset} must be detected"));
        assert!(
            matches!(err, IndexError::SnapshotMismatch { .. } | IndexError::Io(_)),
            "corruption at {offset}: unexpected error {err:?}"
        );
    }
    // Truncation inside the sketch block is equally typed: a v4 snapshot
    // may not quietly degrade to a plain pool.
    let reader = FaultyReader::new(bytes.clone(), Fault::TruncateAt(len / 2));
    let err = read_index(&g, reader).expect_err("truncated sketch block must fail");
    assert!(
        matches!(err, IndexError::Io(_) | IndexError::SnapshotMismatch { .. }),
        "unexpected error {err:?}"
    );
    // Control arm: clean bytes round-trip the full sketch state.
    let mut loaded = read_index(&g, FaultyReader::new(bytes, Fault::None)).unwrap();
    assert_eq!(
        loaded.sketch_state(),
        Some(&want),
        "clean reload must restore the sketch register-for-register"
    );
    loaded.query(2, 0.1, 0.01).unwrap();
}
