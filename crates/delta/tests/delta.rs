//! Integration battery for the versioned-update subsystem: differential
//! repair-vs-rebuild checks over random delta sequences, fingerprint
//! evolution, and typed rejection of stale snapshots and versions.

use subsim_delta::{DeltaError, DeltaIndex, GraphDelta, VersionedGraph};
use subsim_diffusion::RrStrategy;
use subsim_graph::generators::barabasi_albert;
use subsim_graph::WeightModel;
use subsim_index::{IndexConfig, IndexError};

fn config(strategy: RrStrategy, seed: u64) -> IndexConfig {
    IndexConfig::new(strategy)
        .seed(seed)
        .chunk_size(32)
        .threads(2)
}

/// splitmix64 — a tiny deterministic PRNG for driving test delta
/// sequences without depending on the sampling crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn prob(&mut self) -> f64 {
        (self.below(1000) + 1) as f64 / 1001.0
    }
}

/// Generates one canonical random delta against the current graph state:
/// existing edges are deleted or reweighted, absent edges inserted, with
/// at most one op per (u, v) pair per batch so every batch validates.
fn random_delta(rng: &mut Rng, vg: &VersionedGraph, ops: usize) -> GraphDelta {
    let n = vg.graph().n() as u64;
    let mut delta = GraphDelta::new();
    let mut touched = std::collections::HashSet::new();
    while delta.len() < ops {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if !touched.insert((u, v)) {
            continue;
        }
        delta = if vg.has_edge(u, v) {
            if rng.below(2) == 0 {
                delta.delete_edge(u, v)
            } else {
                delta.reweight_edge(u, v, rng.prob())
            }
        } else {
            delta.insert_edge(u, v, rng.prob())
        };
    }
    delta
}

/// The acceptance-criteria differential: for several random delta
/// sequences, applying them one by one with incremental repair must leave
/// the index byte-identical — pools, selected seeds, certified bounds —
/// to a fresh index built from scratch on the final graph version.
#[test]
fn incremental_repair_matches_full_rebuild_across_sequences() {
    for (case, (graph_seed, delta_seed)) in [(1u64, 0xaau64), (2, 0xbb), (3, 0xcc)]
        .into_iter()
        .enumerate()
    {
        let g = barabasi_albert(220, 3, WeightModel::Wc, graph_seed);
        let cfg = config(RrStrategy::SubsimIc, 100 + case as u64);
        let mut index = DeltaIndex::new(g.clone(), cfg).unwrap();
        index.warm(320).unwrap();

        let mut rng = Rng(delta_seed);
        let mut deltas = Vec::new();
        for step in 0..4 {
            let d = random_delta(&mut rng, index.versioned(), 1 + step % 3);
            let report = index.apply_delta(&d).unwrap();
            assert_eq!(report.version, step as u64 + 1);
            assert_eq!(report.pool_sets, 2 * index.pool_len());
            deltas.push(d);
        }

        // Rebuild from scratch: same ops onto a fresh versioned graph,
        // then a fresh pool grown to the same cursor.
        let mut fresh_vg = VersionedGraph::new(g).unwrap();
        for d in &deltas {
            fresh_vg.apply(d).unwrap();
        }
        assert_eq!(fresh_vg.fingerprint(), index.fingerprint(), "case {case}");
        let mut fresh = DeltaIndex::from_versioned(fresh_vg, cfg);
        fresh.warm(index.pool_len()).unwrap();

        assert_eq!(fresh.pool_len(), index.pool_len());
        for i in 0..index.pool_len() {
            assert_eq!(
                index.selection_pool().get(i),
                fresh.selection_pool().get(i),
                "case {case} r1 set {i}"
            );
            assert_eq!(
                index.validation_pool().get(i),
                fresh.validation_pool().get(i),
                "case {case} r2 set {i}"
            );
        }
        let a = index.query(5, 0.1, 0.01).unwrap();
        let b = fresh.query(5, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds, "case {case}");
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound, "case {case}");
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound, "case {case}");
        assert_eq!(a.stats.pool_after, b.stats.pool_after, "case {case}");
    }
}

/// Compaction cadence is an implementation detail: aggressive compaction
/// (every delta) and no compaction must serve identical pools.
#[test]
fn compaction_threshold_does_not_change_repaired_pools() {
    let g = barabasi_albert(180, 3, WeightModel::Wc, 9);
    let cfg = config(RrStrategy::SubsimIc, 55);
    let mut eager = DeltaIndex::from_versioned(
        VersionedGraph::with_compaction_threshold(g.clone(), 1).unwrap(),
        cfg,
    );
    let mut lazy = DeltaIndex::from_versioned(
        VersionedGraph::with_compaction_threshold(g, 1_000_000).unwrap(),
        cfg,
    );
    eager.warm(200).unwrap();
    lazy.warm(200).unwrap();
    let mut rng = Rng(0x5eed);
    for _ in 0..5 {
        // Same ops on both (canonicalized against eager; states agree).
        let d = random_delta(&mut rng, eager.versioned(), 2);
        eager.apply_delta(&d).unwrap();
        lazy.apply_delta(&d).unwrap();
    }
    assert!(eager.versioned().compactions() >= 5);
    assert_eq!(lazy.versioned().compactions(), 0);
    assert_eq!(eager.fingerprint(), lazy.fingerprint());
    for i in 0..eager.pool_len() {
        assert_eq!(eager.selection_pool().get(i), lazy.selection_pool().get(i));
        assert_eq!(
            eager.validation_pool().get(i),
            lazy.validation_pool().get(i)
        );
    }
}

/// First `(u, v)` pair absent from `g` — a safe target for inserts.
fn absent_edge(g: &subsim_graph::Graph) -> (u32, u32) {
    let n = g.n() as u32;
    for v in (0..n).rev() {
        for u in 0..n {
            if u != v && g.prob_of_edge(u, v).is_none() {
                return (u, v);
            }
        }
    }
    panic!("complete graph has no absent edge");
}

/// Satellite 3a: every applied delta must move the graph fingerprint, and
/// a net-no-op history must return to the original fingerprint.
#[test]
fn fingerprint_evolves_with_every_delta() {
    let g = barabasi_albert(150, 3, WeightModel::Wc, 10);
    let hub = (0..g.n() as u32).max_by_key(|&v| g.in_degree(v)).unwrap();
    let mut index = DeltaIndex::new(g, config(RrStrategy::SubsimIc, 1)).unwrap();
    index.warm(100).unwrap();
    let f0 = index.fingerprint();
    let u = index.graph().in_neighbors(hub)[0];
    let p_orig = index.graph().prob_of_edge(u, hub).unwrap();

    index
        .apply_delta(&GraphDelta::new().reweight_edge(u, hub, p_orig / 2.0))
        .unwrap();
    let f1 = index.fingerprint();
    assert_ne!(f1, f0, "reweight must change the fingerprint");

    index
        .apply_delta(&GraphDelta::new().delete_edge(u, hub))
        .unwrap();
    let f2 = index.fingerprint();
    assert_ne!(f2, f1, "delete must change the fingerprint");

    index
        .apply_delta(&GraphDelta::new().insert_edge(u, hub, p_orig))
        .unwrap();
    assert_eq!(
        index.fingerprint(),
        f0,
        "restoring the original edge set must restore the fingerprint"
    );
    assert_eq!(
        index.version(),
        3,
        "versions advance even when edges return"
    );
}

/// Satellite 3b: a pool snapshot taken at one version must refuse to load
/// against any other version — typed error, no panic, in both directions.
#[test]
fn stale_snapshots_are_rejected_with_typed_errors() {
    let dir = std::env::temp_dir().join("subsim_delta_stale_snapshot_test");
    std::fs::create_dir_all(&dir).unwrap();
    let v0_path = dir.join("v0.subsimix");
    let v1_path = dir.join("v1.subsimix");
    let g = barabasi_albert(120, 3, WeightModel::Wc, 11);
    let cfg = config(RrStrategy::SubsimIc, 2);
    let mut index = DeltaIndex::new(g.clone(), cfg).unwrap();
    index.warm(150).unwrap();
    index.save_snapshot(&v0_path).unwrap();

    let (iu, iv) = absent_edge(&g);
    let delta = GraphDelta::new().insert_edge(iu, iv, 0.25);
    index.apply_delta(&delta).unwrap();
    index.save_snapshot(&v1_path).unwrap();

    // v0 snapshot loads against the v0 graph...
    let reloaded = DeltaIndex::load_snapshot(g.clone(), cfg, &v0_path).unwrap();
    assert_eq!(reloaded.pool_len(), index.pool_len());

    // ...but the v1 snapshot against the v0 graph is refused, typed.
    let err = DeltaIndex::load_snapshot(g.clone(), cfg, &v1_path).unwrap_err();
    assert!(
        matches!(err, DeltaError::Index(IndexError::SnapshotMismatch { .. })),
        "got {err:?}"
    );

    // And the v0 snapshot against the v1 graph is refused too.
    let mut v1_graph = VersionedGraph::new(g).unwrap();
    v1_graph.apply(&delta).unwrap();
    let err = DeltaIndex::load_snapshot(v1_graph.graph().clone(), cfg, &v0_path).unwrap_err();
    assert!(
        matches!(err, DeltaError::Index(IndexError::SnapshotMismatch { .. })),
        "got {err:?}"
    );
    std::fs::remove_file(&v0_path).ok();
    std::fs::remove_file(&v1_path).ok();
}

/// An LT pool snapshot loaded into an IC-configured index (or vice
/// versa) is refused with a typed mismatch — never adopted silently as
/// the wrong diffusion model.
#[test]
fn cross_strategy_snapshots_are_rejected_with_typed_errors() {
    let dir = std::env::temp_dir().join("subsim_delta_cross_strategy_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lt.subsimix");
    let g = barabasi_albert(120, 3, WeightModel::Wc, 13);
    let mut index = DeltaIndex::new(g.clone(), config(RrStrategy::Lt, 2)).unwrap();
    index.warm(150).unwrap();
    index.save_snapshot(&path).unwrap();

    // Same strategy: loads and preserves the pool.
    let reloaded = DeltaIndex::load_snapshot(g.clone(), config(RrStrategy::Lt, 2), &path).unwrap();
    assert_eq!(reloaded.pool_len(), index.pool_len());

    // IC-configured server: typed refusal naming both strategies.
    let err = DeltaIndex::load_snapshot(g, config(RrStrategy::SubsimIc, 2), &path).unwrap_err();
    match &err {
        DeltaError::Index(IndexError::SnapshotMismatch { reason }) => {
            assert!(reason.contains("Lt"), "{reason}");
            assert!(reason.contains("SubsimIc"), "{reason}");
        }
        other => panic!("got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Repair works identically across RR strategies — the dirtiness
/// criterion (set contains a mutated target) is strategy-independent.
#[test]
fn repair_is_exact_for_vanilla_and_bucket_strategies() {
    for strategy in [RrStrategy::VanillaIc, RrStrategy::SubsimBucketIc] {
        let g = barabasi_albert(160, 3, WeightModel::Wc, 13);
        let cfg = config(strategy, 7);
        let mut index = DeltaIndex::new(g.clone(), cfg).unwrap();
        index.warm(200).unwrap();
        let mut rng = Rng(0xfeed);
        let mut deltas = Vec::new();
        for _ in 0..3 {
            let d = random_delta(&mut rng, index.versioned(), 2);
            index.apply_delta(&d).unwrap();
            deltas.push(d);
        }
        let mut fresh_vg = VersionedGraph::new(g).unwrap();
        for d in &deltas {
            fresh_vg.apply(d).unwrap();
        }
        let mut fresh = DeltaIndex::from_versioned(fresh_vg, cfg);
        fresh.warm(index.pool_len()).unwrap();
        for i in 0..index.pool_len() {
            assert_eq!(
                index.selection_pool().get(i),
                fresh.selection_pool().get(i),
                "{strategy:?} r1 set {i}"
            );
            assert_eq!(
                index.validation_pool().get(i),
                fresh.validation_pool().get(i),
                "{strategy:?} r2 set {i}"
            );
        }
    }
}
