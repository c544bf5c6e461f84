//! Byte-identity of the sharded index against the sequential reference.
//!
//! The acceptance property of chunk-ownership sharding: for the same
//! `(seed, script)`, an N-shard [`ShardedDeltaIndex`] must answer every
//! query with exactly the seeds, bounds, and repair reports the
//! sequential [`DeltaIndex`] produces — sharding may only change
//! wall-clock, never output.

use proptest::prelude::*;
use subsim_delta::{DeltaError, DeltaIndex, GraphDelta, VersionedGraph};
use subsim_diffusion::RrStrategy;
use subsim_graph::generators::barabasi_albert;
use subsim_graph::{Graph, WeightModel};
use subsim_index::{IndexConfig, IndexError, RrIndex, SentinelState};
use subsim_serve::ShardedDeltaIndex;

fn config() -> IndexConfig {
    IndexConfig::new(RrStrategy::SubsimIc)
        .seed(11)
        .chunk_size(32)
        .threads(2)
}

fn graph(n: usize, seed: u64) -> Graph {
    barabasi_albert(n, 3, WeightModel::Wc, seed)
}

/// Lockstep queries and deltas across shard counts: seeds, certified
/// bounds, versions, and repair reports all match the sequential index.
#[test]
fn sharded_matches_sequential_across_shard_counts() {
    let g = graph(250, 41);
    for shards in [1usize, 2, 3, 4, 7] {
        let mut seq = DeltaIndex::new(g.clone(), config()).unwrap();
        let sharded = ShardedDeltaIndex::new(g.clone(), config(), shards).unwrap();
        let deltas = [
            GraphDelta::new().insert_edge(7, 3, 0.6).delete_edge(1, 0),
            GraphDelta::new().reweight_edge(3, 1, 0.42),
        ];
        for (round, delta) in deltas.iter().enumerate() {
            for k in [1usize, 4, 6] {
                let a = seq.query(k, 0.1, 0.01).unwrap();
                let b = sharded.query(k, 0.1, 0.01).unwrap();
                assert_eq!(a.seeds, b.seeds, "shards={shards} round={round} k={k}");
                assert_eq!(
                    a.stats.lower_bound, b.stats.lower_bound,
                    "shards={shards} round={round} k={k}"
                );
                assert_eq!(
                    a.stats.upper_bound, b.stats.upper_bound,
                    "shards={shards} round={round} k={k}"
                );
                assert_eq!(a.stats.pool_after, b.stats.pool_after);
                assert_eq!(a.stats.certified_by_bounds, b.stats.certified_by_bounds);
            }
            let ra = seq.apply_delta(delta).unwrap();
            let rb = sharded.apply_delta(delta).unwrap();
            assert_eq!(ra.version, rb.version, "shards={shards}");
            assert_eq!(ra.dirty_sets_r1, rb.dirty_sets_r1, "shards={shards}");
            assert_eq!(ra.dirty_sets_r2, rb.dirty_sets_r2, "shards={shards}");
            assert_eq!(ra.dirty_chunks_r1, rb.dirty_chunks_r1, "shards={shards}");
            assert_eq!(ra.dirty_chunks_r2, rb.dirty_chunks_r2, "shards={shards}");
            assert_eq!(ra.regenerated_sets, rb.regenerated_sets, "shards={shards}");
        }
        let a = seq.query(5, 0.1, 0.01).unwrap();
        let b = sharded.query(5, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds, "shards={shards} final");
        assert_eq!(seq.version(), sharded.version());
    }
}

/// The union of per-shard pools, reassembled in global chunk order, is
/// the sequential pool bit-for-bit — before and after repair.
#[test]
fn union_pools_are_bit_identical_to_sequential() {
    let g = graph(200, 43);
    let chunk = config().chunk_size;
    for shards in [2usize, 3, 5] {
        let mut seq = DeltaIndex::new(g.clone(), config()).unwrap();
        let sharded = ShardedDeltaIndex::new(g.clone(), config(), shards).unwrap();
        seq.warm(300).unwrap();
        sharded.warm(300).unwrap();
        let check = |seq: &DeltaIndex, sharded: &ShardedDeltaIndex, tag: &str| {
            let snap = sharded.load();
            let (u1, u2) = snap.union_pools(chunk);
            assert_eq!(
                u1.len(),
                seq.selection_pool().len(),
                "{tag} shards={shards}"
            );
            assert_eq!(
                u2.len(),
                seq.validation_pool().len(),
                "{tag} shards={shards}"
            );
            for i in 0..u1.len() {
                assert_eq!(
                    u1.get(i),
                    seq.selection_pool().get(i),
                    "{tag} shards={shards} r1 set {i}"
                );
            }
            for i in 0..u2.len() {
                assert_eq!(
                    u2.get(i),
                    seq.validation_pool().get(i),
                    "{tag} shards={shards} r2 set {i}"
                );
            }
        };
        check(&seq, &sharded, "after warm");
        // Derive ops valid for this graph: insert a missing edge toward
        // the biggest hub, delete an existing edge.
        let hub = (0..g.n() as u32).max_by_key(|&v| g.in_degree(v)).unwrap();
        let u = (0..g.n() as u32)
            .find(|&u| u != hub && g.prob_of_edge(u, hub).is_none())
            .unwrap();
        let (du, dv, _) = g.edges().next().unwrap();
        let delta = GraphDelta::new()
            .insert_edge(u, hub, 0.7)
            .delete_edge(du, dv);
        seq.apply_delta(&delta).unwrap();
        sharded.apply_delta(&delta).unwrap();
        check(&seq, &sharded, "after repair");
    }
}

/// Version pins behave identically: a pinned query at the live version
/// answers, a stale pin fails typed.
#[test]
fn pinned_queries_match_sequential_semantics() {
    let g = graph(150, 45);
    let sharded = ShardedDeltaIndex::new(g.clone(), config(), 3).unwrap();
    sharded.warm(128).unwrap();
    sharded.query_at_version(0, 3, 0.1, 0.01).unwrap();
    sharded
        .apply_delta(&GraphDelta::new().insert_edge(0, 149, 0.5))
        .unwrap();
    let err = sharded.query_at_version(0, 3, 0.1, 0.01).unwrap_err();
    assert!(
        matches!(
            err,
            subsim_delta::DeltaError::StaleVersion {
                requested: 0,
                current: 1
            }
        ),
        "got {err:?}"
    );
    sharded.query_at_version(1, 3, 0.1, 0.01).unwrap();
}

/// Randomized scripts of interleaved queries and deltas stay in
/// lockstep with the sequential index for every shard count.
#[derive(Debug, Clone)]
enum Step {
    Query { k: usize, epsilon_centi: u8 },
    Insert { u: u32, v: u32, p_centi: u8 },
    Delete { u: u32, v: u32 },
}

fn step_strategy(n: u32) -> impl Strategy<Value = Step> {
    // The vendored proptest shim has no weighted arms; repeating the
    // query arm biases scripts toward queries.
    let query =
        || (1usize..5, 10u8..40).prop_map(|(k, epsilon_centi)| Step::Query { k, epsilon_centi });
    prop_oneof![
        query(),
        query(),
        query(),
        (0..n, 0..n, 5u8..95).prop_map(|(u, v, p_centi)| Step::Insert { u, v, p_centi }),
        (0..n, 0..n).prop_map(|(u, v)| Step::Delete { u, v }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_scripts_stay_in_lockstep(
        script in proptest::collection::vec(step_strategy(80), 1..8),
        shards in 1usize..5,
        graph_seed in 0u64..4,
    ) {
        let g = graph(80, 100 + graph_seed);
        let mut seq = DeltaIndex::new(g.clone(), config()).unwrap();
        let sharded = ShardedDeltaIndex::new(g.clone(), config(), shards).unwrap();
        for step in &script {
            match step {
                Step::Query { k, epsilon_centi } => {
                    let epsilon = *epsilon_centi as f64 / 100.0;
                    let a = seq.query(*k, epsilon, 0.05).unwrap();
                    let b = sharded.query(*k, epsilon, 0.05).unwrap();
                    prop_assert_eq!(&a.seeds, &b.seeds);
                    prop_assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
                    prop_assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
                    prop_assert_eq!(a.stats.pool_after, b.stats.pool_after);
                }
                Step::Insert { u, v, p_centi } => {
                    if u == v {
                        continue;
                    }
                    let p = *p_centi as f64 / 100.0;
                    let d = GraphDelta::new().insert_edge(*u, *v, p);
                    let a = seq.apply_delta(&d);
                    let b = sharded.apply_delta(&d);
                    match (a, b) {
                        (Ok(ra), Ok(rb)) => {
                            prop_assert_eq!(ra.regenerated_sets, rb.regenerated_sets);
                            prop_assert_eq!(ra.version, rb.version);
                        }
                        (Err(_), Err(_)) => {}
                        (a, b) => prop_assert!(false, "divergent delta outcome: {:?} vs {:?}", a, b),
                    }
                }
                Step::Delete { u, v } => {
                    let d = GraphDelta::new().delete_edge(*u, *v);
                    let a = seq.apply_delta(&d);
                    let b = sharded.apply_delta(&d);
                    match (a, b) {
                        (Ok(ra), Ok(rb)) => {
                            prop_assert_eq!(ra.regenerated_sets, rb.regenerated_sets);
                            prop_assert_eq!(ra.version, rb.version);
                        }
                        (Err(_), Err(_)) => {}
                        (a, b) => prop_assert!(false, "divergent delta outcome: {:?} vs {:?}", a, b),
                    }
                }
            }
        }
        prop_assert_eq!(seq.version(), sharded.version());
    }
}

// ---------------------------------------------------------------------------
// Sentinel tier: the statistical serving path stays in lockstep too.
// ---------------------------------------------------------------------------

fn sentinel_config() -> IndexConfig {
    config().sentinels(2)
}

fn assert_sentinel_eq(a: &subsim_index::SentinelState, b: &subsim_index::SentinelState, tag: &str) {
    assert_eq!(a.set.nodes(), b.set.nodes(), "{tag}: sentinel nodes");
    assert_eq!(a.from_chunk, b.from_chunk, "{tag}: from_chunk");
    assert_eq!(a.chunk_hits_r1, b.chunk_hits_r1, "{tag}: r1 hit counters");
    assert_eq!(a.chunk_hits_r2, b.chunk_hits_r2, "{tag}: r2 hit counters");
}

fn assert_pools_eq(seq: &DeltaIndex, sharded: &ShardedDeltaIndex, tag: &str) {
    let snap = sharded.load();
    let (u1, u2) = snap.union_pools(seq.config().chunk_size);
    assert_eq!(u1.len(), seq.selection_pool().len(), "{tag}: r1 len");
    assert_eq!(u2.len(), seq.validation_pool().len(), "{tag}: r2 len");
    for i in 0..u1.len() {
        assert_eq!(u1.get(i), seq.selection_pool().get(i), "{tag}: r1 set {i}");
    }
    for i in 0..u2.len() {
        assert_eq!(u2.get(i), seq.validation_pool().get(i), "{tag}: r2 set {i}");
    }
}

/// With sentinels enabled, warm pools, sentinel state (set, boundary,
/// per-chunk hit counters), non-stale repairs, and stale refreshes are
/// all byte-identical between the sharded index and the sequential
/// reference — the statistical tier does not break shard determinism.
#[test]
fn sentinel_sharded_matches_sequential_across_deltas() {
    let g = graph(250, 47);
    for shards in [1usize, 2, 3] {
        let mut seq = DeltaIndex::new(g.clone(), sentinel_config()).unwrap();
        let sharded = ShardedDeltaIndex::new(g.clone(), sentinel_config(), shards).unwrap();
        seq.warm(320).unwrap();
        sharded.warm(320).unwrap();

        let snap = sharded.load();
        let st_seq = seq.sentinel_state().expect("sequential sentinel active");
        let st_sh = snap.sentinel_state().expect("sharded sentinel active");
        assert_sentinel_eq(st_seq, st_sh, "after warm");
        assert!(!st_seq.set.is_empty());
        let z: Vec<u32> = st_seq.set.nodes().to_vec();
        drop(snap);
        assert_pools_eq(&seq, &sharded, "after warm");

        let a = seq.query(4, 0.1, 0.01).unwrap();
        let b = sharded.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds, "shards={shards} warm query");
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);

        // Non-stale delta: endpoints chosen away from the sentinel set.
        let (u, v) = (0..g.n() as u32)
            .flat_map(|u| (0..g.n() as u32).map(move |v| (u, v)))
            .find(|&(u, v)| {
                u != v && !z.contains(&u) && !z.contains(&v) && g.prob_of_edge(u, v).is_none()
            })
            .expect("a missing non-sentinel edge exists");
        let ra = seq
            .apply_delta(&GraphDelta::new().insert_edge(u, v, 0.55))
            .unwrap();
        let rb = sharded
            .apply_delta(&GraphDelta::new().insert_edge(u, v, 0.55))
            .unwrap();
        assert!(!ra.sentinel_refreshed, "Z untouched must not refresh");
        assert!(!rb.sentinel_refreshed, "Z untouched must not refresh");
        assert_eq!(ra.dirty_chunks_r1, rb.dirty_chunks_r1, "shards={shards}");
        assert_eq!(ra.dirty_chunks_r2, rb.dirty_chunks_r2, "shards={shards}");
        assert_sentinel_eq(
            seq.sentinel_state().unwrap(),
            sharded.load().sentinel_state().unwrap(),
            "after non-stale delta",
        );
        assert_pools_eq(&seq, &sharded, "after non-stale delta");
        let a = seq.query(4, 0.1, 0.01).unwrap();
        let b = sharded.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds, "shards={shards} non-stale query");

        // Stale delta: an edge into a sentinel forces a refresh.
        let w = (0..g.n() as u32)
            .find(|&w| w != z[0] && w != u && g.prob_of_edge(w, z[0]).is_none())
            .expect("a missing edge into the sentinel exists");
        let ra = seq
            .apply_delta(&GraphDelta::new().insert_edge(w, z[0], 0.7))
            .unwrap();
        let rb = sharded
            .apply_delta(&GraphDelta::new().insert_edge(w, z[0], 0.7))
            .unwrap();
        assert!(ra.sentinel_refreshed, "sentinel edge must refresh Z");
        assert!(rb.sentinel_refreshed, "sentinel edge must refresh Z");
        assert_eq!(ra.dirty_chunks_r1, rb.dirty_chunks_r1, "shards={shards}");
        assert_eq!(ra.dirty_chunks_r2, rb.dirty_chunks_r2, "shards={shards}");
        assert_sentinel_eq(
            seq.sentinel_state().unwrap(),
            sharded.load().sentinel_state().unwrap(),
            "after stale delta",
        );
        assert_pools_eq(&seq, &sharded, "after stale delta");
        let a = seq.query(4, 0.1, 0.01).unwrap();
        let b = sharded.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds, "shards={shards} post-refresh query");
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        assert_eq!(seq.version(), sharded.version());
    }
}

// ---------------------------------------------------------------------------
// Sketch tier: memory-bounded validation stays in lockstep too.
// ---------------------------------------------------------------------------

fn sketch_config() -> IndexConfig {
    config().sketch(6)
}

/// With the sketched validation tier enabled, warm pools, per-shard
/// sketch merges, repairs, and error-ladder promotions are all in
/// lockstep with the sequential reference: every N-shard answer is
/// byte-identical, and the merged union sketch equals the sequential
/// sketch register-for-register.
#[test]
fn sketched_sharded_matches_sequential_across_deltas() {
    let g = graph(250, 59);
    for shards in [1usize, 2, 3, 5] {
        let mut seq = DeltaIndex::new(g.clone(), sketch_config()).unwrap();
        let sharded = ShardedDeltaIndex::new(g.clone(), sketch_config(), shards).unwrap();
        seq.warm(320).unwrap();
        sharded.warm(320).unwrap();

        let assert_sketch_eq = |seq: &DeltaIndex, sharded: &ShardedDeltaIndex, tag: &str| {
            let snap = sharded.load();
            let union = snap.union_sketch().expect("sharded sketch active");
            let reference = seq.sketch_state().expect("sequential sketch active");
            assert_eq!(&union, reference, "{tag} shards={shards}: union sketch");
            let per_shard_sets: usize = (0..shards)
                .map(|s| snap.shard(s).sketch_state().map_or(0, |sk| sk.len_sets()))
                .sum();
            assert_eq!(
                per_shard_sets,
                reference.len_sets(),
                "{tag} shards={shards}: sketch set partition"
            );
        };
        assert_sketch_eq(&seq, &sharded, "after warm");

        let deltas = [
            GraphDelta::new().insert_edge(7, 3, 0.6).delete_edge(1, 0),
            GraphDelta::new().reweight_edge(3, 1, 0.42),
        ];
        for (round, delta) in deltas.iter().enumerate() {
            for k in [1usize, 4, 6] {
                let a = seq.query(k, 0.1, 0.01).unwrap();
                let b = sharded.query(k, 0.1, 0.01).unwrap();
                assert_eq!(a.seeds, b.seeds, "shards={shards} round={round} k={k}");
                assert_eq!(
                    a.stats.lower_bound, b.stats.lower_bound,
                    "shards={shards} round={round} k={k}"
                );
                assert_eq!(
                    a.stats.upper_bound, b.stats.upper_bound,
                    "shards={shards} round={round} k={k}"
                );
                assert_eq!(a.stats.pool_after, b.stats.pool_after);
                assert_eq!(a.stats.certified_by_bounds, b.stats.certified_by_bounds);
                // Any error-ladder promotion must have happened (or not)
                // identically on both sides.
                assert_sketch_eq(&seq, &sharded, "after query");
            }
            let ra = seq.apply_delta(delta).unwrap();
            let rb = sharded.apply_delta(delta).unwrap();
            assert_eq!(ra.version, rb.version, "shards={shards}");
            assert_eq!(ra.dirty_sets_r1, rb.dirty_sets_r1, "shards={shards}");
            assert_eq!(ra.dirty_sets_r2, rb.dirty_sets_r2, "shards={shards}");
            assert_eq!(ra.dirty_chunks_r1, rb.dirty_chunks_r1, "shards={shards}");
            assert_eq!(ra.dirty_chunks_r2, rb.dirty_chunks_r2, "shards={shards}");
            assert_eq!(ra.regenerated_sets, rb.regenerated_sets, "shards={shards}");
            assert_sketch_eq(&seq, &sharded, "after delta");
        }
        let a = seq.query(5, 0.1, 0.01).unwrap();
        let b = sharded.query(5, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds, "shards={shards} final");
        assert_eq!(seq.version(), sharded.version());
    }
}

/// Sketched sharded snapshots round-trip through the single-index v4
/// format: reload at a different shard count, or into the sequential
/// [`DeltaIndex`], with the re-split sketches serving identical answers.
#[test]
fn sketched_sharded_snapshot_round_trips_across_layouts() {
    let dir = std::env::temp_dir().join("subsim_serve_sketch_snapshot_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pool.subsimix");
    let g = graph(200, 61);
    let sharded = ShardedDeltaIndex::new(g.clone(), sketch_config(), 3).unwrap();
    sharded.warm(320).unwrap();
    let want = sharded.query(4, 0.1, 0.01).unwrap();
    sharded.save_snapshot(&path).unwrap();
    let union = sharded.load().union_sketch().expect("sketch active");

    for shards in [1usize, 2, 4] {
        let resharded =
            ShardedDeltaIndex::load_snapshot(g.clone(), sketch_config(), shards, &path).unwrap();
        assert_eq!(
            resharded.load().union_sketch().as_ref(),
            Some(&union),
            "reshard 3 -> {shards}: sketch"
        );
        let got = resharded.query(4, 0.1, 0.01).unwrap();
        assert_eq!(want.seeds, got.seeds, "reshard 3 -> {shards}: seeds");
        assert_eq!(want.stats.lower_bound, got.stats.lower_bound);
        assert_eq!(want.stats.upper_bound, got.stats.upper_bound);
    }

    let mut seq = DeltaIndex::load_snapshot(g, sketch_config(), &path).unwrap();
    assert_eq!(
        seq.sketch_state(),
        Some(&union),
        "shard -> sequential: sketch"
    );
    let got = seq.query(4, 0.1, 0.01).unwrap();
    assert_eq!(want.seeds, got.seeds, "sequential reload diverges");
    std::fs::remove_file(&path).ok();
}

/// Sharded snapshots round-trip through the single-index format with the
/// sentinel block intact: reload at a different shard count, or into the
/// sequential [`DeltaIndex`], and serve identical answers.
#[test]
fn sharded_sentinel_snapshot_round_trips_across_layouts() {
    let dir = std::env::temp_dir().join("subsim_serve_sentinel_snapshot_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pool.subsimix");
    let g = graph(200, 53);
    let sharded = ShardedDeltaIndex::new(g.clone(), sentinel_config(), 3).unwrap();
    sharded.warm(320).unwrap();
    let want = sharded.query(4, 0.1, 0.01).unwrap();
    sharded.save_snapshot(&path).unwrap();
    let snap = sharded.load();
    let st = snap.sentinel_state().expect("sentinel active");

    let resharded =
        ShardedDeltaIndex::load_snapshot(g.clone(), sentinel_config(), 2, &path).unwrap();
    assert_sentinel_eq(
        st,
        resharded.load().sentinel_state().unwrap(),
        "reshard 3 -> 2",
    );
    let got = resharded.query(4, 0.1, 0.01).unwrap();
    assert_eq!(want.seeds, got.seeds, "resharded answers diverge");
    assert_eq!(want.stats.lower_bound, got.stats.lower_bound);
    assert_eq!(want.stats.upper_bound, got.stats.upper_bound);

    let mut seq = DeltaIndex::load_snapshot(g, sentinel_config(), &path).unwrap();
    assert_sentinel_eq(st, seq.sentinel_state().unwrap(), "shard -> sequential");
    let got = seq.query(4, 0.1, 0.01).unwrap();
    assert_eq!(want.seeds, got.seeds, "sequential reload diverges");
    std::fs::remove_file(&path).ok();
}

fn lt_config() -> IndexConfig {
    IndexConfig::new(RrStrategy::Lt)
        .seed(11)
        .chunk_size(32)
        .threads(2)
}

/// An LT pool snapshot round-trips through shard counts with identical
/// answers — and an IC-configured sharded server refuses it with a
/// typed mismatch instead of silently serving the wrong diffusion model.
#[test]
fn lt_sharded_snapshot_round_trips_and_refuses_ic_servers() {
    let dir = std::env::temp_dir().join("subsim_serve_lt_snapshot_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pool.subsimix");
    let g = graph(200, 71);
    let sharded = ShardedDeltaIndex::new(g.clone(), lt_config(), 3).unwrap();
    sharded.warm(320).unwrap();
    let want = sharded.query(4, 0.1, 0.01).unwrap();
    sharded.save_snapshot(&path).unwrap();

    for shards in [1usize, 2, 4] {
        let resharded =
            ShardedDeltaIndex::load_snapshot(g.clone(), lt_config(), shards, &path).unwrap();
        let got = resharded.query(4, 0.1, 0.01).unwrap();
        assert_eq!(want.seeds, got.seeds, "reshard 3 -> {shards}: seeds");
        assert_eq!(want.stats.lower_bound, got.stats.lower_bound);
        assert_eq!(want.stats.upper_bound, got.stats.upper_bound);
    }

    let mut seq = DeltaIndex::load_snapshot(g.clone(), lt_config(), &path).unwrap();
    let got = seq.query(4, 0.1, 0.01).unwrap();
    assert_eq!(want.seeds, got.seeds, "sequential reload diverges");

    let err = ShardedDeltaIndex::load_snapshot(g, config(), 2, &path).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("snapshot rejected"), "{msg}");
    assert!(msg.contains("Lt") && msg.contains("SubsimIc"), "{msg}");
    std::fs::remove_file(&path).ok();
}

/// Applying a delta invalidates old snapshots semantically, never in
/// memory: an `Arc` loaded before the delta still shows exactly the old
/// pool and graph, and the successor is at the next version.
#[test]
fn old_snapshots_stay_readable_after_delta() {
    let g = graph(200, 43);
    for shards in [1usize, 2] {
        let index = ShardedDeltaIndex::new(g.clone(), config(), shards).unwrap();
        index.warm(128).unwrap();
        let before = index.load();
        let (first, _) = before.union_pools(config().chunk_size);
        let hub = (0..before.graph().n() as u32)
            .max_by_key(|&v| before.graph().in_degree(v))
            .unwrap();
        let u = (0..before.graph().n() as u32)
            .find(|&u| before.graph().prob_of_edge(u, hub).is_none())
            .expect("some node lacks an edge to the hub");
        index
            .apply_delta(&GraphDelta::new().insert_edge(u, hub, 0.7))
            .unwrap();
        assert_eq!(before.version(), 0, "shards={shards}");
        let (still, _) = before.union_pools(config().chunk_size);
        for i in 0..first.len() {
            assert_eq!(still.get(i), first.get(i), "shards={shards} set {i}");
        }
        let after = index.load();
        assert_eq!(after.version(), 1, "shards={shards}");
        assert_ne!(after.fingerprint(), before.fingerprint(), "shards={shards}");
        assert_eq!(after.pool_len(), before.pool_len(), "shards={shards}");
    }
}

/// Readers racing a writer that applies deltas never see a torn state:
/// every query answers with `k` seeds, and the counters add up.
#[test]
fn concurrent_queries_race_deltas_without_tearing() {
    let g = graph(300, 44);
    for shards in [1usize, 2] {
        let index = ShardedDeltaIndex::new(g.clone(), config(), shards).unwrap();
        index.warm(256).unwrap();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..5 {
                        let ans = index.query(4, 0.15, 0.05).unwrap();
                        assert_eq!(ans.seeds.len(), 4);
                    }
                });
            }
            s.spawn(|| {
                for i in 0..4u32 {
                    index
                        .apply_delta(&GraphDelta::new().insert_edge(i, 299 - i, 0.3))
                        .unwrap();
                }
            });
        });
        assert_eq!(index.version(), 4, "shards={shards}");
        let m = index.metrics();
        assert_eq!(m.deltas_applied, 4, "shards={shards}");
        assert_eq!(m.queries, 15, "shards={shards}");
    }
}

/// Concurrent serving surfaces version skew as a typed
/// [`DeltaError::StaleVersion`], never a panic or a silent wrong answer.
#[test]
fn pinned_concurrent_queries_fail_typed_after_delta() {
    let g = graph(150, 12);
    let (iu, iv) = (0..g.n() as u32)
        .flat_map(|u| (0..g.n() as u32).map(move |v| (u, v)))
        .find(|&(u, v)| u != v && g.prob_of_edge(u, v).is_none())
        .expect("some edge is absent");
    for shards in [1usize, 2] {
        let index = ShardedDeltaIndex::new(g.clone(), config(), shards).unwrap();
        index.warm(150).unwrap();
        let pinned = index.version();
        index.query_at_version(pinned, 3, 0.15, 0.05).unwrap();
        index
            .apply_delta(&GraphDelta::new().insert_edge(iu, iv, 0.4))
            .unwrap();
        match index.query_at_version(pinned, 3, 0.15, 0.05) {
            Err(DeltaError::StaleVersion { requested, current }) => {
                assert_eq!(requested, pinned);
                assert_eq!(current, pinned + 1);
            }
            other => panic!("shards={shards}: expected StaleVersion, got {other:?}"),
        }
    }
}

/// Every publish sets the resident-memory gauges, summed over shards:
/// the exact bytes depend only on the pool, not on how it is split, and
/// a sketched index reports its sketch bytes.
#[test]
fn pool_byte_gauges_are_summed_over_shards() {
    let g = graph(200, 45);
    let mut exact = Vec::new();
    for shards in [1usize, 2, 3] {
        let index = ShardedDeltaIndex::new(g.clone(), config(), shards).unwrap();
        index.warm(320).unwrap();
        let m = index.metrics();
        assert!(m.exact_pool_bytes > 0, "shards={shards}");
        assert_eq!(m.sketch_pool_bytes, 0, "shards={shards}");
        exact.push(m.exact_pool_bytes);
    }
    assert!(exact.windows(2).all(|w| w[0] == w[1]), "{exact:?}");
    let index = ShardedDeltaIndex::new(g, sketch_config(), 2).unwrap();
    index.warm(320).unwrap();
    let m = index.metrics();
    assert!(m.exact_pool_bytes > 0);
    assert!(m.sketch_pool_bytes > 0);
    assert!(m.sketch_displaced_bytes > 0);
    assert!(m.sketch_compression > 0.0);
}

// ---------------------------------------------------------------------------
// Node budget: one check per growth slice on every layout.
// ---------------------------------------------------------------------------

/// A node cap that falls inside a doubling stops every layout at the same
/// slice the sequential index stops at: the same answer or the same
/// `MemoryBudget` refusal, over the same union pool.
#[test]
fn node_budget_stops_every_layout_where_the_sequential_index_stops() {
    let g = barabasi_albert(400, 4, WeightModel::Wc, 3);
    let config = IndexConfig::new(RrStrategy::SubsimIc)
        .seed(5)
        .chunk_size(16)
        .threads(2);
    let mut refused = 0;
    // The pool certifies at 2048 sets per half (29 171 nodes); the first
    // three caps fall inside the doubling from 1024.
    for cap in [12_000usize, 20_000, 26_000, 40_000] {
        let mut seq = DeltaIndex::new(g.clone(), config.max_nodes(cap)).unwrap();
        let want = seq.query(10, 0.05, 0.001);
        refused += usize::from(want.is_err());
        for shards in [1usize, 2, 3] {
            let tag = format!("cap={cap} shards={shards}");
            let sharded = ShardedDeltaIndex::new(g.clone(), config.max_nodes(cap), shards).unwrap();
            let got = sharded.query(10, 0.05, 0.001);
            match (&want, &got) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.seeds, b.seeds, "{tag}");
                    assert_eq!(a.stats.lower_bound, b.stats.lower_bound, "{tag}");
                    assert_eq!(a.stats.upper_bound, b.stats.upper_bound, "{tag}");
                    assert_eq!(a.stats.pool_after, b.stats.pool_after, "{tag}");
                }
                (
                    Err(DeltaError::Index(IndexError::MemoryBudget { in_use: a, .. })),
                    Err(DeltaError::Index(IndexError::MemoryBudget { in_use: b, .. })),
                ) => assert_eq!(a, b, "{tag}: nodes in use at the refusal"),
                (a, b) => panic!("{tag}: divergent outcomes {a:?} vs {b:?}"),
            }
            assert_pools_eq(&seq, &sharded, &tag);
        }
    }
    assert_eq!(
        refused, 3,
        "the caps inside the doubling refuse, the last answers"
    );
}

// ---------------------------------------------------------------------------
// Independent referee: repaired shards against an index that never repaired.
// ---------------------------------------------------------------------------

/// Canonicalizes raw proptest tuples into a valid delta against `vg`
/// whose endpoints all avoid `z`: existing edges delete (flag set) or
/// reweight, absent edges insert; at most one op per `(u, v)`.
fn delta_avoiding(vg: &VersionedGraph, raw: &[(u32, u32, u32, bool)], z: &[u32]) -> GraphDelta {
    let n = vg.graph().n() as u32;
    let mut delta = GraphDelta::new();
    let mut touched = std::collections::HashSet::new();
    for &(ru, rv, rp, flag) in raw {
        let (u, v) = (ru % n, rv % n);
        if z.contains(&u) || z.contains(&v) || !touched.insert((u, v)) {
            continue;
        }
        let p = (rp % 1000 + 1) as f64 / 1001.0;
        delta = match (vg.has_edge(u, v), flag) {
            (true, true) => delta.delete_edge(u, v),
            (true, false) => delta.reweight_edge(u, v, p),
            (false, _) => delta.insert_edge(u, v, p),
        };
    }
    delta
}

/// Replays `batches` on an N-shard index, then checks its union pools,
/// tier state and one query against a fresh index built on the final
/// graph and warmed to the same cursor — a reference that never ran a
/// repair. The reference is an [`RrIndex`] (the engine `DeltaIndex` runs)
/// because a sentinel pool's `Z` must be pinned at the warmup boundary:
/// deltas that avoid `Z` keep it, but a fresh selection on the new graph
/// need not pick it again.
fn assert_shards_equal_rebuild(
    n: usize,
    graph_seed: u64,
    shards: usize,
    cfg: IndexConfig,
    batches: &[Vec<(u32, u32, u32, bool)>],
    k: usize,
) -> Result<(), TestCaseError> {
    let g = graph(n, graph_seed);
    let sharded = ShardedDeltaIndex::new(g.clone(), cfg, shards).unwrap();
    sharded.warm(320).unwrap();
    let z: Vec<u32> = sharded
        .load()
        .sentinel_state()
        .map_or_else(Vec::new, |st| st.set.nodes().to_vec());
    let mut vg = VersionedGraph::new(g).unwrap();
    for raw in batches {
        let d = delta_avoiding(&vg, raw, &z);
        if d.is_empty() {
            continue;
        }
        let report = sharded.apply_delta(&d).unwrap();
        prop_assert!(!report.sentinel_refreshed);
        vg.apply(&d).unwrap();
    }
    let snap = sharded.load();
    prop_assert_eq!(snap.fingerprint(), vg.fingerprint());

    let mut fresh = RrIndex::new(vg.graph(), cfg);
    if let Some(st) = snap.sentinel_state() {
        fresh.warm(st.from_chunk as usize * cfg.chunk_size).unwrap();
        let from = st.from_chunk as usize;
        fresh
            .set_sentinel_state(Some(SentinelState {
                set: st.set.clone(),
                from_chunk: st.from_chunk,
                chunk_hits_r1: vec![0; from],
                chunk_hits_r2: vec![0; from],
            }))
            .unwrap();
    }
    fresh.warm(snap.pool_len()).unwrap();
    prop_assert_eq!(fresh.chunk_cursor(), snap.chunk_cursor());
    prop_assert_eq!(fresh.sentinel_state(), snap.sentinel_state());
    let union_sketch = snap.union_sketch();
    prop_assert_eq!(fresh.sketch_state(), union_sketch.as_ref());
    let (u1, u2) = snap.union_pools(cfg.chunk_size);
    prop_assert_eq!(u1.len(), fresh.selection_pool().len());
    prop_assert_eq!(u2.len(), fresh.validation_pool().len());
    for i in 0..u1.len() {
        prop_assert_eq!(u1.get(i), fresh.selection_pool().get(i), "r1 set {}", i);
    }
    for i in 0..u2.len() {
        prop_assert_eq!(u2.get(i), fresh.validation_pool().get(i), "r2 set {}", i);
    }
    drop(snap);
    let a = sharded.query(k, 0.3, 0.1).unwrap();
    let b = fresh.query(k, 0.3, 0.1).unwrap();
    prop_assert_eq!(a.seeds, b.seeds);
    prop_assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
    prop_assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
    prop_assert_eq!(a.stats.pool_after, b.stats.pool_after);
    Ok(())
}

/// The referee's tiers: plain, sketched validation, sentinel truncation.
fn tier_config(tier: u8) -> IndexConfig {
    match tier {
        0 => config(),
        1 => sketch_config(),
        _ => sentinel_config(),
    }
}

fn op_batches(
    max_batches: usize,
    max_ops: usize,
) -> impl Strategy<Value = Vec<Vec<(u32, u32, u32, bool)>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<bool>()),
            1..=max_ops,
        ),
        1..=max_batches,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn repaired_shards_equal_a_fresh_rebuild(
        shards in prop_oneof![Just(2usize), Just(3), Just(5)],
        tier in 0u8..3,
        graph_seed in 0u64..100,
        k in 1usize..5,
        batches in op_batches(3, 3),
    ) {
        assert_shards_equal_rebuild(120, graph_seed, shards, tier_config(tier), &batches, k)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Heavy referee (CI `--include-ignored`): bigger graphs and longer
    /// delta scripts.
    #[test]
    #[ignore = "heavy differential battery; run with --include-ignored"]
    fn repaired_shards_equal_a_fresh_rebuild_heavy(
        shards in prop_oneof![Just(2usize), Just(3), Just(5)],
        tier in 0u8..3,
        n in 150usize..300,
        graph_seed in 0u64..1000,
        k in 1usize..8,
        batches in op_batches(6, 5),
    ) {
        assert_shards_equal_rebuild(n, graph_seed, shards, tier_config(tier), &batches, k)?;
    }
}

// ---------------------------------------------------------------------------
// One metrics path: every layout records the same generation and repair.
// ---------------------------------------------------------------------------

/// After the same warm, query and delta script, the sequential index and
/// the sharded one at N = 1 and N = 2 report equal generation, sentinel
/// and repair counters, for the sentinel tier (including a stale
/// refresh) and the sketch tier (including any ladder promotion).
#[test]
fn metrics_agree_across_layouts() {
    let g = graph(250, 47);
    for cfg in [sentinel_config(), sketch_config()] {
        let mut seq = DeltaIndex::new(g.clone(), cfg).unwrap();
        seq.warm(320).unwrap();
        let z: Vec<u32> = seq
            .sentinel_state()
            .map_or_else(|| vec![0], |st| st.set.nodes().to_vec());
        let (u, v) = (0..g.n() as u32)
            .flat_map(|u| (0..g.n() as u32).map(move |v| (u, v)))
            .find(|&(u, v)| {
                u != v && !z.contains(&u) && !z.contains(&v) && g.prob_of_edge(u, v).is_none()
            })
            .expect("a missing edge away from Z exists");
        let w = (0..g.n() as u32)
            .find(|&w| w != z[0] && g.prob_of_edge(w, z[0]).is_none())
            .expect("a missing edge into z[0] exists");
        let deltas = [
            GraphDelta::new().insert_edge(u, v, 0.55),
            GraphDelta::new().insert_edge(w, z[0], 0.7),
        ];
        seq.query(4, 0.1, 0.01).unwrap();
        for d in &deltas {
            seq.apply_delta(d).unwrap();
            seq.query(5, 0.1, 0.01).unwrap();
        }
        let want = seq.metrics();
        assert!(want.rr_sets_generated > 0 && want.sets_repaired > 0);
        for shards in [1usize, 2] {
            let sharded = ShardedDeltaIndex::new(g.clone(), cfg, shards).unwrap();
            sharded.warm(320).unwrap();
            sharded.query(4, 0.1, 0.01).unwrap();
            for d in &deltas {
                sharded.apply_delta(d).unwrap();
                sharded.query(5, 0.1, 0.01).unwrap();
            }
            let got = sharded.metrics();
            let tag = format!(
                "sentinels={} sketch={} shards={shards}",
                cfg.sentinels, cfg.sketch
            );
            assert_eq!(got.rr_sets_generated, want.rr_sets_generated, "{tag}");
            assert_eq!(
                got.truncated_sets_generated, want.truncated_sets_generated,
                "{tag}"
            );
            assert_eq!(got.sentinel_hits, want.sentinel_hits, "{tag}");
            assert_eq!(got.sets_repaired, want.sets_repaired, "{tag}");
            assert_eq!(got.chunks_repaired, want.chunks_repaired, "{tag}");
        }
    }
}
