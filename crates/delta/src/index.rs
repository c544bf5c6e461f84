//! A sequential RR-sketch index that owns its versioned graph.
//!
//! [`subsim_index::RrIndex`] borrows a frozen `&Graph`, which is exactly
//! wrong for a mutating graph: the borrow would freeze the thing deltas
//! must rewrite. [`DeltaIndex`] therefore *owns* a [`VersionedGraph`]
//! plus the two pool halves and re-binds a transient sampler to the
//! current CSR per operation. Queries run the same
//! [`subsim_index::certified_query`] loop and growth step as `RrIndex`
//! (same bounds, same growth schedule, same chunk streams),
//! and [`DeltaIndex::apply_delta`] repairs the pool through
//! [`crate::repair`] so every query after a delta sees a pool identical
//! to a full rebuild on the new graph.

use crate::delta::GraphDelta;
use crate::error::DeltaError;
use crate::repair::{repair_pool, RepairReport};
use crate::versioned::VersionedGraph;
use std::path::Path;
use std::time::{Duration, Instant};
use subsim_diffusion::pool::WorkerPool;
use subsim_diffusion::{RrCollection, RrSampler};
use subsim_graph::Graph;
use subsim_index::{
    certified_query, CertifiedPool, IndexConfig, IndexMetrics, MetricsSnapshot, PoolState,
    PoolView, QueryAnswer, RrIndex, SentinelState,
};
use subsim_sketch::SketchedPool;

/// An RR-sketch index over a [`VersionedGraph`]: answers certified IM
/// queries like [`RrIndex`] and absorbs graph deltas by incremental
/// chunk repair instead of re-indexing.
///
/// ```
/// use subsim_delta::{DeltaIndex, GraphDelta};
/// use subsim_diffusion::RrStrategy;
/// use subsim_graph::{generators, WeightModel};
/// use subsim_index::IndexConfig;
///
/// let g = generators::star_graph(50, WeightModel::UniformIc { p: 0.4 });
/// let mut index = DeltaIndex::new(g, IndexConfig::new(RrStrategy::SubsimIc).seed(3)).unwrap();
/// let before = index.query(1, 0.1, 0.01).unwrap();
/// assert_eq!(before.seeds, vec![0]);
/// let report = index
///     .apply_delta(&GraphDelta::new().insert_edge(1, 2, 0.9))
///     .unwrap();
/// assert_eq!(index.version(), 1);
/// assert!(report.regenerated_sets <= report.pool_sets);
/// ```
pub struct DeltaIndex {
    vg: VersionedGraph,
    config: IndexConfig,
    pool: PoolState,
    workers: WorkerPool,
    metrics: IndexMetrics,
}

impl std::fmt::Debug for DeltaIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaIndex")
            .field("version", &self.vg.version())
            .field("config", &self.config)
            .field("chunks", &self.pool.chunks)
            .field("pool_len", &self.pool.pool_len())
            .finish_non_exhaustive()
    }
}

impl DeltaIndex {
    /// An empty index over version 0 of `g` (storage-normalized; see
    /// [`VersionedGraph`]). The first query or [`DeltaIndex::warm`]
    /// populates the pool.
    pub fn new(g: Graph, config: IndexConfig) -> Result<Self, DeltaError> {
        let vg = VersionedGraph::new(g)?;
        Ok(Self::from_versioned(vg, config))
    }

    /// Wraps an existing [`VersionedGraph`] with an empty pool.
    pub fn from_versioned(vg: VersionedGraph, config: IndexConfig) -> Self {
        let pool = PoolState::empty(vg.graph().n(), &config, 1);
        Self::with_pool(vg, config, pool)
    }

    fn with_pool(vg: VersionedGraph, config: IndexConfig, pool: PoolState) -> Self {
        DeltaIndex {
            vg,
            config,
            pool,
            workers: WorkerPool::new(config.threads),
            metrics: IndexMetrics::default(),
        }
    }

    /// The CSR at the current version.
    pub fn graph(&self) -> &Graph {
        self.vg.graph()
    }

    /// The versioned graph.
    pub fn versioned(&self) -> &VersionedGraph {
        &self.vg
    }

    /// The construction-time configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The epoch: deltas applied since construction.
    pub fn version(&self) -> u64 {
        self.vg.version()
    }

    /// Structural fingerprint of the current graph version.
    pub fn fingerprint(&self) -> u64 {
        self.vg.fingerprint()
    }

    /// Sets per pool half.
    pub fn pool_len(&self) -> usize {
        self.pool.pool_len()
    }

    /// The RNG cursor: complete chunks generated per half.
    pub fn chunk_cursor(&self) -> u64 {
        self.pool.chunks
    }

    /// Test-only fault injection: forwards a chunk hook to the worker
    /// pool (see [`subsim_diffusion::WorkerPool::set_chunk_hook`]).
    #[doc(hidden)]
    pub fn set_chunk_hook(&self, hook: Option<subsim_diffusion::ChunkHook>) {
        self.workers.set_chunk_hook(hook);
    }

    /// The selection half `R₁` (read-only).
    pub fn selection_pool(&self) -> &RrCollection {
        self.pool.selection_pool()
    }

    /// The validation half `R₂` (read-only).
    pub fn validation_pool(&self) -> &RrCollection {
        self.pool.validation_pool()
    }

    /// The sentinel tier state, if active.
    pub fn sentinel_state(&self) -> Option<&SentinelState> {
        self.pool.sentinel.as_ref()
    }

    /// The sketched validation pool, if the sketch tier is active.
    pub fn sketch_state(&self) -> Option<&SketchedPool> {
        self.pool.sketch_state()
    }

    /// Serving metrics (queries, generation, repairs).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Pre-grows the pool to at least `sets` per half (whole chunks).
    pub fn warm(&mut self, sets: usize) -> Result<(), DeltaError> {
        self.grow_to(sets)?;
        Ok(())
    }

    /// Answers one certified IM query; semantics match
    /// [`RrIndex::query`] over the current graph version.
    pub fn query(&mut self, k: usize, epsilon: f64, delta: f64) -> Result<QueryAnswer, DeltaError> {
        let threads = self.config.threads;
        let answer = certified_query(self, k, epsilon, delta, threads)?;
        self.metrics.record_query(&answer.stats);
        Ok(answer)
    }

    /// Applies `delta` to the graph and repairs the pool incrementally.
    ///
    /// With no sentinel tier, both halves come out bit-identical to a
    /// full rebuild of the same chunk range on the new graph version —
    /// so subsequent queries (and their certified bounds) match a fresh
    /// index exactly. With a sentinel tier, truncated chunks whose set
    /// `Z` survived the delta repair with the same exactness; a delta
    /// touching a sentinel endpoint instead re-selects `Z'` over the
    /// repaired plain prefix and regenerates the truncated suffix under
    /// it (`RepairReport::sentinel_refreshed`), keeping the statistical
    /// certification contract without promising bit-equivalence. Either
    /// way the sample accounting is repair-aware: pool sizes are
    /// unchanged (`chunk_cursor` continues from where it was), every
    /// stored set is a valid i.i.d. RR sample of the *new* graph, and
    /// the OPIM certificates re-derive on the next query without
    /// discarding clean samples.
    ///
    /// On error (validation failure, or a worker panic during repair),
    /// neither the graph nor the pool changes: the mutation is staged on
    /// a copy of the versioned graph and committed only after both halves
    /// repaired, so the graph version can never run ahead of the pool.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<RepairReport, DeltaError> {
        let start = Instant::now();
        let mut staged = self.vg.clone();
        staged.apply(delta)?;
        let sampler = RrSampler::new(staged.graph(), self.config.strategy);
        let out = repair_pool(
            &self.pool,
            delta,
            &sampler,
            std::slice::from_ref(&self.workers),
            &self.config,
        )?;
        drop(sampler);
        self.vg = staged;
        self.pool = out.pool;
        let mut report = out.report;
        report.version = self.vg.version();
        report.elapsed = start.elapsed();
        self.metrics.record_repair(
            report.regenerated_sets as u64,
            (report.dirty_chunks_r1 + report.dirty_chunks_r2) as u64,
            report.elapsed,
        );
        Ok(report)
    }

    /// Writes the pool to the on-disk snapshot format, stamped with the
    /// **current version's** fingerprint — a snapshot taken at version
    /// `t` loads only against the graph at version `t`.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), DeltaError> {
        RrIndex::from_state(self.vg.graph(), self.config, self.pool.clone())?.save_to_path(path)?;
        Ok(())
    }

    /// Builds an index over version 0 of `g` with the pool loaded from a
    /// snapshot. Fails with a typed
    /// [`subsim_index::IndexError::SnapshotMismatch`] (wrapped in
    /// [`DeltaError::Index`]) when the snapshot was taken at a different
    /// graph version — the fingerprint pins the exact edge set — or was
    /// generated under a different RR strategy than `config` asks for
    /// (an LT pool must never silently serve an IC server, or vice
    /// versa).
    pub fn load_snapshot<P: AsRef<Path>>(
        g: Graph,
        config: IndexConfig,
        path: P,
    ) -> Result<Self, DeltaError> {
        let vg = VersionedGraph::new(g)?;
        let loaded = RrIndex::load_from_path(vg.graph(), path)?;
        loaded.ensure_strategy(config.strategy)?;
        let (loaded_config, pool) = loaded.into_state();
        let config = IndexConfig {
            threads: config.threads,
            max_nodes: config.max_nodes,
            ..loaded_config
        };
        Ok(Self::with_pool(vg, config, pool))
    }
}

impl CertifiedPool for DeltaIndex {
    type Error = DeltaError;

    fn view(&self) -> PoolView<'_> {
        self.pool.view(self.vg.graph())
    }

    fn grow_to(&mut self, target_sets: usize) -> Result<usize, DeltaError> {
        let sampler = RrSampler::new(self.vg.graph(), self.config.strategy);
        let metrics = &self.metrics;
        Ok(self.pool.grow_to(
            &sampler,
            std::slice::from_ref(&self.workers),
            &self.config,
            target_sets,
            &mut |b| metrics.record_generated(b),
        )?)
    }

    fn promote_sketch(&mut self, _observed: u8) -> Result<usize, DeltaError> {
        let sampler = RrSampler::new(self.vg.graph(), self.config.strategy);
        let metrics = &self.metrics;
        let regenerated = self.pool.promote_sketch(
            &sampler,
            std::slice::from_ref(&self.workers),
            &self.config,
            &mut |b| metrics.record_generated(b),
        )?;
        self.config.sketch = self.pool.sketch_precision().map_or(0, usize::from);
        Ok(regenerated)
    }

    fn record_selection(&self, elapsed: Duration) {
        self.metrics.record_selection(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_diffusion::RrStrategy;
    use subsim_graph::generators::barabasi_albert;
    use subsim_graph::WeightModel;
    use subsim_index::{IndexError, R2_STREAM};

    fn config() -> IndexConfig {
        IndexConfig::new(RrStrategy::SubsimIc)
            .seed(9)
            .chunk_size(32)
            .threads(2)
    }

    #[test]
    fn queries_match_borrowing_index_before_any_delta() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 31);
        // Normalize exactly as DeltaIndex will, then compare against the
        // borrowing RrIndex on the normalized graph.
        let vg = VersionedGraph::new(g).unwrap();
        let norm = vg.graph().clone();
        let mut delta_index = DeltaIndex::from_versioned(vg, config());
        let mut plain = subsim_index::RrIndex::new(&norm, config());
        let a = delta_index.query(4, 0.1, 0.01).unwrap();
        let b = plain.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        assert_eq!(delta_index.pool_len(), plain.pool_len());
    }

    #[test]
    fn apply_delta_repairs_to_full_rebuild_equivalence() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 32);
        let mut index = DeltaIndex::new(g.clone(), config()).unwrap();
        index.warm(400).unwrap();
        let hub = (0..g.n() as u32).max_by_key(|&v| g.in_degree(v)).unwrap();
        let u = (0..g.n() as u32)
            .find(|&u| g.prob_of_edge(u, hub).is_none())
            .expect("some node lacks an edge to the hub");
        let d = GraphDelta::new().insert_edge(u, hub, 0.5);
        let report = index.apply_delta(&d).unwrap();
        assert_eq!(report.version, 1);
        assert!(report.regenerated_sets > 0);

        // Reference: a fresh index over the final graph, grown to the
        // same chunk cursor.
        let mut fresh_vg = VersionedGraph::new(g).unwrap();
        fresh_vg.apply(&d).unwrap();
        let mut fresh = DeltaIndex::from_versioned(fresh_vg, config());
        fresh.warm(index.pool_len()).unwrap();
        assert_eq!(fresh.pool_len(), index.pool_len());
        for i in 0..index.pool_len() {
            assert_eq!(
                index.selection_pool().get(i),
                fresh.selection_pool().get(i),
                "r1 {i}"
            );
            assert_eq!(
                index.validation_pool().get(i),
                fresh.validation_pool().get(i),
                "r2 {i}"
            );
        }
        let a = index.query(4, 0.1, 0.01).unwrap();
        let b = fresh.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        let m = index.metrics();
        assert_eq!(m.deltas_applied, 1);
        assert!(m.sets_repaired > 0);
    }

    fn sentinel_config() -> IndexConfig {
        config().sentinels(2)
    }

    /// A delta whose endpoints avoid the sentinel set `z`.
    fn non_stale_delta(g: &subsim_graph::Graph, z: &[u32]) -> GraphDelta {
        let hub = (0..g.n() as u32)
            .filter(|v| !z.contains(v))
            .max_by_key(|&v| g.in_degree(v))
            .unwrap();
        let u = (0..g.n() as u32)
            .find(|&u| !z.contains(&u) && u != hub && g.prob_of_edge(u, hub).is_none())
            .expect("some non-sentinel node lacks an edge to the hub");
        GraphDelta::new().insert_edge(u, hub, 0.5)
    }

    #[test]
    fn sentinel_warm_matches_borrowing_index() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 34);
        let vg = VersionedGraph::new(g).unwrap();
        let norm = vg.graph().clone();
        let mut delta_index = DeltaIndex::from_versioned(vg, sentinel_config());
        let mut plain = subsim_index::RrIndex::new(&norm, sentinel_config());
        delta_index.warm(320).unwrap();
        plain.warm(320).unwrap();
        assert_eq!(delta_index.pool_len(), plain.pool_len());
        let a = delta_index.sentinel_state().expect("sentinel active");
        let b = plain.sentinel_state().expect("sentinel active");
        assert_eq!(a.set.nodes(), b.set.nodes());
        assert_eq!(a.from_chunk, b.from_chunk);
        assert_eq!(a.chunk_hits_r1, b.chunk_hits_r1);
        assert_eq!(a.chunk_hits_r2, b.chunk_hits_r2);
        for i in 0..delta_index.pool_len() {
            assert_eq!(
                delta_index.selection_pool().get(i),
                plain.selection_pool().get(i),
                "r1 {i}"
            );
        }
        assert!(delta_index.metrics().truncated_sets_generated > 0);
    }

    #[test]
    fn non_stale_delta_repairs_sentinel_pool_to_fixed_z_rebuild() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 35);
        let mut index = DeltaIndex::new(g, sentinel_config()).unwrap();
        index.warm(320).unwrap();
        let st = index.sentinel_state().unwrap();
        let z = st.set.nodes().to_vec();
        let from_chunk = st.from_chunk;
        let d = non_stale_delta(index.graph(), &z);
        let report = index.apply_delta(&d).unwrap();
        assert!(!report.sentinel_refreshed);
        assert!(report.regenerated_sets > 0, "delta must dirty something");
        let st = index.sentinel_state().unwrap();
        assert_eq!(st.set.nodes(), z.as_slice(), "Z survives a non-stale delta");
        assert_eq!(st.from_chunk, from_chunk);

        // Reference: regenerate the full chunk range on the new graph
        // with the same (kept) Z — repair must be bit-identical to it.
        let cfg = sentinel_config();
        let sampler = RrSampler::new(index.graph(), cfg.strategy);
        let workers = WorkerPool::new(1);
        let chunks = index.chunk_cursor();
        for (half, seed, hits) in [
            (index.selection_pool(), cfg.seed, &st.chunk_hits_r1),
            (
                index.validation_pool(),
                cfg.seed ^ R2_STREAM,
                &st.chunk_hits_r2,
            ),
        ] {
            let plain =
                workers.generate_chunks(&sampler, None, 0..from_chunk, cfg.chunk_size, seed);
            let trunc = workers.generate_chunks(
                &sampler,
                Some(&z),
                from_chunk..chunks,
                cfg.chunk_size,
                seed,
            );
            let boundary = from_chunk as usize * cfg.chunk_size;
            for i in 0..half.len() {
                let expect = if i < boundary {
                    plain.rr.get(i)
                } else {
                    trunc.rr.get(i - boundary)
                };
                assert_eq!(half.get(i), expect, "set {i}");
            }
            assert_eq!(&hits[from_chunk as usize..], trunc.chunk_hits.as_slice());
            assert!(hits[..from_chunk as usize].iter().all(|&h| h == 0));
        }
        let ans = index.query(3, 0.1, 0.01).unwrap();
        assert!(ans.stats.certified_by_bounds);
    }

    #[test]
    fn stale_delta_refreshes_sentinel_and_keeps_serving() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 36);
        let mut index = DeltaIndex::new(g, sentinel_config()).unwrap();
        index.warm(320).unwrap();
        let st = index.sentinel_state().unwrap();
        let z = st.set.nodes().to_vec();
        let from_chunk = st.from_chunk;
        let chunks = index.chunk_cursor();
        // Rewire an edge into a sentinel: Z's selection basis is gone.
        let u = (0..index.graph().n() as u32)
            .find(|&u| !z.contains(&u) && index.graph().prob_of_edge(u, z[0]).is_none())
            .unwrap();
        let report = index
            .apply_delta(&GraphDelta::new().insert_edge(u, z[0], 0.9))
            .unwrap();
        assert!(report.sentinel_refreshed);
        // The whole truncated suffix regenerated, in both halves.
        assert!(report.dirty_chunks_r1 >= (chunks - from_chunk) as usize);
        assert!(report.dirty_chunks_r2 >= (chunks - from_chunk) as usize);
        let st = index.sentinel_state().unwrap();
        assert_eq!(st.from_chunk, from_chunk, "boundary survives a refresh");
        assert!(!st.set.is_empty());
        assert_eq!(st.chunk_hits_r1.len(), chunks as usize);
        assert_eq!(st.chunk_hits_r2.len(), chunks as usize);
        assert!(st.chunk_hits_r1[..from_chunk as usize]
            .iter()
            .all(|&h| h == 0));
        assert_eq!(
            index.pool_len(),
            chunks as usize * sentinel_config().chunk_size
        );
        let ans = index.query(3, 0.1, 0.01).unwrap();
        assert!(ans.stats.certified_by_bounds);
    }

    fn sketch_config() -> IndexConfig {
        config().sketch(6)
    }

    #[test]
    fn sketched_warm_and_query_match_borrowing_index() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 38);
        let vg = VersionedGraph::new(g).unwrap();
        let norm = vg.graph().clone();
        let mut delta_index = DeltaIndex::from_versioned(vg, sketch_config());
        let mut plain = subsim_index::RrIndex::new(&norm, sketch_config());
        delta_index.warm(320).unwrap();
        plain.warm(320).unwrap();
        assert_eq!(delta_index.pool_len(), plain.pool_len());
        assert_eq!(
            delta_index.validation_pool().len(),
            0,
            "sketched R2 stays empty"
        );
        assert_eq!(delta_index.sketch_state(), plain.sketch_state());
        let a = delta_index.query(4, 0.1, 0.01).unwrap();
        let b = plain.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        // Whatever the ladder did, both stacks must agree on it.
        assert_eq!(delta_index.config().sketch, plain.config().sketch);
        assert_eq!(delta_index.sketch_state(), plain.sketch_state());
    }

    #[test]
    fn sketched_delta_repair_matches_fresh_sketched_index() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 39);
        let mut index = DeltaIndex::new(g.clone(), sketch_config()).unwrap();
        index.warm(400).unwrap();
        let hub = (0..g.n() as u32).max_by_key(|&v| g.in_degree(v)).unwrap();
        let u = (0..g.n() as u32)
            .find(|&u| g.prob_of_edge(u, hub).is_none())
            .expect("some node lacks an edge to the hub");
        let d = GraphDelta::new().insert_edge(u, hub, 0.5);
        let report = index.apply_delta(&d).unwrap();
        assert_eq!(report.version, 1);
        assert!(
            report.dirty_chunks_r2 > 0,
            "hub delta must dirty the sketch"
        );
        assert_eq!(
            report.dirty_sets_r2,
            report.dirty_chunks_r2 * sketch_config().chunk_size,
            "sketched dirtiness is whole chunks"
        );

        let mut fresh_vg = VersionedGraph::new(g).unwrap();
        fresh_vg.apply(&d).unwrap();
        let mut fresh = DeltaIndex::from_versioned(fresh_vg, sketch_config());
        fresh.warm(index.pool_len()).unwrap();
        assert_eq!(fresh.pool_len(), index.pool_len());
        for i in 0..index.pool_len() {
            assert_eq!(
                index.selection_pool().get(i),
                fresh.selection_pool().get(i),
                "r1 {i}"
            );
        }
        assert_eq!(index.sketch_state(), fresh.sketch_state());
        let a = index.query(4, 0.1, 0.01).unwrap();
        let b = fresh.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
    }

    #[test]
    fn sketched_snapshot_round_trips() {
        let dir = std::env::temp_dir().join("subsim_delta_sketch_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.subsimix");
        let g = barabasi_albert(200, 3, WeightModel::Wc, 40);
        let mut index = DeltaIndex::new(g.clone(), sketch_config()).unwrap();
        index.warm(320).unwrap();
        index.save_snapshot(&path).unwrap();
        let mut reloaded = DeltaIndex::load_snapshot(g, sketch_config(), &path).unwrap();
        assert_eq!(reloaded.pool_len(), index.pool_len());
        assert_eq!(reloaded.validation_pool().len(), 0);
        assert_eq!(reloaded.sketch_state(), index.sketch_state());
        // The reloaded index continues the identical chunk stream.
        index.warm(640).unwrap();
        reloaded.warm(640).unwrap();
        assert_eq!(reloaded.sketch_state(), index.sketch_state());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sentinel_snapshot_round_trips() {
        let dir = std::env::temp_dir().join("subsim_delta_sentinel_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.subsimix");
        let g = barabasi_albert(200, 3, WeightModel::Wc, 37);
        let mut index = DeltaIndex::new(g.clone(), sentinel_config()).unwrap();
        index.warm(320).unwrap();
        index.save_snapshot(&path).unwrap();
        let reloaded = DeltaIndex::load_snapshot(g, sentinel_config(), &path).unwrap();
        let a = index.sentinel_state().unwrap();
        let b = reloaded.sentinel_state().expect("sentinel state reloaded");
        assert_eq!(a.set.nodes(), b.set.nodes());
        assert_eq!(a.from_chunk, b.from_chunk);
        assert_eq!(a.chunk_hits_r1, b.chunk_hits_r1);
        assert_eq!(a.chunk_hits_r2, b.chunk_hits_r2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_round_trip_and_stale_rejection() {
        let dir = std::env::temp_dir().join("subsim_delta_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.subsimix");
        let g = barabasi_albert(150, 3, WeightModel::Wc, 33);
        let mut index = DeltaIndex::new(g.clone(), config()).unwrap();
        index.warm(200).unwrap();
        index.save_snapshot(&path).unwrap();

        let reloaded = DeltaIndex::load_snapshot(g.clone(), config(), &path).unwrap();
        assert_eq!(reloaded.pool_len(), index.pool_len());
        for i in 0..index.pool_len() {
            assert_eq!(
                reloaded.selection_pool().get(i),
                index.selection_pool().get(i)
            );
        }

        // Mutate, snapshot at version 1, then try loading it against
        // version 0: typed SnapshotMismatch, no panic.
        index
            .apply_delta(&GraphDelta::new().insert_edge(0, 149, 0.5))
            .unwrap();
        index.save_snapshot(&path).unwrap();
        let err = DeltaIndex::load_snapshot(g, config(), &path).unwrap_err();
        assert!(
            matches!(err, DeltaError::Index(IndexError::SnapshotMismatch { .. })),
            "got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}
