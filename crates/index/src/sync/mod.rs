//! Concurrent serving on top of [`RrIndex`]'s deterministic pool.
//!
//! [`ConcurrentRrIndex`] splits the index into an immutable, atomically
//! swappable [`PoolState`] (one arena with the two RR halves, plus the
//! chunk cursor, held behind `Arc`) and a mutex-guarded writer that performs
//! chunk-deterministic top-ups off to the side. Query threads briefly take
//! a read lock only to clone the `Arc`, then run greedy + bounds entirely
//! on their private snapshot — no lock is held during certification, and a
//! snapshot can never be observed mid-growth (no torn reads by
//! construction).
//!
//! Determinism is inherited, not re-proven: growth runs the same
//! one-arena [`PoolState::grow_to`] step as the sequential index, so pool
//! *content at any size* is a pure function of `(seed, strategy,
//! chunk_size, size)` regardless of how many threads raced, which queries
//! triggered growth, or how top-ups were sliced. Concurrent interleavings
//! may change how far the pool has grown at a given moment — never what
//! any prefix of it contains. The snapshot carries the arena's resident
//! inverted index, so no certification round rebuilds it.
//!
//! Observability lives in [`IndexMetrics`]: relaxed atomic counters and a
//! log₂ latency histogram updated by query and writer threads without
//! locks, snapshottable as JSON for `--stats-out`.

mod metrics;

pub use metrics::{
    quantile_ns, IndexMetrics, LatencyHistogram, MetricsSnapshot, TenantCounters, TenantMetrics,
};

use crate::certify::{certified_query, CertifiedPool, PoolView};
use crate::error::IndexError;
use crate::index::{IndexConfig, QueryAnswer, RrIndex};
use crate::pool::PoolState;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;
use subsim_diffusion::pool::WorkerPool;
use subsim_diffusion::RrSampler;
use subsim_graph::Graph;

/// A concurrently queryable [`RrIndex`]: shared `&self` queries from any
/// number of threads, with pool growth serialized through one writer and
/// published as immutable snapshots.
///
/// ```
/// use subsim_index::{ConcurrentRrIndex, IndexConfig};
/// use subsim_diffusion::RrStrategy;
/// use subsim_graph::{generators, WeightModel};
///
/// let g = generators::star_graph(50, WeightModel::UniformIc { p: 0.5 });
/// let index = ConcurrentRrIndex::new(&g, IndexConfig::new(RrStrategy::SubsimIc).seed(7));
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             let ans = index.query(1, 0.1, 0.01).unwrap();
///             assert_eq!(ans.seeds, vec![0]); // the hub dominates
///         });
///     }
/// });
/// assert_eq!(index.metrics().queries, 4);
/// ```
pub struct ConcurrentRrIndex<'g> {
    g: &'g Graph,
    config: IndexConfig,
    sampler: RrSampler<'g>,
    snapshot: RwLock<Arc<PoolState>>,
    /// Serializes growth and owns the persistent generation workers —
    /// spawned once at construction and reused across every top-up, so
    /// growth rounds never pay thread-spawn cost. All pool state lives in
    /// the published snapshot (the guard's critical section is the only
    /// place a successor snapshot is ever constructed).
    writer: Mutex<WorkerPool>,
    metrics: IndexMetrics,
}

impl std::fmt::Debug for ConcurrentRrIndex<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.load();
        f.debug_struct("ConcurrentRrIndex")
            .field("config", &self.config)
            .field("chunks", &snap.chunks)
            .field("pool_len", &snap.pool_len())
            .finish_non_exhaustive()
    }
}

impl<'g> ConcurrentRrIndex<'g> {
    /// An empty concurrent index over `g`; the first query (or
    /// [`ConcurrentRrIndex::warm`]) populates the pool.
    pub fn new(g: &'g Graph, config: IndexConfig) -> Self {
        Self::from_index(RrIndex::new(g, config))
    }

    /// Wraps a sequential index (possibly warmed or loaded from a
    /// snapshot file) for concurrent serving. The pool carries over
    /// unchanged; lifetime counters restart.
    pub fn from_index(index: RrIndex<'g>) -> Self {
        let g = index.g;
        let (config, pool) = index.into_state();
        ConcurrentRrIndex {
            g,
            config,
            sampler: RrSampler::new(g, config.strategy),
            snapshot: RwLock::new(Arc::new(pool)),
            writer: Mutex::new(WorkerPool::new(config.threads)),
            metrics: IndexMetrics::default(),
        }
    }

    /// Converts back into a sequential index over the current snapshot
    /// (e.g. to [`RrIndex::save`] it). Requires exclusive ownership, so no
    /// reader can be left holding a stale view.
    pub fn into_index(self) -> RrIndex<'g> {
        let snap = self.snapshot.into_inner().expect("snapshot lock poisoned");
        let pool = Arc::try_unwrap(snap).unwrap_or_else(|arc| (*arc).clone());
        RrIndex::from_state(self.g, self.config, pool)
            .expect("a published snapshot is consistent with its pool")
    }

    /// The indexed graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The construction-time configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The current published snapshot. The returned `Arc` is a stable
    /// view: its content never changes, even while the writer publishes
    /// successors.
    pub fn load(&self) -> Arc<PoolState> {
        Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned"))
    }

    /// A point-in-time copy of the serving metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Pre-grows the pool to at least `sets` per half (rounded up to a
    /// whole number of chunks), e.g. to warm an index before serving.
    pub fn warm(&self, sets: usize) -> Result<(), IndexError> {
        self.grow_to(sets)?;
        Ok(())
    }

    /// Answers one IM query: `k` seeds at accuracy `ε` and failure
    /// probability `δ`, certified by the OPIM bounds over a snapshot of
    /// the pool. Safe to call from any number of threads concurrently;
    /// behavior per query matches [`RrIndex::query`], with growth rounds
    /// delegated to the shared writer (a thread that finds the pool
    /// already grown past its target reuses it instead of generating).
    pub fn query(&self, k: usize, epsilon: f64, delta: f64) -> Result<QueryAnswer, IndexError> {
        let mut reader = Reader {
            index: self,
            snap: self.load(),
        };
        let answer = certified_query(&mut reader, k, epsilon, delta, self.config.threads)?;
        self.metrics.record_query(&answer.stats);
        Ok(answer)
    }

    /// Runs `step` on a copy of the current snapshot under the writer
    /// lock — unless `done` says another writer already did the work —
    /// and publishes the result if the pool changed. Returns the snapshot
    /// to continue with and the sets `step` generated.
    fn write(
        &self,
        done: impl Fn(&PoolState) -> bool,
        step: impl FnOnce(&mut PoolState, &WorkerPool) -> Result<usize, IndexError>,
    ) -> Result<(Arc<PoolState>, usize), IndexError> {
        let snap = self.load();
        if done(&snap) {
            return Ok((snap, 0));
        }
        let workers = self.writer.lock().expect("writer lock poisoned");
        // Re-check under the guard: another writer may have finished
        // while this thread waited.
        let base = self.load();
        if done(&base) {
            return Ok((base, 0));
        }
        let mut next = PoolState::clone(&base);
        let result = step(&mut next, &workers);
        // Complete slices publish even when a later one failed, so the
        // pool keeps the progress a failed top-up made (as the
        // sequential index does).
        let changed =
            next.chunks != base.chunks || next.sketch_precision() != base.sketch_precision();
        let snap = if changed { self.publish(next) } else { base };
        result.map(|generated| (snap, generated))
    }

    fn publish(&self, pool: PoolState) -> Arc<PoolState> {
        let snap = Arc::new(pool);
        *self.snapshot.write().expect("snapshot lock poisoned") = Arc::clone(&snap);
        self.metrics
            .snapshot_publishes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.metrics.record_pool(&snap);
        snap
    }

    /// Grows the pool to at least `target_sets` per half, continuing the
    /// deterministic chunk stream. Only one thread generates at a time;
    /// a thread that finds the pool already grown reuses it.
    fn grow_to(&self, target_sets: usize) -> Result<(Arc<PoolState>, usize), IndexError> {
        let needed = target_sets.div_ceil(self.config.chunk_size) as u64;
        self.write(
            |pool| pool.chunks >= needed,
            |pool, workers| {
                pool.grow_to(
                    &self.sampler,
                    std::slice::from_ref(workers),
                    &self.config,
                    target_sets,
                    &mut |b| self.metrics.record_generated(b),
                )
            },
        )
    }

    /// The ladder step above `observed`; a no-op when a racing thread
    /// already promoted past it.
    fn promote_sketch(&self, observed: u8) -> Result<(Arc<PoolState>, usize), IndexError> {
        self.write(
            |pool| pool.sketch_precision() != Some(observed),
            |pool, workers| {
                pool.promote_sketch(
                    &self.sampler,
                    std::slice::from_ref(workers),
                    &self.config,
                    &mut |b| self.metrics.record_generated(b),
                )
            },
        )
    }
}

/// One query's handle on a [`ConcurrentRrIndex`]: the snapshot the query
/// currently reads, replaced by whatever growth publishes.
struct Reader<'a, 'g> {
    index: &'a ConcurrentRrIndex<'g>,
    snap: Arc<PoolState>,
}

impl CertifiedPool for Reader<'_, '_> {
    type Error = IndexError;

    fn view(&self) -> PoolView<'_> {
        self.snap.view(self.index.g)
    }

    fn grow_to(&mut self, target_sets: usize) -> Result<usize, IndexError> {
        let (snap, added) = self.index.grow_to(target_sets)?;
        self.snap = snap;
        Ok(added)
    }

    fn promote_sketch(&mut self, observed: u8) -> Result<usize, IndexError> {
        let (snap, added) = self.index.promote_sketch(observed)?;
        self.snap = snap;
        Ok(added)
    }

    fn record_selection(&self, elapsed: Duration) {
        self.index.metrics.record_selection(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_diffusion::RrStrategy;
    use subsim_graph::generators::{barabasi_albert, star_graph};
    use subsim_graph::WeightModel;

    fn config() -> IndexConfig {
        IndexConfig::new(RrStrategy::SubsimIc)
            .seed(5)
            .chunk_size(64)
    }

    #[test]
    fn matches_sequential_index_exactly_when_unraced() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 1);
        let mut seq = RrIndex::new(&g, config());
        let conc = ConcurrentRrIndex::new(&g, config());
        for (k, eps) in [(5usize, 0.1f64), (2, 0.2), (5, 0.1)] {
            let a = seq.query(k, eps, 0.01).unwrap();
            let b = conc.query(k, eps, 0.01).unwrap();
            assert_eq!(a.seeds, b.seeds, "k={k} eps={eps}");
            assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
            assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
            assert_eq!(a.stats.pool_after, b.stats.pool_after);
            assert_eq!(a.stats.fresh_sets, b.stats.fresh_sets);
        }
    }

    #[test]
    fn snapshot_is_stable_across_growth() {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 2);
        let conc = ConcurrentRrIndex::new(&g, config());
        conc.warm(128).unwrap();
        let before = conc.load();
        let first: Vec<_> = (0..before.pool_len())
            .map(|i| before.selection_pool().get(i).to_vec())
            .collect();
        conc.warm(1024).unwrap();
        // The old Arc still shows exactly the old pool.
        assert_eq!(before.pool_len(), 128);
        for (i, rr) in first.iter().enumerate() {
            assert_eq!(before.selection_pool().get(i), rr.as_slice());
        }
        // And the new snapshot extends it, bit-identical on the prefix.
        let after = conc.load();
        assert!(after.pool_len() >= 1024);
        for (i, rr) in first.iter().enumerate() {
            assert_eq!(after.selection_pool().get(i), rr.as_slice(), "set {i}");
        }
    }

    #[test]
    fn from_and_into_index_round_trip() {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 3);
        let mut seq = RrIndex::new(&g, config());
        seq.warm(256).unwrap();
        let conc = ConcurrentRrIndex::from_index(seq);
        conc.warm(512).unwrap();
        let back = conc.into_index();
        assert_eq!(back.pool_len(), 512);
        assert_eq!(back.chunk_cursor(), 8);
        // Still continues the same stream as a fresh sequential index.
        let mut fresh = RrIndex::new(&g, config());
        fresh.warm(512).unwrap();
        for i in 0..fresh.pool_len() {
            assert_eq!(back.selection_pool().get(i), fresh.selection_pool().get(i));
        }
    }

    #[test]
    fn budget_error_publishes_partial_progress() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 4);
        let conc = ConcurrentRrIndex::new(&g, config().max_nodes(200));
        let err = conc.query(10, 0.05, 0.001).unwrap_err();
        assert!(matches!(err, IndexError::MemoryBudget { .. }));
        // Partial growth was published, exactly like the sequential index
        // keeps partial progress.
        assert!(conc.load().pool_len() > 0);
        let mut seq = RrIndex::new(&g, config().max_nodes(200));
        seq.query(10, 0.05, 0.001).unwrap_err();
        assert_eq!(conc.load().pool_len(), seq.pool_len());
    }

    #[test]
    fn rejects_invalid_queries() {
        let g = star_graph(10, WeightModel::Wc);
        let conc = ConcurrentRrIndex::new(&g, config());
        assert!(matches!(
            conc.query(0, 0.1, 0.01),
            Err(IndexError::Options(_))
        ));
        assert!(matches!(
            conc.query(2, 0.9, 0.01),
            Err(IndexError::Options(_))
        ));
    }

    #[test]
    fn sentinel_growth_matches_sequential_index() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 6);
        let mut seq = RrIndex::new(&g, config().sentinels(2));
        let conc = ConcurrentRrIndex::new(&g, config().sentinels(2));
        seq.warm(640).unwrap();
        conc.warm(640).unwrap();
        let snap = conc.load();
        assert_eq!(snap.sentinel_state(), seq.sentinel_state());
        for i in 0..seq.pool_len() {
            assert_eq!(snap.selection_pool().get(i), seq.selection_pool().get(i));
            assert_eq!(snap.validation_pool().get(i), seq.validation_pool().get(i));
        }
        // Warm queries answer identically (same pool, same sentinel-aware
        // certification), and the concurrent side records sentinel metrics.
        let a = seq.query(5, 0.1, 0.01).unwrap();
        let b = conc.query(5, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        let m = conc.metrics();
        assert!(m.truncated_sets_generated > 0);
        assert!(m.sentinel_hits > 0);
        assert!(m.mean_rr_size_truncated < m.mean_rr_size_plain);
        // Round-tripping back out keeps the sentinel state.
        let back = conc.into_index();
        assert_eq!(back.sentinel_state(), seq.sentinel_state());
    }

    #[test]
    fn sketched_growth_and_queries_match_sequential_index() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 7);
        let mut seq = RrIndex::new(&g, config().sketch(6));
        let conc = ConcurrentRrIndex::new(&g, config().sketch(6));
        seq.warm(640).unwrap();
        conc.warm(640).unwrap();
        let snap = conc.load();
        assert_eq!(snap.sketch_state(), seq.sketch_state());
        assert_eq!(snap.validation_pool().len(), 0);
        for i in 0..seq.pool_len() {
            assert_eq!(snap.selection_pool().get(i), seq.selection_pool().get(i));
        }
        drop(snap);
        // Warm queries answer identically: same pool, same slack-adjusted
        // certificate, same ladder decisions.
        let a = seq.query(5, 0.1, 0.01).unwrap();
        let b = conc.query(5, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        assert_eq!(a.stats.pool_after, b.stats.pool_after);
        assert_eq!(a.stats.fresh_sets, b.stats.fresh_sets);
        // The memory gauges see the sketched tier.
        let m = conc.metrics();
        assert!(m.sketch_pool_bytes > 0);
        assert!(m.sketch_displaced_bytes > 0);
        assert!(m.sketch_compression > 0.0);
        // Round-tripping back out keeps the sketch state — including a
        // possible ladder promotion, on which both stacks must agree.
        let back = conc.into_index();
        assert_eq!(back.sketch_state(), seq.sketch_state());
        assert_eq!(back.config().sketch, seq.config().sketch);
    }

    #[test]
    fn metrics_track_queries_and_publishes() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 5);
        let conc = ConcurrentRrIndex::new(&g, config());
        conc.query(5, 0.1, 0.01).unwrap();
        conc.query(5, 0.1, 0.01).unwrap();
        let m = conc.metrics();
        assert_eq!(m.queries, 2);
        assert!(m.snapshot_publishes >= 1);
        assert!(m.exact_pool_bytes > 0);
        assert_eq!(m.sketch_pool_bytes, 0, "sketch tier off → gauge stays 0");
        assert_eq!(m.sketch_compression, 0.0);
        assert!(m.fresh_sets > 0);
        assert!(m.reused_sets > 0, "second query must reuse the pool");
        assert!(m.cache_hit_ratio > 0.0);
        assert!(m.latency_p50_ns > 0);
        assert!(m.rr_sets_generated as usize == 2 * conc.load().pool_len());
    }
}
