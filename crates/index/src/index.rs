//! The amortized RR-sketch index.

use crate::certify::{certified_query, CertifiedPool, PoolView};
use crate::error::IndexError;
use crate::pool::PoolState;
use crate::stats::{IndexCounters, QueryStats};
use subsim_core::sentinel::SentinelSet;
use subsim_diffusion::pool::{ChunkHook, WorkerPool};
use subsim_diffusion::{RrCollection, RrSampler, RrStrategy};
use subsim_graph::{Graph, NodeId};
use subsim_sketch::{SketchedPool, MAX_PRECISION, MIN_PRECISION};

/// Stream separator between the two pool halves: `R₂`'s chunk seeds are
/// derived from `seed ^ R2_STREAM` so the halves are independent samples.
///
/// Public so out-of-crate pool owners (the delta-repair engine) can
/// regenerate `R₂` chunks on the exact stream this index uses.
pub const R2_STREAM: u64 = 0xd2b7_4407_b1ce_6e93;

/// Chunks per half generated *plain* before the sentinel tier activates
/// (when [`IndexConfig::sentinels`] `> 0`).
///
/// The warmup prefix serves two purposes: it is the i.i.d. sample the
/// sentinel set is selected over (a hitting set needs untruncated sets to
/// hit), and it anchors determinism — a sentinel pool's content is a pure
/// function of `(config, size)` because the boundary is a constant, not a
/// query-order artifact.
pub const SENTINEL_WARMUP_CHUNKS: u64 = 4;

/// Sentinel tier state of one pool: the set `Z`, the chunk boundary where
/// truncation starts, and per-chunk hit counters for both halves.
///
/// Chunks `0..from_chunk` are plain (Algorithm 5 never ran); chunks at or
/// above `from_chunk` were generated with every traversal stopping at the
/// first `Z` member it visits. The hit vectors are indexed by chunk id
/// (length = chunk cursor, zero below `from_chunk`), so chunk-granular
/// delta repair can keep them consistent when it regenerates a chunk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SentinelState {
    /// The sentinel set, in greedy pick order (order matters: queries
    /// with `k < |Z|` answer with the prefix `Z[..k]`).
    pub set: SentinelSet,
    /// First chunk generated under truncation.
    pub from_chunk: u64,
    /// Sentinel hits per `R₁` chunk, indexed by chunk id.
    pub chunk_hits_r1: Vec<u64>,
    /// Sentinel hits per `R₂` chunk, indexed by chunk id.
    pub chunk_hits_r2: Vec<u64>,
}

impl SentinelState {
    /// Total sentinel hits across both halves.
    pub fn total_hits(&self) -> u64 {
        self.chunk_hits_r1.iter().sum::<u64>() + self.chunk_hits_r2.iter().sum::<u64>()
    }

    /// Chunks per half generated under truncation so far.
    pub fn truncated_chunks(&self) -> u64 {
        (self.chunk_hits_r1.len() as u64).saturating_sub(self.from_chunk)
    }

    /// Fraction of truncated traversals that stopped at a sentinel
    /// (`0.0` before any truncated chunk exists). The testkit's oracle
    /// tier checks this against the exact stop rate `σ(Z)/n`.
    pub fn hit_rate(&self, chunk_size: usize) -> f64 {
        let sets = 2 * self.truncated_chunks() * chunk_size as u64;
        if sets == 0 {
            0.0
        } else {
            self.total_hits() as f64 / sets as f64
        }
    }

    /// Structural validity against a pool's `(n, chunks)`: boundary inside
    /// the cursor, one hit counter per chunk in each half, all sentinel
    /// nodes in range. Returns a human-readable reason on failure.
    pub fn validate(&self, n: usize, chunks: u64) -> Result<(), String> {
        if self.from_chunk > chunks {
            return Err(format!(
                "sentinel boundary {} is beyond the chunk cursor {chunks}",
                self.from_chunk
            ));
        }
        for (half, hits) in [("r1", &self.chunk_hits_r1), ("r2", &self.chunk_hits_r2)] {
            if hits.len() as u64 != chunks {
                return Err(format!(
                    "sentinel {half} hit counters cover {} chunks, cursor is {chunks}",
                    hits.len()
                ));
            }
        }
        if let Some(&v) = self.set.nodes().iter().find(|&&v| v as usize >= n) {
            return Err(format!("sentinel node {v} out of range for {n} nodes"));
        }
        Ok(())
    }
}

/// Construction-time parameters of an [`RrIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexConfig {
    /// RR-generation strategy the pool is sampled with.
    pub strategy: RrStrategy,
    /// Root of the deterministic chunk-seed stream.
    pub seed: u64,
    /// Worker threads for pool top-ups (pool *content* is independent of
    /// this — only wall-clock changes).
    pub threads: usize,
    /// Sets per generation chunk. Pool sizes are always a whole number of
    /// chunks, which is what makes the RNG cursor a single integer and
    /// top-ups order-independent.
    pub chunk_size: usize,
    /// Cap on arena node entries across both pool halves; growth past it
    /// fails with [`IndexError::MemoryBudget`] instead of eating all RAM.
    pub max_nodes: Option<usize>,
    /// Sentinel-set size `b` for the sentinel pool tier; `0` (the
    /// default) keeps the pool fully plain. When positive, the pool grows
    /// [`SENTINEL_WARMUP_CHUNKS`] plain chunks, selects `b` sentinels
    /// over them, and generates every later chunk under Algorithm 5
    /// truncation — warm queries re-certify the OPIM union bound through
    /// the sentinel round of [`mod@crate::certify`], keeping the full
    /// `(k, ε, δ)` guarantee.
    pub sentinels: usize,
    /// Sketched validation-pool tier: `0` (the default) keeps `R₂` an
    /// exact arena; a value in
    /// [`MIN_PRECISION`]`..=`[`MAX_PRECISION`] compresses `R₂`
    /// into per-node count-distinct sketches at that register precision
    /// (`m = 2^p` registers). Selection stays exact, the Eq. 1 bound is
    /// evaluated from the sketches' union estimate with conservative
    /// slack (see [`mod@crate::certify`]), and queries that fail *on
    /// slack* promote the precision (the error-adaptive ladder) by regenerating
    /// the deterministic `R₂` stream. Mutually exclusive with `sentinels`
    /// (truncated sets would poison the cardinality estimates).
    ///
    /// Promotion updates this field: it always names the precision of
    /// the live sketch.
    pub sketch: usize,
}

impl IndexConfig {
    /// Defaults: seed 0, single-threaded top-ups, 256-set chunks, no
    /// memory budget.
    pub fn new(strategy: RrStrategy) -> Self {
        IndexConfig {
            strategy,
            seed: 0,
            threads: 1,
            chunk_size: 256,
            max_nodes: None,
            sentinels: 0,
            sketch: 0,
        }
    }

    /// Sets the seed-stream root.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the top-up worker count.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        self.threads = threads;
        self
    }

    /// Sets the chunk size.
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunks must hold at least one set");
        self.chunk_size = chunk_size;
        self
    }

    /// Sets the node budget.
    pub fn max_nodes(mut self, max_nodes: usize) -> Self {
        self.max_nodes = Some(max_nodes);
        self
    }

    /// Enables the sentinel tier with a sentinel set of size `b`
    /// (`0` disables it).
    pub fn sentinels(mut self, b: usize) -> Self {
        self.sentinels = b;
        self
    }

    /// Enables the sketched validation-pool tier at register precision
    /// `p` (`0` disables it).
    pub fn sketch(mut self, p: usize) -> Self {
        assert!(
            p == 0 || (MIN_PRECISION as usize..=MAX_PRECISION as usize).contains(&p),
            "sketch precision {p} outside {MIN_PRECISION}..={MAX_PRECISION}"
        );
        self.sketch = p;
        self
    }
}

/// Seeds plus the per-query record.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// Selected seeds, in greedy pick order.
    pub seeds: Vec<NodeId>,
    /// What the query cost and certified.
    pub stats: QueryStats,
}

/// A long-lived, incrementally grown pool of RR sets over one fixed
/// `(graph, weights, strategy)` that answers repeated IM queries.
///
/// The pool holds two independent halves, exactly like OPIM-C's `R₁`/`R₂`:
/// greedy selection and the Eq. 2 upper bound read `R₁`; the Eq. 1 lower
/// bound reads `R₂`, which selection never touches. A query certifies
/// against the *current* pool first and only generates more sets
/// (doubling, up to Eq. 4's `θ_max`) when the certificate fails — so query
/// 1 pays roughly an OPIM-C run, and subsequent queries at comparable
/// `(k, ε)` reuse the warmed pool for near-free.
///
/// Growth is chunked and the chunk stream is deterministic (see
/// [`subsim_diffusion::parallel::par_generate_chunks`]): the pool content
/// is a pure function of `(seed, strategy, chunk_size, chunk count)`, so
/// query order, thread count, and snapshot round-trips never change what
/// any later query sees at a given pool size.
///
/// ```
/// use subsim_index::{IndexConfig, RrIndex};
/// use subsim_diffusion::RrStrategy;
/// use subsim_graph::{generators, WeightModel};
///
/// let g = generators::star_graph(50, WeightModel::UniformIc { p: 0.5 });
/// let mut index = RrIndex::new(&g, IndexConfig::new(RrStrategy::SubsimIc).seed(7));
/// let first = index.query(1, 0.1, 0.01).unwrap();
/// assert_eq!(first.seeds, vec![0]); // the hub dominates
/// let second = index.query(1, 0.1, 0.01).unwrap();
/// assert_eq!(second.stats.fresh_sets, 0); // fully served from the pool
/// ```
pub struct RrIndex<'g> {
    pub(crate) g: &'g Graph,
    pub(crate) config: IndexConfig,
    sampler: RrSampler<'g>,
    pub(crate) pool: PoolState,
    counters: IndexCounters,
    /// Persistent generation workers, spawned on the first top-up and
    /// reused across growth rounds (rebuilt if `threads` changes).
    workers: Option<WorkerPool>,
    /// Fault-injection hook forwarded to the workers on every top-up.
    chunk_hook: Option<ChunkHook>,
}

impl std::fmt::Debug for RrIndex<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RrIndex")
            .field("config", &self.config)
            .field("chunks", &self.pool.chunks)
            .field("r1_sets", &self.pool.selection_pool().len())
            .field("r2_sets", &self.pool.validation_pool().len())
            .finish_non_exhaustive()
    }
}

impl<'g> RrIndex<'g> {
    /// An empty index over `g`; the first query (or [`RrIndex::warm`])
    /// populates the pool.
    pub fn new(g: &'g Graph, config: IndexConfig) -> Self {
        Self::with_pool(g, config, PoolState::empty(g.n(), &config, 1))
    }

    fn with_pool(g: &'g Graph, config: IndexConfig, pool: PoolState) -> Self {
        RrIndex {
            g,
            config,
            sampler: RrSampler::new(g, config.strategy),
            pool,
            counters: IndexCounters::default(),
            workers: None,
            chunk_hook: None,
        }
    }

    /// Rebuilds an index from an externally held pool — the seam for
    /// pool owners outside the borrow (snapshot loading, the delta-repair
    /// engine, the concurrent and sharded serving layers). Validates the
    /// chunk accounting: `R₁` holds exactly `chunks · chunk_size` sets
    /// over `g`, and so does `R₂` unless a sketch holds the validation
    /// half (then `R₂` is empty); the tier states must pass
    /// [`RrIndex::set_sentinel_state`] and [`RrIndex::set_sketch_state`].
    /// A sketch sets `config.sketch` to its precision.
    pub fn from_state(
        g: &'g Graph,
        config: IndexConfig,
        state: PoolState,
    ) -> Result<Self, IndexError> {
        let mismatch = |reason: String| IndexError::SnapshotMismatch { reason };
        if state.arena_count() != 1 {
            return Err(mismatch(format!(
                "pool has {} arenas, a sequential index holds one",
                state.arena_count()
            )));
        }
        let (r1, r2) = (state.selection_pool(), state.validation_pool());
        if r1.graph_n() != g.n() || r2.graph_n() != g.n() {
            return Err(mismatch(format!(
                "pool halves are over {}/{} nodes, graph has {}",
                r1.graph_n(),
                r2.graph_n(),
                g.n()
            )));
        }
        let expect = state.chunks as usize * config.chunk_size;
        let expect_r2 = if state.sketch_state().is_some() {
            0
        } else {
            expect
        };
        if r1.len() != expect || r2.len() != expect_r2 {
            return Err(mismatch(format!(
                "pool halves hold {}/{} sets, chunk cursor {} × chunk size {} requires {}/{}",
                r1.len(),
                r2.len(),
                state.chunks,
                config.chunk_size,
                expect,
                expect_r2
            )));
        }
        let mut pool = state;
        let sentinel = pool.sentinel.take();
        let sketch = pool.set_sketch(None);
        let mut index = Self::with_pool(g, config, pool);
        index.set_sentinel_state(sentinel)?;
        index.set_sketch_state(sketch)?;
        Ok(index)
    }

    /// Decomposes the index into its configuration and pool — the inverse
    /// of [`RrIndex::from_state`]. Lifetime counters are dropped.
    pub fn into_state(self) -> (IndexConfig, PoolState) {
        (self.config, self.pool)
    }

    /// Installs (or clears) a fault-injection hook on the generation
    /// workers — see [`WorkerPool::set_chunk_hook`]. Test instrumentation;
    /// production code leaves it unset.
    #[doc(hidden)]
    pub fn set_chunk_hook(&mut self, hook: Option<ChunkHook>) {
        self.chunk_hook = hook;
        if let Some(workers) = &self.workers {
            workers.set_chunk_hook(self.chunk_hook.clone());
        }
    }

    /// The sentinel tier state, if active.
    pub fn sentinel_state(&self) -> Option<&SentinelState> {
        self.pool.sentinel.as_ref()
    }

    /// Installs (or clears) externally held sentinel state. The state
    /// must be structurally consistent with the current pool
    /// ([`SentinelState::validate`]).
    pub fn set_sentinel_state(&mut self, state: Option<SentinelState>) -> Result<(), IndexError> {
        if let Some(st) = &state {
            st.validate(self.g.n(), self.pool.chunks)
                .map_err(|reason| IndexError::SnapshotMismatch { reason })?;
        }
        self.pool.sentinel = state;
        Ok(())
    }

    /// The sketched validation pool, if the sketch tier is active.
    pub fn sketch_state(&self) -> Option<&SketchedPool> {
        self.pool.sketch_state()
    }

    /// Installs (or clears) an externally held sketched validation pool.
    /// The pool must be structurally consistent with the index: same
    /// graph size and chunk size, covering exactly chunks `0..chunks`.
    pub fn set_sketch_state(&mut self, state: Option<SketchedPool>) -> Result<(), IndexError> {
        if let Some(sk) = &state {
            let mismatch = |reason: String| IndexError::SnapshotMismatch { reason };
            if sk.graph_n() != self.g.n() {
                return Err(mismatch(format!(
                    "sketch is over {} nodes, graph has {}",
                    sk.graph_n(),
                    self.g.n()
                )));
            }
            if sk.chunk_size() != self.config.chunk_size {
                return Err(mismatch(format!(
                    "sketch chunk size {} != index chunk size {}",
                    sk.chunk_size(),
                    self.config.chunk_size
                )));
            }
            let chunks = self.pool.chunks;
            if sk.num_chunks() as u64 != chunks
                || sk
                    .chunk_ids()
                    .last()
                    .is_some_and(|&last| last + 1 != chunks)
            {
                return Err(mismatch(format!(
                    "sketch covers {} chunks (last id {:?}), chunk cursor is {}",
                    sk.num_chunks(),
                    sk.chunk_ids().last(),
                    chunks
                )));
            }
            self.config.sketch = sk.precision() as usize;
        }
        self.pool.set_sketch(state);
        Ok(())
    }

    /// The indexed graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The construction-time configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Refuses an index whose pool was generated under a different RR
    /// strategy than `expected`. The guard every snapshot-loading path
    /// calls before adopting a loaded pool: an LT snapshot served by an
    /// IC-configured server (or vice versa) would answer queries under
    /// the wrong diffusion model without any further error, so the
    /// disagreement must surface as a typed refusal at load time.
    pub fn ensure_strategy(&self, expected: RrStrategy) -> Result<(), IndexError> {
        if self.config.strategy == expected {
            return Ok(());
        }
        Err(IndexError::SnapshotMismatch {
            reason: format!(
                "snapshot pool was generated under {:?}, server is configured for {expected:?}",
                self.config.strategy
            ),
        })
    }

    /// Sets per pool half.
    pub fn pool_len(&self) -> usize {
        self.pool.pool_len()
    }

    /// Arena node entries across both halves (what
    /// [`IndexConfig::max_nodes`] caps).
    pub fn total_nodes(&self) -> usize {
        self.pool.nodes_in_use()
    }

    /// The RNG cursor: complete chunks generated per half.
    pub fn chunk_cursor(&self) -> u64 {
        self.pool.chunks
    }

    /// Resident bytes of the sketched validation pool (`0` when the
    /// index is exact), and the exact-arena bytes it displaces — the
    /// pair behind `IndexMetrics`' compression ratio.
    pub fn sketch_bytes(&self) -> (u64, u64) {
        self.pool.sketch_state().map_or((0, 0), |sk| {
            (sk.resident_bytes(), sk.displaced_exact_bytes())
        })
    }

    /// The selection half `R₁` (read-only).
    pub fn selection_pool(&self) -> &RrCollection {
        self.pool.selection_pool()
    }

    /// The validation half `R₂` (read-only).
    pub fn validation_pool(&self) -> &RrCollection {
        self.pool.validation_pool()
    }

    /// Lifetime counters.
    pub fn counters(&self) -> &IndexCounters {
        &self.counters
    }

    /// Changes the top-up worker count (pool content is unaffected). The
    /// persistent worker pool is re-spawned on the next top-up.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads > 0, "need at least one worker");
        if self.config.threads != threads {
            self.config.threads = threads;
            self.workers = None;
        }
    }

    /// Changes or clears the node budget.
    pub fn set_max_nodes(&mut self, max_nodes: Option<usize>) {
        self.config.max_nodes = max_nodes;
    }

    /// Pre-grows the pool to at least `sets` per half (rounded up to a
    /// whole number of chunks), e.g. to warm an index before serving.
    pub fn warm(&mut self, sets: usize) -> Result<(), IndexError> {
        self.grow_to(sets)?;
        Ok(())
    }

    /// Answers one IM query: `k` seeds at accuracy `ε` and failure
    /// probability `δ`, certified by the OPIM bounds over the pool (see
    /// [`certified_query`]).
    pub fn query(&mut self, k: usize, epsilon: f64, delta: f64) -> Result<QueryAnswer, IndexError> {
        let threads = self.config.threads;
        let answer = certified_query(self, k, epsilon, delta, threads)?;
        let stats = &answer.stats;
        self.counters.queries += 1;
        if stats.certified_by_bounds {
            self.counters.certified_queries += 1;
        }
        self.counters.sets_reused += stats.reused_sets() as u64;
        self.counters.sets_consumed += 2 * stats.pool_after as u64;
        self.counters.query_time += stats.elapsed;
        Ok(answer)
    }

    /// Spawns the persistent workers on first use (or again after a
    /// threads change) and applies the fault hook.
    fn spawn_workers(&mut self) {
        let threads = self.config.threads;
        let workers = self.workers.get_or_insert_with(|| WorkerPool::new(threads));
        if self.chunk_hook.is_some() {
            workers.set_chunk_hook(self.chunk_hook.clone());
        }
    }
}

impl CertifiedPool for RrIndex<'_> {
    type Error = IndexError;

    fn view(&self) -> PoolView<'_> {
        self.pool.view(self.g)
    }

    fn grow_to(&mut self, target_sets: usize) -> Result<usize, IndexError> {
        self.spawn_workers();
        let workers = self.workers.as_ref().expect("workers spawned");
        let counters = &mut self.counters;
        self.pool.grow_to(
            &self.sampler,
            std::slice::from_ref(workers),
            &self.config,
            target_sets,
            &mut |b| counters.record(b),
        )
    }

    fn promote_sketch(&mut self, _observed: u8) -> Result<usize, IndexError> {
        self.spawn_workers();
        let workers = self.workers.as_ref().expect("workers spawned");
        let counters = &mut self.counters;
        let regenerated = self.pool.promote_sketch(
            &self.sampler,
            std::slice::from_ref(workers),
            &self.config,
            &mut |b| counters.record(b),
        )?;
        self.config.sketch = self.pool.sketch_precision().map_or(0, usize::from);
        Ok(regenerated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_graph::generators::{barabasi_albert, star_graph};
    use subsim_graph::WeightModel;

    fn config() -> IndexConfig {
        IndexConfig::new(RrStrategy::SubsimIc)
            .seed(5)
            .chunk_size(64)
    }

    #[test]
    fn first_query_populates_then_reuses() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 1);
        let mut index = RrIndex::new(&g, config());
        let a = index.query(5, 0.1, 0.01).unwrap();
        assert!(a.stats.fresh_sets > 0);
        assert_eq!(a.stats.pool_before, 0);
        assert!(a.stats.certified_by_bounds);
        let b = index.query(5, 0.1, 0.01).unwrap();
        assert_eq!(b.stats.fresh_sets, 0, "warm query regenerated sets");
        assert_eq!(a.seeds, b.seeds, "same pool must give same seeds");
        assert_eq!(index.counters().queries, 2);
        assert!(index.counters().cache_hit_ratio() > 0.0);
    }

    #[test]
    fn star_hub_selected_first() {
        let g = star_graph(50, WeightModel::UniformIc { p: 0.5 });
        let mut index = RrIndex::new(&g, config());
        let ans = index.query(1, 0.1, 0.02).unwrap();
        assert_eq!(ans.seeds, vec![0]);
        assert!(ans.stats.ratio() > ans.stats.target_ratio);
    }

    #[test]
    fn pool_is_pure_function_of_size() {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 2);
        // Index A answers (k=2) then (k=8); index B answers (k=8) only.
        let mut a = RrIndex::new(&g, config());
        a.query(2, 0.1, 0.05).unwrap();
        a.query(8, 0.1, 0.05).unwrap();
        let mut b = RrIndex::new(&g, config());
        b.query(8, 0.1, 0.05).unwrap();
        // Equalize pool sizes, then the halves must be bit-identical.
        let max = a.pool_len().max(b.pool_len());
        a.warm(max).unwrap();
        b.warm(max).unwrap();
        assert_eq!(a.pool_len(), b.pool_len());
        for i in 0..a.pool_len() {
            assert_eq!(
                a.selection_pool().get(i),
                b.selection_pool().get(i),
                "r1 set {i}"
            );
            assert_eq!(
                a.validation_pool().get(i),
                b.validation_pool().get(i),
                "r2 set {i}"
            );
        }
    }

    #[test]
    fn halves_are_distinct_streams() {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 3);
        let mut index = RrIndex::new(&g, config());
        index.warm(500).unwrap();
        let differs = (0..index.pool_len())
            .any(|i| index.selection_pool().get(i) != index.validation_pool().get(i));
        assert!(differs, "R1 and R2 must not be the same sample");
    }

    #[test]
    fn memory_budget_errors_instead_of_growing() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 4);
        let mut index = RrIndex::new(&g, config().max_nodes(200));
        // Tiny budget: the first top-up slice lands over it, the next
        // request must refuse.
        let err = index.query(10, 0.05, 0.001).unwrap_err();
        match err {
            IndexError::MemoryBudget {
                max_nodes, in_use, ..
            } => {
                assert_eq!(max_nodes, 200);
                assert!(in_use >= 200);
            }
            other => panic!("expected MemoryBudget, got {other:?}"),
        }
        // The index remains usable: lift the budget and retry.
        index.set_max_nodes(None);
        let ans = index.query(10, 0.1, 0.01).unwrap();
        assert_eq!(ans.seeds.len(), 10);
    }

    #[test]
    fn rejects_invalid_queries() {
        let g = star_graph(10, WeightModel::Wc);
        let mut index = RrIndex::new(&g, config());
        assert!(matches!(
            index.query(0, 0.1, 0.01),
            Err(IndexError::Options(_))
        ));
        assert!(matches!(
            index.query(2, 0.9, 0.01),
            Err(IndexError::Options(_))
        ));
        assert!(matches!(
            index.query(2, 0.1, 1.5),
            Err(IndexError::Options(_))
        ));
    }

    #[test]
    fn sentinel_tier_activates_after_warmup_and_truncates() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 7);
        let mut index = RrIndex::new(&g, config().sentinels(2));
        // Inside the warmup prefix: still plain.
        index.warm(SENTINEL_WARMUP_CHUNKS as usize * 64).unwrap();
        assert!(index.sentinel_state().is_none());
        assert_eq!(index.counters().truncated_sets, 0);
        // One chunk past it: Z selected over exactly the warmup prefix,
        // and every new chunk generated truncated.
        index
            .warm((SENTINEL_WARMUP_CHUNKS as usize + 4) * 64)
            .unwrap();
        let st = index.sentinel_state().expect("tier active");
        assert_eq!(st.set.len(), 2);
        assert_eq!(st.from_chunk, SENTINEL_WARMUP_CHUNKS);
        assert_eq!(st.chunk_hits_r1.len() as u64, index.chunk_cursor());
        assert_eq!(st.chunk_hits_r2.len() as u64, index.chunk_cursor());
        assert!(st.chunk_hits_r1[..SENTINEL_WARMUP_CHUNKS as usize]
            .iter()
            .all(|&h| h == 0));
        assert_eq!(
            index.counters().sentinel_hits,
            st.total_hits(),
            "lifetime counter and per-chunk vectors must agree"
        );
        assert_eq!(index.counters().truncated_sets, 8 * 64);
        // On a hub-heavy graph the hub sentinel absorbs traversals:
        // truncated sets must be smaller on average.
        assert!(index.counters().sentinel_hits > 0);
        assert!(index.counters().mean_rr_size_truncated() < index.counters().mean_rr_size_plain());
    }

    #[test]
    fn sentinel_pool_is_pure_function_of_size() {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 8);
        let mut a = RrIndex::new(&g, config().sentinels(3));
        // A grows in dribs; B in one jump. Activation is pinned to the
        // warmup boundary, so content must match bit for bit.
        a.warm(80).unwrap();
        a.warm(300).unwrap();
        a.warm(640).unwrap();
        let mut b = RrIndex::new(&g, config().sentinels(3));
        b.warm(640).unwrap();
        assert_eq!(a.sentinel_state(), b.sentinel_state());
        assert_eq!(a.pool_len(), b.pool_len());
        for i in 0..a.pool_len() {
            assert_eq!(a.selection_pool().get(i), b.selection_pool().get(i));
            assert_eq!(a.validation_pool().get(i), b.validation_pool().get(i));
        }
    }

    #[test]
    fn sentinel_queries_certify_with_full_guarantee() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 9);
        let mut index = RrIndex::new(&g, config().sentinels(2));
        index
            .warm((SENTINEL_WARMUP_CHUNKS as usize + 8) * 64)
            .unwrap();
        assert!(index.sentinel_state().is_some());
        // k at and above |Z|: every answer re-certifies the union bound
        // and beats the target ratio.
        for k in [5usize, 2] {
            let ans = index.query(k, 0.1, 0.01).unwrap();
            assert_eq!(ans.seeds.len(), k, "k={k}");
            assert!(ans.stats.certified_by_bounds, "k={k}");
            assert!(ans.stats.ratio() > ans.stats.target_ratio, "k={k}");
        }
        // k below |Z|: the prefix answer's Eq. 1 is conservative (see
        // sentinel.rs docs), so only soundness is guaranteed, not that the
        // loose ratio beats the target.
        let ans = index.query(1, 0.1, 0.01).unwrap();
        assert_eq!(ans.seeds.len(), 1);
        assert!(ans.stats.lower_bound <= ans.stats.upper_bound);
        // k ≥ |Z|: the sentinels lead the seed set (Alg 8 keeps Z).
        let z = index.sentinel_state().unwrap().set.nodes().to_vec();
        let ans = index.query(5, 0.1, 0.01).unwrap();
        assert_eq!(&ans.seeds[..z.len()], z.as_slice());
    }

    #[test]
    fn sentinel_state_install_validates() {
        let g = barabasi_albert(100, 3, WeightModel::Wc, 10);
        let mut index = RrIndex::new(&g, config());
        index.warm(128).unwrap();
        let bad = SentinelState {
            set: SentinelSet::from_nodes(vec![0]),
            from_chunk: 99,
            chunk_hits_r1: vec![0; 2],
            chunk_hits_r2: vec![0; 2],
        };
        assert!(index.set_sentinel_state(Some(bad)).is_err());
        let good = SentinelState {
            set: SentinelSet::from_nodes(vec![0]),
            from_chunk: 2,
            chunk_hits_r1: vec![0; 2],
            chunk_hits_r2: vec![0; 2],
        };
        index.set_sentinel_state(Some(good.clone())).unwrap();
        assert_eq!(index.sentinel_state(), Some(&good));
        index.set_sentinel_state(None).unwrap();
        assert!(index.sentinel_state().is_none());
    }

    #[test]
    fn warm_rounds_to_chunks() {
        let g = barabasi_albert(100, 3, WeightModel::Wc, 6);
        let mut index = RrIndex::new(&g, config());
        index.warm(100).unwrap();
        assert_eq!(index.pool_len(), 128); // 2 chunks of 64
        assert_eq!(index.chunk_cursor(), 2);
        index.warm(50).unwrap(); // no shrink, no growth
        assert_eq!(index.pool_len(), 128);
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn sketch_and_sentinels_refuse_to_combine() {
        let g = star_graph(10, WeightModel::Wc);
        let _ = RrIndex::new(&g, config().sentinels(2).sketch(6));
    }

    #[test]
    fn sketched_pool_is_pure_function_of_size() {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 11);
        // A grows in dribs; B in one jump. Sketch registers are a pure
        // function of pool content, so states must match bit for bit.
        let mut a = RrIndex::new(&g, config().sketch(6));
        a.warm(80).unwrap();
        a.warm(300).unwrap();
        a.warm(640).unwrap();
        let mut b = RrIndex::new(&g, config().sketch(6));
        b.warm(640).unwrap();
        assert_eq!(a.sketch_state(), b.sketch_state());
        assert_eq!(a.pool_len(), b.pool_len());
        assert_eq!(a.validation_pool().len(), 0, "sketched R2 stays empty");
        for i in 0..a.pool_len() {
            assert_eq!(a.selection_pool().get(i), b.selection_pool().get(i));
        }
        // And R1 is the same stream a plain index generates: sketching
        // never perturbs selection.
        let mut plain = RrIndex::new(&g, config());
        plain.warm(640).unwrap();
        for i in 0..plain.pool_len() {
            assert_eq!(a.selection_pool().get(i), plain.selection_pool().get(i));
        }
    }

    #[test]
    fn sketched_query_matches_exact_seeds_at_equal_pool() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 12);
        let mut exact = RrIndex::new(&g, config());
        let mut sk = RrIndex::new(&g, config().sketch(8));
        // Warm both far past the certification point so neither query
        // grows: identical R1 + deterministic greedy → identical seeds.
        exact.warm(4096).unwrap();
        sk.warm(4096).unwrap();
        let a = exact.query(5, 0.1, 0.01).unwrap();
        let b = sk.query(5, 0.1, 0.01).unwrap();
        assert!(a.stats.certified_by_bounds);
        assert!(b.stats.certified_by_bounds);
        assert_eq!(a.stats.fresh_sets, 0);
        assert_eq!(b.stats.fresh_sets, 0);
        assert_eq!(a.seeds, b.seeds);
        // Selection is shared, so the Eq. 2 upper bound is bit-identical;
        // only the validation-side lower bound differs (by sketch error).
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
    }

    #[test]
    fn sketch_promotion_matches_fresh_higher_precision() {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 13);
        let mut a = RrIndex::new(&g, config().sketch(5));
        a.warm(512).unwrap();
        let regenerated = CertifiedPool::promote_sketch(&mut a, 5).unwrap();
        assert_eq!(regenerated, 512);
        assert_eq!(a.config().sketch, 6);
        // Promotion rebuilds from the deterministic chunk stream: the
        // result is exactly what precision-6-from-the-start holds.
        let mut b = RrIndex::new(&g, config().sketch(6));
        b.warm(512).unwrap();
        assert_eq!(a.sketch_state(), b.sketch_state());
    }

    #[test]
    fn sketched_validation_is_resident_compressed() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 14);
        let mut sk = RrIndex::new(&g, config().chunk_size(1024).sketch(4));
        sk.warm(4096).unwrap();
        let (resident, displaced) = sk.sketch_bytes();
        assert!(resident > 0);
        assert!(
            resident < displaced,
            "sketch must be smaller than the arena it displaces: \
             {resident} vs {displaced}"
        );
        // The budget counts those resident bytes: a cap below the sketch
        // footprint refuses further growth.
        sk.set_max_nodes(Some(1));
        assert!(matches!(
            sk.warm(8192),
            Err(IndexError::MemoryBudget { .. })
        ));
    }
}
