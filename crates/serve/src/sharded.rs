//! Chunk-ownership sharding of the RR pool with merged selection.
//!
//! # Shard layout
//!
//! The union pool is the familiar deterministic chunk stream: chunk `c`
//! is always generated from `chunk_seed(seed, c)` (and `seed ^ R2_STREAM`
//! for the validation half). The shards are the arenas of the one pool
//! engine, [`PoolState`]: shard `s` of `N` **owns** exactly the chunks
//! `{c : c % N == s}` and stores them in ascending chunk order, so the
//! multiset union of the shards' sets equals the single-shard pool at the
//! same chunk cursor, set for set. Nothing about pool *content* depends
//! on the shard count — only which arena a chunk lands in.
//!
//! Growth, the sketch ladder and delta repair are the engine's
//! ([`PoolState::grow_to`], [`PoolState::promote_sketch`],
//! [`subsim_delta::repair_pool`]), run with one worker pool per shard.
//! What this type adds is publication: the full serving state — the pool
//! plus the graph at one version — is published as one immutable
//! [`ShardedSnapshot`] behind an `RwLock<Arc<_>>`, so a reader can never
//! observe shards at mixed versions: a delta's version bump replaces the
//! whole snapshot atomically, which is the cross-shard barrier.
//!
//! # Merged selection
//!
//! Queries run the one OPIM-C loop every index runs
//! ([`subsim_index::certified_query`]) over a [`PoolView`] holding every
//! shard's slices and resident inverted indexes: per-shard coverage
//! counts are summed into one global count vector, the greedy loop picks
//! on the summed counts (identical heap keys, identical tie-breaks), and
//! the Eq 1/Eq 2 certificate is evaluated on the union lengths. The
//! answer — seeds, bounds, certification — is therefore
//! **byte-identical** to the sequential `DeltaIndex` at every shard
//! count, which the testkit simulator and a differential proptest
//! enforce. With one shard this is the concurrent delta-stream server.

use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use subsim_delta::{
    repair_pool, DeltaError, GraphDelta, RepairReport, ServeError, ServeIndex, VersionedGraph,
};
use subsim_diffusion::pool::WorkerPool;
use subsim_diffusion::{RrCollection, RrSampler};
use subsim_graph::Graph;
use subsim_index::{
    certified_query, Arena, CertifiedPool, IndexConfig, IndexError, IndexMetrics, MetricsSnapshot,
    PoolState, PoolView, QueryAnswer, RrIndex, SentinelState,
};
use subsim_sketch::SketchedPool;

/// The complete published serving state: the graph at one version and
/// the pool, every arena generated (or repaired) against exactly that
/// version. Published as a whole, so shard views never tear across a
/// delta.
#[derive(Debug)]
pub struct ShardedSnapshot {
    graph: Arc<Graph>,
    version: u64,
    fingerprint: u64,
    pool: PoolState,
}

impl ShardedSnapshot {
    /// The graph version this snapshot serves.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Structural fingerprint of [`ShardedSnapshot::graph`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The graph at this snapshot's version.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The global RNG cursor: complete chunks generated per half.
    pub fn chunk_cursor(&self) -> u64 {
        self.pool.chunks
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.pool.arena_count()
    }

    /// One shard's arena.
    pub fn shard(&self, s: usize) -> &Arena {
        self.pool.arena(s)
    }

    /// The sentinel tier state, if active.
    pub fn sentinel_state(&self) -> Option<&SentinelState> {
        self.pool.sentinel_state()
    }

    /// Union sets per pool half (every chunk is full by construction).
    pub fn pool_len(&self) -> usize {
        self.pool.pool_len()
    }

    /// Merges the per-shard sketches into one union sketched pool — the
    /// exact pool a single-shard (or sequential) index holds at the same
    /// cursor. `None` when the sketch tier is inactive.
    pub fn union_sketch(&self) -> Option<SketchedPool> {
        self.pool.union_sketch()
    }

    /// Reassembles the union pool halves in global chunk order — the
    /// exact collections a single-shard index would hold at the same
    /// cursor. Testing/diagnostics only: serving never materializes the
    /// union.
    pub fn union_pools(&self, chunk_size: usize) -> (RrCollection, RrCollection) {
        self.pool.union_halves(chunk_size)
    }
}

/// The mutable side, serialized behind one mutex: the versioned graph
/// (authoritative for "current version") plus one persistent worker pool
/// per shard. Pool state lives only in published snapshots.
struct WriterState {
    vg: VersionedGraph,
    pools: Vec<WorkerPool>,
}

/// A sharded, concurrently queryable delta index: `&self` queries from
/// any number of threads, the pool engine's arenas as shards (chunk
/// `c` lives in shard `c mod N`), merged selection with the OPIM
/// certificate evaluated on the union, and writer-serialized growth and
/// delta application.
///
/// Every query answer is byte-identical to [`subsim_delta::DeltaIndex`]
/// over the same `(seed, script)` at any shard count.
pub struct ShardedDeltaIndex {
    config: IndexConfig,
    snapshot: RwLock<Arc<ShardedSnapshot>>,
    writer: Mutex<WriterState>,
    metrics: IndexMetrics,
}

impl std::fmt::Debug for ShardedDeltaIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.load();
        f.debug_struct("ShardedDeltaIndex")
            .field("config", &self.config)
            .field("shards", &snap.shard_count())
            .field("version", &snap.version)
            .field("chunks", &snap.chunk_cursor())
            .field("pool_len", &snap.pool_len())
            .finish_non_exhaustive()
    }
}

impl ShardedDeltaIndex {
    /// An empty sharded index over version 0 of `g` (storage-normalized;
    /// see [`VersionedGraph`]) with `shards` shards. Worker threads are
    /// split across shards (`max(1, threads / shards)` each), so the
    /// configured thread budget is respected whatever the shard count.
    pub fn new(g: Graph, config: IndexConfig, shards: usize) -> Result<Self, DeltaError> {
        let pool = PoolState::empty(g.n(), &config, shards);
        Ok(Self::with_pool(VersionedGraph::new(g)?, config, pool))
    }

    fn with_pool(vg: VersionedGraph, config: IndexConfig, pool: PoolState) -> Self {
        let shards = pool.arena_count();
        let per_shard = (config.threads / shards).max(1);
        let snap = ShardedSnapshot {
            graph: vg.graph_arc(),
            version: vg.version(),
            fingerprint: vg.fingerprint(),
            pool,
        };
        ShardedDeltaIndex {
            config,
            snapshot: RwLock::new(Arc::new(snap)),
            writer: Mutex::new(WriterState {
                vg,
                pools: (0..shards).map(|_| WorkerPool::new(per_shard)).collect(),
            }),
            metrics: IndexMetrics::default(),
        }
    }

    /// The construction-time configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.load().shard_count()
    }

    /// The currently served graph version.
    pub fn version(&self) -> u64 {
        self.load().version
    }

    /// The current published snapshot; a stable immutable view.
    pub fn load(&self) -> Arc<ShardedSnapshot> {
        Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned"))
    }

    /// A point-in-time copy of the serving metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Pre-grows the union pool to at least `sets` per half.
    pub fn warm(&self, sets: usize) -> Result<(), DeltaError> {
        self.grow_to(sets)?;
        Ok(())
    }

    /// Installs (or clears) a fault-injection hook on every shard's
    /// generation workers — see [`WorkerPool::set_chunk_hook`]. Test
    /// instrumentation; production code leaves it unset.
    #[doc(hidden)]
    pub fn set_chunk_hook(&self, hook: Option<subsim_diffusion::ChunkHook>) {
        let ws = self.writer.lock().expect("writer lock poisoned");
        for pool in &ws.pools {
            pool.set_chunk_hook(hook.clone());
        }
    }

    /// Answers one IM query against the latest published version;
    /// per-query semantics match [`subsim_delta::DeltaIndex::query`] bit
    /// for bit. If a delta lands between certification rounds the query
    /// continues on the repaired (newer) snapshot — use
    /// [`ShardedDeltaIndex::query_at_version`] to demand version
    /// stability instead.
    pub fn query(&self, k: usize, epsilon: f64, delta: f64) -> Result<QueryAnswer, DeltaError> {
        self.query_inner(k, epsilon, delta, None)
    }

    /// Like [`ShardedDeltaIndex::query`], pinned to an exact graph
    /// version: fails with [`DeltaError::StaleVersion`] when the served
    /// version differs at query start or after any growth round. The
    /// certification itself always runs on one immutable snapshot, so a
    /// successful answer is entirely version-`version` data.
    pub fn query_at_version(
        &self,
        version: u64,
        k: usize,
        epsilon: f64,
        delta: f64,
    ) -> Result<QueryAnswer, DeltaError> {
        self.query_inner(k, epsilon, delta, Some(version))
    }

    fn query_inner(
        &self,
        k: usize,
        epsilon: f64,
        delta: f64,
        pin: Option<u64>,
    ) -> Result<QueryAnswer, DeltaError> {
        let mut reader = Reader {
            index: self,
            snap: self.load(),
            pin,
        };
        let answer = certified_query(&mut reader, k, epsilon, delta, self.config.threads)?;
        self.metrics.record_query(&answer.stats);
        Ok(answer)
    }

    /// Runs one engine step on a copy of the current pool under the
    /// writer lock — unless `done` says another writer already did the
    /// work — and publishes the result at the same version if the pool
    /// changed. A step that fails after completing some of its slices
    /// still publishes them, as the sequential index keeps them. Returns
    /// the snapshot to continue with and the sets `step` generated.
    fn write(
        &self,
        done: impl Fn(&PoolState) -> bool,
        step: impl FnOnce(&mut PoolState, &RrSampler<'_>, &[WorkerPool]) -> Result<usize, IndexError>,
    ) -> Result<(Arc<ShardedSnapshot>, usize), DeltaError> {
        let snap = self.load();
        if done(&snap.pool) {
            return Ok((snap, 0));
        }
        let ws = self.writer.lock().expect("writer lock poisoned");
        // Re-check under the guard: the pool may have grown (or been
        // repaired onto a newer version) while this thread waited.
        let base = self.load();
        if done(&base.pool) {
            return Ok((base, 0));
        }
        debug_assert_eq!(base.version, ws.vg.version());
        let mut pool = base.pool.clone();
        let sampler = RrSampler::new(&base.graph, self.config.strategy);
        let result = step(&mut pool, &sampler, &ws.pools);
        let changed = pool.chunks != base.pool.chunks
            || pool.sketch_precision() != base.pool.sketch_precision();
        let snap = if changed {
            self.publish(ShardedSnapshot {
                graph: Arc::clone(&base.graph),
                version: base.version,
                fingerprint: base.fingerprint,
                pool,
            })
        } else {
            base
        };
        Ok(result.map(|generated| (snap, generated))?)
    }

    /// Grows the union pool to at least `target_sets` per half through
    /// the pool engine, every shard generating its owned chunks on its
    /// own workers.
    fn grow_to(&self, target_sets: usize) -> Result<(Arc<ShardedSnapshot>, usize), DeltaError> {
        let needed = target_sets.div_ceil(self.config.chunk_size) as u64;
        self.write(
            |pool| pool.chunks >= needed,
            |pool, sampler, workers| {
                pool.grow_to(sampler, workers, &self.config, target_sets, &mut |b| {
                    self.metrics.record_generated(b)
                })
            },
        )
    }

    /// The ladder step above `observed`, every shard promoted in one
    /// snapshot so each query reads a single precision; a no-op when a
    /// racing thread already promoted past it.
    fn promote_sketch(&self, observed: u8) -> Result<(Arc<ShardedSnapshot>, usize), DeltaError> {
        self.write(
            |pool| pool.sketch_precision() != Some(observed),
            |pool, sampler, workers| {
                pool.promote_sketch(sampler, workers, &self.config, &mut |b| {
                    self.metrics.record_generated(b)
                })
            },
        )
    }

    /// Applies `delta` to the graph and publishes one repaired snapshot
    /// at the next version — the cross-shard barrier: every shard in the
    /// new snapshot is repaired against the new graph before any query
    /// can observe the version bump, and no query can ever observe shards
    /// at mixed versions. On error nothing is published.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<RepairReport, DeltaError> {
        let start = Instant::now();
        let mut ws = self.writer.lock().expect("writer lock poisoned");
        let mut staged = ws.vg.clone();
        staged.apply(delta)?;
        let base = self.load();
        let sampler = RrSampler::new(staged.graph(), self.config.strategy);
        let out = repair_pool(&base.pool, delta, &sampler, &ws.pools, &self.config)?;
        drop(sampler);
        ws.vg = staged;
        let snap = self.publish(ShardedSnapshot {
            graph: ws.vg.graph_arc(),
            version: ws.vg.version(),
            fingerprint: ws.vg.fingerprint(),
            pool: out.pool,
        });
        let mut report = out.report;
        report.version = snap.version;
        report.elapsed = start.elapsed();
        self.metrics.record_repair(
            report.regenerated_sets as u64,
            (report.dirty_chunks_r1 + report.dirty_chunks_r2) as u64,
            report.elapsed,
        );
        Ok(report)
    }

    /// Persists the current snapshot: the union pool is reassembled in
    /// global chunk order and written through the single-index snapshot
    /// format (including the sentinel block), so the file round-trips
    /// through any shard count — and through [`subsim_index::RrIndex`] /
    /// [`subsim_delta::DeltaIndex`] — behind the same graph fingerprint.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), DeltaError> {
        let ws = self.writer.lock().expect("writer lock poisoned");
        let snap = self.load();
        let pool = snap.pool.with_arenas(1, self.config.chunk_size);
        RrIndex::from_state(&snap.graph, self.config, pool)?.save_to_path(path)?;
        drop(ws);
        Ok(())
    }

    /// Builds a sharded index over version 0 of `g` with the union pool
    /// loaded from a snapshot and re-split `chunk % shards` across shard
    /// arenas. Fails with a typed [`IndexError::SnapshotMismatch`]
    /// (wrapped in [`DeltaError::Index`]) when the snapshot was taken at
    /// a different graph version, or was generated under a different RR
    /// strategy than `config` asks for — a pool must never silently
    /// serve the wrong diffusion model.
    pub fn load_snapshot<P: AsRef<Path>>(
        g: Graph,
        config: IndexConfig,
        shards: usize,
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
        let pool = pool.with_arenas(shards, config.chunk_size);
        Ok(Self::with_pool(vg, config, pool))
    }

    fn publish(&self, snap: ShardedSnapshot) -> Arc<ShardedSnapshot> {
        let snap = Arc::new(snap);
        self.metrics.record_pool(&snap.pool);
        *self.snapshot.write().expect("snapshot lock poisoned") = Arc::clone(&snap);
        self.metrics
            .snapshot_publishes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        snap
    }
}

/// One query's handle on a [`ShardedDeltaIndex`]: the snapshot the query
/// currently reads (replaced by whatever growth publishes) and the
/// version it is pinned to, if any.
struct Reader<'a> {
    index: &'a ShardedDeltaIndex,
    snap: Arc<ShardedSnapshot>,
    pin: Option<u64>,
}

impl CertifiedPool for Reader<'_> {
    type Error = DeltaError;

    fn view(&self) -> PoolView<'_> {
        self.snap.pool.view(&self.snap.graph)
    }

    fn grow_to(&mut self, target_sets: usize) -> Result<usize, DeltaError> {
        let (snap, added) = self.index.grow_to(target_sets)?;
        self.snap = snap;
        Ok(added)
    }

    fn promote_sketch(&mut self, observed: u8) -> Result<usize, DeltaError> {
        let (snap, added) = self.index.promote_sketch(observed)?;
        self.snap = snap;
        Ok(added)
    }

    fn check_pin(&self) -> Result<(), DeltaError> {
        match self.pin {
            Some(requested) if requested != self.snap.version => Err(DeltaError::StaleVersion {
                requested,
                current: self.snap.version,
            }),
            _ => Ok(()),
        }
    }

    fn record_selection(&self, elapsed: Duration) {
        self.index.metrics.record_selection(elapsed);
    }
}

impl ServeIndex for ShardedDeltaIndex {
    fn run_query(
        &self,
        k: usize,
        epsilon: f64,
        delta: f64,
        pin: Option<u64>,
    ) -> Result<QueryAnswer, ServeError> {
        match pin {
            Some(version) => Ok(self.query_at_version(version, k, epsilon, delta)?),
            None => Ok(self.query(k, epsilon, delta)?),
        }
    }

    fn apply_delta_line(&self, op: &str) -> Result<RepairReport, ServeError> {
        Ok(self.apply_delta(&GraphDelta::parse_op(op)?)?)
    }

    fn version(&self) -> Option<u64> {
        Some(ShardedDeltaIndex::version(self))
    }
}
