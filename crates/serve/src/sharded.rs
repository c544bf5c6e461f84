//! Chunk-ownership sharding of the RR pool with merged selection.
//!
//! # Shard layout
//!
//! The union pool is the familiar deterministic chunk stream: chunk `c`
//! is always generated from `chunk_seed(seed, c)` (and `seed ^ R2_STREAM`
//! for the validation half). Shard `s` of `N` **owns** exactly the chunks
//! `{c : c % N == s}` and stores them in ascending chunk order, so the
//! multiset union of the shards' sets equals the single-shard pool at the
//! same chunk cursor, set for set. Nothing about pool *content* depends
//! on the shard count — only which arena a chunk lands in.
//!
//! Each shard owns its arena (the two [`RrCollection`] halves), its
//! inverted coverage index over the selection half (built once per
//! publish, reused by every query and by delta-repair dirtiness
//! detection), and its generation workers. The full serving state — all
//! shard snapshots plus the graph at one version — is published as one
//! immutable [`ShardedSnapshot`] behind an `RwLock<Arc<_>>`, so a reader
//! can never observe shards at mixed versions: a delta's version bump
//! replaces the whole snapshot atomically, which is the cross-shard
//! barrier.
//!
//! # Merged selection
//!
//! Queries run the one OPIM-C loop every index runs
//! ([`subsim_index::certified_query`]) over a [`PoolView`] holding every
//! shard's slices and cached inverted indexes: per-shard coverage counts
//! are summed into one global count vector, the greedy loop picks on the
//! summed counts (identical heap keys, identical tie-breaks), and the
//! Eq 1/Eq 2 certificate is evaluated on the union lengths. The answer —
//! seeds, bounds, certification — is therefore **byte-identical** to the
//! sequential `DeltaIndex` at every shard count, which the testkit
//! simulator and a differential proptest enforce. With one shard this is
//! the concurrent delta-stream server.

use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use subsim_core::sentinel::SentinelSet;
use subsim_delta::{
    repair_half_indexed, repair_half_mapped, repair_sketch, DeltaError, GraphDelta, RepairReport,
    ServeError, ServeIndex, VersionedGraph,
};
use subsim_diffusion::pool::{PoolError, WorkerPool};
use subsim_diffusion::{InvertedIndex, RrCollection, RrSampler};
use subsim_graph::{Graph, NodeId};
use subsim_index::{
    certified_query, CertifiedPool, IndexConfig, IndexError, IndexMetrics, MetricsSnapshot,
    PoolState, PoolView, QueryAnswer, RrIndex, SentinelState, Validation, R2_STREAM,
    SENTINEL_WARMUP_CHUNKS,
};
use subsim_sketch::SketchedPool;

/// One shard's regenerated `R₂` chunk stream during a precision
/// promotion: the owned global chunk ids plus the fresh generation
/// batch (`None` for shards that own no chunks yet).
type ShardRegen = Result<(Vec<u64>, subsim_diffusion::ParBatch), PoolError>;

/// One shard's published arena: the owned chunks of both halves plus the
/// cached inverted coverage index over the selection half.
#[derive(Debug)]
pub struct ShardSnapshot {
    r1: RrCollection,
    r2: RrCollection,
    idx1: InvertedIndex,
    /// Sketched validation tier: the shard's owned chunks compressed
    /// into count-distinct sketches keyed by **global** chunk id. When
    /// active, `r2` stays empty.
    sketch: Option<SketchedPool>,
}

impl ShardSnapshot {
    fn new(r1: RrCollection, r2: RrCollection, sketch: Option<SketchedPool>) -> Self {
        let idx1 = InvertedIndex::build(&r1);
        ShardSnapshot {
            r1,
            r2,
            idx1,
            sketch,
        }
    }

    /// The shard's slice of the selection half `R₁`.
    pub fn selection_pool(&self) -> &RrCollection {
        &self.r1
    }

    /// The shard's slice of the validation half `R₂`.
    pub fn validation_pool(&self) -> &RrCollection {
        &self.r2
    }

    /// The shard's sketched validation pool, if the sketch tier is
    /// active.
    pub fn sketch_state(&self) -> Option<&SketchedPool> {
        self.sketch.as_ref()
    }
}

/// The complete published serving state: the graph at one version and
/// every shard's arena generated (or repaired) against exactly that
/// version. Published as a whole, so shard views never tear across a
/// delta.
#[derive(Debug)]
pub struct ShardedSnapshot {
    graph: Arc<Graph>,
    version: u64,
    fingerprint: u64,
    /// Global chunk cursor: complete chunks per half across all shards.
    chunks: u64,
    shards: Vec<Arc<ShardSnapshot>>,
    /// Sentinel tier state, global across shards: `Z` is selected once
    /// over the union warmup prefix and applied to every shard's
    /// truncated chunks; hit counters are indexed by **global** chunk id.
    sentinel: Option<SentinelState>,
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
        self.chunks
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's arena.
    pub fn shard(&self, s: usize) -> &ShardSnapshot {
        &self.shards[s]
    }

    /// The sentinel tier state, if active.
    pub fn sentinel_state(&self) -> Option<&SentinelState> {
        self.sentinel.as_ref()
    }

    /// Union sets per pool half (every chunk is full by construction).
    pub fn pool_len(&self) -> usize {
        self.shards.iter().map(|sh| sh.r1.len()).sum()
    }

    /// The view one certification round reads: every shard's slices
    /// and cached indexes.
    fn view(&self) -> PoolView<'_> {
        let sketches: Option<Vec<&SketchedPool>> =
            self.shards.iter().map(|sh| sh.sketch.as_ref()).collect();
        PoolView {
            r1: self.shards.iter().map(|sh| &sh.r1).collect(),
            idx: Some(self.shards.iter().map(|sh| &sh.idx1).collect()),
            validation: match sketches {
                Some(sks) => Validation::Sketched(sks),
                None => Validation::Exact(self.shards.iter().map(|sh| &sh.r2).collect()),
            },
            sentinel: self.sentinel.as_ref().map(|st| &st.set),
            graph: &self.graph,
        }
    }

    /// Merges the per-shard sketches into one union sketched pool — the
    /// exact pool a single-shard (or sequential) index holds at the same
    /// cursor. `None` when the sketch tier is inactive.
    pub fn union_sketch(&self) -> Option<SketchedPool> {
        let refs: Vec<&SketchedPool> = self
            .shards
            .iter()
            .map(|sh| sh.sketch.as_ref())
            .collect::<Option<_>>()?;
        let mut union =
            SketchedPool::new(self.graph.n(), refs[0].chunk_size(), refs[0].precision());
        for sk in refs {
            union.merge_from(sk);
        }
        Some(union)
    }

    /// Reassembles the union pool halves in global chunk order — the
    /// exact collections a single-shard index would hold at the same
    /// cursor. Testing/diagnostics only: serving never materializes the
    /// union.
    pub fn union_pools(&self, chunk_size: usize) -> (RrCollection, RrCollection) {
        let n = self.graph.n();
        let shards = self.shards.len() as u64;
        let mut r1 = RrCollection::new(n);
        let mut r2 = RrCollection::new(n);
        for c in 0..self.chunks {
            let s = (c % shards) as usize;
            let local = (c / shards) as usize;
            let lo = local * chunk_size;
            let hi = lo + chunk_size;
            r1.extend_from_range(&self.shards[s].r1, lo..hi);
            // Sketched shards keep their exact R₂ empty; the union is
            // then empty too (the sketches union via `union_sketch`).
            if !self.shards[s].r2.is_empty() {
                r2.extend_from_range(&self.shards[s].r2, lo..hi);
            }
        }
        (r1, r2)
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
/// any number of threads, chunk generation partitioned `chunk % N`
/// across `N` shards, merged selection with the OPIM certificate
/// evaluated on the union, and writer-serialized growth and delta
/// application.
///
/// Every query answer is byte-identical to [`subsim_delta::DeltaIndex`]
/// over the same `(seed, script)` at any shard count.
pub struct ShardedDeltaIndex {
    config: IndexConfig,
    shards: usize,
    snapshot: RwLock<Arc<ShardedSnapshot>>,
    writer: Mutex<WriterState>,
    metrics: IndexMetrics,
}

impl std::fmt::Debug for ShardedDeltaIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.load();
        f.debug_struct("ShardedDeltaIndex")
            .field("config", &self.config)
            .field("shards", &self.shards)
            .field("version", &snap.version)
            .field("chunks", &snap.chunks)
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
        assert!(shards > 0, "need at least one shard");
        assert!(config.threads > 0, "need at least one worker");
        assert!(config.chunk_size > 0, "chunks must hold at least one set");
        assert!(
            config.sketch == 0 || config.sentinels == 0,
            "sketch and sentinel tiers are mutually exclusive: truncated \
             sets would poison the count-distinct estimates"
        );
        let vg = VersionedGraph::new(g)?;
        let n = vg.graph().n();
        let per_shard = (config.threads / shards).max(1);
        let snap = ShardedSnapshot {
            graph: vg.graph_arc(),
            version: vg.version(),
            fingerprint: vg.fingerprint(),
            chunks: 0,
            shards: (0..shards)
                .map(|_| {
                    Arc::new(ShardSnapshot::new(
                        RrCollection::new(n),
                        RrCollection::new(n),
                        (config.sketch > 0)
                            .then(|| SketchedPool::new(n, config.chunk_size, config.sketch as u8)),
                    ))
                })
                .collect(),
            sentinel: None,
        };
        Ok(ShardedDeltaIndex {
            config,
            shards,
            snapshot: RwLock::new(Arc::new(snap)),
            writer: Mutex::new(WriterState {
                vg,
                pools: (0..shards).map(|_| WorkerPool::new(per_shard)).collect(),
            }),
            metrics: IndexMetrics::default(),
        })
    }

    /// The construction-time configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards
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

    /// Error-adaptive ladder step: every shard regenerates its owned
    /// `R₂` chunks at the next register precision above `observed`, and
    /// one snapshot with all shards promoted is published — the
    /// cross-shard barrier that keeps every query at a single precision.
    /// If a racing thread already promoted past `observed`, the current
    /// snapshot is returned with no work done.
    fn promote_sketch(&self, observed: u8) -> Result<(Arc<ShardedSnapshot>, usize), DeltaError> {
        let ws = self.writer.lock().expect("writer lock poisoned");
        let base = self.load();
        let current = base
            .shards
            .first()
            .and_then(|sh| sh.sketch.as_ref())
            .map(|sk| sk.precision());
        if current != Some(observed) {
            return Ok((base, 0));
        }
        let precision = observed + 1;
        let chunk = self.config.chunk_size;
        let seed = self.config.seed ^ R2_STREAM;
        let graph = ws.vg.graph_arc();
        let sampler = RrSampler::new(&graph, self.config.strategy);
        let n = graph.n();
        let results: Vec<Option<ShardRegen>> = std::thread::scope(|scope| {
            let handles: Vec<_> = base
                .shards
                .iter()
                .zip(&ws.pools)
                .map(|(old, pool)| {
                    let ids = old
                        .sketch
                        .as_ref()
                        .map(|sk| sk.chunk_ids().to_vec())
                        .unwrap_or_default();
                    if ids.is_empty() {
                        return None;
                    }
                    let sampler = &sampler;
                    Some(scope.spawn(move || {
                        let b = pool.try_generate_chunk_ids(sampler, None, &ids, chunk, seed)?;
                        Ok((ids, b))
                    }))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.map(|h| h.join().expect("shard generator panicked")))
                .collect()
        });
        let mut regenerated = 0usize;
        let mut new_shards = Vec::with_capacity(self.shards);
        for (old, result) in base.shards.iter().zip(results) {
            let mut fresh = SketchedPool::new(n, chunk, precision);
            if let Some(result) = result {
                let (ids, b) = result?;
                self.metrics.record_generation(
                    b.rr.len() as u64,
                    b.rr.total_nodes() as u64,
                    b.cost,
                    b.elapsed,
                );
                regenerated += b.rr.len();
                fresh.absorb_chunk_ids(&ids, &b.rr);
            }
            new_shards.push(Arc::new(ShardSnapshot {
                r1: old.r1.clone(),
                r2: old.r2.clone(),
                idx1: old.idx1.clone(),
                sketch: Some(fresh),
            }));
        }
        let snap = Arc::new(ShardedSnapshot {
            graph: Arc::clone(&base.graph),
            version: base.version,
            fingerprint: base.fingerprint,
            chunks: base.chunks,
            shards: new_shards,
            sentinel: base.sentinel.clone(),
        });
        self.publish(Arc::clone(&snap));
        Ok((snap, regenerated))
    }

    /// Grows the union pool to at least `target_sets` per half: each
    /// shard generates its owned slice of the new chunk range
    /// (`chunk % N`) concurrently on its own workers, then one snapshot
    /// covering all shards is published. Returns the snapshot to continue
    /// with plus the freshly generated sets (both halves, all shards).
    fn grow_to(&self, target_sets: usize) -> Result<(Arc<ShardedSnapshot>, usize), DeltaError> {
        let chunk = self.config.chunk_size;
        let needed_chunks = target_sets.div_ceil(chunk) as u64;
        {
            let snap = self.load();
            if snap.chunks >= needed_chunks {
                return Ok((snap, 0));
            }
        }
        let ws = self.writer.lock().expect("writer lock poisoned");
        // Re-check under the guard: the pool may have grown (or been
        // repaired onto a newer version) while this thread waited.
        let base = self.load();
        if base.chunks >= needed_chunks {
            return Ok((base, 0));
        }
        debug_assert_eq!(base.version, ws.vg.version());
        if let Some(cap) = self.config.max_nodes {
            // A sketched R₂ counts its resident bytes in 4-byte
            // node-entry equivalents, keeping the budget unit consistent.
            let in_use: usize = base
                .shards
                .iter()
                .map(|sh| {
                    sh.r1.total_nodes()
                        + sh.r2.total_nodes()
                        + sh.sketch
                            .as_ref()
                            .map_or(0, |sk| sk.resident_bytes() as usize / 4)
                })
                .sum();
            if in_use >= cap {
                return Err(DeltaError::Index(IndexError::MemoryBudget {
                    max_nodes: cap,
                    in_use,
                    wanted_sets: needed_chunks as usize * chunk,
                }));
            }
        }
        let graph = ws.vg.graph_arc();
        let sampler = RrSampler::new(&graph, self.config.strategy);

        let shards = self.shards as u64;
        let seed = self.config.seed;
        let mut cur_shards: Vec<Arc<ShardSnapshot>> = base.shards.clone();
        let mut chunks = base.chunks;
        let mut sentinel = base.sentinel.clone();
        let mut added = 0usize;
        // Growth proceeds in rounds only to respect the sentinel warmup
        // boundary: a plain round up to `SENTINEL_WARMUP_CHUNKS`, then Z
        // is selected once over the union prefix, then one truncated
        // round to the target. Without sentinels this is a single round.
        while chunks < needed_chunks {
            if self.config.sentinels > 0 && sentinel.is_none() && chunks >= SENTINEL_WARMUP_CHUNKS {
                let r1s: Vec<&RrCollection> = cur_shards.iter().map(|sh| &sh.r1).collect();
                sentinel = Some(SentinelState {
                    set: SentinelSet::select(&r1s, &graph, self.config.sentinels),
                    from_chunk: chunks,
                    chunk_hits_r1: vec![0; chunks as usize],
                    chunk_hits_r2: vec![0; chunks as usize],
                });
            }
            let mut end = needed_chunks;
            if self.config.sentinels > 0 && sentinel.is_none() {
                // Still inside the warmup prefix: stop this round at the
                // boundary so the next iteration selects Z before any
                // truncated chunk is generated.
                end = end.min(SENTINEL_WARMUP_CHUNKS.max(chunks + 1));
            }
            let mut owned_ids: Vec<Vec<u64>> = vec![Vec::new(); self.shards];
            for c in chunks..end {
                owned_ids[(c % shards) as usize].push(c);
            }
            let z = sentinel
                .as_ref()
                .filter(|st| !st.set.is_empty())
                .map(|st| st.set.nodes());
            let truncating = z.is_some();

            let results: Vec<
                Option<Result<(subsim_diffusion::ParBatch, subsim_diffusion::ParBatch), PoolError>>,
            > = std::thread::scope(|scope| {
                let handles: Vec<_> = owned_ids
                    .iter()
                    .zip(&ws.pools)
                    .map(|(ids, pool)| {
                        if ids.is_empty() {
                            return None;
                        }
                        let sampler = &sampler;
                        Some(scope.spawn(move || {
                            let b1 = pool.try_generate_chunk_ids(sampler, z, ids, chunk, seed)?;
                            let b2 = pool.try_generate_chunk_ids(
                                sampler,
                                z,
                                ids,
                                chunk,
                                seed ^ R2_STREAM,
                            )?;
                            Ok((b1, b2))
                        }))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.map(|h| h.join().expect("shard generator panicked")))
                    .collect()
            });

            if let Some(st) = sentinel.as_mut() {
                st.chunk_hits_r1.resize(end as usize, 0);
                st.chunk_hits_r2.resize(end as usize, 0);
            }
            let mut new_shards: Vec<Arc<ShardSnapshot>> = Vec::with_capacity(self.shards);
            for ((old, result), ids) in cur_shards.iter().zip(results).zip(&owned_ids) {
                match result {
                    None => new_shards.push(Arc::clone(old)),
                    Some(batches) => {
                        let (b1, b2) = batches?;
                        if let Some(st) = sentinel.as_mut() {
                            for (j, &id) in ids.iter().enumerate() {
                                st.chunk_hits_r1[id as usize] = b1.chunk_hits[j];
                                st.chunk_hits_r2[id as usize] = b2.chunk_hits[j];
                            }
                        }
                        let sets = (b1.rr.len() + b2.rr.len()) as u64;
                        let nodes = (b1.rr.total_nodes() + b2.rr.total_nodes()) as u64;
                        self.metrics.record_generation(
                            sets,
                            nodes,
                            b1.cost + b2.cost,
                            b1.elapsed + b2.elapsed,
                        );
                        if truncating {
                            self.metrics.record_sentinel(
                                b1.sentinel_hits + b2.sentinel_hits,
                                sets,
                                nodes,
                            );
                        }
                        added += b1.rr.len() + b2.rr.len();
                        let mut r1 = old.r1.clone();
                        let mut r2 = old.r2.clone();
                        let mut sketch = old.sketch.clone();
                        r1.extend_from(&b1.rr);
                        if let Some(sk) = sketch.as_mut() {
                            sk.absorb_chunk_ids(ids, &b2.rr);
                        } else {
                            r2.extend_from(&b2.rr);
                        }
                        new_shards.push(Arc::new(ShardSnapshot::new(r1, r2, sketch)));
                    }
                }
            }
            cur_shards = new_shards;
            chunks = end;
        }

        let snap = Arc::new(ShardedSnapshot {
            graph,
            version: base.version,
            fingerprint: base.fingerprint,
            chunks,
            shards: cur_shards,
            sentinel,
        });
        self.publish(Arc::clone(&snap));
        Ok((snap, added))
    }

    /// Applies `delta` to the graph and publishes one repaired snapshot
    /// at the next version — the cross-shard barrier: every shard in the
    /// new snapshot is repaired against the new graph before any query
    /// can observe the version bump, and no query can ever observe shards
    /// at mixed versions.
    ///
    /// Shard `s` maps its local chunk position `j` back to global chunk
    /// `s + j·N` so dirty chunks regenerate from their original seeds;
    /// the cached per-shard inverted index provides `R₁` dirtiness
    /// detection without a rebuild. On error nothing is published.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<RepairReport, DeltaError> {
        let start = Instant::now();
        let ws = self.writer.lock().expect("writer lock poisoned");
        let mut staged = ws.vg.clone();
        staged.apply(delta)?;
        let base = self.load();
        let targets = delta.targets();
        let graph = staged.graph_arc();
        let sampler = RrSampler::new(&graph, self.config.strategy);
        let chunk = self.config.chunk_size;
        let shards = self.shards as u64;
        let seed = self.config.seed;

        struct ShardRepair {
            shard: Arc<ShardSnapshot>,
            dirty_sets_r1: usize,
            /// For sketched shards this is whole regenerated chunks' set
            /// count (the sketch cannot count per-set dirtiness).
            dirty_sets_r2: usize,
            dirty_chunks_r1: usize,
            dirty_chunks_r2: usize,
            /// `(global chunk, hits)` updates for regenerated truncated
            /// chunks, per half.
            hits_r1: Vec<(u64, u64)>,
            hits_r2: Vec<(u64, u64)>,
        }

        let mut report = RepairReport {
            targets: targets.len(),
            ..RepairReport::default()
        };
        let sentinel_active = base.sentinel.as_ref().filter(|st| !st.set.is_empty());
        let stale = sentinel_active.is_some_and(|st| {
            delta.ops().iter().any(|op| {
                let (u, v) = op.endpoints();
                st.set.contains(u) || st.set.contains(v)
            })
        });

        let (new_shards, new_sentinel) = match sentinel_active {
            Some(st) if stale => {
                // A sentinel's own edges were rewired: repair each
                // shard's plain prefix exactly, re-select Z' over the
                // union prefix, and regenerate every truncated chunk
                // under Z'.
                let from_chunk = st.from_chunk;
                report.sentinel_refreshed = true;
                struct PrefixRepair {
                    r1: RrCollection,
                    r2: RrCollection,
                    dirty_sets_r1: usize,
                    dirty_sets_r2: usize,
                    dirty_chunks_r1: usize,
                    dirty_chunks_r2: usize,
                }
                let prefixes: Vec<Result<PrefixRepair, PoolError>> = std::thread::scope(|scope| {
                    let handles: Vec<_> = base
                        .shards
                        .iter()
                        .zip(&ws.pools)
                        .enumerate()
                        .map(|(s, (old, pool))| {
                            let (sampler, targets) = (&sampler, &targets);
                            scope.spawn(move || {
                                let s64 = s as u64;
                                let owned_prefix = if s64 < from_chunk {
                                    (from_chunk - s64).div_ceil(shards) as usize
                                } else {
                                    0
                                };
                                let n = old.r1.graph_n();
                                let mut pre1 = RrCollection::new(n);
                                pre1.extend_from_range(&old.r1, 0..owned_prefix * chunk);
                                let mut pre2 = RrCollection::new(n);
                                pre2.extend_from_range(&old.r2, 0..owned_prefix * chunk);
                                let h1 = repair_half_mapped(
                                    &pre1,
                                    targets,
                                    sampler,
                                    pool,
                                    chunk,
                                    seed,
                                    1,
                                    |j| s64 + j * shards,
                                )?;
                                let h2 = repair_half_mapped(
                                    &pre2,
                                    targets,
                                    sampler,
                                    pool,
                                    chunk,
                                    seed ^ R2_STREAM,
                                    1,
                                    |j| s64 + j * shards,
                                )?;
                                Ok(PrefixRepair {
                                    r1: h1.rr,
                                    r2: h2.rr,
                                    dirty_sets_r1: h1.dirty_sets,
                                    dirty_sets_r2: h2.dirty_sets,
                                    dirty_chunks_r1: h1.dirty_chunks,
                                    dirty_chunks_r2: h2.dirty_chunks,
                                })
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("shard repairer panicked"))
                        .collect()
                });
                let mut prefs = Vec::with_capacity(self.shards);
                for p in prefixes {
                    let p = p?;
                    report.dirty_sets_r1 += p.dirty_sets_r1;
                    report.dirty_sets_r2 += p.dirty_sets_r2;
                    report.dirty_chunks_r1 += p.dirty_chunks_r1;
                    report.dirty_chunks_r2 += p.dirty_chunks_r2;
                    prefs.push(p);
                }
                let budget = if self.config.sentinels > 0 {
                    self.config.sentinels
                } else {
                    st.set.len()
                };
                let r1s: Vec<&RrCollection> = prefs.iter().map(|p| &p.r1).collect();
                let fresh = SentinelSet::select(&r1s, &graph, budget);
                drop(r1s);
                let zn = (!fresh.is_empty()).then(|| fresh.nodes().to_vec());
                let suffix_ids: Vec<Vec<u64>> = (0..shards)
                    .map(|s| {
                        (from_chunk..base.chunks)
                            .filter(|c| c % shards == s)
                            .collect()
                    })
                    .collect();
                let batches: Vec<
                    Option<
                        Result<(subsim_diffusion::ParBatch, subsim_diffusion::ParBatch), PoolError>,
                    >,
                > = std::thread::scope(|scope| {
                    let handles: Vec<_> = suffix_ids
                        .iter()
                        .zip(&ws.pools)
                        .map(|(ids, pool)| {
                            if ids.is_empty() {
                                return None;
                            }
                            let (sampler, zn) = (&sampler, zn.as_deref());
                            Some(scope.spawn(move || {
                                let b1 =
                                    pool.try_generate_chunk_ids(sampler, zn, ids, chunk, seed)?;
                                let b2 = pool.try_generate_chunk_ids(
                                    sampler,
                                    zn,
                                    ids,
                                    chunk,
                                    seed ^ R2_STREAM,
                                )?;
                                Ok((b1, b2))
                            }))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.map(|h| h.join().expect("shard generator panicked")))
                        .collect()
                });
                let mut hits1 = vec![0u64; base.chunks as usize];
                let mut hits2 = vec![0u64; base.chunks as usize];
                let mut new_shards = Vec::with_capacity(self.shards);
                for ((pref, result), ids) in prefs.into_iter().zip(batches).zip(&suffix_ids) {
                    let mut r1 = pref.r1;
                    let mut r2 = pref.r2;
                    if let Some(batches) = result {
                        let (b1, b2) = batches?;
                        for (j, &id) in ids.iter().enumerate() {
                            hits1[id as usize] = b1.chunk_hits[j];
                            hits2[id as usize] = b2.chunk_hits[j];
                        }
                        r1.extend_from(&b1.rr);
                        r2.extend_from(&b2.rr);
                        report.dirty_chunks_r1 += ids.len();
                        report.dirty_chunks_r2 += ids.len();
                    }
                    new_shards.push(Arc::new(ShardSnapshot::new(r1, r2, None)));
                }
                let new_st = SentinelState {
                    set: fresh,
                    from_chunk,
                    chunk_hits_r1: hits1,
                    chunk_hits_r2: hits2,
                };
                (new_shards, Some(new_st))
            }
            Some(st) => {
                // Z untouched: sentinel-aware chunk repair per shard,
                // preserving the truncation boundary and refreshing hit
                // counters for regenerated truncated chunks.
                let z = st.set.nodes();
                let from_chunk = st.from_chunk;
                let repairs: Vec<Result<ShardRepair, PoolError>> = std::thread::scope(|scope| {
                    let handles: Vec<_> = base
                        .shards
                        .iter()
                        .zip(&ws.pools)
                        .enumerate()
                        .map(|(s, (old, pool))| {
                            let (sampler, targets) = (&sampler, &targets);
                            scope.spawn(move || {
                                let s64 = s as u64;
                                let (rr1, ds1, dc1, hits_r1) = repair_shard_half_sentinel(
                                    &old.r1,
                                    Some(&old.idx1),
                                    targets,
                                    z,
                                    from_chunk,
                                    s64,
                                    shards,
                                    sampler,
                                    pool,
                                    chunk,
                                    seed,
                                )?;
                                let (rr2, ds2, dc2, hits_r2) = repair_shard_half_sentinel(
                                    &old.r2,
                                    None,
                                    targets,
                                    z,
                                    from_chunk,
                                    s64,
                                    shards,
                                    sampler,
                                    pool,
                                    chunk,
                                    seed ^ R2_STREAM,
                                )?;
                                let shard = if dc1 == 0 && dc2 == 0 {
                                    Arc::clone(old)
                                } else if dc1 == 0 {
                                    // R₁ untouched: keep its cached index.
                                    Arc::new(ShardSnapshot {
                                        r1: rr1,
                                        r2: rr2,
                                        idx1: old.idx1.clone(),
                                        sketch: None,
                                    })
                                } else {
                                    Arc::new(ShardSnapshot::new(rr1, rr2, None))
                                };
                                Ok(ShardRepair {
                                    shard,
                                    dirty_sets_r1: ds1,
                                    dirty_sets_r2: ds2,
                                    dirty_chunks_r1: dc1,
                                    dirty_chunks_r2: dc2,
                                    hits_r1,
                                    hits_r2,
                                })
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("shard repairer panicked"))
                        .collect()
                });
                let mut new_st = st.clone();
                let mut new_shards = Vec::with_capacity(self.shards);
                for repair in repairs {
                    let r = repair?;
                    report.dirty_sets_r1 += r.dirty_sets_r1;
                    report.dirty_sets_r2 += r.dirty_sets_r2;
                    report.dirty_chunks_r1 += r.dirty_chunks_r1;
                    report.dirty_chunks_r2 += r.dirty_chunks_r2;
                    for (id, h) in r.hits_r1 {
                        new_st.chunk_hits_r1[id as usize] = h;
                    }
                    for (id, h) in r.hits_r2 {
                        new_st.chunk_hits_r2[id as usize] = h;
                    }
                    new_shards.push(r.shard);
                }
                (new_shards, Some(new_st))
            }
            None => {
                let repairs: Vec<Result<ShardRepair, PoolError>> = std::thread::scope(|scope| {
                    let handles: Vec<_> = base
                        .shards
                        .iter()
                        .zip(&ws.pools)
                        .enumerate()
                        .map(|(s, (old, pool))| {
                            let (sampler, targets) = (&sampler, &targets);
                            scope.spawn(move || {
                                let s64 = s as u64;
                                let h1 = repair_half_indexed(
                                    &old.r1,
                                    &old.idx1,
                                    targets,
                                    sampler,
                                    pool,
                                    chunk,
                                    seed,
                                    |j| s64 + j * shards,
                                )?;
                                // Sketched validation tier: the shard's
                                // sketch repairs chunk-wise on the same
                                // membership predicate, keyed by global
                                // chunk id (so seeds line up without a
                                // position map).
                                if let Some(sk) = old.sketch.as_ref() {
                                    let rs = repair_sketch(
                                        sk,
                                        targets,
                                        sampler,
                                        pool,
                                        seed ^ R2_STREAM,
                                    )?;
                                    let shard = if h1.dirty_chunks == 0 && rs.dirty_chunks == 0 {
                                        Arc::clone(old)
                                    } else if h1.dirty_chunks == 0 {
                                        // R₁ untouched: keep its cached index.
                                        Arc::new(ShardSnapshot {
                                            r1: h1.rr,
                                            r2: old.r2.clone(),
                                            idx1: old.idx1.clone(),
                                            sketch: Some(rs.sketch),
                                        })
                                    } else {
                                        Arc::new(ShardSnapshot::new(
                                            h1.rr,
                                            old.r2.clone(),
                                            Some(rs.sketch),
                                        ))
                                    };
                                    return Ok(ShardRepair {
                                        shard,
                                        dirty_sets_r1: h1.dirty_sets,
                                        dirty_sets_r2: rs.dirty_chunks * chunk,
                                        dirty_chunks_r1: h1.dirty_chunks,
                                        dirty_chunks_r2: rs.dirty_chunks,
                                        hits_r1: Vec::new(),
                                        hits_r2: Vec::new(),
                                    });
                                }
                                let h2 = repair_half_mapped(
                                    &old.r2,
                                    targets,
                                    sampler,
                                    pool,
                                    chunk,
                                    seed ^ R2_STREAM,
                                    1,
                                    |j| s64 + j * shards,
                                )?;
                                let shard = if h1.dirty_chunks == 0 && h2.dirty_chunks == 0 {
                                    Arc::clone(old)
                                } else if h1.dirty_chunks == 0 {
                                    // R₁ untouched: keep its cached index.
                                    Arc::new(ShardSnapshot {
                                        r1: h1.rr,
                                        r2: h2.rr,
                                        idx1: old.idx1.clone(),
                                        sketch: None,
                                    })
                                } else {
                                    Arc::new(ShardSnapshot::new(h1.rr, h2.rr, None))
                                };
                                Ok(ShardRepair {
                                    shard,
                                    dirty_sets_r1: h1.dirty_sets,
                                    dirty_sets_r2: h2.dirty_sets,
                                    dirty_chunks_r1: h1.dirty_chunks,
                                    dirty_chunks_r2: h2.dirty_chunks,
                                    hits_r1: Vec::new(),
                                    hits_r2: Vec::new(),
                                })
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("shard repairer panicked"))
                        .collect()
                });
                let mut new_shards = Vec::with_capacity(self.shards);
                for repair in repairs {
                    let r = repair?;
                    report.dirty_sets_r1 += r.dirty_sets_r1;
                    report.dirty_sets_r2 += r.dirty_sets_r2;
                    report.dirty_chunks_r1 += r.dirty_chunks_r1;
                    report.dirty_chunks_r2 += r.dirty_chunks_r2;
                    new_shards.push(r.shard);
                }
                (new_shards, base.sentinel.clone())
            }
        };
        drop(sampler);

        let mut ws = ws;
        ws.vg = staged;
        let snap = Arc::new(ShardedSnapshot {
            graph,
            version: ws.vg.version(),
            fingerprint: ws.vg.fingerprint(),
            chunks: base.chunks,
            shards: new_shards,
            sentinel: new_sentinel,
        });
        self.publish(Arc::clone(&snap));
        report.version = snap.version;
        report.regenerated_sets = (report.dirty_chunks_r1 + report.dirty_chunks_r2) * chunk;
        report.pool_sets = snap.pool_len() * 2;
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
        let (r1, r2) = snap.union_pools(self.config.chunk_size);
        let pool = PoolState {
            r1,
            r2,
            chunks: snap.chunks,
            sentinel: snap.sentinel.clone(),
            // The per-shard sketches merge losslessly (register-wise max
            // over disjoint chunk sets) into the union a sequential index
            // persists.
            sketch: snap.union_sketch(),
        };
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
        assert!(shards > 0, "need at least one shard");
        let vg = VersionedGraph::new(g)?;
        let loaded = RrIndex::load_from_path(vg.graph(), path)?;
        loaded.ensure_strategy(config.strategy)?;
        let (
            loaded_config,
            PoolState {
                r1,
                r2,
                chunks,
                sentinel,
                sketch,
            },
        ) = loaded.into_state();
        let config = IndexConfig {
            threads: config.threads,
            max_nodes: config.max_nodes,
            ..loaded_config
        };
        let n = vg.graph().n();
        let chunk = config.chunk_size;
        let shard_pools: Vec<(RrCollection, RrCollection)> = (0..shards as u64)
            .map(|s| {
                let mut s1 = RrCollection::new(n);
                let mut s2 = RrCollection::new(n);
                for c in (s..chunks).step_by(shards) {
                    let lo = c as usize * chunk;
                    let hi = lo + chunk;
                    s1.extend_from_range(&r1, lo..hi);
                    // A sketched snapshot persists an empty exact R₂; the
                    // shards keep theirs empty too.
                    if !r2.is_empty() {
                        s2.extend_from_range(&r2, lo..hi);
                    }
                }
                (s1, s2)
            })
            .collect();
        let per_shard = (config.threads / shards).max(1);
        // Re-split the union sketch `chunk % N` to match the shard arenas.
        let mut shard_sketches: Vec<Option<SketchedPool>> = match sketch {
            Some(sk) => sk.split(shards).into_iter().map(Some).collect(),
            None => vec![None; shards],
        };
        let snap = ShardedSnapshot {
            graph: vg.graph_arc(),
            version: vg.version(),
            fingerprint: vg.fingerprint(),
            chunks,
            shards: shard_pools
                .into_iter()
                .zip(shard_sketches.iter_mut())
                .map(|((s1, s2), sk)| Arc::new(ShardSnapshot::new(s1, s2, sk.take())))
                .collect(),
            sentinel,
        };
        Ok(ShardedDeltaIndex {
            config,
            shards,
            snapshot: RwLock::new(Arc::new(snap)),
            writer: Mutex::new(WriterState {
                vg,
                pools: (0..shards).map(|_| WorkerPool::new(per_shard)).collect(),
            }),
            metrics: IndexMetrics::default(),
        })
    }

    fn publish(&self, snap: Arc<ShardedSnapshot>) {
        self.metrics.record_pool_parts(
            snap.shards
                .iter()
                .map(|sh| (&sh.r1, &sh.r2, sh.sketch.as_ref())),
        );
        *self.snapshot.write().expect("snapshot lock poisoned") = snap;
        self.metrics
            .snapshot_publishes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Sentinel-aware repair of one shard's pool half: local chunk position
/// `j` stores global chunk `s + j·N`; dirty globals `< from_chunk`
/// regenerate plain, the rest truncated under `z`, with refreshed hit
/// counts returned as `(global chunk, hits)` updates.
///
/// Returns `(repaired half, dirty sets, dirty chunks, hit updates)`.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn repair_shard_half_sentinel(
    pool: &RrCollection,
    inv: Option<&InvertedIndex>,
    targets: &[NodeId],
    z: &[NodeId],
    from_chunk: u64,
    s: u64,
    shards: u64,
    sampler: &RrSampler<'_>,
    workers: &WorkerPool,
    chunk_size: usize,
    seed: u64,
) -> Result<(RrCollection, usize, usize, Vec<(u64, u64)>), PoolError> {
    assert!(chunk_size > 0, "chunks must hold at least one set");
    assert_eq!(
        pool.len() % chunk_size,
        0,
        "pool half must be a whole number of chunks"
    );
    let built;
    let inv = match inv {
        Some(inv) => inv,
        None => {
            built = InvertedIndex::build(pool);
            &built
        }
    };
    let mut dirty_sets: Vec<u32> = targets
        .iter()
        .flat_map(|&t| inv.sets_containing(t))
        .copied()
        .collect();
    dirty_sets.sort_unstable();
    dirty_sets.dedup();
    let dirty_set_count = dirty_sets.len();
    let mut dirty_local: Vec<u64> = dirty_sets
        .into_iter()
        .map(|x| x as u64 / chunk_size as u64)
        .collect();
    dirty_local.dedup();
    if dirty_local.is_empty() {
        return Ok((pool.clone(), dirty_set_count, 0, Vec::new()));
    }
    let global = |j: u64| s + j * shards;
    let plain_ids: Vec<u64> = dirty_local
        .iter()
        .map(|&j| global(j))
        .filter(|&c| c < from_chunk)
        .collect();
    let trunc_ids: Vec<u64> = dirty_local
        .iter()
        .map(|&j| global(j))
        .filter(|&c| c >= from_chunk)
        .collect();
    let plain = if plain_ids.is_empty() {
        None
    } else {
        Some(workers.try_generate_chunk_ids(sampler, None, &plain_ids, chunk_size, seed)?)
    };
    let trunc = if trunc_ids.is_empty() {
        None
    } else {
        Some(workers.try_generate_chunk_ids(sampler, Some(z), &trunc_ids, chunk_size, seed)?)
    };
    let mut hits = Vec::with_capacity(trunc_ids.len());
    if let Some(batch) = &trunc {
        for (j, &c) in trunc_ids.iter().enumerate() {
            hits.push((c, batch.chunk_hits[j]));
        }
    }
    let mut rr = RrCollection::new(pool.graph_n());
    let mut cursor = 0usize;
    let (mut pi, mut ti) = (0usize, 0usize);
    for &j in &dirty_local {
        let lo = j as usize * chunk_size;
        rr.extend_from_range(pool, cursor..lo);
        if global(j) < from_chunk {
            let batch = plain.as_ref().expect("plain batch generated");
            rr.extend_from_range(&batch.rr, pi * chunk_size..(pi + 1) * chunk_size);
            pi += 1;
        } else {
            let batch = trunc.as_ref().expect("truncated batch generated");
            rr.extend_from_range(&batch.rr, ti * chunk_size..(ti + 1) * chunk_size);
            ti += 1;
        }
        cursor = lo + chunk_size;
    }
    rr.extend_from_range(pool, cursor..pool.len());
    Ok((rr, dirty_set_count, dirty_local.len(), hits))
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
        self.snap.view()
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
        let parsed = GraphDelta::parse_line(op)
            .map_err(ServeError::Delta)?
            .ok_or_else(|| {
                ServeError::Delta(DeltaError::Parse {
                    message: "empty delta line".into(),
                })
            })?;
        let mut delta = GraphDelta::new();
        delta.push(parsed);
        Ok(self.apply_delta(&delta)?)
    }

    fn version(&self) -> Option<u64> {
        Some(ShardedDeltaIndex::version(self))
    }
}
