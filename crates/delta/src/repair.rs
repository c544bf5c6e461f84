//! Chunk-granular RR-pool repair after a graph mutation.
//!
//! # Why whole chunks, and why this is exact
//!
//! Reverse-reachable generation consumes randomness strictly per *visited*
//! node: root selection draws from the fixed `0..n` range, and every
//! traversal step reads only the in-list of a node already in the set
//! (one coin per in-edge, a geometric skip sequence, or a subset-sampler
//! draw — all functions of that node's in-list alone). A delta op on edge
//! `u -> v` changes only `v`'s in-list. Therefore a stored RR set is
//! affected by the delta **iff it contains a mutated target `v`**: a set
//! without `v` never read `v`'s in-list, so regenerating it on the new
//! graph replays the identical traversal and consumes the identical
//! randomness.
//!
//! Sets inside one generation chunk share a single sequential RNG stream,
//! so repair happens at chunk granularity: every chunk containing at
//! least one dirty set is regenerated from its **original** seed
//! `chunk_seed(seed, c)` on the new graph, and clean chunks are spliced
//! through untouched. Because clean chunks would regenerate bit-identical
//! anyway (previous paragraph, applied set by set through the shared
//! stream), the repaired pool equals a full rebuild of the same chunk
//! range on the new graph, bit for bit — `(seed, chunk, version)` fully
//! determines content, where the version pins the graph.
//!
//! Dirty sets are found through the same inverted coverage index the
//! greedy selection phase uses (`node -> containing set ids`), built over
//! the *old* pool: old-pool membership is exactly the right dirtiness
//! criterion, because a set that gains a mutated target under the new
//! graph can only do so by having read the target's in-list — impossible
//! for a set that didn't contain it.

use crate::delta::GraphDelta;
use std::time::Duration;
use subsim_core::SentinelSet;
use subsim_diffusion::pool::{PoolError, WorkerPool};
use subsim_diffusion::{InvertedIndex, RrCollection, RrSampler};
use subsim_graph::NodeId;
use subsim_index::{IndexConfig, PoolState, SentinelState, R2_STREAM};
use subsim_sketch::SketchedPool;

/// What one repair (via [`repair_half`] on both halves, as
/// [`crate::DeltaIndex::apply_delta`] does) did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairReport {
    /// Graph version the repair brought the pool to.
    pub version: u64,
    /// Mutated in-list targets the delta touched (deduplicated).
    pub targets: usize,
    /// Dirty sets found in the selection half `R₁`.
    pub dirty_sets_r1: usize,
    /// Dirty sets found in the validation half `R₂`.
    pub dirty_sets_r2: usize,
    /// Chunks regenerated in `R₁`.
    pub dirty_chunks_r1: usize,
    /// Chunks regenerated in `R₂`.
    pub dirty_chunks_r2: usize,
    /// Total sets regenerated (both halves; whole chunks).
    pub regenerated_sets: usize,
    /// Total sets stored (both halves) — the full-rebuild cost baseline.
    pub pool_sets: usize,
    /// Whether the delta touched a sentinel endpoint, forcing a fresh
    /// sentinel selection and a regeneration of the truncated suffix.
    pub sentinel_refreshed: bool,
    /// Repair wall-clock.
    pub elapsed: Duration,
}

impl RepairReport {
    /// Fraction of stored sets the repair regenerated (`0` on an empty
    /// pool) — the headline savings vs. a full rebuild.
    pub fn repair_fraction(&self) -> f64 {
        if self.pool_sets == 0 {
            0.0
        } else {
            self.regenerated_sets as f64 / self.pool_sets as f64
        }
    }
}

/// Outcome of repairing one pool half.
#[derive(Debug)]
pub struct RepairedHalf {
    /// The repaired collection (same length as the input).
    pub rr: RrCollection,
    /// Dirty sets detected.
    pub dirty_sets: usize,
    /// Chunks regenerated.
    pub dirty_chunks: usize,
}

/// Repairs one pool half against the new graph bound in `sampler`.
///
/// `pool` is the half as generated on the *previous* version with chunk
/// stream `seed` (every `chunk_size` consecutive sets form one chunk;
/// the half must be whole chunks). `targets` are the delta's mutated
/// in-list endpoints. The result is bit-identical to regenerating the
/// whole half on the new graph.
///
/// A worker panic during regeneration surfaces as
/// [`PoolError::WorkerPanicked`]; `pool` is untouched (the caller keeps
/// serving its pre-repair content) and `workers` stays usable.
pub fn repair_half(
    pool: &RrCollection,
    targets: &[NodeId],
    sampler: &RrSampler<'_>,
    workers: &WorkerPool,
    chunk_size: usize,
    seed: u64,
    threads: usize,
) -> Result<RepairedHalf, PoolError> {
    repair_half_mapped(
        pool,
        targets,
        sampler,
        workers,
        chunk_size,
        seed,
        threads,
        |c| c,
    )
}

/// [`repair_half`] for a pool half whose stored chunks are not the
/// contiguous prefix `0..len/chunk_size` of the chunk stream.
///
/// `chunk_id_of` maps the half's *local* chunk position (`0` = the first
/// `chunk_size` sets stored) to the global chunk id whose seed
/// `chunk_seed(seed, id)` generated it. A sharded pool stores shard `s`'s
/// owned chunks `s, s + N, s + 2N, …` in ascending order, so its map is
/// `|j| s + j * N`; the plain half is the identity. The map must be
/// strictly increasing over local positions (owned chunk ids stored in
/// stream order), which keeps regenerated chunks aligned with their
/// splice points.
#[allow(clippy::too_many_arguments)]
pub fn repair_half_mapped(
    pool: &RrCollection,
    targets: &[NodeId],
    sampler: &RrSampler<'_>,
    workers: &WorkerPool,
    chunk_size: usize,
    seed: u64,
    threads: usize,
    chunk_id_of: impl Fn(u64) -> u64,
) -> Result<RepairedHalf, PoolError> {
    assert!(chunk_size > 0, "chunks must hold at least one set");
    assert_eq!(
        pool.len() % chunk_size,
        0,
        "pool half must be a whole number of chunks"
    );
    let inv = InvertedIndex::build_parallel(pool, threads);
    repair_half_indexed(
        pool,
        &inv,
        targets,
        sampler,
        workers,
        chunk_size,
        seed,
        chunk_id_of,
    )
}

/// [`repair_half_mapped`] with a caller-owned inverted index over `pool`
/// — the sharded serving path keeps one index per published shard
/// snapshot and reuses it for dirtiness detection instead of rebuilding
/// it per delta.
#[allow(clippy::too_many_arguments)]
pub fn repair_half_indexed(
    pool: &RrCollection,
    inv: &InvertedIndex,
    targets: &[NodeId],
    sampler: &RrSampler<'_>,
    workers: &WorkerPool,
    chunk_size: usize,
    seed: u64,
    chunk_id_of: impl Fn(u64) -> u64,
) -> Result<RepairedHalf, PoolError> {
    assert!(chunk_size > 0, "chunks must hold at least one set");
    assert_eq!(
        pool.len() % chunk_size,
        0,
        "pool half must be a whole number of chunks"
    );
    let mut dirty_sets: Vec<u32> = targets
        .iter()
        .flat_map(|&t| inv.sets_containing(t))
        .copied()
        .collect();
    dirty_sets.sort_unstable();
    dirty_sets.dedup();
    let mut dirty_local: Vec<u64> = dirty_sets
        .iter()
        .map(|&s| s as u64 / chunk_size as u64)
        .collect();
    dirty_local.dedup(); // dirty_sets sorted => chunk positions sorted

    if dirty_local.is_empty() {
        return Ok(RepairedHalf {
            rr: pool.clone(),
            dirty_sets: dirty_sets.len(),
            dirty_chunks: 0,
        });
    }

    let dirty_ids: Vec<u64> = dirty_local.iter().map(|&c| chunk_id_of(c)).collect();
    let batch = workers.try_generate_chunk_ids(sampler, None, &dirty_ids, chunk_size, seed)?;
    let mut rr = RrCollection::new(pool.graph_n());
    let mut cursor = 0usize;
    for (k, &c) in dirty_local.iter().enumerate() {
        let lo = c as usize * chunk_size;
        rr.extend_from_range(pool, cursor..lo);
        rr.extend_from_range(&batch.rr, k * chunk_size..(k + 1) * chunk_size);
        cursor = lo + chunk_size;
    }
    rr.extend_from_range(pool, cursor..pool.len());
    debug_assert_eq!(rr.len(), pool.len());
    Ok(RepairedHalf {
        rr,
        dirty_sets: dirty_sets.len(),
        dirty_chunks: dirty_local.len(),
    })
}

/// Outcome of repairing one sentinel-tier pool half.
#[derive(Debug)]
pub struct RepairedSentinelHalf {
    /// The repaired collection (same length as the input).
    pub rr: RrCollection,
    /// Dirty sets detected.
    pub dirty_sets: usize,
    /// Chunks regenerated.
    pub dirty_chunks: usize,
    /// Per-chunk sentinel-hit counters after repair (same length as the
    /// input; only regenerated truncated chunks change).
    pub chunk_hits: Vec<u64>,
}

/// [`repair_half`] for a half whose chunks at positions `>= from_chunk`
/// were generated through the Alg 5 stopping wrapper with sentinel set
/// `z` (see [`subsim_index::SentinelState`]).
///
/// Dirtiness detection is unchanged: a truncated traversal also consumes
/// randomness strictly per *visited* node and stops at the sentinel
/// without ever reading the sentinel's in-list, so a truncated set not
/// containing a mutated target replays bit-identically on the new graph
/// as long as `z` itself is unchanged. Dirty chunks below `from_chunk`
/// regenerate plain; dirty chunks at or above regenerate under `z`, and
/// their recorded hit counters are replaced by the fresh counts.
#[allow(clippy::too_many_arguments)]
pub fn repair_half_sentinel(
    pool: &RrCollection,
    targets: &[NodeId],
    z: &[NodeId],
    from_chunk: u64,
    old_hits: &[u64],
    sampler: &RrSampler<'_>,
    workers: &WorkerPool,
    chunk_size: usize,
    seed: u64,
    threads: usize,
) -> Result<RepairedSentinelHalf, PoolError> {
    assert!(chunk_size > 0, "chunks must hold at least one set");
    assert_eq!(
        pool.len() % chunk_size,
        0,
        "pool half must be a whole number of chunks"
    );
    assert_eq!(
        old_hits.len(),
        pool.len() / chunk_size,
        "one hit counter per stored chunk"
    );
    let inv = InvertedIndex::build_parallel(pool, threads);
    let mut dirty_sets: Vec<u32> = targets
        .iter()
        .flat_map(|&t| inv.sets_containing(t))
        .copied()
        .collect();
    dirty_sets.sort_unstable();
    dirty_sets.dedup();
    let mut dirty_local: Vec<u64> = dirty_sets
        .iter()
        .map(|&s| s as u64 / chunk_size as u64)
        .collect();
    dirty_local.dedup(); // dirty_sets sorted => chunk positions sorted

    let mut chunk_hits = old_hits.to_vec();
    if dirty_local.is_empty() {
        return Ok(RepairedSentinelHalf {
            rr: pool.clone(),
            dirty_sets: dirty_sets.len(),
            dirty_chunks: 0,
            chunk_hits,
        });
    }

    let plain_ids: Vec<u64> = dirty_local
        .iter()
        .copied()
        .filter(|&c| c < from_chunk)
        .collect();
    let trunc_ids: Vec<u64> = dirty_local
        .iter()
        .copied()
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
    if let Some(batch) = &trunc {
        for (j, &c) in trunc_ids.iter().enumerate() {
            chunk_hits[c as usize] = batch.chunk_hits[j];
        }
    }

    let mut rr = RrCollection::new(pool.graph_n());
    let mut cursor = 0usize;
    let (mut pi, mut ti) = (0usize, 0usize);
    for &c in &dirty_local {
        let lo = c as usize * chunk_size;
        rr.extend_from_range(pool, cursor..lo);
        if c < from_chunk {
            let b = plain.as_ref().expect("plain batch exists for plain chunk");
            rr.extend_from_range(&b.rr, pi * chunk_size..(pi + 1) * chunk_size);
            pi += 1;
        } else {
            let b = trunc
                .as_ref()
                .expect("truncated batch exists for truncated chunk");
            rr.extend_from_range(&b.rr, ti * chunk_size..(ti + 1) * chunk_size);
            ti += 1;
        }
        cursor = lo + chunk_size;
    }
    rr.extend_from_range(pool, cursor..pool.len());
    debug_assert_eq!(rr.len(), pool.len());
    Ok(RepairedSentinelHalf {
        rr,
        dirty_sets: dirty_sets.len(),
        dirty_chunks: dirty_local.len(),
        chunk_hits,
    })
}

/// Outcome of repairing a sketched validation pool.
#[derive(Debug)]
pub struct RepairedSketch {
    /// The repaired sketch (same chunk coverage as the input).
    pub sketch: SketchedPool,
    /// Chunks whose registers were rebuilt.
    pub dirty_chunks: usize,
}

/// Repairs a sketched validation pool against the new graph bound in
/// `sampler`.
///
/// Dirtiness uses the same membership predicate as the exact halves —
/// a chunk is dirty iff some stored set in it contains a mutated target,
/// and the sketch's per-chunk key set records exactly that old-pool
/// membership. Each dirty chunk regenerates from its **original** seed
/// on the new graph and its sub-sketch is rebuilt from the fresh
/// content, so the repaired sketch equals a fresh sketch over a fully
/// rebuilt half (clean chunks would regenerate bit-identical, hence
/// sketch identical).
pub fn repair_sketch(
    sketch: &SketchedPool,
    targets: &[NodeId],
    sampler: &RrSampler<'_>,
    workers: &WorkerPool,
    seed: u64,
) -> Result<RepairedSketch, PoolError> {
    let dirty = sketch.dirty_chunks(targets);
    let mut out = sketch.clone();
    if dirty.is_empty() {
        return Ok(RepairedSketch {
            sketch: out,
            dirty_chunks: 0,
        });
    }
    let chunk_size = sketch.chunk_size();
    let batch = workers.try_generate_chunk_ids(sampler, None, &dirty, chunk_size, seed)?;
    for (j, &c) in dirty.iter().enumerate() {
        out.replace_chunk(c, &batch.rr, j * chunk_size);
    }
    Ok(RepairedSketch {
        sketch: out,
        dirty_chunks: dirty.len(),
    })
}

/// The repaired pool plus the report's repair counts (the caller stamps
/// `version` and `elapsed`).
pub(crate) struct RepairedPool {
    pub pool: PoolState,
    pub report: RepairReport,
}

impl RepairedPool {
    fn new(
        pool: PoolState,
        targets: usize,
        dirty_sets: [usize; 2],
        dirty_chunks: [usize; 2],
        sentinel_refreshed: bool,
        chunk_size: usize,
    ) -> Self {
        let pool_sets = pool.r1.len()
            + pool
                .sketch
                .as_ref()
                .map_or(pool.r2.len(), |sk| sk.len_sets());
        let report = RepairReport {
            targets,
            dirty_sets_r1: dirty_sets[0],
            dirty_sets_r2: dirty_sets[1],
            dirty_chunks_r1: dirty_chunks[0],
            dirty_chunks_r2: dirty_chunks[1],
            regenerated_sets: (dirty_chunks[0] + dirty_chunks[1]) * chunk_size,
            pool_sets,
            sentinel_refreshed,
            ..RepairReport::default()
        };
        RepairedPool { pool, report }
    }
}

/// Repairs both pool halves — and the sentinel tier, if present —
/// against the new graph bound in `sampler`: the engine behind
/// [`crate::DeltaIndex::apply_delta`].
///
/// Without a sentinel this is two [`repair_half`] calls (bit-exact
/// rebuild equivalence). With a sentinel whose set `Z` is untouched by
/// the delta (no op endpoint in `Z`), both halves repair through
/// [`repair_half_sentinel`]: the truncation boundary is preserved and
/// per-chunk hit counters refresh for regenerated truncated chunks.
/// When the delta rewires a sentinel's own edges, `Z`'s selection basis
/// is gone: the plain warmup prefix is repaired exactly, a new `Z'` is
/// re-selected over the repaired `R₁` prefix, and the whole truncated
/// suffix regenerates under `Z'`. The statistical certification
/// contract holds throughout — every stored set remains a valid sample
/// of the new graph and bounds re-derive per query — but bit-equivalence
/// to a fresh rebuild is not promised for a refreshed suffix.
pub(crate) fn repair_pool(
    pool: &PoolState,
    delta: &GraphDelta,
    sampler: &RrSampler<'_>,
    workers: &WorkerPool,
    config: &IndexConfig,
) -> Result<RepairedPool, PoolError> {
    let targets = delta.targets();
    let (chunk_size, seed, threads) = (config.chunk_size, config.seed, config.threads);
    let repaired = |r1, r2, sentinel, sketch, dirty_sets, dirty_chunks, refreshed| {
        RepairedPool::new(
            PoolState {
                r1,
                r2,
                chunks: pool.chunks,
                sentinel,
                sketch,
            },
            targets.len(),
            dirty_sets,
            dirty_chunks,
            refreshed,
            chunk_size,
        )
    };
    let half = |rr: &RrCollection, seed| {
        repair_half(rr, &targets, sampler, workers, chunk_size, seed, threads)
    };
    // Sketched validation tier (mutually exclusive with sentinels): R₁
    // repairs exactly, the sketch repairs chunk-wise on the same
    // membership predicate. The sketch cannot count individual dirty
    // sets, so `dirty_sets_r2` reports the regenerated whole chunks'
    // set count (what was actually redrawn).
    if let Some(sk) = &pool.sketch {
        let h1 = half(&pool.r1, seed)?;
        let rs = repair_sketch(sk, &targets, sampler, workers, seed ^ R2_STREAM)?;
        return Ok(repaired(
            h1.rr,
            pool.r2.clone(),
            None,
            Some(rs.sketch),
            [h1.dirty_sets, rs.dirty_chunks * chunk_size],
            [h1.dirty_chunks, rs.dirty_chunks],
            false,
        ));
    }
    let Some(st) = pool.sentinel.as_ref().filter(|st| !st.set.is_empty()) else {
        let h1 = half(&pool.r1, seed)?;
        let h2 = half(&pool.r2, seed ^ R2_STREAM)?;
        return Ok(repaired(
            h1.rr,
            h2.rr,
            pool.sentinel.clone(),
            None,
            [h1.dirty_sets, h2.dirty_sets],
            [h1.dirty_chunks, h2.dirty_chunks],
            false,
        ));
    };
    let stale = delta.ops().iter().any(|op| {
        let (u, v) = op.endpoints();
        st.set.contains(u) || st.set.contains(v)
    });
    if !stale {
        let sentinel_half = |rr: &RrCollection, hits: &[u64], seed| {
            repair_half_sentinel(
                rr,
                &targets,
                st.set.nodes(),
                st.from_chunk,
                hits,
                sampler,
                workers,
                chunk_size,
                seed,
                threads,
            )
        };
        let h1 = sentinel_half(&pool.r1, &st.chunk_hits_r1, seed)?;
        let h2 = sentinel_half(&pool.r2, &st.chunk_hits_r2, seed ^ R2_STREAM)?;
        let sentinel = SentinelState {
            set: st.set.clone(),
            from_chunk: st.from_chunk,
            chunk_hits_r1: h1.chunk_hits,
            chunk_hits_r2: h2.chunk_hits,
        };
        return Ok(repaired(
            h1.rr,
            h2.rr,
            Some(sentinel),
            None,
            [h1.dirty_sets, h2.dirty_sets],
            [h1.dirty_chunks, h2.dirty_chunks],
            false,
        ));
    }
    // Stale sentinel: repair the plain prefix exactly, re-select Z' over
    // it, then regenerate the whole truncated suffix under Z'.
    let n = pool.r1.graph_n();
    let prefix_sets = (st.from_chunk as usize) * chunk_size;
    let mut p1 = RrCollection::new(n);
    p1.extend_from_range(&pool.r1, 0..prefix_sets);
    let mut p2 = RrCollection::new(n);
    p2.extend_from_range(&pool.r2, 0..prefix_sets);
    let h1 = half(&p1, seed)?;
    let h2 = half(&p2, seed ^ R2_STREAM)?;
    let budget = if config.sentinels > 0 {
        config.sentinels
    } else {
        st.set.len()
    };
    let fresh = SentinelSet::select(&[&h1.rr], sampler.graph(), budget);
    let chunks = pool.chunks;
    let suffix_chunks = chunks.saturating_sub(st.from_chunk) as usize;
    let mut out1 = h1.rr;
    let mut out2 = h2.rr;
    let mut hits1 = vec![0u64; st.from_chunk as usize];
    let mut hits2 = vec![0u64; st.from_chunk as usize];
    if suffix_chunks > 0 {
        let z = (!fresh.is_empty()).then(|| fresh.nodes().to_vec());
        let b1 = workers.try_generate_chunks(
            sampler,
            z.as_deref(),
            st.from_chunk..chunks,
            chunk_size,
            seed,
        )?;
        let b2 = workers.try_generate_chunks(
            sampler,
            z.as_deref(),
            st.from_chunk..chunks,
            chunk_size,
            seed ^ R2_STREAM,
        )?;
        hits1.extend_from_slice(&b1.chunk_hits);
        hits2.extend_from_slice(&b2.chunk_hits);
        out1.extend_from(&b1.rr);
        out2.extend_from(&b2.rr);
    }
    let sentinel = SentinelState {
        set: fresh,
        from_chunk: st.from_chunk,
        chunk_hits_r1: hits1,
        chunk_hits_r2: hits2,
    };
    Ok(repaired(
        out1,
        out2,
        Some(sentinel),
        None,
        [h1.dirty_sets, h2.dirty_sets],
        [
            h1.dirty_chunks + suffix_chunks,
            h2.dirty_chunks + suffix_chunks,
        ],
        true,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_diffusion::RrStrategy;
    use subsim_graph::generators::barabasi_albert;
    use subsim_graph::{Graph, GraphBuilder, WeightModel};

    /// Regenerates a whole half from scratch — the reference repair.
    fn full_rebuild(
        g: &Graph,
        chunks: u64,
        chunk_size: usize,
        seed: u64,
        strategy: RrStrategy,
    ) -> RrCollection {
        let sampler = RrSampler::new(g, strategy);
        let pool = WorkerPool::new(1);
        pool.generate_chunks(&sampler, None, 0..chunks, chunk_size, seed)
            .rr
    }

    /// A per-edge-weight mutation of `g`: reweights the first edge into
    /// the highest-in-degree node.
    fn mutate(g: &Graph) -> (Graph, NodeId) {
        let hub = (0..g.n() as NodeId)
            .max_by_key(|&v| g.in_degree(v))
            .unwrap();
        let u = g.in_neighbors(hub)[0];
        let mut b = GraphBuilder::new(g.n()).keep_self_loops(true);
        for (a, c, p) in g.edges() {
            let p = if (a, c) == (u, hub) {
                (p * 0.5).min(1.0)
            } else {
                p
            };
            b = b.add_weighted_edge(a, c, p);
        }
        (b.build().unwrap(), hub)
    }

    #[test]
    fn repaired_half_matches_full_rebuild() {
        // Normalized (per-edge) storage on both versions, as the
        // versioned pipeline guarantees.
        let raw = barabasi_albert(300, 3, WeightModel::Wc, 21);
        let mut b = GraphBuilder::new(raw.n()).keep_self_loops(true);
        for (u, v, p) in raw.edges() {
            b = b.add_weighted_edge(u, v, p);
        }
        let old = b.build().unwrap();
        let (new, hub) = mutate(&old);
        let (chunks, chunk_size, seed) = (10u64, 32usize, 77u64);
        let old_pool = full_rebuild(&old, chunks, chunk_size, seed, RrStrategy::SubsimIc);
        let reference = full_rebuild(&new, chunks, chunk_size, seed, RrStrategy::SubsimIc);

        let sampler = RrSampler::new(&new, RrStrategy::SubsimIc);
        for threads in [1, 2, 4] {
            let workers = WorkerPool::new(threads);
            let repaired = repair_half(
                &old_pool,
                &[hub],
                &sampler,
                &workers,
                chunk_size,
                seed,
                threads,
            )
            .unwrap();
            assert_eq!(repaired.rr.len(), reference.len());
            for i in 0..reference.len() {
                assert_eq!(
                    repaired.rr.get(i),
                    reference.get(i),
                    "threads={threads} set {i}"
                );
            }
            assert!(repaired.dirty_sets > 0, "hub must appear in some set");
            assert!(
                repaired.dirty_chunks <= chunks as usize,
                "chunk count bounded"
            );
        }
    }

    /// Sketches a whole half the way `ensure_pool` would: one absorbed
    /// batch covering chunks `0..chunks`.
    fn sketch_of(g: &Graph, chunks: u64, chunk_size: usize, seed: u64, p: u8) -> SketchedPool {
        let rr = full_rebuild(g, chunks, chunk_size, seed, RrStrategy::SubsimIc);
        let mut sk = SketchedPool::new(g.n(), chunk_size, p);
        sk.absorb_batch(0, &rr);
        sk
    }

    #[test]
    fn repaired_sketch_matches_full_rebuild_sketch() {
        let raw = barabasi_albert(300, 3, WeightModel::Wc, 24);
        let mut b = GraphBuilder::new(raw.n()).keep_self_loops(true);
        for (u, v, p) in raw.edges() {
            b = b.add_weighted_edge(u, v, p);
        }
        let old = b.build().unwrap();
        let (new, hub) = mutate(&old);
        let (chunks, chunk_size, seed) = (10u64, 32usize, 78u64);
        let old_sketch = sketch_of(&old, chunks, chunk_size, seed, 6);
        let reference = sketch_of(&new, chunks, chunk_size, seed, 6);

        let sampler = RrSampler::new(&new, RrStrategy::SubsimIc);
        for threads in [1, 2, 4] {
            let workers = WorkerPool::new(threads);
            let repaired = repair_sketch(&old_sketch, &[hub], &sampler, &workers, seed).unwrap();
            assert!(repaired.dirty_chunks > 0, "hub must appear in some chunk");
            assert!(repaired.dirty_chunks <= chunks as usize);
            assert_eq!(repaired.sketch, reference, "threads={threads}");
        }

        // A target outside every sketched chunk leaves the sketch alone.
        let absent = (0..old.n() as NodeId).find(|&v| old_sketch.dirty_chunks(&[v]).is_empty());
        if let Some(v) = absent {
            let workers = WorkerPool::new(2);
            let repaired = repair_sketch(&old_sketch, &[v], &sampler, &workers, seed).unwrap();
            assert_eq!(repaired.dirty_chunks, 0);
            assert_eq!(repaired.sketch, old_sketch);
        }
    }

    #[test]
    fn untouched_target_repairs_nothing() {
        let raw = barabasi_albert(200, 3, WeightModel::Wc, 22);
        let mut b = GraphBuilder::new(raw.n()).keep_self_loops(true);
        for (u, v, p) in raw.edges() {
            b = b.add_weighted_edge(u, v, p);
        }
        let g = b.build().unwrap();
        let sampler = RrSampler::new(&g, RrStrategy::SubsimIc);
        let workers = WorkerPool::new(2);
        let pool = full_rebuild(&g, 6, 16, 5, RrStrategy::SubsimIc);
        // A target no set contains: impossible by id range, so find one
        // absent from the pool (or skip if the pool covers every node).
        let mut present = vec![false; g.n()];
        for set in pool.iter() {
            for &v in set {
                present[v as usize] = true;
            }
        }
        let Some(absent) = present.iter().position(|&p| !p) else {
            return;
        };
        let repaired =
            repair_half(&pool, &[absent as NodeId], &sampler, &workers, 16, 5, 2).unwrap();
        assert_eq!(repaired.dirty_sets, 0);
        assert_eq!(repaired.dirty_chunks, 0);
        for i in 0..pool.len() {
            assert_eq!(repaired.rr.get(i), pool.get(i));
        }
    }

    #[test]
    fn worker_panic_mid_repair_is_typed_and_pool_stays_usable() {
        let raw = barabasi_albert(200, 3, WeightModel::Wc, 23);
        let mut b = GraphBuilder::new(raw.n()).keep_self_loops(true);
        for (u, v, p) in raw.edges() {
            b = b.add_weighted_edge(u, v, p);
        }
        let g = b.build().unwrap();
        let hub = (0..g.n() as NodeId)
            .max_by_key(|&v| g.in_degree(v))
            .unwrap();
        let sampler = RrSampler::new(&g, RrStrategy::SubsimIc);
        let workers = WorkerPool::new(3);
        let pool = full_rebuild(&g, 8, 16, 9, RrStrategy::SubsimIc);
        workers.set_chunk_hook(Some(std::sync::Arc::new(|_, _| panic!("injected fault"))));
        let err = repair_half(&pool, &[hub], &sampler, &workers, 16, 9, 3).unwrap_err();
        assert_eq!(err, PoolError::WorkerPanicked);
        // Hook cleared: the same pool repairs normally afterwards.
        workers.set_chunk_hook(None);
        let repaired = repair_half(&pool, &[hub], &sampler, &workers, 16, 9, 3).unwrap();
        assert_eq!(repaired.rr.len(), pool.len());
    }

    #[test]
    fn repair_fraction_reads_the_report() {
        let r = RepairReport {
            regenerated_sets: 64,
            pool_sets: 256,
            ..RepairReport::default()
        };
        assert!((r.repair_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(RepairReport::default().repair_fraction(), 0.0);
    }
}
