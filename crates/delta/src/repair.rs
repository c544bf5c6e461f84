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
use std::sync::Arc;
use std::time::Duration;
use subsim_core::SentinelSet;
use subsim_diffusion::pool::{PoolError, WorkerPool};
use subsim_diffusion::{InvertedIndex, ParBatch, RrCollection, RrSampler};
use subsim_graph::NodeId;
use subsim_index::{
    for_each_arena, Arena, ChunkMap, IndexConfig, PoolState, SentinelState, R2_STREAM,
};
use subsim_sketch::SketchedPool;

/// What one repair (via [`repair_pool`], as
/// [`crate::DeltaIndex::apply_delta`] runs it) did.
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
    /// `(global chunk, sentinel hits)` of every regenerated truncated
    /// chunk; empty without a sentinel.
    pub hits: Vec<(u64, u64)>,
}

/// Repairs one pool half against the new graph bound in `sampler`.
///
/// `pool` is the half as generated on the *previous* version with chunk
/// stream `seed`: every `chunk_size` consecutive sets form one chunk, and
/// local chunk `j` is global chunk `map.global(j)` (the identity for a
/// one-arena pool, `s + j·N` for arena `s` of `N`). `index` is the
/// inverted index over `pool`, and `targets` are the delta's mutated
/// in-list endpoints.
///
/// With `sentinel = Some((z, from_chunk))`, global chunks at or above
/// `from_chunk` were generated through the Alg 5 stopping wrapper with
/// sentinel set `z`. Dirtiness detection is unchanged: a truncated
/// traversal also consumes randomness strictly per *visited* node and
/// stops at the sentinel without ever reading the sentinel's in-list, so
/// a truncated set not containing a mutated target replays
/// bit-identically on the new graph as long as `z` itself is unchanged.
/// Dirty chunks below `from_chunk` regenerate plain, the rest under `z`,
/// and their fresh hit counts come back in [`RepairedHalf::hits`].
///
/// The result is bit-identical to regenerating the whole half on the new
/// graph. A worker panic during regeneration surfaces as
/// [`PoolError::WorkerPanicked`]; `pool` is untouched (the caller keeps
/// serving its pre-repair content) and `workers` stays usable.
#[allow(clippy::too_many_arguments)]
pub fn repair_half(
    pool: &RrCollection,
    index: &InvertedIndex,
    map: ChunkMap,
    sentinel: Option<(&[NodeId], u64)>,
    targets: &[NodeId],
    sampler: &RrSampler<'_>,
    workers: &WorkerPool,
    chunk_size: usize,
    seed: u64,
) -> Result<RepairedHalf, PoolError> {
    assert!(chunk_size > 0, "chunks must hold at least one set");
    assert_eq!(
        pool.len() % chunk_size,
        0,
        "pool half must be a whole number of chunks"
    );
    let mut dirty_sets: Vec<u32> = targets
        .iter()
        .flat_map(|&t| index.sets_containing(t))
        .copied()
        .collect();
    dirty_sets.sort_unstable();
    dirty_sets.dedup();
    let mut dirty_local: Vec<u64> = dirty_sets
        .iter()
        .map(|&s| s as u64 / chunk_size as u64)
        .collect();
    dirty_local.dedup(); // dirty_sets sorted => chunk positions sorted

    let (z, from_chunk) = sentinel.map_or((None, u64::MAX), |(z, from)| (Some(z), from));
    let (trunc_ids, plain_ids): (Vec<u64>, Vec<u64>) = dirty_local
        .iter()
        .map(|&j| map.global(j))
        .partition(|&c| c >= from_chunk);
    let generate = |ids: &[u64], z| -> Result<Option<ParBatch>, PoolError> {
        if ids.is_empty() {
            return Ok(None);
        }
        workers
            .try_generate_chunk_ids(sampler, z, ids, chunk_size, seed)
            .map(Some)
    };
    let plain = generate(&plain_ids, None)?;
    let trunc = generate(&trunc_ids, z)?;
    let hits = trunc.as_ref().map_or_else(Vec::new, |b| {
        trunc_ids
            .iter()
            .copied()
            .zip(b.chunk_hits.iter().copied())
            .collect()
    });

    let mut rr = RrCollection::new(pool.graph_n());
    let mut cursor = 0usize;
    let (mut pi, mut ti) = (0usize, 0usize);
    for &j in &dirty_local {
        let lo = j as usize * chunk_size;
        rr.extend_from_range(pool, cursor..lo);
        let (batch, k) = if map.global(j) < from_chunk {
            pi += 1;
            (&plain, pi - 1)
        } else {
            ti += 1;
            (&trunc, ti - 1)
        };
        let batch = batch
            .as_ref()
            .expect("a batch exists for every dirty chunk");
        rr.extend_from_range(&batch.rr, k * chunk_size..(k + 1) * chunk_size);
        cursor = lo + chunk_size;
    }
    rr.extend_from_range(pool, cursor..pool.len());
    debug_assert_eq!(rr.len(), pool.len());
    Ok(RepairedHalf {
        rr,
        dirty_sets: dirty_sets.len(),
        dirty_chunks: dirty_local.len(),
        hits,
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
/// sketch identical). Chunks are keyed by global id, so an arena's
/// sketch repairs without a chunk map.
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
#[derive(Debug)]
pub struct RepairedPool {
    /// The pool, repaired against the new graph.
    pub pool: PoolState,
    /// What the repair did.
    pub report: RepairReport,
}

/// One arena's repair: the new arena plus its share of the report.
struct ArenaRepair {
    arena: Arc<Arena>,
    dirty_sets: [usize; 2],
    dirty_chunks: [usize; 2],
    hits: [Vec<(u64, u64)>; 2],
}

/// Repairs every arena of `pool` — and the sentinel tier, if present —
/// against the new graph bound in `sampler`, with `workers[s]` repairing
/// arena `s`: the engine behind every index's `apply_delta`.
///
/// Each exact half repairs through [`repair_half`] under its arena's
/// chunk map (bit-exact rebuild equivalence); `R₁` reuses the arena's
/// resident index. A sketched `R₂` repairs through [`repair_sketch`].
/// With a sentinel whose set `Z` is untouched by the delta (no op
/// endpoint in `Z`), the halves repair with `(Z, from_chunk)`: the
/// truncation boundary is preserved and hit counters refresh for
/// regenerated truncated chunks. When the delta rewires a sentinel's own
/// edges, `Z`'s selection basis is gone: the plain warmup prefix is
/// repaired exactly, a new `Z'` is re-selected over the repaired `R₁`
/// prefix, and the whole truncated suffix regenerates under `Z'`. The
/// statistical certification contract holds throughout — every stored
/// set remains a valid sample of the new graph and bounds re-derive per
/// query — but bit-equivalence to a fresh rebuild is not promised for a
/// refreshed suffix. On error nothing changes.
pub fn repair_pool(
    pool: &PoolState,
    delta: &GraphDelta,
    sampler: &RrSampler<'_>,
    workers: &[WorkerPool],
    config: &IndexConfig,
) -> Result<RepairedPool, PoolError> {
    assert_eq!(
        workers.len(),
        pool.arena_count(),
        "one worker pool per arena"
    );
    let targets = delta.targets();
    let (chunk, seed) = (config.chunk_size, config.seed);
    let st = pool.sentinel.as_ref().filter(|st| !st.set.is_empty());
    let stale = st.is_some_and(|st| {
        delta.ops().iter().any(|op| {
            let (u, v) = op.endpoints();
            st.set.contains(u) || st.set.contains(v)
        })
    });
    let half = |rr: &RrCollection, idx: &InvertedIndex, map, z, w: &WorkerPool, seed| {
        repair_half(rr, idx, map, z, &targets, sampler, w, chunk, seed)
    };
    let indexed =
        |rr: &RrCollection, w: &WorkerPool| InvertedIndex::build_parallel(rr, w.threads());

    let (repairs, mut sentinel) = match st {
        Some(st) if stale => {
            // Repair every arena's plain prefix exactly, re-select Z' over
            // the union prefix, then regenerate the truncated suffix under
            // Z'.
            let from = st.from_chunk;
            let prefixes = for_each_arena(workers, |s, w| {
                let (old, map) = (pool.arena(s), pool.chunk_map(s));
                let sets = map.owned_below(from) as usize * chunk;
                let prefix = |rr: &RrCollection| {
                    let mut p = RrCollection::new(rr.graph_n());
                    p.extend_from_range(rr, 0..sets);
                    p
                };
                let (p1, p2) = (prefix(old.selection_pool()), prefix(old.validation_pool()));
                let h1 = half(&p1, &indexed(&p1, w), map, None, w, seed)?;
                let h2 = half(&p2, &indexed(&p2, w), map, None, w, seed ^ R2_STREAM)?;
                Ok::<_, PoolError>((h1, h2))
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
            let budget = if config.sentinels > 0 {
                config.sentinels
            } else {
                st.set.len()
            };
            let r1s: Vec<&RrCollection> = prefixes.iter().map(|(h1, _)| &h1.rr).collect();
            let fresh = SentinelSet::select(&r1s, sampler.graph(), budget);
            let z = (!fresh.is_empty()).then(|| fresh.nodes());
            let repairs = for_each_arena(workers, |s, w| {
                let (h1, h2) = &prefixes[s];
                let ids = pool.chunk_map(s).owned(from..pool.chunks);
                let b1 = w.try_generate_chunk_ids(sampler, z, &ids, chunk, seed)?;
                let b2 = w.try_generate_chunk_ids(sampler, z, &ids, chunk, seed ^ R2_STREAM)?;
                let joined = |prefix: &RrCollection, suffix: &RrCollection| {
                    let mut rr = prefix.clone();
                    rr.extend_from(suffix);
                    rr
                };
                let hits = |b: &ParBatch| {
                    ids.iter()
                        .copied()
                        .zip(b.chunk_hits.iter().copied())
                        .collect()
                };
                Ok::<_, PoolError>(ArenaRepair {
                    arena: Arc::new(Arena::new(
                        joined(&h1.rr, &b1.rr),
                        joined(&h2.rr, &b2.rr),
                        None,
                        w.threads(),
                    )),
                    dirty_sets: [h1.dirty_sets, h2.dirty_sets],
                    dirty_chunks: [h1.dirty_chunks + ids.len(), h2.dirty_chunks + ids.len()],
                    hits: [hits(&b1), hits(&b2)],
                })
            });
            let sentinel = SentinelState {
                set: fresh,
                from_chunk: from,
                chunk_hits_r1: vec![0; pool.chunks as usize],
                chunk_hits_r2: vec![0; pool.chunks as usize],
            };
            (repairs, Some(sentinel))
        }
        _ => {
            let z = st.map(|st| (st.set.nodes(), st.from_chunk));
            let repairs = for_each_arena(workers, |s, w| {
                let (old, map) = (pool.arena(s), pool.chunk_map(s));
                let h1 = half(old.selection_pool(), old.inverted_index(), map, z, w, seed)?;
                // Sketched validation tier (mutually exclusive with
                // sentinels): the sketch repairs chunk-wise on the same
                // membership predicate. It cannot count individual dirty
                // sets, so `dirty_sets_r2` reports the regenerated whole
                // chunks' set count (what was actually redrawn).
                let (r2, sketch, sets2, chunks2, hits2) = match old.sketch_state() {
                    Some(sk) => {
                        let rs = repair_sketch(sk, &targets, sampler, w, seed ^ R2_STREAM)?;
                        let sets = rs.dirty_chunks * chunk;
                        let r2 = old.validation_pool().clone();
                        (r2, Some(rs.sketch), sets, rs.dirty_chunks, Vec::new())
                    }
                    None => {
                        let r2 = old.validation_pool();
                        let h2 = half(r2, &indexed(r2, w), map, z, w, seed ^ R2_STREAM)?;
                        (h2.rr, None, h2.dirty_sets, h2.dirty_chunks, h2.hits)
                    }
                };
                let arena = if h1.dirty_chunks > 0 {
                    Arc::new(Arena::new(h1.rr, r2, sketch, w.threads()))
                } else if chunks2 > 0 {
                    // R₁ untouched: keep it and its resident index.
                    Arc::new(old.with_validation(r2, sketch))
                } else {
                    Arc::clone(&pool.arenas[s])
                };
                Ok::<_, PoolError>(ArenaRepair {
                    arena,
                    dirty_sets: [h1.dirty_sets, sets2],
                    dirty_chunks: [h1.dirty_chunks, chunks2],
                    hits: [h1.hits, hits2],
                })
            });
            (repairs, pool.sentinel.clone())
        }
    };

    let mut report = RepairReport {
        targets: targets.len(),
        sentinel_refreshed: stale,
        ..RepairReport::default()
    };
    let mut arenas = Vec::with_capacity(pool.arena_count());
    for repair in repairs {
        let r = repair?;
        report.dirty_sets_r1 += r.dirty_sets[0];
        report.dirty_sets_r2 += r.dirty_sets[1];
        report.dirty_chunks_r1 += r.dirty_chunks[0];
        report.dirty_chunks_r2 += r.dirty_chunks[1];
        if let Some(st) = sentinel.as_mut() {
            for (c, h) in &r.hits[0] {
                st.chunk_hits_r1[*c as usize] = *h;
            }
            for (c, h) in &r.hits[1] {
                st.chunk_hits_r2[*c as usize] = *h;
            }
        }
        arenas.push(r.arena);
    }
    let pool = PoolState {
        arenas,
        chunks: pool.chunks,
        sentinel,
    };
    report.regenerated_sets = (report.dirty_chunks_r1 + report.dirty_chunks_r2) * chunk;
    report.pool_sets = 2 * pool.pool_len();
    Ok(RepairedPool { pool, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_diffusion::RrStrategy;
    use subsim_graph::generators::barabasi_albert;
    use subsim_graph::{Graph, GraphBuilder, WeightModel};

    /// [`repair_half`] over a whole plain half: identity chunk map, index
    /// built with `threads` threads.
    fn repair_plain(
        pool: &RrCollection,
        targets: &[NodeId],
        sampler: &RrSampler<'_>,
        workers: &WorkerPool,
        chunk_size: usize,
        seed: u64,
        threads: usize,
    ) -> Result<RepairedHalf, PoolError> {
        let idx = InvertedIndex::build_parallel(pool, threads);
        repair_half(
            pool,
            &idx,
            ChunkMap {
                arena: 0,
                arenas: 1,
            },
            None,
            targets,
            sampler,
            workers,
            chunk_size,
            seed,
        )
    }

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
            let repaired = repair_plain(
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

        // Arena `s` of `N` stores the owned chunks `s + j·N`; with and
        // without a sentinel boundary inside the stream, its repair equals
        // those chunk ids generated on the new graph. `Z` avoids the
        // mutated edge's endpoints, as a non-stale repair requires.
        let u = old.in_neighbors(hub)[0];
        let z = (0..old.n() as NodeId)
            .filter(|&v| v != hub && v != u)
            .max_by_key(|&v| old.in_degree(v))
            .unwrap();
        let from_chunk = 4u64;
        let old_sampler = RrSampler::new(&old, RrStrategy::SubsimIc);
        let workers = WorkerPool::new(2);
        let owned = |sampler: &RrSampler<'_>, ids: &[u64], sentinel: bool| {
            let (trunc, plain): (Vec<u64>, Vec<u64>) =
                ids.iter().partition(|&&c| sentinel && c >= from_chunk);
            let mut rr = workers
                .generate_chunk_ids(sampler, None, &plain, chunk_size, seed)
                .rr;
            let b = workers.generate_chunk_ids(sampler, Some(&[z]), &trunc, chunk_size, seed);
            rr.extend_from(&b.rr);
            (rr, trunc.into_iter().zip(b.chunk_hits).collect::<Vec<_>>())
        };
        for arenas in [2u64, 3] {
            for s in 0..arenas {
                let map = ChunkMap { arena: s, arenas };
                let ids = map.owned(0..chunks);
                for sentinel in [false, true] {
                    let tag = format!("arena {s} of {arenas}, sentinel={sentinel}");
                    let (old_arena, _) = owned(&old_sampler, &ids, sentinel);
                    let (reference, hits) = owned(&sampler, &ids, sentinel);
                    let idx = InvertedIndex::build(&old_arena);
                    let repaired = repair_half(
                        &old_arena,
                        &idx,
                        map,
                        sentinel.then_some((&[z][..], from_chunk)),
                        &[hub],
                        &sampler,
                        &workers,
                        chunk_size,
                        seed,
                    )
                    .unwrap();
                    assert_eq!(repaired.rr.len(), reference.len(), "{tag}");
                    for i in 0..reference.len() {
                        assert_eq!(repaired.rr.get(i), reference.get(i), "{tag} set {i}");
                    }
                    for (c, h) in &repaired.hits {
                        assert!(hits.contains(&(*c, *h)), "{tag}: hits of chunk {c}");
                    }
                }
            }
        }
    }

    /// Sketches a whole half the way pool growth would: chunks
    /// `0..chunks`, absorbed in one batch.
    fn sketch_of(g: &Graph, chunks: u64, chunk_size: usize, seed: u64, p: u8) -> SketchedPool {
        let rr = full_rebuild(g, chunks, chunk_size, seed, RrStrategy::SubsimIc);
        let mut sk = SketchedPool::new(g.n(), chunk_size, p);
        sk.absorb_chunk_ids(&(0..chunks).collect::<Vec<_>>(), &rr);
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
            repair_plain(&pool, &[absent as NodeId], &sampler, &workers, 16, 5, 2).unwrap();
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
        let err = repair_plain(&pool, &[hub], &sampler, &workers, 16, 9, 3).unwrap_err();
        assert_eq!(err, PoolError::WorkerPanicked);
        // Hook cleared: the same pool repairs normally afterwards.
        workers.set_chunk_hook(None);
        let repaired = repair_plain(&pool, &[hub], &sampler, &workers, 16, 9, 3).unwrap();
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
