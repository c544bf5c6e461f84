//! The one pool engine: N chunk-owned arenas with one growth step, one
//! ladder step and one per-arena fan-out.
//!
//! Chunk `c` of `R₁` is generated from `chunk_seed(seed, c)` and chunk
//! `c` of `R₂` from `chunk_seed(seed ^ R2_STREAM, c)`, so pool content is
//! a pure function of `(config, chunks)`. Arena `s` of `N` stores the
//! chunks `c ≡ s (mod N)` in ascending order; the arena count decides
//! only where a chunk lives, never what it holds. A sequential index is
//! the one-arena pool, a sharded index the N-arena pool.

use crate::certify::{PoolView, Validation};
use crate::error::IndexError;
use crate::index::{IndexConfig, SentinelState, R2_STREAM, SENTINEL_WARMUP_CHUNKS};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;
use subsim_core::sentinel::SentinelSet;
use subsim_diffusion::pool::{PoolError, WorkerPool};
use subsim_diffusion::{InvertedIndex, RrCollection, RrSampler};
use subsim_graph::Graph;
use subsim_sketch::{SketchedPool, MAX_PRECISION};

/// One generation batch, as growth and promotion report it so each index
/// can record it into its own counters or metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Generated {
    /// RR sets generated, both halves.
    pub sets: u64,
    /// Arena node entries generated.
    pub nodes: u64,
    /// Generation cost proxy (see `subsim_diffusion::RrContext::cost`).
    pub cost: u64,
    /// Worker wall-clock of the batch.
    pub elapsed: Duration,
    /// Traversals stopped at a sentinel.
    pub sentinel_hits: u64,
    /// Whether the batch ran under sentinel truncation.
    pub truncated: bool,
}

/// Where an arena's chunks sit in the global stream: local chunk `j` of
/// arena `arena` is global chunk `arena + j · arenas`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMap {
    /// The arena's index.
    pub arena: u64,
    /// The arena count.
    pub arenas: u64,
}

impl ChunkMap {
    /// The global chunk id of local chunk `j`.
    pub fn global(self, j: u64) -> u64 {
        self.arena + j * self.arenas
    }

    /// The owned global chunk ids inside `range`, ascending.
    pub fn owned(self, range: Range<u64>) -> Vec<u64> {
        range.filter(|c| c % self.arenas == self.arena).collect()
    }

    /// How many owned chunks lie below global chunk `limit`.
    pub fn owned_below(self, limit: u64) -> u64 {
        limit.saturating_sub(self.arena).div_ceil(self.arenas)
    }
}

/// One chunk-owned arena: both halves of the owned chunks plus the
/// resident inverted index over `R₁`, which certification and delta
/// repair both reuse.
#[derive(Debug, Clone)]
pub struct Arena {
    r1: RrCollection,
    r2: RrCollection,
    idx1: Arc<InvertedIndex>,
    sketch: Option<SketchedPool>,
}

impl Arena {
    /// An arena over the given halves, indexing `R₁` with `threads`
    /// threads. `r2` is empty when `sketch` holds the validation half.
    pub fn new(
        r1: RrCollection,
        r2: RrCollection,
        sketch: Option<SketchedPool>,
        threads: usize,
    ) -> Self {
        let idx1 = Arc::new(InvertedIndex::build_parallel(&r1, threads));
        Arena {
            r1,
            r2,
            idx1,
            sketch,
        }
    }

    /// This arena with its validation half replaced; `R₁` and its index
    /// carry over.
    pub fn with_validation(&self, r2: RrCollection, sketch: Option<SketchedPool>) -> Self {
        Arena {
            r1: self.r1.clone(),
            r2,
            idx1: Arc::clone(&self.idx1),
            sketch,
        }
    }

    /// The arena's slice of the selection half `R₁`.
    pub fn selection_pool(&self) -> &RrCollection {
        &self.r1
    }

    /// The arena's slice of the validation half `R₂` (empty when
    /// sketched).
    pub fn validation_pool(&self) -> &RrCollection {
        &self.r2
    }

    /// The resident inverted index over [`Arena::selection_pool`].
    pub fn inverted_index(&self) -> &InvertedIndex {
        &self.idx1
    }

    /// The arena's sketched validation chunks, keyed by global chunk id,
    /// if the sketch tier is active.
    pub fn sketch_state(&self) -> Option<&SketchedPool> {
        self.sketch.as_ref()
    }

    /// Arena node entries the budget counts: both exact halves, plus a
    /// sketch's resident bytes in 4-byte node-entry equivalents.
    fn nodes_in_use(&self) -> usize {
        self.r1.total_nodes()
            + self.r2.total_nodes()
            + self
                .sketch
                .as_ref()
                .map_or(0, |sk| sk.resident_bytes() as usize / 4)
    }
}

/// Runs `f` once per arena on that arena's workers and returns the
/// results in arena order: inline for one arena, on one scoped thread
/// per arena otherwise. Every per-arena step of the engine fans out
/// through here.
pub fn for_each_arena<T: Send>(
    workers: &[WorkerPool],
    f: impl Fn(usize, &WorkerPool) -> T + Sync,
) -> Vec<T> {
    if let [only] = workers {
        return vec![f(0, only)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = workers
            .iter()
            .enumerate()
            .map(|(s, w)| scope.spawn(move || f(s, w)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("arena worker panicked"))
            .collect()
    })
}

/// One pool: its arenas, the RNG cursor, and the global sentinel state.
#[derive(Debug, Clone)]
pub struct PoolState {
    /// Arena `s` holds the chunks `c ≡ s (mod arenas.len())`. Shared with
    /// published snapshots; a step copies only the arenas it changes.
    pub arenas: Vec<Arc<Arena>>,
    /// RNG cursor: complete chunks generated per half, over all arenas.
    pub chunks: u64,
    /// Sentinel tier state; `None` while the pool is fully plain (tier
    /// disabled, or still inside the warmup prefix). Hit counters are
    /// indexed by global chunk id.
    pub sentinel: Option<SentinelState>,
}

impl PoolState {
    /// An empty pool over `n` nodes with `arenas` arenas for `config`'s
    /// tiers. This is where every index's configuration is checked.
    pub fn empty(n: usize, config: &IndexConfig, arenas: usize) -> Self {
        assert!(arenas > 0, "need at least one arena");
        assert!(config.threads > 0, "need at least one worker");
        assert!(config.chunk_size > 0, "chunks must hold at least one set");
        assert!(
            config.sketch == 0 || config.sentinels == 0,
            "sketch and sentinel tiers are mutually exclusive: truncated \
             sets would poison the count-distinct estimates"
        );
        let sketch = (config.sketch > 0)
            .then(|| SketchedPool::new(n, config.chunk_size, config.sketch as u8));
        let arena = Arc::new(Arena::new(
            RrCollection::new(n),
            RrCollection::new(n),
            sketch,
            1,
        ));
        PoolState {
            arenas: vec![arena; arenas],
            chunks: 0,
            sentinel: None,
        }
    }

    /// A one-arena pool over the given halves (`r2` empty when `sketch`
    /// holds the validation half).
    pub(crate) fn single(
        r1: RrCollection,
        r2: RrCollection,
        sketch: Option<SketchedPool>,
        chunks: u64,
        sentinel: Option<SentinelState>,
    ) -> Self {
        PoolState {
            arenas: vec![Arc::new(Arena::new(r1, r2, sketch, 1))],
            chunks,
            sentinel,
        }
    }

    /// The arena count.
    pub fn arena_count(&self) -> usize {
        self.arenas.len()
    }

    /// One arena.
    pub fn arena(&self, s: usize) -> &Arena {
        &self.arenas[s]
    }

    /// Where arena `s`'s chunks sit in the global stream.
    pub fn chunk_map(&self, s: usize) -> ChunkMap {
        ChunkMap {
            arena: s as u64,
            arenas: self.arenas.len() as u64,
        }
    }

    /// Sets per pool half, over all arenas.
    pub fn pool_len(&self) -> usize {
        self.arenas.iter().map(|a| a.r1.len()).sum()
    }

    /// The RNG cursor: complete chunks generated per half.
    pub fn chunk_cursor(&self) -> u64 {
        self.chunks
    }

    fn only(&self) -> &Arena {
        assert_eq!(self.arenas.len(), 1, "a one-arena accessor");
        &self.arenas[0]
    }

    /// The selection half `R₁` of a one-arena pool.
    pub fn selection_pool(&self) -> &RrCollection {
        &self.only().r1
    }

    /// The validation half `R₂` of a one-arena pool (empty when
    /// sketched).
    pub fn validation_pool(&self) -> &RrCollection {
        &self.only().r2
    }

    /// The sketched validation pool of a one-arena pool, if the sketch
    /// tier is active.
    pub fn sketch_state(&self) -> Option<&SketchedPool> {
        self.only().sketch.as_ref()
    }

    /// Replaces the sketch of a one-arena pool, returning the old one.
    pub(crate) fn set_sketch(&mut self, sketch: Option<SketchedPool>) -> Option<SketchedPool> {
        assert_eq!(self.arenas.len(), 1, "a one-arena accessor");
        std::mem::replace(&mut Arc::make_mut(&mut self.arenas[0]).sketch, sketch)
    }

    /// The sentinel tier state, if active.
    pub fn sentinel_state(&self) -> Option<&SentinelState> {
        self.sentinel.as_ref()
    }

    /// The live register precision, if the sketch tier is active.
    pub fn sketch_precision(&self) -> Option<u8> {
        self.arenas[0].sketch.as_ref().map(|sk| sk.precision())
    }

    /// Arena node entries across all arenas (what
    /// [`IndexConfig::max_nodes`] caps).
    pub(crate) fn nodes_in_use(&self) -> usize {
        self.arenas.iter().map(|a| a.nodes_in_use()).sum()
    }

    /// The view one certification round reads, over `g`: every arena's
    /// slices with their resident indexes.
    pub fn view<'a>(&'a self, g: &'a Graph) -> PoolView<'a> {
        let sketches: Option<Vec<&SketchedPool>> =
            self.arenas.iter().map(|a| a.sketch.as_ref()).collect();
        PoolView {
            r1: self.arenas.iter().map(|a| &a.r1).collect(),
            idx: Some(self.arenas.iter().map(|a| &*a.idx1).collect()),
            validation: match sketches {
                Some(sks) => Validation::Sketched(sks),
                None => Validation::Exact(self.arenas.iter().map(|a| &a.r2).collect()),
            },
            sentinel: self.sentinel.as_ref().map(|st| &st.set),
            graph: g,
        }
    }

    /// The exact halves re-laid over `arenas` arenas.
    fn relayout(&self, arenas: usize, chunk_size: usize) -> Vec<(RrCollection, RrCollection)> {
        let n = self.arenas[0].r1.graph_n();
        let from = self.arenas.len() as u64;
        let mut out = vec![(RrCollection::new(n), RrCollection::new(n)); arenas];
        for c in 0..self.chunks {
            let src = &self.arenas[(c % from) as usize];
            let lo = (c / from) as usize * chunk_size;
            let (r1, r2) = &mut out[(c % arenas as u64) as usize];
            r1.extend_from_range(&src.r1, lo..lo + chunk_size);
            // A sketched pool keeps its exact R₂ empty.
            if !src.r2.is_empty() {
                r2.extend_from_range(&src.r2, lo..lo + chunk_size);
            }
        }
        out
    }

    /// Both halves reassembled in global chunk order: what a one-arena
    /// pool at the same cursor holds.
    pub fn union_halves(&self, chunk_size: usize) -> (RrCollection, RrCollection) {
        self.relayout(1, chunk_size).pop().expect("one arena")
    }

    /// Every arena's sketch merged into the one-arena sketch (register-wise
    /// max over disjoint chunk sets). `None` when the tier is inactive.
    pub fn union_sketch(&self) -> Option<SketchedPool> {
        let first = self.arenas[0].sketch.as_ref()?;
        let mut union = SketchedPool::new(first.graph_n(), first.chunk_size(), first.precision());
        for a in &self.arenas {
            union.merge_from(a.sketch.as_ref().expect("every arena is sketched"));
        }
        Some(union)
    }

    /// The same pool laid out over `arenas` arenas.
    pub fn with_arenas(&self, arenas: usize, chunk_size: usize) -> PoolState {
        assert!(arenas > 0, "need at least one arena");
        if arenas == self.arenas.len() {
            return self.clone();
        }
        let mut sketches = match self.union_sketch() {
            Some(sk) => sk.split(arenas).into_iter().map(Some).collect(),
            None => vec![None; arenas],
        };
        PoolState {
            arenas: self
                .relayout(arenas, chunk_size)
                .into_iter()
                .zip(sketches.iter_mut())
                .map(|((r1, r2), sk)| Arc::new(Arena::new(r1, r2, sk.take(), 1)))
                .collect(),
            chunks: self.chunks,
            sentinel: self.sentinel.clone(),
        }
    }

    /// Grows both halves to at least `target_sets` each, continuing the
    /// chunk stream on the graph bound in `sampler`, with `workers[s]`
    /// generating arena `s`'s chunks. Returns the sets generated, both
    /// halves combined; `record` sees every batch.
    ///
    /// Growth runs in slices of `4 · threads` global chunks, and the node
    /// budget is re-checked before every slice, so one huge top-up cannot
    /// blow past [`IndexConfig::max_nodes`]. Crossing the plain warmup
    /// prefix activates the sentinel tier: `Z` is selected once, over
    /// exactly the plain chunks generated so far, and every later chunk
    /// runs under Algorithm 5 truncation. A slice lands in every arena or
    /// in none; on error the chunks of completed slices stay in the pool.
    /// Each arena that grew rebuilds its index once, at the end.
    pub fn grow_to(
        &mut self,
        sampler: &RrSampler<'_>,
        workers: &[WorkerPool],
        config: &IndexConfig,
        target_sets: usize,
        record: &mut dyn FnMut(&Generated),
    ) -> Result<usize, IndexError> {
        assert_eq!(
            workers.len(),
            self.arenas.len(),
            "one worker pool per arena"
        );
        let mut grown = vec![false; self.arenas.len()];
        let result = self.grow_slices(sampler, workers, config, target_sets, &mut grown, record);
        let rebuilt = for_each_arena(workers, |s, w| {
            grown[s].then(|| InvertedIndex::build_parallel(&self.arenas[s].r1, w.threads()))
        });
        for (arena, idx) in self.arenas.iter_mut().zip(rebuilt) {
            if let Some(idx) = idx {
                Arc::make_mut(arena).idx1 = Arc::new(idx);
            }
        }
        result
    }

    fn grow_slices(
        &mut self,
        sampler: &RrSampler<'_>,
        workers: &[WorkerPool],
        config: &IndexConfig,
        target_sets: usize,
        grown: &mut [bool],
        record: &mut dyn FnMut(&Generated),
    ) -> Result<usize, IndexError> {
        let chunk = config.chunk_size;
        let needed_chunks = target_sets.div_ceil(chunk) as u64;
        let slice = config.threads as u64 * 4;
        let mut added = 0usize;
        while self.chunks < needed_chunks {
            if let Some(cap) = config.max_nodes {
                let in_use = self.nodes_in_use();
                if in_use >= cap {
                    return Err(IndexError::MemoryBudget {
                        max_nodes: cap,
                        in_use,
                        wanted_sets: needed_chunks as usize * chunk,
                    });
                }
            }
            if config.sentinels > 0
                && self.sentinel.is_none()
                && self.chunks >= SENTINEL_WARMUP_CHUNKS
            {
                let r1s: Vec<&RrCollection> = self.arenas.iter().map(|a| &a.r1).collect();
                self.sentinel = Some(SentinelState {
                    set: SentinelSet::select(&r1s, sampler.graph(), config.sentinels),
                    from_chunk: self.chunks,
                    chunk_hits_r1: vec![0; self.chunks as usize],
                    chunk_hits_r2: vec![0; self.chunks as usize],
                });
            }
            let mut end = needed_chunks.min(self.chunks + slice);
            if config.sentinels > 0 && self.sentinel.is_none() {
                // Still inside the warmup prefix: stop this slice at the
                // boundary so the next iteration selects Z before any
                // truncated chunk is generated.
                end = end.min(SENTINEL_WARMUP_CHUNKS.max(self.chunks + 1));
            }
            let z = self
                .sentinel
                .as_ref()
                .filter(|st| !st.set.is_empty())
                .map(|st| st.set.nodes());
            let ids: Vec<Vec<u64>> = (0..self.arenas.len())
                .map(|s| self.chunk_map(s).owned(self.chunks..end))
                .collect();
            let batches = for_each_arena(workers, |s, w| {
                let b1 = w.try_generate_chunk_ids(sampler, z, &ids[s], chunk, config.seed)?;
                let b2 =
                    w.try_generate_chunk_ids(sampler, z, &ids[s], chunk, config.seed ^ R2_STREAM)?;
                Ok::<_, PoolError>((b1, b2))
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
            let truncated = z.is_some();
            if let Some(st) = &mut self.sentinel {
                st.chunk_hits_r1.resize(end as usize, 0);
                st.chunk_hits_r2.resize(end as usize, 0);
            }
            for (s, (b1, b2)) in batches.into_iter().enumerate() {
                let ids = &ids[s];
                if ids.is_empty() {
                    continue;
                }
                if let Some(st) = &mut self.sentinel {
                    for (j, &c) in ids.iter().enumerate() {
                        st.chunk_hits_r1[c as usize] = b1.chunk_hits[j];
                        st.chunk_hits_r2[c as usize] = b2.chunk_hits[j];
                    }
                }
                let sets = b1.rr.len() + b2.rr.len();
                record(&Generated {
                    sets: sets as u64,
                    nodes: (b1.rr.total_nodes() + b2.rr.total_nodes()) as u64,
                    cost: b1.cost + b2.cost,
                    elapsed: b1.elapsed + b2.elapsed,
                    sentinel_hits: b1.sentinel_hits + b2.sentinel_hits,
                    truncated,
                });
                added += sets;
                let arena = Arc::make_mut(&mut self.arenas[s]);
                arena.r1.extend_from(&b1.rr);
                match &mut arena.sketch {
                    Some(sk) => sk.absorb_chunk_ids(ids, &b2.rr),
                    None => arena.r2.extend_from(&b2.rr),
                }
                grown[s] = true;
            }
            self.chunks = end;
        }
        Ok(added)
    }

    /// The error-adaptive ladder step: regenerates the whole `R₂` chunk
    /// stream one register precision up and swaps every arena's sketch at
    /// once. Chunk content is a pure function of `(seed, chunk id)`, so
    /// the result is exactly what a pool configured at the higher
    /// precision from the start holds. Returns the regenerated sets;
    /// `record` sees every batch. On error no sketch changes.
    pub fn promote_sketch(
        &mut self,
        sampler: &RrSampler<'_>,
        workers: &[WorkerPool],
        config: &IndexConfig,
        record: &mut dyn FnMut(&Generated),
    ) -> Result<usize, IndexError> {
        assert_eq!(
            workers.len(),
            self.arenas.len(),
            "one worker pool per arena"
        );
        let precision = self.sketch_precision().expect("promotion without a sketch") + 1;
        assert!(precision <= MAX_PRECISION, "ladder past MAX_PRECISION");
        let chunk = config.chunk_size;
        let slice = config.threads * 4;
        let fresh = for_each_arena(workers, |s, w| {
            let old = self.arenas[s]
                .sketch
                .as_ref()
                .expect("every arena is sketched");
            let mut fresh = SketchedPool::new(old.graph_n(), chunk, precision);
            let mut batches = Vec::new();
            for ids in old.chunk_ids().chunks(slice) {
                let b =
                    w.try_generate_chunk_ids(sampler, None, ids, chunk, config.seed ^ R2_STREAM)?;
                batches.push(Generated {
                    sets: b.rr.len() as u64,
                    nodes: b.rr.total_nodes() as u64,
                    cost: b.cost,
                    elapsed: b.elapsed,
                    ..Generated::default()
                });
                fresh.absorb_chunk_ids(ids, &b.rr);
            }
            Ok::<_, PoolError>((fresh, batches))
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        let mut regenerated = 0usize;
        for (arena, (sketch, batches)) in self.arenas.iter_mut().zip(fresh) {
            for b in &batches {
                record(b);
                regenerated += b.sets as usize;
            }
            Arc::make_mut(arena).sketch = Some(sketch);
        }
        Ok(regenerated)
    }
}
