//! The pool state every single-arena index holds, with its one growth
//! step and its one ladder step.

use crate::certify::{PoolView, Validation};
use crate::error::IndexError;
use crate::index::{IndexConfig, SentinelState, R2_STREAM, SENTINEL_WARMUP_CHUNKS};
use std::time::Duration;
use subsim_core::sentinel::SentinelSet;
use subsim_diffusion::pool::WorkerPool;
use subsim_diffusion::{RrCollection, RrSampler};
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

/// One pool: both halves, the RNG cursor, and the tier state.
///
/// Chunk `c` of `R₁` is generated from `chunk_seed(seed, c)` and chunk
/// `c` of `R₂` from `chunk_seed(seed ^ R2_STREAM, c)`, so the content is
/// a pure function of `(config, chunks)`: growth order, slicing and
/// thread count never change it.
#[derive(Debug, Clone)]
pub struct PoolState {
    /// Selection half (greedy + Eq. 2).
    pub r1: RrCollection,
    /// Validation half (Eq. 1); empty when `sketch` holds it.
    pub r2: RrCollection,
    /// RNG cursor: complete chunks generated per half.
    pub chunks: u64,
    /// Sentinel tier state; `None` while the pool is fully plain (tier
    /// disabled, or still inside the warmup prefix).
    pub sentinel: Option<SentinelState>,
    /// Sketched validation half; `Some` exactly when the sketch tier is
    /// on, in which case every generated `R₂` chunk is absorbed here.
    pub sketch: Option<SketchedPool>,
}

impl PoolState {
    /// An empty pool over `n` nodes for `config`'s tiers.
    pub fn empty(n: usize, config: &IndexConfig) -> Self {
        PoolState {
            r1: RrCollection::new(n),
            r2: RrCollection::new(n),
            chunks: 0,
            sentinel: None,
            sketch: (config.sketch > 0)
                .then(|| SketchedPool::new(n, config.chunk_size, config.sketch as u8)),
        }
    }

    // Code that owns a pool reads the fields. These getters are the read
    // API a `ConcurrentRrIndex::load()` snapshot has always offered.

    /// Sets per pool half.
    pub fn pool_len(&self) -> usize {
        self.r1.len()
    }

    /// The RNG cursor: complete chunks generated per half.
    pub fn chunk_cursor(&self) -> u64 {
        self.chunks
    }

    /// The selection half `R₁` (read-only).
    pub fn selection_pool(&self) -> &RrCollection {
        &self.r1
    }

    /// The validation half `R₂` (read-only; empty on a sketched pool).
    pub fn validation_pool(&self) -> &RrCollection {
        &self.r2
    }

    /// The sentinel tier state, if active.
    pub fn sentinel_state(&self) -> Option<&SentinelState> {
        self.sentinel.as_ref()
    }

    /// The sketched validation pool, if the sketch tier is active.
    pub fn sketch_state(&self) -> Option<&SketchedPool> {
        self.sketch.as_ref()
    }

    /// The view one certification round reads, over `g`.
    pub fn view<'a>(&'a self, g: &'a Graph) -> PoolView<'a> {
        PoolView {
            r1: vec![&self.r1],
            idx: None,
            validation: match &self.sketch {
                Some(sk) => Validation::Sketched(vec![sk]),
                None => Validation::Exact(vec![&self.r2]),
            },
            sentinel: self.sentinel.as_ref().map(|st| &st.set),
            graph: g,
        }
    }

    /// Grows both halves to at least `target_sets` each, continuing the
    /// chunk stream on the graph bound in `sampler`. Returns the sets
    /// generated, both halves combined; `record` sees every batch.
    ///
    /// The node budget is re-checked every `4 · threads` chunks, so one
    /// huge top-up cannot blow past [`IndexConfig::max_nodes`]. Crossing
    /// the plain warmup prefix activates the sentinel tier: `Z` is
    /// selected once, over exactly the plain chunks generated so far, and
    /// every later chunk runs under Algorithm 5 truncation. On error the
    /// chunks of completed slices stay in the pool.
    pub fn grow_to(
        &mut self,
        sampler: &RrSampler<'_>,
        workers: &WorkerPool,
        config: &IndexConfig,
        target_sets: usize,
        record: &mut dyn FnMut(&Generated),
    ) -> Result<usize, IndexError> {
        let chunk = config.chunk_size;
        let needed_chunks = target_sets.div_ceil(chunk) as u64;
        let slice = config.threads as u64 * 4;
        let mut added = 0usize;
        while self.chunks < needed_chunks {
            if let Some(cap) = config.max_nodes {
                // A sketched R₂ counts its resident bytes in 4-byte
                // node-entry equivalents, keeping the budget unit
                // consistent.
                let in_use = self.r1.total_nodes()
                    + self.r2.total_nodes()
                    + self
                        .sketch
                        .as_ref()
                        .map_or(0, |sk| sk.resident_bytes() as usize / 4);
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
                self.sentinel = Some(SentinelState {
                    set: SentinelSet::select(&[&self.r1], sampler.graph(), config.sentinels),
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
            let truncated = z.is_some();
            let range = self.chunks..end;
            let b1 = workers.try_generate_chunks(sampler, z, range.clone(), chunk, config.seed)?;
            let b2 =
                workers.try_generate_chunks(sampler, z, range, chunk, config.seed ^ R2_STREAM)?;
            if let Some(st) = &mut self.sentinel {
                st.chunk_hits_r1.extend_from_slice(&b1.chunk_hits);
                st.chunk_hits_r2.extend_from_slice(&b2.chunk_hits);
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
            self.r1.extend_from(&b1.rr);
            match &mut self.sketch {
                Some(sk) => sk.absorb_batch(self.chunks, &b2.rr),
                None => self.r2.extend_from(&b2.rr),
            }
            self.chunks = end;
        }
        Ok(added)
    }

    /// The error-adaptive ladder step: regenerates the whole `R₂` chunk
    /// stream one register precision up and swaps the sketch. Chunk
    /// content is a pure function of `(seed, chunk id)`, so the result is
    /// exactly what a pool configured at the higher precision from the
    /// start holds. Returns the regenerated sets; `record` sees every
    /// batch.
    pub fn promote_sketch(
        &mut self,
        sampler: &RrSampler<'_>,
        workers: &WorkerPool,
        config: &IndexConfig,
        record: &mut dyn FnMut(&Generated),
    ) -> Result<usize, IndexError> {
        let old = self.sketch.as_ref().expect("promotion without a sketch");
        let precision = old.precision() + 1;
        assert!(precision <= MAX_PRECISION, "ladder past MAX_PRECISION");
        let chunk = config.chunk_size;
        let mut fresh = SketchedPool::new(old.graph_n(), chunk, precision);
        let slice = config.threads as u64 * 4;
        let mut start = 0u64;
        let mut regenerated = 0usize;
        while start < self.chunks {
            let end = self.chunks.min(start + slice);
            let b = workers.try_generate_chunks(
                sampler,
                None,
                start..end,
                chunk,
                config.seed ^ R2_STREAM,
            )?;
            record(&Generated {
                sets: b.rr.len() as u64,
                nodes: b.rr.total_nodes() as u64,
                cost: b.cost,
                elapsed: b.elapsed,
                ..Generated::default()
            });
            regenerated += b.rr.len();
            fresh.absorb_batch(start, &b.rr);
            start = end;
        }
        self.sketch = Some(fresh);
        Ok(regenerated)
    }
}
