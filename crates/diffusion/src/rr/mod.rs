//! Reverse-reachable set generation.
//!
//! A random RR set (paper Section 2.2) is built by sampling a uniform root
//! `v` and traversing *incoming* edges backwards, activating each
//! in-neighbor according to the cascade model. The probability that a node
//! `u` lands in the set equals the probability that `u` would activate `v`
//! in a forward cascade, which is what makes `n · Pr[S ∩ R ≠ ∅]` an
//! unbiased influence estimator (Lemma 1).
//!
//! [`RrSampler`] bundles a graph with a generation [`RrStrategy`] and any
//! preprocessed index that strategy needs; [`RrContext`] holds the
//! reusable scratch state (epoch-stamped visited array, BFS queue, output
//! buffer) so generating millions of sets allocates nothing per set.
//!
//! Every strategy supports *sentinel stopping* (paper Algorithm 5): once a
//! sentinel node is activated the traversal halts immediately, which is
//! how HIST shrinks average RR-set sizes by orders of magnitude.

mod frontier;
mod ic;
mod lt;

use rand::Rng;
use subsim_graph::{Graph, LtIndex, NodeId};
use subsim_sampling::BucketJumpSampler;

/// How RR sets are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrStrategy {
    /// Paper Algorithm 2: flip one coin per incoming edge of every
    /// activated node. `O(Σ d_in)` over activated nodes.
    VanillaIc,
    /// Paper Algorithm 3 / Section 3.3: geometric-skip subset sampling
    /// (per-node-uniform weights) or the index-free sorted sampler
    /// (per-edge weights). `O(Σ (1 + μ))` over activated nodes.
    SubsimIc,
    /// SUBSIM with the bucket-jump index (paper Lemma 5 + Walker alias):
    /// `O(Σ (1 + μ))` even for skewed weights, at the price of an `O(m)`
    /// preprocessing pass. Falls back to plain SUBSIM on uniform graphs.
    SubsimBucketIc,
    /// Linear Threshold: a reverse random walk picking at most one
    /// in-neighbor per step (live-edge characterization), `O(1)` per step
    /// via per-node alias tables.
    Lt,
}

/// Packed sentinel membership: one bit per node in `u64` words, with
/// dirty-word tracking so re-installing a set of the same graph size
/// clears only the words the previous set touched instead of re-zeroing
/// `n` bits per install (the serving stack re-installs the sentinel once
/// per pool batch).
#[derive(Debug, Clone, Default)]
struct SentinelBits {
    words: Vec<u64>,
    /// Word indexes holding at least one set bit, each recorded once.
    dirty: Vec<u32>,
}

impl SentinelBits {
    /// Empties the set, sized for `n` nodes: same-size reuse clears only
    /// the dirty words, a size change reallocates zeroed storage.
    fn reset(&mut self, n: usize) {
        let want = n.div_ceil(64);
        if self.words.len() == want {
            for &w in &self.dirty {
                self.words[w as usize] = 0;
            }
        } else {
            self.words.clear();
            self.words.resize(want, 0);
        }
        self.dirty.clear();
    }

    #[inline]
    fn insert(&mut self, v: NodeId) {
        let w = (v >> 6) as usize;
        if self.words[w] == 0 {
            self.dirty.push(w as u32);
        }
        self.words[w] |= 1u64 << (v & 63);
    }

    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        (self.words[(v >> 6) as usize] >> (v & 63)) & 1 != 0
    }
}

/// Reusable scratch state for RR generation.
///
/// `cost` accumulates the paper's cost proxy: incoming edges *examined*
/// for the vanilla strategy, random draws (geometric landings + per-node
/// setup) for SUBSIM, steps for LT. Wall-clock benchmarks measure real
/// time; this counter lets tests assert the asymptotic claims directly.
///
/// The `frontier_*` fields record per-level width telemetry of the flat
/// frontier kernel (zero when generation took the scalar path).
#[derive(Debug, Clone)]
pub struct RrContext {
    visited: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
    buf: Vec<NodeId>,
    sentinel: SentinelBits,
    sentinel_active: bool,
    /// Cumulative cost proxy across all sets generated with this context.
    pub cost: u64,
    /// Number of generated sets that terminated on a sentinel hit.
    pub sentinel_hits: u64,
    /// Frontier levels expanded by the flat kernel across all sets.
    pub frontier_levels: u64,
    /// Summed frontier widths across all levels (`width_sum / levels` is
    /// the mean parallelism the level-synchronous kernel exposed).
    pub frontier_width_sum: u64,
    /// Widest single frontier level observed.
    pub frontier_peak_width: u64,
}

impl RrContext {
    /// Creates scratch state for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        RrContext {
            visited: vec![0; n],
            epoch: 0,
            queue: Vec::new(),
            buf: Vec::new(),
            sentinel: SentinelBits::default(),
            sentinel_active: false,
            cost: 0,
            sentinel_hits: 0,
            frontier_levels: 0,
            frontier_width_sum: 0,
            frontier_peak_width: 0,
        }
    }

    /// Installs a sentinel set: subsequent generations stop as soon as any
    /// of these nodes is activated (paper Algorithm 5).
    pub fn set_sentinel(&mut self, nodes: &[NodeId]) {
        self.sentinel.reset(self.visited.len());
        for &v in nodes {
            self.sentinel.insert(v);
        }
        self.sentinel_active = !nodes.is_empty();
    }

    /// Removes the sentinel set.
    pub fn clear_sentinel(&mut self) {
        self.sentinel_active = false;
    }

    /// Whether a sentinel set is installed.
    pub fn sentinel_active(&self) -> bool {
        self.sentinel_active
    }

    /// The RR set produced by the most recent generation.
    pub fn last(&self) -> &[NodeId] {
        &self.buf
    }

    /// Resets the cost/hit/frontier counters (the visited epoch is
    /// unaffected).
    pub fn reset_counters(&mut self) {
        self.cost = 0;
        self.sentinel_hits = 0;
        self.frontier_levels = 0;
        self.frontier_width_sum = 0;
        self.frontier_peak_width = 0;
    }

    #[inline]
    fn is_sentinel(&self, v: NodeId) -> bool {
        self.sentinel_active && self.sentinel.contains(v)
    }

    /// Records one expanded frontier level of `width` entries.
    #[inline]
    fn note_level(&mut self, width: usize) {
        self.frontier_levels += 1;
        self.frontier_width_sum += width as u64;
        self.frontier_peak_width = self.frontier_peak_width.max(width as u64);
    }

    /// Records `steps` width-1 levels in one shot: the LT chain kernel
    /// batches its telemetry out of the hot loop, where a per-step
    /// [`Self::note_level`] call is measurable against the two-load
    /// step body.
    #[inline]
    fn note_chain(&mut self, steps: u64) {
        self.frontier_levels += steps;
        self.frontier_width_sum += steps;
        if steps > 0 {
            self.frontier_peak_width = self.frontier_peak_width.max(1);
        }
    }

    /// Starts a new generation: clears the buffer and bumps the epoch.
    fn begin(&mut self) {
        self.buf.clear();
        self.queue.clear();
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks `v` visited; returns `true` if it was not visited this epoch.
    #[inline]
    fn visit(&mut self, v: NodeId) -> bool {
        let slot = &mut self.visited[v as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// A graph bound to an RR-generation strategy, with any preprocessed
/// per-node index the strategy requires.
///
/// ```
/// use subsim_diffusion::{RrContext, RrSampler, RrStrategy};
/// use subsim_graph::{generators, WeightModel};
/// use subsim_sampling::rng_from_seed;
///
/// let g = generators::cycle_graph(8, WeightModel::Wc);
/// let sampler = RrSampler::new(&g, RrStrategy::SubsimIc);
/// let mut ctx = RrContext::new(g.n());
/// let mut rng = rng_from_seed(5);
/// let size = sampler.generate(&mut ctx, &mut rng);
/// assert_eq!(size, ctx.last().len());
/// ```
pub struct RrSampler<'g> {
    g: &'g Graph,
    strategy: RrStrategy,
    /// Per-node bucket-jump samplers (only for `SubsimBucketIc` on
    /// per-edge-weight graphs).
    bucket: Option<Vec<Option<BucketJumpSampler>>>,
    /// LT alias index (only for `Lt`).
    lt: Option<LtIndex>,
    /// Flat-frontier kernel index (`None` for graphs too large for `u32`
    /// offsets and for samplers built via [`RrSampler::scalar`]).
    frontier: Option<frontier::FrontierIndex>,
}

impl<'g> RrSampler<'g> {
    /// Binds `g` to `strategy`, building indexes where needed
    /// (`SubsimBucketIc`: `O(m)`; `Lt`: `O(m)`; the flat-frontier kernel:
    /// `O(n + m/64)` for the `u32` offsets and skipper bank).
    pub fn new(g: &'g Graph, strategy: RrStrategy) -> Self {
        let mut sampler = Self::scalar(g, strategy);
        sampler.frontier = frontier::FrontierIndex::build(g, strategy, sampler.lt.as_ref());
        sampler
    }

    /// Binds `g` to `strategy` **without** the flat-frontier kernel:
    /// every generation takes the scalar queue walk. The two paths are
    /// bit-identical by construction (`tests/frontier.rs` pins this); the
    /// scalar sampler survives as the differential reference and as the
    /// baseline arm of the `kernel.*` rows of `experiments layers`.
    pub fn scalar(g: &'g Graph, strategy: RrStrategy) -> Self {
        let bucket = match strategy {
            RrStrategy::SubsimBucketIc if !g.has_uniform_in_probs() => {
                Some(ic::build_bucket_index(g))
            }
            _ => None,
        };
        let lt = matches!(strategy, RrStrategy::Lt).then(|| LtIndex::new(g));
        RrSampler {
            g,
            strategy,
            bucket,
            lt,
            frontier: None,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The bound strategy.
    pub fn strategy(&self) -> RrStrategy {
        self.strategy
    }

    /// Whether generation runs through the flat-frontier kernel.
    pub fn uses_frontier(&self) -> bool {
        self.frontier.is_some()
    }

    /// Generates one RR set for a **uniformly random root**; the nodes are
    /// left in `ctx.last()` and the size is returned.
    pub fn generate<R: Rng + ?Sized>(&self, ctx: &mut RrContext, rng: &mut R) -> usize {
        let root = rng.gen_range(0..self.g.n()) as NodeId;
        self.generate_from(ctx, rng, root)
    }

    /// [`RrSampler::generate`] forced down the scalar queue walk even when
    /// a frontier kernel is built. Consumes the RNG stream identically.
    pub fn generate_scalar<R: Rng + ?Sized>(&self, ctx: &mut RrContext, rng: &mut R) -> usize {
        let root = rng.gen_range(0..self.g.n()) as NodeId;
        self.generate_from_scalar(ctx, rng, root)
    }

    /// Generates one RR set rooted at `root`.
    pub fn generate_from<R: Rng + ?Sized>(
        &self,
        ctx: &mut RrContext,
        rng: &mut R,
        root: NodeId,
    ) -> usize {
        if !self.start(ctx, root) {
            return 1;
        }
        match &self.frontier {
            Some(idx) => frontier::traverse(self.g, idx, self.bucket.as_deref(), ctx, rng),
            None => self.traverse_scalar(ctx, rng),
        }
        ctx.buf.len()
    }

    /// [`RrSampler::generate_from`] forced down the scalar queue walk.
    pub fn generate_from_scalar<R: Rng + ?Sized>(
        &self,
        ctx: &mut RrContext,
        rng: &mut R,
        root: NodeId,
    ) -> usize {
        if !self.start(ctx, root) {
            return 1;
        }
        self.traverse_scalar(ctx, rng);
        ctx.buf.len()
    }

    /// Begins a generation rooted at `root`; returns `false` when the root
    /// itself is a sentinel and the set is complete.
    fn start(&self, ctx: &mut RrContext, root: NodeId) -> bool {
        debug_assert!((root as usize) < self.g.n());
        ctx.begin();
        ctx.visit(root);
        ctx.buf.push(root);
        if ctx.is_sentinel(root) {
            ctx.sentinel_hits += 1;
            return false;
        }
        true
    }

    fn traverse_scalar<R: Rng + ?Sized>(&self, ctx: &mut RrContext, rng: &mut R) {
        match self.strategy {
            RrStrategy::VanillaIc => ic::traverse_vanilla(self.g, ctx, rng),
            RrStrategy::SubsimIc => ic::traverse_subsim(self.g, ctx, rng),
            RrStrategy::SubsimBucketIc => match &self.bucket {
                Some(index) => ic::traverse_bucket(self.g, index, ctx, rng),
                None => ic::traverse_subsim(self.g, ctx, rng),
            },
            RrStrategy::Lt => lt::traverse_lt(
                self.g,
                self.lt.as_ref().expect("LT index built in new()"),
                ctx,
                rng,
            ),
        }
    }
}

#[cfg(test)]
mod tests;

/// Shared fixture for cross-module tests: a small heavy-tailed WC graph.
#[cfg(test)]
pub(crate) fn tests_support_graph() -> Graph {
    subsim_graph::generators::barabasi_albert(120, 3, subsim_graph::WeightModel::Wc, 91)
}
