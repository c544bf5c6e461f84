//! Greedy max-coverage over RR collections (paper Algorithms 1 and 6) with
//! the submodular coverage upper bound of Eq. 2 computed in the same pass.

use std::collections::BinaryHeap;
use subsim_diffusion::collection::{InvertedIndex, RrCollection};
use subsim_graph::{Graph, NodeId};

/// Configuration of one greedy pass.
#[derive(Debug, Clone, Copy)]
pub struct GreedyConfig<'g> {
    /// Number of seeds to select.
    pub select: usize,
    /// Number of top-marginal terms in the Eq. 2 coverage upper bound
    /// (the paper always uses `k`, even when `select = k - b` in HIST's
    /// phase 2). `0` skips the bound computation.
    pub bound_terms: usize,
    /// `Some(graph)` enables the revised greedy (Algorithm 6): ties in
    /// marginal coverage break towards the larger out-degree.
    pub tie_break: Option<&'g Graph>,
    /// Coverage already granted before this pass (HIST phase 2 counts the
    /// RR sets covered by the sentinel here; the collection passed in must
    /// exclude those sets).
    pub base_covered: usize,
    /// Nodes that must never be selected (HIST phase 2 excludes the
    /// sentinel nodes, which are already part of the final seed set).
    pub exclude: &'g [NodeId],
    /// Workers for the selection *preparation* (inverted-index build and
    /// initial counts). The greedy loop itself stays sequential, so the
    /// picks, prefix coverages, and bound are byte-identical for every
    /// `threads` value.
    pub threads: usize,
}

impl<'g> GreedyConfig<'g> {
    /// Standard greedy (Algorithm 1) selecting `k` seeds with a `k`-term
    /// upper bound.
    pub fn standard(k: usize) -> Self {
        GreedyConfig {
            select: k,
            bound_terms: k,
            tie_break: None,
            base_covered: 0,
            exclude: &[],
            threads: 1,
        }
    }

    /// Revised greedy (Algorithm 6) with out-degree tie-breaking.
    pub fn revised(k: usize, g: &'g Graph) -> Self {
        GreedyConfig {
            select: k,
            bound_terms: k,
            tie_break: Some(g),
            base_covered: 0,
            exclude: &[],
            threads: 1,
        }
    }

    /// Returns the config with the preparation phase sharded across
    /// `threads` workers.
    ///
    /// The request is advisory: the greedy entry points clamp it through
    /// [`effective_prep_threads`], so asking for parallelism on a 1-core
    /// box, over a tiny pool, or over a pool whose *coverage mass*
    /// (total node memberships) is too small to amortize thread spawns
    /// silently degrades to the sequential path (BENCH_pr3 measured a
    /// 0.96× regression when the spawn cost had nothing to pay for
    /// itself). The clamp only changes wall-clock: picks, prefix
    /// coverages, and the Eq. 2 bound are byte-identical on both sides
    /// of every threshold.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        self.threads = threads;
        self
    }
}

/// Node count below which the initial-count pass stays sequential.
const PARALLEL_COUNT_MIN_NODES: usize = 1 << 16;

/// Pool size (RR sets) below which selection preparation stays
/// sequential regardless of the requested thread count: under this the
/// inverted-index build is microseconds and thread spawn dominates.
pub const PARALLEL_PREP_MIN_SETS: usize = 1 << 12;

/// Coverage mass (total node memberships, `Σ|R_i|`) below which
/// selection preparation stays sequential. Set count alone misjudges
/// sentinel-truncated pools: a million one-node sets still build their
/// inverted index in under a millisecond, so the per-set gate must be
/// paired with a per-membership gate — the index build and the initial
/// count pass are both `O(mass)`, not `O(sets)`.
pub const PARALLEL_PREP_MIN_MASS: usize = 1 << 16;

/// Clamps a requested selection-prep thread count against the machine
/// and the workload.
///
/// Returns `1` (sequential) when the box has a single core — spawning
/// workers that time-slice one core is pure overhead (BENCH_pr3's 0.96×
/// selection regression) — or when the pool holds fewer than
/// [`PARALLEL_PREP_MIN_SETS`] sets or fewer than
/// [`PARALLEL_PREP_MIN_MASS`] total node memberships. Otherwise the
/// request is honoured as-is; prep output is thread-count-invariant, so
/// the clamp only ever changes wall-clock, never selection results.
pub fn effective_prep_threads(
    requested: usize,
    pool_sets: usize,
    pool_mass: usize,
    cores: usize,
) -> usize {
    if requested <= 1
        || cores <= 1
        || pool_sets < PARALLEL_PREP_MIN_SETS
        || pool_mass < PARALLEL_PREP_MIN_MASS
    {
        1
    } else {
        requested
    }
}

/// Cores visible to this process, cached after the first query.
fn available_cores() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Result of a greedy pass.
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// Selected nodes in pick order.
    pub seeds: Vec<NodeId>,
    /// `prefix_coverage[i] = Λ(S_i)` including `base_covered`;
    /// `prefix_coverage[0] == base_covered`, length `select + 1`.
    pub prefix_coverage: Vec<usize>,
    /// The Eq. 2 coverage upper bound
    /// `Λᵘ = min_i (Λ(S_i) + Σ_{v ∈ maxMC(S_i, bound_terms)} Λ(v|S_i))`,
    /// or `f64::INFINITY` when `bound_terms == 0`.
    pub coverage_upper: f64,
}

impl GreedyOutcome {
    /// Final coverage `Λ(S_select)`.
    pub fn coverage(&self) -> usize {
        *self.prefix_coverage.last().unwrap()
    }
}

/// Initial per-node coverage counts over the union of shards
/// (`count[v] = Σ_s |{i : v ∈ R_i^s}|`), sharded across `threads`
/// workers when the graph is large enough for the spawn cost to pay
/// off. Node order is fixed, so the result is identical for every
/// `threads` value.
fn initial_counts(idxs: &[&InvertedIndex], n: usize, threads: usize) -> Vec<usize> {
    let degree_sum = |v: NodeId| -> usize { idxs.iter().map(|idx| idx.degree(v)).sum() };
    if threads > 1 && n >= PARALLEL_COUNT_MIN_NODES {
        let mut count = vec![0usize; n];
        let per = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (ci, slice) in count.chunks_mut(per).enumerate() {
                scope.spawn(move || {
                    let base = ci * per;
                    for (i, c) in slice.iter_mut().enumerate() {
                        *c = degree_sum((base + i) as NodeId);
                    }
                });
            }
        });
        count
    } else {
        (0..n as NodeId).map(degree_sum).collect()
    }
}

/// Runs greedy max-coverage over `rr`.
///
/// Each seed is one pop of a lazily-updated max-heap keyed by `(marginal
/// coverage, out-degree, node id)`: marginals only decrease
/// (submodularity), so a popped entry is either current or is re-pushed
/// with its corrected value. The Eq. 2 top-`bound_terms` marginal sum is
/// read off a histogram of current marginals that the coverage update
/// keeps in step, walked down from its highest non-empty bucket. Each
/// walk starts at the marginal that round's seed then covers, so the
/// walks of one pass step over `O(|R| + select)` buckets in total, and
/// the pass costs `O(Σ|R| + n + select·(log n + |exclude|))` plus the
/// heap's re-pushes of stale entries.
pub fn greedy_max_coverage(rr: &RrCollection, cfg: &GreedyConfig<'_>) -> GreedyOutcome {
    let prep = effective_prep_threads(cfg.threads, rr.len(), rr.total_nodes(), available_cores());
    let idx = InvertedIndex::build_parallel(rr, prep);
    greedy_over_indexes(&[rr], &[&idx], cfg, prep)
}

/// [`greedy_max_coverage`] over a *sharded* pool: each element of
/// `shards` holds a disjoint slice of the union pool's RR sets.
///
/// Per-shard inverted indexes are built concurrently (one builder per
/// shard when the prep-thread clamp allows), then the merged greedy loop
/// runs sequentially over the summed per-shard counts. Greedy state —
/// counts, heap order, covered flags — evolves exactly as it would over
/// the concatenated union, so the outcome is **byte-identical** to
/// [`greedy_max_coverage`] on the union for any shard split and any
/// thread count.
pub fn greedy_max_coverage_sharded(
    shards: &[&RrCollection],
    cfg: &GreedyConfig<'_>,
) -> GreedyOutcome {
    let total_sets: usize = shards.iter().map(|rr| rr.len()).sum();
    let total_mass: usize = shards.iter().map(|rr| rr.total_nodes()).sum();
    let prep = effective_prep_threads(cfg.threads, total_sets, total_mass, available_cores());
    let idxs: Vec<InvertedIndex> = if prep > 1 && shards.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|rr| scope.spawn(move || InvertedIndex::build(rr)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard index builder panicked"))
                .collect()
        })
    } else {
        shards.iter().map(|rr| InvertedIndex::build(rr)).collect()
    };
    let idx_refs: Vec<&InvertedIndex> = idxs.iter().collect();
    greedy_over_indexes(shards, &idx_refs, cfg, prep)
}

/// [`greedy_max_coverage_sharded`] with caller-owned per-shard inverted
/// indexes — the serving path caches one index per published shard
/// snapshot and skips the per-query build entirely. `idxs[s]` must index
/// exactly `shards[s]`.
pub fn greedy_max_coverage_indexed(
    shards: &[&RrCollection],
    idxs: &[&InvertedIndex],
    cfg: &GreedyConfig<'_>,
) -> GreedyOutcome {
    let total_sets: usize = shards.iter().map(|rr| rr.len()).sum();
    let total_mass: usize = shards.iter().map(|rr| rr.total_nodes()).sum();
    let prep = effective_prep_threads(cfg.threads, total_sets, total_mass, available_cores());
    greedy_over_indexes(shards, idxs, cfg, prep)
}

/// The merged greedy loop shared by the single-pool and sharded entry
/// points. `prep_threads` is the already-clamped worker count for the
/// initial-count pass.
fn greedy_over_indexes(
    shards: &[&RrCollection],
    idxs: &[&InvertedIndex],
    cfg: &GreedyConfig<'_>,
    prep_threads: usize,
) -> GreedyOutcome {
    assert!(!shards.is_empty(), "need at least one shard");
    assert_eq!(shards.len(), idxs.len(), "one index per shard");
    let n = shards[0].graph_n();
    for rr in shards {
        assert_eq!(rr.graph_n(), n, "shards are over different graphs");
    }
    let mut count = initial_counts(idxs, n, prep_threads);
    let outdeg = |v: NodeId| -> u32 { cfg.tie_break.map_or(0, |g| g.out_degree(v) as u32) };

    let mut heap: BinaryHeap<(usize, u32, NodeId)> = (0..n as NodeId)
        .map(|v| (count[v as usize], outdeg(v), v))
        .collect();
    let mut covered: Vec<Vec<bool>> = shards.iter().map(|rr| vec![false; rr.len()]).collect();
    let mut selected = vec![false; n];
    for &v in cfg.exclude {
        selected[v as usize] = true;
    }
    // Excluded nodes keep their counts but never contribute a bound term.
    let mut excluded = cfg.exclude.to_vec();
    excluded.sort_unstable();
    excluded.dedup();
    let mut hist = (cfg.bound_terms > 0).then(|| MarginalHistogram::new(&count));
    let mut seeds = Vec::with_capacity(cfg.select);
    let mut lambda = cfg.base_covered;
    let mut prefix = Vec::with_capacity(cfg.select + 1);
    prefix.push(lambda);
    let mut upper = f64::INFINITY;

    for _round in 0..cfg.select {
        if let Some(hist) = hist.as_mut() {
            let marginal_sum = hist.top_sum(cfg.bound_terms, &excluded, &count);
            upper = upper.min((lambda + marginal_sum) as f64);
        }

        // The next seed: the first fresh heap entry. Every node outside
        // the seeds and `exclude` holds exactly one entry, so an empty
        // heap means nothing is left to pick (select > n).
        let seed = loop {
            let Some((c, d, v)) = heap.pop() else {
                break None;
            };
            if selected[v as usize] {
                continue; // seeds and excluded nodes never re-enter
            }
            if c != count[v as usize] {
                heap.push((count[v as usize], d, v));
                continue;
            }
            break Some(v);
        };
        let Some(seed) = seed else { break };

        selected[seed as usize] = true;
        lambda += count[seed as usize];
        for (shard, (idx, rr)) in idxs.iter().zip(shards).enumerate() {
            let covered = &mut covered[shard];
            for &sid in idx.sets_containing(seed) {
                let sid = sid as usize;
                if covered[sid] {
                    continue;
                }
                covered[sid] = true;
                for &w in rr.get(sid) {
                    let c = &mut count[w as usize];
                    if let Some(hist) = hist.as_mut() {
                        hist.decrement(*c);
                    }
                    *c -= 1;
                }
            }
        }
        debug_assert_eq!(count[seed as usize], 0);
        seeds.push(seed);
        prefix.push(lambda);
    }

    // Final bound term at i = select.
    if let Some(hist) = hist.as_mut() {
        let marginal_sum = hist.top_sum(cfg.bound_terms, &excluded, &count);
        upper = upper.min((lambda + marginal_sum) as f64);
    }

    GreedyOutcome {
        seeds,
        prefix_coverage: prefix,
        coverage_upper: upper,
    }
}

/// Number of nodes per current marginal.
struct MarginalHistogram {
    /// `hist[c]`: nodes whose current marginal is `c`.
    hist: Vec<usize>,
    /// Upper bound on the highest bucket holding a node the walk counts;
    /// lowered lazily. Only excluded nodes are ever re-inserted, and they
    /// are taken out before every walk, so it never has to rise.
    top: usize,
}

impl MarginalHistogram {
    fn new(count: &[usize]) -> Self {
        let top = count.iter().copied().max().unwrap_or(0);
        let mut hist = vec![0; top + 1];
        for &c in count {
            hist[c] += 1;
        }
        MarginalHistogram { hist, top }
    }

    /// Moves one node from bucket `c` to `c - 1`.
    fn decrement(&mut self, c: usize) {
        self.hist[c] -= 1;
        self.hist[c - 1] += 1;
    }

    /// Eq. 2's marginal sum: the `terms` largest marginals outside
    /// `excluded` (distinct nodes, whose current marginals are in `count`).
    /// Seeds sit in bucket 0 and add nothing. Excluded nodes are taken
    /// out for the walk and put back after.
    fn top_sum(&mut self, terms: usize, excluded: &[NodeId], count: &[usize]) -> usize {
        for &v in excluded {
            self.hist[count[v as usize]] -= 1;
        }
        while self.top > 0 && self.hist[self.top] == 0 {
            self.top -= 1;
        }
        let (mut c, mut left, mut sum) = (self.top, terms, 0);
        while c > 0 && left > 0 {
            let take = self.hist[c].min(left);
            sum += take * c;
            left -= take;
            c -= 1;
        }
        for &v in excluded {
            self.hist[count[v as usize]] += 1;
        }
        sum
    }
}

/// Reference greedy using degree buckets instead of a lazy heap — the
/// structure the authors' released C++ implementations use. `O(Σ|R_i| +
/// n + k·Δ)` where `Δ` is the max marginal; no Eq. 2 bound, no
/// tie-breaking (first-in-bucket wins).
///
/// Exists for *differential testing*: on tie-free inputs it must select
/// exactly the same seeds as [`greedy_max_coverage`], and on any input it
/// must reach the same total coverage trajectory (`tests/prop.rs`). The
/// `selection.buckets` row of `experiments layers` times the two.
pub fn greedy_max_coverage_buckets(rr: &RrCollection, k: usize) -> GreedyOutcome {
    let n = rr.graph_n();
    let idx = InvertedIndex::build(rr);
    let mut count: Vec<usize> = (0..n as NodeId).map(|v| idx.degree(v)).collect();
    let max_count = count.iter().copied().max().unwrap_or(0);

    // buckets[c] holds nodes whose *recorded* count is c; nodes migrate
    // lazily (recorded position may be stale, checked on pop).
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); max_count + 1];
    for (v, &c) in count.iter().enumerate() {
        buckets[c].push(v as NodeId);
    }
    let mut covered = vec![false; rr.len()];
    let mut selected = vec![false; n];
    let mut seeds = Vec::with_capacity(k);
    let mut lambda = 0usize;
    let mut prefix = vec![0usize];
    let mut cur = max_count;

    while seeds.len() < k {
        // Find the highest bucket with a fresh entry.
        let seed = loop {
            while cur > 0 && buckets[cur].is_empty() {
                cur -= 1;
            }
            if cur == 0 {
                break None;
            }
            let v = buckets[cur].pop().expect("nonempty bucket");
            if selected[v as usize] {
                continue;
            }
            let c = count[v as usize];
            if c != cur {
                buckets[c].push(v); // stale: re-file under the true count
                continue;
            }
            break Some(v);
        };
        let seed = match seed {
            Some(v) => v,
            None => match (0..n as NodeId).find(|&v| !selected[v as usize]) {
                Some(v) => v,
                None => break,
            },
        };
        selected[seed as usize] = true;
        lambda += count[seed as usize];
        for &sid in idx.sets_containing(seed) {
            let sid = sid as usize;
            if covered[sid] {
                continue;
            }
            covered[sid] = true;
            for &w in rr.get(sid) {
                count[w as usize] -= 1;
            }
        }
        seeds.push(seed);
        prefix.push(lambda);
    }
    GreedyOutcome {
        seeds,
        prefix_coverage: prefix,
        coverage_upper: f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_graph::generators::star_graph;
    use subsim_graph::WeightModel;

    fn collection(sets: &[&[NodeId]], n: usize) -> RrCollection {
        let mut rr = RrCollection::new(n);
        for s in sets {
            rr.push(s);
        }
        rr
    }

    #[test]
    fn picks_highest_coverage_first() {
        // Node 1 covers 3 sets, node 0 covers 2, node 2 covers 1.
        let rr = collection(&[&[0, 1], &[1], &[1, 2], &[0]], 3);
        let out = greedy_max_coverage(&rr, &GreedyConfig::standard(2));
        assert_eq!(out.seeds[0], 1);
        assert_eq!(out.prefix_coverage, vec![0, 3, 4]);
        assert_eq!(out.coverage(), 4);
    }

    #[test]
    fn marginal_not_raw_coverage_drives_second_pick() {
        // Node 0 in 3 sets; node 1 in 2 of the same sets plus nothing new;
        // node 2 in 1 disjoint set. After picking 0, node 2 beats node 1.
        let rr = collection(&[&[0, 1], &[0, 1], &[0], &[2]], 3);
        let out = greedy_max_coverage(&rr, &GreedyConfig::standard(2));
        assert_eq!(out.seeds, vec![0, 2]);
        assert_eq!(out.coverage(), 4);
    }

    #[test]
    fn tie_break_prefers_out_degree() {
        // Nodes 0 and 1 each cover one set; node 0 has the bigger
        // out-degree in the star graph, so revised greedy must pick it.
        let g = star_graph(3, WeightModel::Wc); // 0 -> 1, 0 -> 2
        let rr = collection(&[&[1], &[0]], 3);
        let out = greedy_max_coverage(&rr, &GreedyConfig::revised(1, &g));
        assert_eq!(out.seeds, vec![0]);
        // Standard greedy breaks ties by node id via the heap ordering —
        // still deterministic, but id 1 > 0 wins on the third key.
        let out = greedy_max_coverage(&rr, &GreedyConfig::standard(1));
        assert_eq!(out.seeds, vec![1]);
    }

    #[test]
    fn upper_bound_dominates_best_k_set() {
        // Brute-force the best 2-set coverage and compare.
        let rr = collection(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0], &[4]], 5);
        let out = greedy_max_coverage(&rr, &GreedyConfig::standard(2));
        let mut best = 0;
        for a in 0..5u32 {
            for b in 0..a {
                best = best.max(rr.coverage_of(&[a, b]));
            }
        }
        assert!(
            out.coverage_upper >= best as f64,
            "upper {} < best {}",
            out.coverage_upper,
            best
        );
        // And the greedy guarantee: coverage >= (1 - 1/e) * best.
        assert!(out.coverage() as f64 >= (1.0 - (-1.0f64).exp()) * best as f64);
    }

    #[test]
    fn base_covered_shifts_everything() {
        let rr = collection(&[&[0], &[1]], 3);
        let cfg = GreedyConfig {
            base_covered: 7,
            ..GreedyConfig::standard(2)
        };
        let out = greedy_max_coverage(&rr, &cfg);
        assert_eq!(out.prefix_coverage, vec![7, 8, 9]);
        assert!(out.coverage_upper >= 9.0);
    }

    #[test]
    fn exhausted_marginals_fall_back_to_arbitrary_nodes() {
        let rr = collection(&[&[0]], 4);
        let out = greedy_max_coverage(&rr, &GreedyConfig::standard(3));
        assert_eq!(out.seeds.len(), 3);
        assert_eq!(out.seeds[0], 0);
        assert_eq!(out.coverage(), 1);
        // No duplicates.
        let mut s = out.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_collection_selects_arbitrary() {
        let rr = RrCollection::new(3);
        let out = greedy_max_coverage(&rr, &GreedyConfig::standard(2));
        assert_eq!(out.seeds.len(), 2);
        assert_eq!(out.coverage(), 0);
    }

    #[test]
    fn bound_terms_zero_skips_bound() {
        let rr = collection(&[&[0]], 2);
        let cfg = GreedyConfig {
            bound_terms: 0,
            ..GreedyConfig::standard(1)
        };
        let out = greedy_max_coverage(&rr, &cfg);
        assert_eq!(out.coverage_upper, f64::INFINITY);
        assert_eq!(out.seeds, vec![0]);
    }

    #[test]
    fn select_larger_than_n_stops_gracefully() {
        let rr = collection(&[&[0], &[1]], 2);
        let out = greedy_max_coverage(&rr, &GreedyConfig::standard(5));
        assert_eq!(out.seeds.len(), 2);
    }

    #[test]
    fn threads_never_change_selection() {
        use subsim_diffusion::{RrContext, RrSampler, RrStrategy};
        use subsim_graph::generators::barabasi_albert;
        use subsim_sampling::rng_from_seed;

        let g = barabasi_albert(400, 3, WeightModel::Wc, 81);
        let sampler = RrSampler::new(&g, RrStrategy::SubsimIc);
        let mut ctx = RrContext::new(g.n());
        let mut rng = rng_from_seed(82);
        let mut rr = RrCollection::new(g.n());
        rr.generate(&sampler, &mut ctx, &mut rng, 4000);

        let reference = greedy_max_coverage(&rr, &GreedyConfig::standard(8));
        for threads in [2, 3, 5, 8] {
            let cfg = GreedyConfig::standard(8).with_threads(threads);
            let out = greedy_max_coverage(&rr, &cfg);
            assert_eq!(out.seeds, reference.seeds, "threads={threads}");
            assert_eq!(out.prefix_coverage, reference.prefix_coverage);
            assert_eq!(out.coverage_upper, reference.coverage_upper);
        }
    }

    #[test]
    fn parallel_initial_counts_match_sequential_over_gate() {
        // Force the sharded path by exceeding PARALLEL_COUNT_MIN_NODES.
        let n = super::PARALLEL_COUNT_MIN_NODES + 37;
        let mut rr = RrCollection::new(n);
        for i in 0..200usize {
            let a = (i * 7919) % n;
            let b = (i * 104_729) % n;
            rr.push(&[a as NodeId, b as NodeId, (n - 1) as NodeId]);
        }
        let idx = InvertedIndex::build(&rr);
        let seq = super::initial_counts(&[&idx], n, 1);
        for threads in [2, 5] {
            assert_eq!(
                super::initial_counts(&[&idx], n, threads),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn prep_thread_clamp_pins_fallback_decision() {
        const BIG: usize = 1 << 20;
        // One core: always sequential, whatever was asked for.
        assert_eq!(effective_prep_threads(8, BIG, BIG, 1), 1);
        // Tiny pool: spawn cost dominates, stay sequential even with cores.
        assert_eq!(
            effective_prep_threads(8, PARALLEL_PREP_MIN_SETS - 1, BIG, 16),
            1
        );
        // Sequential request passes through untouched.
        assert_eq!(effective_prep_threads(1, BIG, BIG, 16), 1);
        // Big pool on a multi-core box: the request is honoured.
        assert_eq!(
            effective_prep_threads(8, PARALLEL_PREP_MIN_SETS, BIG, 16),
            8
        );
        assert_eq!(effective_prep_threads(3, BIG, BIG, 2), 3);
    }

    #[test]
    fn prep_thread_clamp_crossover_on_coverage_mass() {
        const BIG: usize = 1 << 20;
        // Exact crossover: one membership below the mass gate falls back,
        // at the gate the request is honoured.
        assert_eq!(
            effective_prep_threads(8, BIG, PARALLEL_PREP_MIN_MASS - 1, 16),
            1
        );
        assert_eq!(
            effective_prep_threads(8, BIG, PARALLEL_PREP_MIN_MASS, 16),
            8
        );
        // Many sets but nearly empty (sentinel-truncated pools): set count
        // alone would have parallelized; the mass gate catches it.
        assert_eq!(effective_prep_threads(8, BIG, BIG / 1024, 16), 1);
    }

    #[test]
    fn picks_byte_identical_across_mass_crossover() {
        use subsim_diffusion::{RrContext, RrSampler, RrStrategy};
        use subsim_graph::generators::barabasi_albert;
        use subsim_sampling::rng_from_seed;

        // Two pools straddling the mass threshold (same distribution,
        // different sizes); on both sides every thread request must yield
        // the sequential picks byte-for-byte — the clamp (or, above the
        // gate, thread-invariant prep) never alters selection.
        let g = barabasi_albert(500, 4, WeightModel::Wc, 83);
        let sampler = RrSampler::new(&g, RrStrategy::SubsimIc);
        let mut ctx = RrContext::new(g.n());
        let mut rng = rng_from_seed(84);

        let mut sets_for = |target_mass: usize| {
            let mut rr = RrCollection::new(g.n());
            while rr.total_nodes() < target_mass {
                rr.generate(&sampler, &mut ctx, &mut rng, 512);
            }
            rr
        };
        let below = sets_for(PARALLEL_PREP_MIN_MASS / 8);
        let above = sets_for(PARALLEL_PREP_MIN_MASS + 1024);
        assert!(below.total_nodes() < PARALLEL_PREP_MIN_MASS);
        assert!(above.total_nodes() >= PARALLEL_PREP_MIN_MASS);

        for rr in [&below, &above] {
            let reference = greedy_max_coverage(rr, &GreedyConfig::standard(10));
            for threads in [2usize, 4, 8] {
                let out =
                    greedy_max_coverage(rr, &GreedyConfig::standard(10).with_threads(threads));
                assert_eq!(out.seeds, reference.seeds, "threads={threads}");
                assert_eq!(out.prefix_coverage, reference.prefix_coverage);
                assert_eq!(out.coverage_upper, reference.coverage_upper);
            }
        }
    }

    /// Splits `rr` into `shards` collections by `set_index % shards` —
    /// the same interleaving the serving layer uses for chunk ownership.
    fn split_round_robin(rr: &RrCollection, shards: usize) -> Vec<RrCollection> {
        let mut out: Vec<RrCollection> = (0..shards)
            .map(|_| RrCollection::new(rr.graph_n()))
            .collect();
        for (i, set) in rr.iter().enumerate() {
            out[i % shards].push(set);
        }
        out
    }

    #[test]
    fn sharded_greedy_matches_union_greedy() {
        use subsim_diffusion::{RrContext, RrSampler, RrStrategy};
        use subsim_graph::generators::barabasi_albert;
        use subsim_sampling::rng_from_seed;

        let g = barabasi_albert(300, 3, WeightModel::Wc, 91);
        let sampler = RrSampler::new(&g, RrStrategy::SubsimIc);
        let mut ctx = RrContext::new(g.n());
        let mut rng = rng_from_seed(92);
        let mut rr = RrCollection::new(g.n());
        rr.generate(&sampler, &mut ctx, &mut rng, 3000);

        for (cfg, name) in [
            (GreedyConfig::standard(6), "standard"),
            (GreedyConfig::revised(6, &g), "revised"),
        ] {
            let reference = greedy_max_coverage(&rr, &cfg);
            for shards in [1usize, 2, 3, 4, 7] {
                let parts = split_round_robin(&rr, shards);
                let refs: Vec<&RrCollection> = parts.iter().collect();
                for threads in [1usize, 4] {
                    let out = greedy_max_coverage_sharded(&refs, &cfg.with_threads(threads));
                    assert_eq!(out.seeds, reference.seeds, "{name} shards={shards}");
                    assert_eq!(out.prefix_coverage, reference.prefix_coverage);
                    assert_eq!(out.coverage_upper, reference.coverage_upper);
                }
                // Prebuilt-index entry point must agree too.
                let idxs: Vec<InvertedIndex> = parts.iter().map(InvertedIndex::build).collect();
                let idx_refs: Vec<&InvertedIndex> = idxs.iter().collect();
                let out = greedy_max_coverage_indexed(&refs, &idx_refs, &cfg);
                assert_eq!(out.seeds, reference.seeds, "{name} indexed shards={shards}");
                assert_eq!(out.coverage_upper, reference.coverage_upper);
            }
        }
    }

    #[test]
    fn sharded_greedy_tolerates_empty_shards() {
        let rr = collection(&[&[0, 1], &[1], &[1, 2], &[0]], 3);
        let empty = RrCollection::new(3);
        let reference = greedy_max_coverage(&rr, &GreedyConfig::standard(2));
        let out = greedy_max_coverage_sharded(&[&empty, &rr, &empty], &GreedyConfig::standard(2));
        assert_eq!(out.seeds, reference.seeds);
        assert_eq!(out.prefix_coverage, reference.prefix_coverage);
    }

    #[test]
    fn prefix_coverages_are_monotone_and_concave() {
        // Submodularity: marginal gains must be non-increasing.
        let rr = collection(
            &[&[0, 1, 2], &[0, 1], &[0], &[3], &[3, 4], &[2], &[1, 4]],
            5,
        );
        let out = greedy_max_coverage(&rr, &GreedyConfig::standard(4));
        let p = &out.prefix_coverage;
        for w in p.windows(2) {
            assert!(w[1] >= w[0]);
        }
        for w in p.windows(3) {
            assert!(w[2] - w[1] <= w[1] - w[0], "gains must shrink: {p:?}");
        }
    }
}
