//! Property-based tests for the bounds and the greedy machinery.

use proptest::prelude::*;
use subsim_core::bounds::{
    i_max, ln_binomial, opim_lower_bound, opim_upper_bound, theta_max_im_sentinel,
    theta_max_sentinel, theta_zero,
};
use subsim_core::coverage::{
    greedy_max_coverage, greedy_max_coverage_indexed, greedy_max_coverage_sharded, GreedyConfig,
    GreedyOutcome,
};
use subsim_diffusion::{InvertedIndex, RrCollection, RrContext, RrSampler, RrStrategy};
use subsim_graph::generators::{barabasi_albert, erdos_renyi_gnm};
use subsim_graph::{Graph, NodeId, WeightModel};

/// Exhaustive best coverage over all k-subsets of a <= 20-node universe,
/// via per-node coverage bitmasks (collections in these tests hold < 64
/// sets).
fn brute_force_best_coverage(rr: &RrCollection, k: usize) -> u32 {
    let n = rr.graph_n();
    let mut node_mask = vec![0u64; n];
    for (i, set) in rr.iter().enumerate() {
        for &v in set {
            node_mask[v as usize] |= 1 << i;
        }
    }
    fn recurse(masks: &[u64], start: usize, left: usize, acc: u64, best: &mut u32) {
        if left == 0 || start == masks.len() {
            *best = (*best).max(acc.count_ones());
            return;
        }
        for i in start..masks.len() {
            recurse(masks, i + 1, left - 1, acc | masks[i], best);
        }
        *best = (*best).max(acc.count_ones());
    }
    let mut best = 0;
    recurse(&node_mask, 0, k, 0, &mut best);
    best
}

proptest! {
    #[test]
    fn bounds_sandwich_the_empirical_mean(
        coverage in 0u32..100_000,
        theta in 1u64..1_000_000,
        n in 1usize..10_000_000,
        delta in 1e-9f64..0.5,
    ) {
        let cov = coverage as f64;
        prop_assume!(cov <= theta as f64);
        let mean = n as f64 * cov / theta as f64;
        let lb = opim_lower_bound(cov, theta, n, delta);
        let ub = opim_upper_bound(cov, theta, n, delta);
        prop_assert!(lb >= 0.0);
        prop_assert!(lb <= mean + 1e-6 * mean.max(1.0), "lb {lb} above mean {mean}");
        prop_assert!(ub >= mean - 1e-6 * mean.max(1.0), "ub {ub} below mean {mean}");
    }

    #[test]
    fn bounds_monotone_in_delta(
        coverage in 1u32..10_000,
        theta in 100u64..100_000,
    ) {
        // Smaller failure probability -> wider (more conservative) bounds.
        let cov = coverage as f64;
        prop_assume!(cov <= theta as f64);
        let n = 100_000;
        let lb_loose = opim_lower_bound(cov, theta, n, 0.1);
        let lb_tight = opim_lower_bound(cov, theta, n, 0.001);
        prop_assert!(lb_tight <= lb_loose + 1e-9);
        let ub_loose = opim_upper_bound(cov, theta, n, 0.1);
        let ub_tight = opim_upper_bound(cov, theta, n, 0.001);
        prop_assert!(ub_tight >= ub_loose - 1e-9);
    }

    #[test]
    fn ln_binomial_recurrence(n in 2u64..500, k in 1u64..100) {
        prop_assume!(k < n);
        // Pascal: C(n,k) = C(n-1,k-1) + C(n-1,k). Verify in log space.
        let lhs = ln_binomial(n, k);
        let a = ln_binomial(n - 1, k - 1);
        let b = if k < n - 1 { ln_binomial(n - 1, k) } else { 0.0 };
        let rhs = (a.exp() + b.exp()).ln();
        // exp() can overflow for large inputs; only check the stable range.
        if rhs.is_finite() {
            prop_assert!((lhs - rhs).abs() < 1e-6 * lhs.max(1.0), "{lhs} vs {rhs}");
        }
    }

    #[test]
    fn theta_formulas_monotone_in_epsilon(
        n in 100usize..1_000_000,
        k in 1usize..500,
    ) {
        prop_assume!(k < n);
        let a = theta_max_sentinel(n, k, 0.05, 0.01);
        let b = theta_max_sentinel(n, k, 0.2, 0.01);
        prop_assert!(a > b, "smaller eps must need more samples");
        let c = theta_max_im_sentinel(n, k, k.min(4), 0.05, 0.01);
        prop_assert!(c > 0.0);
        prop_assert!(i_max(a, theta_zero(0.01)) >= 1);
    }

    #[test]
    fn greedy_never_beats_total_and_respects_guarantee(
        sets in prop::collection::vec(prop::collection::vec(0u32..20, 1..6), 1..60),
        k in 1usize..6,
    ) {
        let mut rr = RrCollection::new(20);
        for s in &sets {
            let mut s = s.clone();
            s.sort_unstable();
            s.dedup();
            rr.push(&s);
        }
        let out = greedy_max_coverage(&rr, &GreedyConfig::standard(k));
        prop_assert!(out.coverage() <= rr.len());
        // The Eq 2 bound dominates the greedy's own coverage.
        prop_assert!(out.coverage_upper + 1e-9 >= out.coverage() as f64);
        // Brute-force the optimal k-set coverage (tiny universe) and check
        // both the (1 - 1/e) greedy guarantee and the Eq 2 upper bound.
        let opt = brute_force_best_coverage(&rr, k);
        prop_assert!(out.coverage_upper + 1e-9 >= opt as f64, "Eq 2 bound below OPT");
        let frac = 1.0 - (-1.0f64).exp();
        prop_assert!(
            out.coverage() as f64 + 1e-9 >= frac * opt as f64,
            "greedy {} below (1-1/e)·OPT with OPT {}",
            out.coverage(),
            opt
        );
        // Prefix coverages are monotone with shrinking gains.
        let p = &out.prefix_coverage;
        for w in p.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        for w in p.windows(3) {
            prop_assert!(w[2] - w[1] <= w[1] - w[0]);
        }
        // Seeds are distinct.
        let mut s = out.seeds.clone();
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), out.seeds.len());
    }

    #[test]
    fn greedy_beats_any_single_node(
        sets in prop::collection::vec(prop::collection::vec(0u32..15, 1..5), 1..40),
    ) {
        let mut rr = RrCollection::new(15);
        for s in &sets {
            let mut s = s.clone();
            s.sort_unstable();
            s.dedup();
            rr.push(&s);
        }
        let out = greedy_max_coverage(&rr, &GreedyConfig::standard(1));
        for v in 0..15u32 {
            prop_assert!(out.coverage() >= rr.coverage_of(&[v]));
        }
    }
}

/// Oracle check: every greedy step must pick a node whose marginal gain
/// equals the brute-force maximum marginal at that step. (Trajectories of
/// two correct greedy implementations can diverge after a tie, so the
/// differential test is step-wise optimality, not trajectory equality.)
fn assert_stepwise_optimal(rr: &RrCollection, seeds: &[u32], prefix: &[usize]) {
    let mut covered = vec![false; rr.len()];
    for (i, &seed) in seeds.iter().enumerate() {
        // Max marginal over all nodes under the current covered state.
        let mut best = 0usize;
        for v in 0..rr.graph_n() as u32 {
            if seeds[..i].contains(&v) {
                continue;
            }
            let gain = rr
                .iter()
                .enumerate()
                .filter(|(sid, set)| !covered[*sid] && set.contains(&v))
                .count();
            best = best.max(gain);
        }
        let picked = prefix[i + 1] - prefix[i];
        assert_eq!(picked, best, "step {i} picked gain {picked}, max is {best}");
        for (sid, set) in rr.iter().enumerate() {
            if set.contains(&seed) {
                covered[sid] = true;
            }
        }
    }
}

proptest! {
    /// Differential test: both greedy implementations are step-wise
    /// optimal against a brute-force marginal oracle, and their final
    /// first-step gains coincide (no ties possible at the maximum value
    /// itself).
    #[test]
    fn heap_and_bucket_greedy_are_stepwise_optimal(
        sets in prop::collection::vec(prop::collection::vec(0u32..25, 1..6), 1..80),
        k in 1usize..8,
    ) {
        use subsim_core::coverage::greedy_max_coverage_buckets;
        let mut rr = RrCollection::new(25);
        for s in &sets {
            let mut s = s.clone();
            s.sort_unstable();
            s.dedup();
            rr.push(&s);
        }
        let heap = greedy_max_coverage(&rr, &GreedyConfig::standard(k));
        assert_stepwise_optimal(&rr, &heap.seeds, &heap.prefix_coverage);
        let bucket = greedy_max_coverage_buckets(&rr, k);
        assert_stepwise_optimal(&rr, &bucket.seeds, &bucket.prefix_coverage);
        prop_assert_eq!(heap.prefix_coverage[1], bucket.prefix_coverage[1]);
    }
}

/// Reference greedy that takes each Eq. 2 term by popping the
/// `bound_terms` freshest heap maxima, summing them and re-pushing all but
/// the seed: `O(k²·log n)` per call, but independent of the histogram, so
/// the production loop must match it byte for byte.
mod reference {
    use std::collections::BinaryHeap;
    use subsim_core::coverage::{GreedyConfig, GreedyOutcome};
    use subsim_diffusion::{InvertedIndex, RrCollection};
    use subsim_graph::NodeId;

    pub fn greedy(shards: &[&RrCollection], cfg: &GreedyConfig<'_>) -> GreedyOutcome {
        let idxs: Vec<InvertedIndex> = shards.iter().map(|rr| InvertedIndex::build(rr)).collect();
        let n = shards[0].graph_n();
        let mut count: Vec<usize> = (0..n as NodeId)
            .map(|v| idxs.iter().map(|idx| idx.degree(v)).sum())
            .collect();
        let outdeg = |v: NodeId| -> u32 { cfg.tie_break.map_or(0, |g| g.out_degree(v) as u32) };
        let mut heap: BinaryHeap<(usize, u32, NodeId)> = (0..n as NodeId)
            .map(|v| (count[v as usize], outdeg(v), v))
            .collect();
        let mut covered: Vec<Vec<bool>> = shards.iter().map(|rr| vec![false; rr.len()]).collect();
        let mut selected = vec![false; n];
        for &v in cfg.exclude {
            selected[v as usize] = true;
        }
        let mut seeds = Vec::with_capacity(cfg.select);
        let mut lambda = cfg.base_covered;
        let mut prefix = Vec::with_capacity(cfg.select + 1);
        prefix.push(lambda);
        let mut upper = f64::INFINITY;

        // Pops up to `want` entries whose stored count is current, returning
        // them ordered best-first. Stale entries are re-pushed corrected.
        let pop_fresh = |heap: &mut BinaryHeap<(usize, u32, NodeId)>,
                         count: &[usize],
                         selected: &[bool],
                         want: usize| {
            let mut fresh: Vec<(usize, u32, NodeId)> = Vec::with_capacity(want);
            while fresh.len() < want {
                let Some((c, d, v)) = heap.pop() else { break };
                if selected[v as usize] {
                    continue; // seeds never re-enter
                }
                if c != count[v as usize] {
                    heap.push((count[v as usize], d, v));
                    continue;
                }
                fresh.push((c, d, v));
            }
            fresh
        };

        for _round in 0..cfg.select {
            let want = cfg.bound_terms.max(1);
            let fresh = pop_fresh(&mut heap, &count, &selected, want);

            if cfg.bound_terms > 0 {
                let marginal_sum: usize = fresh.iter().map(|&(c, _, _)| c).sum();
                upper = upper.min((lambda + marginal_sum) as f64);
            }

            // The next seed: the best fresh entry, or an arbitrary unselected
            // node once every remaining marginal is zero and the heap drained.
            let seed = match fresh.first() {
                Some(&(_, _, v)) => v,
                None => match (0..n as NodeId).find(|&v| !selected[v as usize]) {
                    Some(v) => v,
                    None => break, // select > n: nothing left to pick
                },
            };
            // Return the unpicked fresh entries for later rounds.
            for &entry in fresh.iter().skip(1) {
                heap.push(entry);
            }

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
                        count[w as usize] -= 1;
                    }
                }
            }
            debug_assert_eq!(count[seed as usize], 0);
            seeds.push(seed);
            prefix.push(lambda);
        }

        // Final bound term at i = select.
        if cfg.bound_terms > 0 {
            let fresh = pop_fresh(&mut heap, &count, &selected, cfg.bound_terms);
            let marginal_sum: usize = fresh.iter().map(|&(c, _, _)| c).sum();
            upper = upper.min((lambda + marginal_sum) as f64);
        }

        GreedyOutcome {
            seeds,
            prefix_coverage: prefix,
            coverage_upper: upper,
        }
    }
}

/// Splits `rr` into `shards` collections by `set_index % shards`, the
/// interleaving the serving layer uses for chunk ownership.
fn split_round_robin(rr: &RrCollection, shards: usize) -> Vec<RrCollection> {
    let mut out: Vec<RrCollection> = (0..shards)
        .map(|_| RrCollection::new(rr.graph_n()))
        .collect();
    for (i, set) in rr.iter().enumerate() {
        out[i % shards].push(set);
    }
    out
}

fn assert_same_outcome(got: &GreedyOutcome, want: &GreedyOutcome, label: &str) {
    assert_eq!(got.seeds, want.seeds, "{label}: seeds");
    assert_eq!(
        got.prefix_coverage, want.prefix_coverage,
        "{label}: prefix coverage"
    );
    assert_eq!(
        got.coverage_upper.to_bits(),
        want.coverage_upper.to_bits(),
        "{label}: coverage upper {} vs {}",
        got.coverage_upper,
        want.coverage_upper
    );
}

/// Runs `cfg` over `rr` through all three greedy entry points, at shard
/// counts 1, 2, 3 and 7, and asserts each outcome byte-identical to the
/// reference loop.
fn assert_matches_reference(rr: &RrCollection, cfg: &GreedyConfig<'_>, label: &str) {
    let want = reference::greedy(&[rr], cfg);
    assert_same_outcome(&greedy_max_coverage(rr, cfg), &want, label);
    for shards in [1usize, 2, 3, 7] {
        let parts = split_round_robin(rr, shards);
        let refs: Vec<&RrCollection> = parts.iter().collect();
        let out = greedy_max_coverage_sharded(&refs, cfg);
        assert_same_outcome(&out, &want, &format!("{label} sharded/{shards}"));
        let idxs: Vec<InvertedIndex> = parts.iter().map(InvertedIndex::build).collect();
        let idx_refs: Vec<&InvertedIndex> = idxs.iter().collect();
        let out = greedy_max_coverage_indexed(&refs, &idx_refs, cfg);
        assert_same_outcome(&out, &want, &format!("{label} indexed/{shards}"));
    }
}

/// The greedy shapes every pool is checked under: standard and revised
/// (Alg. 1/6), no bound, a bound wider than the pick count, HIST's phase 2
/// (`select = k - b`, `bound_terms = k`, sentinel excluded and its sets
/// removed), an `exclude` whose nodes keep nonzero counts, and a threaded
/// preparation.
fn assert_shapes_match_reference(rr: &RrCollection, g: &Graph, k: usize, label: &str) {
    let standard = GreedyConfig::standard(k);
    assert_matches_reference(rr, &standard, &format!("{label} standard"));
    assert_matches_reference(
        rr,
        &GreedyConfig::revised(k, g),
        &format!("{label} revised"),
    );
    let no_bound = GreedyConfig {
        bound_terms: 0,
        ..standard
    };
    assert_matches_reference(rr, &no_bound, &format!("{label} no bound"));
    let wide = GreedyConfig {
        bound_terms: k + 3,
        ..GreedyConfig::revised(k, g)
    };
    assert_matches_reference(rr, &wide, &format!("{label} wide bound"));
    assert_matches_reference(rr, &standard.with_threads(2), &format!("{label} threads=2"));

    let b = (k / 3).max(1);
    let sentinel = greedy_max_coverage(rr, &GreedyConfig::standard(b)).seeds;
    let mut residue = RrCollection::new(rr.graph_n());
    for set in rr.iter() {
        if !set.iter().any(|v| sentinel.contains(v)) {
            residue.push(set);
        }
    }
    let phase2 = GreedyConfig {
        select: k.saturating_sub(b),
        bound_terms: k,
        base_covered: rr.len() - residue.len(),
        exclude: &sentinel,
        ..GreedyConfig::revised(k, g)
    };
    assert_matches_reference(&residue, &phase2, &format!("{label} hist phase 2"));
    let live_exclude = GreedyConfig {
        exclude: &sentinel,
        ..GreedyConfig::standard(k)
    };
    assert_matches_reference(rr, &live_exclude, &format!("{label} live exclude"));
}

fn sampled_pool(g: &Graph, strategy: RrStrategy, sets: usize, seed: u64) -> RrCollection {
    let sampler = RrSampler::new(g, strategy);
    let mut ctx = RrContext::new(g.n());
    let mut rng = subsim_sampling::rng_from_seed(seed);
    let mut rr = RrCollection::new(g.n());
    rr.generate(&sampler, &mut ctx, &mut rng, sets);
    rr
}

/// SplitMix64 step, for hand-built pools.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const HUB: NodeId = 7;

/// A pool where node `HUB` sits in more than 2^16 sets, far above every
/// other count, so the first bound walk crosses tens of thousands of
/// empty histogram buckets: down from the hub when it is pickable, or
/// lowering the lazy top past it when it is excluded.
fn hub_pool(n: usize, seed: u64) -> RrCollection {
    let mut state = seed;
    let mut rr = RrCollection::new(n);
    let mut set = Vec::new();
    for i in 0..(1usize << 16) + 8000 {
        set.clear();
        if i % 17 != 0 {
            set.push(HUB);
        }
        for _ in 0..1 + splitmix(&mut state) % 3 {
            let v = (splitmix(&mut state) % n as u64) as NodeId;
            if !set.contains(&v) {
                set.push(v);
            }
        }
        rr.push(&set);
    }
    rr
}

fn distinct_counts(rr: &RrCollection) -> usize {
    let idx = InvertedIndex::build(rr);
    let mut counts: Vec<usize> = (0..rr.graph_n() as NodeId).map(|v| idx.degree(v)).collect();
    counts.sort_unstable();
    counts.dedup();
    counts.len()
}

fn assert_hub_pool_matches_reference(n: usize, select: usize, seed: u64) {
    let rr = hub_pool(n, seed);
    let g = barabasi_albert(n, 2, WeightModel::Wc, seed);
    assert!(InvertedIndex::build(&rr).degree(HUB) > 1 << 16);
    let distinct = distinct_counts(&rr);
    let bound_terms = distinct + 5;
    let hub = [HUB];
    for (exclude, name) in [(&[][..], "hub pickable"), (&hub[..], "hub excluded")] {
        let cfg = GreedyConfig {
            select,
            bound_terms,
            exclude,
            ..GreedyConfig::revised(select, &g)
        };
        assert!(cfg.bound_terms > distinct);
        assert_matches_reference(&rr, &cfg, &format!("hub pool seed={seed} {name}"));
    }
}

fn assert_edge_shapes_match_reference() {
    // select > n: the loop runs out of candidates before `select` picks.
    let g = erdos_renyi_gnm(12, 30, WeightModel::Wc, 5);
    let rr = sampled_pool(&g, RrStrategy::SubsimIc, 200, 6);
    assert_matches_reference(&rr, &GreedyConfig::standard(15), "select > n");
    assert_matches_reference(&rr, &GreedyConfig::revised(15, &g), "select > n revised");
    let exclude = [0, 3];
    let cfg = GreedyConfig {
        exclude: &exclude,
        ..GreedyConfig::standard(15)
    };
    assert_matches_reference(&rr, &cfg, "select > n with exclude");
    // Empty collection.
    let empty = RrCollection::new(10);
    assert_matches_reference(&empty, &GreedyConfig::standard(4), "empty");
    assert_matches_reference(&empty, &GreedyConfig::revised(4, &g), "empty revised");
}

#[test]
fn greedy_matches_pre_histogram_loop_byte_for_byte() {
    let g = barabasi_albert(2000, 3, WeightModel::Wc, 11);
    let rr = sampled_pool(&g, RrStrategy::SubsimIc, 4000, 12);
    assert_shapes_match_reference(&rr, &g, 20, "subsim-ic");
    let g_lt = barabasi_albert(2000, 3, WeightModel::Lt, 13);
    let rr = sampled_pool(&g_lt, RrStrategy::Lt, 4000, 14);
    assert_shapes_match_reference(&rr, &g_lt, 20, "lt");
    assert_hub_pool_matches_reference(300, 12, 15);
    assert_edge_shapes_match_reference();
}

#[test]
#[ignore = "heavy: larger pools, k up to 200, several seeds (release only)"]
fn greedy_matches_pre_histogram_loop_byte_for_byte_heavy() {
    for seed in 0..8u64 {
        let g = barabasi_albert(16_384, 4, WeightModel::Wc, 100 + seed);
        let rr = sampled_pool(&g, RrStrategy::SubsimIc, 16_000, 200 + seed);
        assert_shapes_match_reference(&rr, &g, 50, &format!("subsim-ic seed={seed}"));
        let g_lt = barabasi_albert(16_384, 4, WeightModel::Lt, 300 + seed);
        let rr = sampled_pool(&g_lt, RrStrategy::Lt, 8_000, 400 + seed);
        assert_shapes_match_reference(&rr, &g_lt, 200, &format!("lt seed={seed}"));
        assert_hub_pool_matches_reference(1000, 40, 500 + seed);
    }
}

/// Brute-force Eq. 2: for every prefix `S_i` of `seeds`, `Λ(S_i)` plus
/// the `terms` largest marginals over nodes outside `S_i ∪ exclude`,
/// minimised over `i`. Also returns each `Λ(S_i)`.
fn eq2_by_brute_force(
    rr: &RrCollection,
    seeds: &[NodeId],
    terms: usize,
    base: usize,
    exclude: &[NodeId],
) -> (Vec<usize>, f64) {
    let mut lambdas = Vec::with_capacity(seeds.len() + 1);
    let mut upper = f64::INFINITY;
    for i in 0..=seeds.len() {
        let prefix = &seeds[..i];
        let lambda = base + rr.coverage_of(prefix);
        lambdas.push(lambda);
        if terms == 0 {
            continue;
        }
        let mut marginals: Vec<usize> = (0..rr.graph_n() as NodeId)
            .filter(|v| !prefix.contains(v) && !exclude.contains(v))
            .map(|v| {
                rr.iter()
                    .filter(|set| set.contains(&v) && !set.iter().any(|u| prefix.contains(u)))
                    .count()
            })
            .collect();
        marginals.sort_unstable_by(|a, b| b.cmp(a));
        let sum: usize = marginals.iter().take(terms).sum();
        upper = upper.min((lambda + sum) as f64);
    }
    (lambdas, upper)
}

proptest! {
    /// Exact referee for the Eq. 2 bound: `coverage_upper` equals the
    /// brute-forced minimum over prefixes, through the sharded entry
    /// point, with random base coverage, an `exclude` set drawn from
    /// nodes that occur in sets, and both tie-break modes; the outcome is
    /// also byte-identical to the reference loop.
    #[test]
    fn coverage_upper_equals_brute_force_eq2(
        n in 2usize..=25,
        raw_sets in prop::collection::vec(prop::collection::vec(0u32..25, 1..6), 0..50),
        select in 0usize..8,
        terms_pick in 0usize..3,
        base in 0usize..20,
        exclude_picks in prop::collection::vec(any::<usize>(), 0..4),
        tie in any::<bool>(),
        shards in 1usize..=4,
        graph_seed in any::<u64>(),
    ) {
        let mut rr = RrCollection::new(n);
        for s in &raw_sets {
            let mut s: Vec<NodeId> = s.iter().map(|&v| v % n as NodeId).collect();
            s.sort_unstable();
            s.dedup();
            rr.push(&s);
        }
        let exclude: Vec<NodeId> = if raw_sets.is_empty() {
            Vec::new()
        } else {
            exclude_picks
                .iter()
                .map(|&p| {
                    let set = rr.get(p % rr.len());
                    set[p / rr.len() % set.len()]
                })
                .collect()
        };
        let g = erdos_renyi_gnm(n, n, WeightModel::Wc, graph_seed);
        let bound_terms = [0, select, select + 3][terms_pick];
        let cfg = GreedyConfig {
            select,
            bound_terms,
            tie_break: tie.then_some(&g),
            base_covered: base,
            exclude: &exclude,
            threads: 1,
        };
        let parts = split_round_robin(&rr, shards);
        let refs: Vec<&RrCollection> = parts.iter().collect();
        let out = greedy_max_coverage_sharded(&refs, &cfg);

        let mut distinct_exclude = exclude.clone();
        distinct_exclude.sort_unstable();
        distinct_exclude.dedup();
        prop_assert_eq!(out.seeds.len(), select.min(n - distinct_exclude.len()));
        prop_assert!(out.seeds.iter().all(|v| !exclude.contains(v)));
        let (lambdas, upper) =
            eq2_by_brute_force(&rr, &out.seeds, bound_terms, base, &exclude);
        prop_assert_eq!(&out.prefix_coverage, &lambdas);
        prop_assert_eq!(
            out.coverage_upper.to_bits(),
            upper.to_bits(),
            "coverage_upper {} vs brute-force Eq. 2 {}",
            out.coverage_upper,
            upper
        );
        let want = reference::greedy(&[&rr], &cfg);
        prop_assert_eq!(&out.seeds, &want.seeds);
        prop_assert_eq!(out.coverage_upper.to_bits(), want.coverage_upper.to_bits());
    }
}
