//! The one query path every index runs: one certification round over a
//! [`PoolView`], and the one OPIM-C loop around it.
//!
//! A round is OPIM-C's: greedy max-coverage over `R₁` (which also yields
//! the Eq. 2 upper bound), then the Eq. 1 lower bound from the seeds'
//! coverage of `R₂`. Eqs 1–2 hold for any pair of independent
//! collections, whatever generated them, so the same round certifies a
//! long-lived pool across many `(k, ε, δ)` queries. What differs between
//! pools is only how the halves are held, and [`PoolView`] names those
//! choices:
//!
//! - **Shards** — `R₁` is a list of disjoint slices. Greedy runs on the
//!   summed per-shard counts and both bounds use the union lengths, so the
//!   result is byte-identical for every shard split and thread count.
//! - **Cached inverted indexes** — a serving snapshot that keeps one per
//!   `R₁` slice skips the per-round index build.
//! - **Validation** — `R₂` is either exact arenas or count-distinct
//!   sketches ([`Validation::Sketched`]). A sketch answers `Λ_{R₂}(S)` as a
//!   union-cardinality estimate deflated by [`SLACK_SIGMAS`] standard
//!   errors before Eq. 1, so a passing certificate still carries the
//!   `(1 − 1/e − ε)` guarantee; [`Certificate::failed_on_slack`] tells the
//!   loop to raise register precision instead of growing the pool.
//! - **Sentinels** — a pool whose later chunks were generated under
//!   Algorithm 5 truncation re-certifies through HIST's phase-2 round
//!   (Algorithm 8): sets the sentinel set `Z` covers count as base
//!   coverage, the remaining `k − |Z|` seeds come from the revised greedy
//!   excluding `Z`, and both bounds use the full half lengths.
//!
//! # Why the bounds survive truncation
//!
//! A truncated RR set records the traversal up to and including the first
//! sentinel hit. For any seed set `S ⊇ Z` its coverage indicator equals
//! the full set's: if the traversal hit `z ∈ Z`, the recorded set contains
//! `z ∈ S`; if it never hit, the recorded set *is* the full set. Hence:
//!
//! * **Eq. 1 (lower)** on `R₂` is exact for the returned seeds when
//!   `k ≥ |Z|`. For `k < |Z|` the seeds are the prefix `Z[..k]` and
//!   truncated coverage only undercounts, so the bound stays sound but may
//!   be loose.
//! * **Eq. 2 (upper)** uses the submodular chain `Λ(Z) + Σ top-k marginals
//!   ≥ Λ(Z ∪ S°_k) = Λ_full(Z ∪ S°_k) ≥ Λ_full(S°_k)`, so it dominates the
//!   optimum's full-set coverage for any `k`.
//!
//! [`certified_query`] is the loop: θ₀, `i_max`, `δ/(3·i_max)` per round,
//! certify → sketch ladder → double, stopping at Eq. 4's `θ_max`. An index
//! plugs in through [`CertifiedPool`]: its current view, growth, the
//! ladder step, and an optional version-pin check.

use crate::error::IndexError;
use crate::index::QueryAnswer;
use crate::stats::QueryStats;
use std::time::{Duration, Instant};
use subsim_core::bounds::{i_max, opim_lower_bound, opim_upper_bound, theta_max_opim, theta_zero};
use subsim_core::coverage::{
    greedy_max_coverage_indexed, greedy_max_coverage_sharded, GreedyConfig, GreedyOutcome,
};
use subsim_core::sentinel::SentinelSet;
use subsim_core::ImOptions;
use subsim_diffusion::{InvertedIndex, NodeMarks, RrCollection};
use subsim_graph::{Graph, NodeId};
use subsim_sketch::{hll, SketchedPool, MAX_PRECISION, SLACK_SIGMAS};

/// How a pool holds its validation half `R₂`.
#[derive(Debug, Clone)]
pub enum Validation<'a> {
    /// Exact arenas, one per shard.
    Exact(Vec<&'a RrCollection>),
    /// Count-distinct sketches, one per shard, all at one precision.
    Sketched(Vec<&'a SketchedPool>),
}

impl Validation<'_> {
    fn len_sets(&self) -> usize {
        match self {
            Validation::Exact(r2s) => r2s.iter().map(|rr| rr.len()).sum(),
            Validation::Sketched(sks) => sks.iter().map(|sk| sk.len_sets()).sum(),
        }
    }
}

/// A read-only view of one pool state, as one certification round sees
/// it.
#[derive(Debug, Clone)]
pub struct PoolView<'a> {
    /// Per-shard slices of the selection half `R₁`.
    pub r1: Vec<&'a RrCollection>,
    /// Cached inverted indexes, one per `R₁` slice; `None` builds them
    /// per round.
    pub idx: Option<Vec<&'a InvertedIndex>>,
    /// The validation half `R₂`.
    pub validation: Validation<'a>,
    /// The sentinel set truncated chunks stop at, if the tier is active.
    pub sentinel: Option<&'a SentinelSet>,
    /// The graph the pool is sampled from.
    pub graph: &'a Graph,
}

impl PoolView<'_> {
    fn pool_len(&self) -> usize {
        self.r1.iter().map(|rr| rr.len()).sum()
    }

    fn sketch_precision(&self) -> Option<u8> {
        match &self.validation {
            Validation::Sketched(sks) => sks.first().map(|sk| sk.precision()),
            Validation::Exact(_) => None,
        }
    }
}

/// Outcome of one certification round.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Seeds in pick order (sentinels first on a sentinel pool).
    pub seeds: Vec<NodeId>,
    /// Eq. 1 lower bound on `𝕀(S)`; on a sketched pool it comes from the
    /// deflated estimate.
    pub lower: f64,
    /// Eq. 2 upper bound on `𝕀(S^o_k)`.
    pub upper: f64,
    /// Eq. 1 from the undeflated sketch estimate (equal to `lower` on an
    /// exact pool) — the ladder's diagnostic, not part of the certificate.
    pub lower_undeflated: f64,
}

impl Certificate {
    /// The certified approximation ratio `𝕀⁻(S)/𝕀⁺(S^o_k)`.
    pub fn ratio(&self) -> f64 {
        ratio(self.lower, self.upper)
    }

    /// True when the round failed `target` only because of the sketch
    /// slack: the undeflated estimate clears it, the deflated one does
    /// not. More samples cannot fix that; higher precision can.
    pub fn failed_on_slack(&self, target: f64) -> bool {
        self.ratio() <= target && ratio(self.lower_undeflated, self.upper) > target
    }
}

fn ratio(lower: f64, upper: f64) -> f64 {
    if upper <= 0.0 {
        0.0
    } else {
        lower / upper
    }
}

/// One OPIM-C certification round over `view`, with failure probability
/// `delta_iter` for each bound. `threads` parallelizes selection
/// preparation only, so the result is the same for every value.
///
/// If `ratio() > 1 − 1/e − ε` the seeds are `(1 − 1/e − ε)`-approximate
/// with probability at least `1 − 2·delta_iter` (less the sketch slack's
/// own failure probability on a sketched pool), provided `R₂` was sampled
/// independently of `R₁`. Both halves must be non-empty.
pub fn certify(view: &PoolView<'_>, k: usize, delta_iter: f64, threads: usize) -> Certificate {
    let n = view.graph.n();
    assert!(!view.r1.is_empty(), "need at least one shard");
    for rr in &view.r1 {
        assert_eq!(rr.graph_n(), n, "pool shards are over different graphs");
    }
    match &view.validation {
        Validation::Exact(r2s) => {
            for rr in r2s {
                assert_eq!(
                    rr.graph_n(),
                    n,
                    "validation shards are over different graphs"
                );
            }
        }
        Validation::Sketched(sks) => {
            for sk in sks {
                assert_eq!(sk.graph_n(), n, "sketch shards are over different graphs");
            }
        }
    }
    let r1_len = view.pool_len() as u64;
    let r2_len = view.validation.len_sets() as u64;
    assert!(r1_len > 0 && r2_len > 0, "pool halves must be non-empty");

    let (seeds, coverage_upper) = select(view, k, threads);
    let upper = opim_upper_bound(coverage_upper, r1_len, n, delta_iter);
    let (lower, lower_undeflated) = match &view.validation {
        Validation::Exact(r2s) => {
            let mut marks = NodeMarks::new();
            let covered: usize = r2s
                .iter()
                .map(|rr| rr.coverage_of_with(&seeds, &mut marks))
                .sum();
            let lower = opim_lower_bound(covered as f64, r2_len, n, delta_iter);
            (lower, lower)
        }
        Validation::Sketched(sks) => {
            // Register-wise max is order-independent, so folding every
            // shard into one scratch array gives the sequential estimate.
            let precision = sks[0].precision();
            let mut regs = vec![0u8; hll::num_registers(precision)];
            for sk in sks {
                assert_eq!(
                    sk.precision(),
                    precision,
                    "sketch shards at mixed precision"
                );
                sk.merge_union_into(&seeds, &mut regs);
            }
            let estimate = hll::estimate(&regs).min(r2_len as f64);
            let deflated =
                (estimate * (1.0 - SLACK_SIGMAS * hll::rel_std_error(precision))).max(0.0);
            (
                opim_lower_bound(deflated, r2_len, n, delta_iter),
                opim_lower_bound(estimate, r2_len, n, delta_iter),
            )
        }
    };
    Certificate {
        seeds,
        lower,
        upper,
        lower_undeflated,
    }
}

/// Greedy selection over `R₁`: the seeds and the Eq. 2 coverage bound.
fn select(view: &PoolView<'_>, k: usize, threads: usize) -> (Vec<NodeId>, f64) {
    let Some(z) = view.sentinel.filter(|z| !z.is_empty()).map(|z| z.nodes()) else {
        let cfg = GreedyConfig::standard(k).with_threads(threads);
        let out: GreedyOutcome = match &view.idx {
            Some(idxs) => greedy_max_coverage_indexed(&view.r1, idxs, &cfg),
            None => greedy_max_coverage_sharded(&view.r1, &cfg),
        };
        return (out.seeds, out.coverage_upper);
    };
    // Line 5 of Algorithm 8: sets the sentinel covers carry zero marginal
    // coverage for the extension picks, so they count as base coverage
    // and the greedy runs over the (small, on a truncated pool) residue.
    let mut marks = NodeMarks::new();
    let mut base = 0usize;
    let residue: Vec<RrCollection> = view
        .r1
        .iter()
        .map(|rr| {
            let (kept, covered) = rr.filter_not_covering_with(z, &mut marks);
            base += covered;
            kept
        })
        .collect();
    let refs: Vec<&RrCollection> = residue.iter().collect();
    let cfg = GreedyConfig {
        select: k.saturating_sub(z.len()),
        bound_terms: k,
        tie_break: Some(view.graph),
        base_covered: base,
        exclude: z,
        threads,
    };
    let out = greedy_max_coverage_sharded(&refs, &cfg);
    let mut seeds = z[..z.len().min(k)].to_vec();
    seeds.extend_from_slice(&out.seeds);
    (seeds, out.coverage_upper)
}

/// What an index supplies to [`certified_query`].
///
/// A concurrent index implements this on a per-query handle that holds
/// the snapshot the query currently reads; growth and promotion replace
/// that snapshot with the one they publish.
pub trait CertifiedPool {
    /// The index's error type.
    type Error: From<IndexError>;

    /// The pool state the next round certifies.
    fn view(&self) -> PoolView<'_>;

    /// Grows the pool to at least `target_sets` per half; returns the sets
    /// generated, both halves combined (`0` if another writer already
    /// grew past the target).
    fn grow_to(&mut self, target_sets: usize) -> Result<usize, Self::Error>;

    /// The ladder step: regenerates the sketched validation half one
    /// register precision above `observed`; returns the sets generated
    /// (`0` if another writer already promoted past `observed`).
    fn promote_sketch(&mut self, observed: u8) -> Result<usize, Self::Error>;

    /// Fails when the view no longer serves the version the query is
    /// pinned to.
    fn check_pin(&self) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Observes one round's certification wall-clock.
    fn record_selection(&self, _elapsed: Duration) {}
}

/// Answers one IM query: `k` seeds at accuracy `ε` and failure
/// probability `δ`, certified by the OPIM bounds over the pool.
///
/// Certifies the current pool first. If the ratio beats `1 − 1/e − ε` the
/// answer returns as-is; if the round failed only on sketch slack, the
/// sketch is promoted one precision step (up to `MAX_PRECISION`);
/// otherwise the pool doubles, continuing the deterministic chunk stream,
/// up to Eq. 4's `θ_max` — where the guarantee holds by sample
/// complexity, as in OPIM-C's final iteration. Every round's bounds use
/// `δ/(3·i_max)`, exactly as OPIM-C budgets its failure probability.
pub fn certified_query<P: CertifiedPool>(
    pool: &mut P,
    k: usize,
    epsilon: f64,
    delta: f64,
    threads: usize,
) -> Result<QueryAnswer, P::Error> {
    pool.check_pin()?;
    let n = {
        let g = pool.view().graph;
        ImOptions::new(k)
            .epsilon(epsilon)
            .delta(delta)
            .validate(g)
            .map_err(IndexError::from)?;
        g.n()
    };
    let start = Instant::now();
    let target = 1.0 - (-1.0f64).exp() - epsilon;
    let theta_max = theta_max_opim(n, k, epsilon, delta);
    let theta0 = theta_zero(delta);
    let delta_iter = delta / (3.0 * i_max(theta_max, theta0) as f64);

    let pool_before = pool.view().pool_len();
    let mut fresh = 0usize;
    if pool_before < theta0 as usize {
        fresh += pool.grow_to(theta0 as usize)?;
        pool.check_pin()?;
    }
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        let view = pool.view();
        let round = Instant::now();
        let cert = certify(&view, k, delta_iter, threads);
        let (pool_len, precision) = (view.pool_len(), view.sketch_precision());
        pool.record_selection(round.elapsed());
        let certified = cert.upper > 0.0 && cert.lower / cert.upper > target;
        if certified || pool_len as f64 >= theta_max {
            let stats = QueryStats {
                k,
                epsilon,
                delta,
                pool_before,
                pool_after: pool_len,
                fresh_sets: fresh,
                rounds,
                lower_bound: cert.lower,
                upper_bound: cert.upper,
                target_ratio: target,
                certified_by_bounds: certified,
                elapsed: start.elapsed(),
            };
            return Ok(QueryAnswer {
                seeds: cert.seeds,
                stats,
            });
        }
        // Failing on slack means more samples cannot close the gap —
        // promote register precision instead. Past MAX_PRECISION, fall
        // through to doubling and let θ_max end the loop.
        if let Some(p) = precision.filter(|&p| p < MAX_PRECISION && cert.failed_on_slack(target)) {
            fresh += pool.promote_sketch(p)?;
            pool.check_pin()?;
            continue;
        }
        // pool_len < θ_max here, so the target strictly grows the pool.
        fresh += pool.grow_to(pool_len.saturating_mul(2).min(theta_max.ceil() as usize))?;
        pool.check_pin()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::R2_STREAM;
    use subsim_core::coverage::greedy_max_coverage;
    use subsim_diffusion::pool::WorkerPool;
    use subsim_diffusion::{RrSampler, RrStrategy};
    use subsim_graph::generators::{barabasi_albert, star_graph};
    use subsim_graph::WeightModel;

    const CHUNK: usize = 64;
    const WARMUP: u64 = 4;

    /// One half of a pool as a serving index grows it: chunks `0..warmup`
    /// plain, the rest truncated at `z` (when given).
    fn half(g: &Graph, z: Option<&[NodeId]>, chunks: u64, seed: u64) -> RrCollection {
        let sampler = RrSampler::new(g, RrStrategy::SubsimIc);
        let workers = WorkerPool::new(1);
        let warmup = if z.is_some() { WARMUP } else { chunks };
        let mut rr = workers
            .generate_chunks(&sampler, None, 0..warmup, CHUNK, seed)
            .rr;
        rr.extend_from(
            &workers
                .generate_chunks(&sampler, z, warmup..chunks, CHUNK, seed)
                .rr,
        );
        rr
    }

    /// Chunk `c` of `rr` goes to shard `c % shards`, as the sharded index
    /// lays its arenas out.
    fn split(rr: &RrCollection, shards: usize) -> Vec<RrCollection> {
        let mut out: Vec<RrCollection> = (0..shards)
            .map(|_| RrCollection::new(rr.graph_n()))
            .collect();
        for c in 0..rr.len() / CHUNK {
            out[c % shards].extend_from_range(rr, c * CHUNK..(c + 1) * CHUNK);
        }
        out
    }

    #[derive(Clone, Copy, Debug)]
    enum Tier {
        Plain,
        Sentinel,
        Sketched,
    }

    /// A whole pool for `tier`: `R₁`, the exact `R₂` and the sketch of it,
    /// and the sentinel set.
    struct Pool {
        r1: RrCollection,
        r2: RrCollection,
        sketch: SketchedPool,
        z: SentinelSet,
    }

    fn pool(g: &Graph, tier: Tier, chunks: u64, seed: u64) -> Pool {
        let z = match tier {
            Tier::Sentinel => SentinelSet::select(&[&half(g, None, WARMUP, seed)], g, 3),
            _ => SentinelSet::default(),
        };
        let zn = (!z.is_empty()).then(|| z.nodes());
        let r1 = half(g, zn, chunks, seed);
        let r2 = half(g, zn, chunks, seed ^ R2_STREAM);
        let mut sketch = SketchedPool::new(g.n(), CHUNK, 8);
        sketch.absorb_chunk_ids(&(0..chunks).collect::<Vec<_>>(), &r2);
        Pool { r1, r2, sketch, z }
    }

    fn whole_view<'a>(g: &'a Graph, p: &'a Pool, tier: Tier) -> PoolView<'a> {
        PoolView {
            r1: vec![&p.r1],
            idx: None,
            validation: match tier {
                Tier::Sketched => Validation::Sketched(vec![&p.sketch]),
                _ => Validation::Exact(vec![&p.r2]),
            },
            sentinel: Some(&p.z),
            graph: g,
        }
    }

    #[test]
    fn every_layout_certifies_byte_identically_to_one_shard() {
        let g = barabasi_albert(300, 3, WeightModel::WcVariant { theta: 3.0 }, 23);
        for tier in [Tier::Plain, Tier::Sentinel, Tier::Sketched] {
            let p = pool(&g, tier, 24, 24);
            let reference = certify(&whole_view(&g, &p, tier), 5, 0.01, 1);
            for shards in [1usize, 2, 3, 5] {
                let r1s = split(&p.r1, shards);
                let r2s = split(&p.r2, shards);
                let sketches = p.sketch.split(shards);
                let idxs: Vec<InvertedIndex> = r1s.iter().map(InvertedIndex::build).collect();
                for cached in [false, true] {
                    for threads in [1usize, 4] {
                        let view = PoolView {
                            r1: r1s.iter().collect(),
                            idx: cached.then(|| idxs.iter().collect()),
                            validation: match tier {
                                Tier::Sketched => Validation::Sketched(sketches.iter().collect()),
                                _ => Validation::Exact(r2s.iter().collect()),
                            },
                            sentinel: Some(&p.z),
                            graph: &g,
                        };
                        assert_eq!(
                            certify(&view, 5, 0.01, threads),
                            reference,
                            "{tier:?} shards={shards} cached={cached} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plain_round_is_greedy_plus_both_bounds() {
        let g = barabasi_albert(300, 3, WeightModel::Wc, 71);
        let p = pool(&g, Tier::Plain, 32, 72);
        let cert = certify(&whole_view(&g, &p, Tier::Plain), 5, 0.01, 1);
        let direct = greedy_max_coverage(&p.r1, &GreedyConfig::standard(5));
        assert_eq!(cert.seeds, direct.seeds);
        let lb = opim_lower_bound(
            p.r2.coverage_of(&direct.seeds) as f64,
            p.r2.len() as u64,
            g.n(),
            0.01,
        );
        let ub = opim_upper_bound(direct.coverage_upper, p.r1.len() as u64, g.n(), 0.01);
        assert_eq!(cert.lower, lb);
        assert_eq!(cert.upper, ub);
        assert_eq!(
            cert.lower_undeflated, cert.lower,
            "exact pools carry no slack"
        );
        assert!(cert.lower <= cert.upper);
    }

    #[test]
    fn sketched_seeds_and_upper_match_the_exact_round() {
        let g = barabasi_albert(300, 3, WeightModel::Wc, 74);
        let p = pool(&g, Tier::Sketched, 32, 75);
        let exact = certify(&whole_view(&g, &p, Tier::Plain), 6, 0.02, 1);
        let sketched = certify(&whole_view(&g, &p, Tier::Sketched), 6, 0.02, 1);
        assert_eq!(sketched.seeds, exact.seeds);
        assert_eq!(sketched.upper, exact.upper);
        assert!(sketched.lower <= sketched.lower_undeflated);
    }

    #[test]
    fn empty_sentinel_set_is_the_plain_round() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 15);
        let p = pool(&g, Tier::Plain, 24, 16);
        let mut view = whole_view(&g, &p, Tier::Plain);
        let with_empty = certify(&view, 5, 0.01, 1);
        view.sentinel = None;
        assert_eq!(certify(&view, 5, 0.01, 1), with_empty);
    }

    #[test]
    fn validation_over_another_graph_is_refused() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 15);
        let p = pool(&g, Tier::Sketched, 8, 16);
        let other_r2 = RrCollection::new(g.n() + 1);
        let other_sketch = SketchedPool::new(g.n() + 1, CHUNK, 8);
        for validation in [
            Validation::Exact(vec![&p.r2, &other_r2]),
            Validation::Sketched(vec![&p.sketch, &other_sketch]),
        ] {
            let view = PoolView {
                validation,
                ..whole_view(&g, &p, Tier::Plain)
            };
            let refused = std::panic::catch_unwind(|| certify(&view, 5, 0.01, 1));
            assert!(refused.is_err(), "{:?}", view.validation);
        }
    }

    #[test]
    fn failed_on_slack_identifies_the_deflation_band() {
        let cert = Certificate {
            seeds: vec![1],
            lower: 50.0,
            upper: 100.0,
            lower_undeflated: 60.0,
        };
        // Target between the deflated (0.5) and undeflated (0.6) ratios.
        assert!(cert.failed_on_slack(0.55));
        assert!(!cert.failed_on_slack(0.45)); // passes outright
        assert!(!cert.failed_on_slack(0.65)); // fails on samples, not slack
        let degenerate = Certificate {
            seeds: vec![],
            lower: 0.0,
            upper: 0.0,
            lower_undeflated: 0.0,
        };
        assert_eq!(degenerate.ratio(), 0.0);
    }

    #[test]
    fn large_pools_certify_the_star_hub() {
        let g = star_graph(100, WeightModel::UniformIc { p: 0.5 });
        for tier in [Tier::Plain, Tier::Sentinel] {
            let p = pool(&g, tier, 320, 73);
            let cert = certify(&whole_view(&g, &p, tier), 1, 0.005, 1);
            assert_eq!(cert.seeds, vec![0], "{tier:?}");
            assert!(
                cert.ratio() > 1.0 - (-1.0f64).exp() - 0.1,
                "{tier:?}: ratio {} too loose on a 20k-set pool",
                cert.ratio()
            );
        }
    }

    #[test]
    fn sentinel_seeds_lead_with_the_sentinel_prefix_for_every_k() {
        let g = barabasi_albert(400, 4, WeightModel::WcVariant { theta: 3.0 }, 20);
        let p = pool(&g, Tier::Sentinel, 128, 21);
        let z = p.z.nodes();
        for k in [1usize, 2, 3, 5, 8] {
            let cert = certify(&whole_view(&g, &p, Tier::Sentinel), k, 0.01, 1);
            assert_eq!(cert.seeds.len(), k, "k={k}");
            let prefix = &z[..z.len().min(k)];
            assert_eq!(&cert.seeds[..prefix.len()], prefix, "k={k}");
            let mut s = cert.seeds.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), k, "k={k}: duplicate seeds");
            assert!(cert.lower <= cert.upper, "k={k}");
        }
    }

    #[test]
    fn truncated_pool_certifies_like_a_plain_one() {
        // The headline contract: a sentinel pool's certified ratio stays
        // in the plain pool's band while its sets are much smaller.
        let g = barabasi_albert(600, 5, WeightModel::WcVariant { theta: 6.0 }, 26);
        let plain = pool(&g, Tier::Plain, 156, 27);
        let trunc = pool(&g, Tier::Sentinel, 156, 27);
        let a = certify(&whole_view(&g, &plain, Tier::Plain), 8, 0.01, 1);
        let b = certify(&whole_view(&g, &trunc, Tier::Sentinel), 8, 0.01, 1);
        assert!(
            trunc.r1.avg_size() < plain.r1.avg_size(),
            "truncation must shrink RR sets: {} vs {}",
            trunc.r1.avg_size(),
            plain.r1.avg_size()
        );
        assert!(
            b.ratio() > 0.8 * a.ratio(),
            "sentinel ratio {} collapsed vs plain {}",
            b.ratio(),
            a.ratio()
        );
    }
}
