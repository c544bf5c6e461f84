//! Per-query records and cumulative observability counters.

use crate::pool::Generated;
use std::time::Duration;

/// What one [`crate::RrIndex::query`] call did and certified.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStats {
    /// Requested seed-set size.
    pub k: usize,
    /// Requested accuracy `ε`.
    pub epsilon: f64,
    /// Requested failure probability `δ`.
    pub delta: f64,
    /// Sets per pool half when the query arrived.
    pub pool_before: usize,
    /// Sets per pool half when the query finished.
    pub pool_after: usize,
    /// Sets generated *by this query* across both halves
    /// (`2 · (pool_after - pool_before)`).
    pub fresh_sets: usize,
    /// Certification rounds run (greedy + bound evaluations).
    pub rounds: u32,
    /// Eq. 1 lower bound on `𝕀(S)` at termination.
    pub lower_bound: f64,
    /// Eq. 2 upper bound on `𝕀(S^o_k)` at termination.
    pub upper_bound: f64,
    /// `1 - 1/e - ε`, what the ratio had to beat.
    pub target_ratio: f64,
    /// Whether the bound ratio beat the target (as opposed to the query
    /// terminating at the `θ_max` worst-case cap, where the guarantee
    /// comes from Eq. 4's sample-complexity argument instead).
    pub certified_by_bounds: bool,
    /// Wall-clock time of the query.
    pub elapsed: Duration,
}

impl QueryStats {
    /// The certified approximation ratio `𝕀⁻(S)/𝕀⁺(S^o_k)`.
    pub fn ratio(&self) -> f64 {
        if self.upper_bound <= 0.0 {
            0.0
        } else {
            self.lower_bound / self.upper_bound
        }
    }

    /// Sets served from the pre-existing pool, across both halves.
    pub fn reused_sets(&self) -> usize {
        2 * self.pool_before.min(self.pool_after)
    }
}

/// Cumulative counters over an index's lifetime (survive snapshots only as
/// far as the pool itself does — counters restart at load).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexCounters {
    /// Queries answered.
    pub queries: u64,
    /// Queries whose certificate beat the target ratio (vs. terminating at
    /// the `θ_max` cap).
    pub certified_queries: u64,
    /// RR sets generated since construction, both halves.
    pub rr_sets_generated: u64,
    /// Node entries generated since construction, both halves.
    pub rr_nodes_generated: u64,
    /// Generation cost proxy (see `subsim_diffusion::RrContext::cost`).
    pub generation_cost: u64,
    /// Sentinel hits recorded during generation, both halves (0 while the
    /// sentinel tier is inactive).
    pub sentinel_hits: u64,
    /// RR sets generated under sentinel truncation (a subset of
    /// `rr_sets_generated`).
    pub truncated_sets: u64,
    /// Node entries generated under sentinel truncation (a subset of
    /// `rr_nodes_generated`).
    pub truncated_nodes: u64,
    /// Σ over queries of sets served from the pre-existing pool.
    pub sets_reused: u64,
    /// Σ over queries of sets the query's final round consumed.
    pub sets_consumed: u64,
    /// Σ of query wall-clock times.
    pub query_time: Duration,
}

impl IndexCounters {
    /// Records one generation batch.
    pub fn record(&mut self, b: &Generated) {
        self.rr_sets_generated += b.sets;
        self.rr_nodes_generated += b.nodes;
        self.generation_cost += b.cost;
        self.sentinel_hits += b.sentinel_hits;
        if b.truncated {
            self.truncated_sets += b.sets;
            self.truncated_nodes += b.nodes;
        }
    }

    /// Fraction of consumed sets that were already in the pool when their
    /// query arrived — 1.0 means fully warm (no generation at all).
    pub fn cache_hit_ratio(&self) -> f64 {
        if self.sets_consumed == 0 {
            0.0
        } else {
            self.sets_reused as f64 / self.sets_consumed as f64
        }
    }

    /// Fraction of truncated traversals that stopped at a sentinel.
    pub fn sentinel_hit_rate(&self) -> f64 {
        if self.truncated_sets == 0 {
            0.0
        } else {
            self.sentinel_hits as f64 / self.truncated_sets as f64
        }
    }

    /// Mean nodes per *plain* RR set generated so far (0 when none).
    pub fn mean_rr_size_plain(&self) -> f64 {
        let sets = self.rr_sets_generated - self.truncated_sets;
        if sets == 0 {
            0.0
        } else {
            (self.rr_nodes_generated - self.truncated_nodes) as f64 / sets as f64
        }
    }

    /// Mean nodes per *truncated* RR set generated so far (0 when none) —
    /// the paper's headline memory lever; compare against
    /// [`IndexCounters::mean_rr_size_plain`].
    pub fn mean_rr_size_truncated(&self) -> f64 {
        if self.truncated_sets == 0 {
            0.0
        } else {
            self.truncated_nodes as f64 / self.truncated_sets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_reuse_math() {
        let s = QueryStats {
            k: 10,
            epsilon: 0.1,
            delta: 0.01,
            pool_before: 100,
            pool_after: 400,
            fresh_sets: 600,
            rounds: 3,
            lower_bound: 30.0,
            upper_bound: 40.0,
            target_ratio: 0.53,
            certified_by_bounds: true,
            elapsed: Duration::from_millis(5),
        };
        assert!((s.ratio() - 0.75).abs() < 1e-12);
        assert_eq!(s.reused_sets(), 200);
    }

    #[test]
    fn cache_hit_ratio_handles_empty() {
        assert_eq!(IndexCounters::default().cache_hit_ratio(), 0.0);
        let c = IndexCounters {
            sets_reused: 300,
            sets_consumed: 400,
            ..Default::default()
        };
        assert!((c.cache_hit_ratio() - 0.75).abs() < 1e-12);
    }
}
