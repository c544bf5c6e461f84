//! Flat, structure-of-arrays frontier kernel for reverse traversals.
//!
//! The scalar walk in [`super::ic`] chases one queue entry at a time
//! through accessor calls: per node it re-derives the in-neighbor slice,
//! re-matches the weight-storage enum, re-computes the `ln(1 - p)`
//! skipper setup, and resolves every Bernoulli coin and geometric skip
//! through `f64` math. This module is the gIM-style CPU analog: the BFS
//! is expanded **level-synchronously** over raw reverse-CSR arrays
//! prepared once per `(graph, strategy)` —
//!
//! - the output buffer itself is the frontier array: in a BFS the nodes
//!   appended at level `l` are exactly the level-`l + 1` frontier, so the
//!   kernel walks `ctx.buf` in place and never maintains the separate
//!   BFS queue (one fewer push and one fewer array touched per
//!   activation),
//! - offsets narrowed to `u32` (half the cache footprint of the `usize`
//!   originals; node ids stay `u32` end-to-end — no `usize` widening in
//!   the inner loop beyond the final index),
//! - the weight-mode branch resolved at build time into one specialized
//!   kernel per mode (no per-node enum match),
//! - geometric-skip setup batched into a per-node [`SkipperBank`] built
//!   once per graph instead of once per activation,
//! - Bernoulli coins resolved in the integer domain: `gen::<f64>() < p`
//!   is `(next_u64() >> 11) · 2⁻⁵³ < p`, both sides exact in `f64`, so
//!   the coin equals `(next_u64() >> 11) < ⌈p · 2⁵³⌉` — one shift and one
//!   integer compare against a per-node (or per-edge) threshold from the
//!   `coin` table, no int→float conversion, no float compare (see
//!   [`coin_threshold`]),
//! - geometric draws that overshoot the remaining horizon — the *last*
//!   draw of every skip loop, and in sparse regimes most draws — resolved
//!   the same way: the `miss` table stores, per CSR edge slot, the exact
//!   count of unit samples whose skip would land past the end, found by
//!   a search over the skipper's own arithmetic (monotone in the sample)
//!   that starts at the closed-form guess `(1 − p)^h · 2⁵³` and gallops
//!   to the exact boundary, one memo row per distinct rate, so the common
//!   "no landing" case costs one integer compare instead of a logarithm
//!   (see [`miss_threshold`] and [`miss_table`]),
//! - the next frontier entry's offset row software-prefetched one entry
//!   ahead of use,
//! - sentinel membership probed from the packed bitset in
//!   [`RrContext`](super::RrContext),
//! - bounds checks lifted out of the inner loops: every index is covered
//!   by a CSR invariant (see the `SAFETY` comments), which the builder
//!   validates once per graph.
//!
//! **Bit-identity.** The kernel expands buffer positions `0, 1, 2, …` in
//! exactly the scalar queue's order (the scalar queue holds the same
//! nodes in the same order as the output buffer, save for a trailing
//! sentinel hit — after which both paths stop), consumes exactly one
//! `next_u64` per coin/draw under the same branch structure
//! (`SCAN_THRESHOLD` is the shared constant), and the integer thresholds
//! decide each coin and overshoot identically to the `f64` comparisons
//! they replace, so for every `(seed, root)` the produced set, the cost
//! counter, and the RNG stream are bitwise identical to the scalar walk —
//! `tests/frontier.rs` pins this differentially. Chunk determinism is
//! therefore inherited unchanged: chunk `c` stays a pure function of
//! `(seed, c)` no matter which path or worker generated it.
//!
//! **LT.** The Linear-Threshold reverse walk is a chain, not a BFS, so
//! it gets a dedicated kernel ([`lt_chain`]) instead of the level loop:
//! the scalar walk's per-node `Option<AliasTable>` chase and `f64`
//! comparisons are replaced by flattened per-CSR-edge-slot alias
//! thresholds and targets plus per-node continue coins, all decided in
//! the integer domain — same draws, same order, bit-identical stream.

use super::ic::{sample_per_edge, SCAN_THRESHOLD};
use super::{RrContext, RrStrategy};
use rand::Rng;
use std::collections::HashMap;
use subsim_graph::{Graph, LtIndex, NodeId};
use subsim_sampling::geometric::{GeometricSkipper, NEVER};
use subsim_sampling::{BucketJumpSampler, SkipperBank, SortedSubsetSampler};

/// `rand`'s `Standard` `f64` scale: unit samples are `x · 2⁻⁵³` for
/// `x = next_u64() >> 11 ∈ [0, 2⁵³)`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;
/// Exclusive upper bound of the 53-bit sample domain.
const X_MAX: u64 = 1u64 << 53;

/// Threshold `T` such that `(next_u64() >> 11) < T` decides exactly like
/// `gen::<f64>() < p`.
///
/// The unit sample `x · 2⁻⁵³` is exact (53-bit integer scaled by a power
/// of two), so the float compare equals the real-number compare
/// `x < p · 2⁵³`; and `p · 2⁵³` is itself exact in `f64` (pure exponent
/// shift), so for integer `x` that is `x < ⌈p · 2⁵³⌉`. Degenerate rates:
/// `p >= 1` accepts every sample (`T = u64::MAX`, unreachable since
/// `x < 2⁵³`), `p <= 0` (or NaN) accepts none.
fn coin_threshold(p: f64) -> u64 {
    if p >= 1.0 {
        u64::MAX
    } else if p > 0.0 {
        (p * X_MAX as f64).ceil() as u64
    } else {
        0
    }
}

/// Exact count of unit samples whose geometric draw overshoots horizon
/// `h` — i.e. `(next_u64() >> 11) < miss_threshold(sk, ln_q, h)` decides
/// "this skip loop terminates without landing" exactly like running
/// [`GeometricSkipper::skip`] and comparing the result against `h`.
///
/// `skip` is monotone non-increasing in the unit sample (`ln` is
/// monotone, the multiply by the negative `1 / ln(1 - p)` flips it, and
/// `ceil`/`max` preserve it), so the overshoot predicate is a step
/// function of `x` whose one boundary is found by evaluating **the
/// skipper's own arithmetic**, never a rederivation of it. A skip
/// overshoots `h` exactly when `u < (1 - p)^h`, so the search starts at
/// `x₀ = ⌊exp(h · ln_q) · 2⁵³⌋` (`ln_q = ln(1 - p)`), gallops away from
/// it with steps 1, 2, 4, … until the predicate flips, and bisects that
/// bracket. The guess only chooses where the search starts: any bracket
/// of a monotone step function bisects to the same boundary. On the
/// `pokec-s` benchmark graphs it lands within a sample or two of the
/// boundary: a search averages 2 evaluations, against 55 for a bisection
/// over the whole domain.
fn miss_threshold(sk: GeometricSkipper, ln_q: f64, h: u64) -> u64 {
    // NEVER (= u64::MAX) also counts as an overshoot for any real horizon.
    let overshoots = |x: u64| sk.skip_from(x as f64 * UNIT) > h;
    // The float-to-int cast saturates, and the clamp keeps x₀ inside the
    // open domain, so each gallop direction has a domain end to reach.
    let x0 = (((h as f64) * ln_q).exp() * X_MAX as f64) as u64;
    let x0 = x0.clamp(1, X_MAX - 2);
    // Invariant: overshoots(lo) && !overshoots(hi). A gallop that reaches
    // a domain end without a flip settles the two edge cases: every sample
    // overshoots (`X_MAX`), or none does (`0`).
    let (mut lo, mut hi) = if overshoots(x0) {
        let (mut lo, mut step) = (x0, 1u64);
        loop {
            let probe = (lo + step).min(X_MAX - 1);
            if !overshoots(probe) {
                break (lo, probe);
            }
            if probe == X_MAX - 1 {
                return X_MAX;
            }
            lo = probe;
            step *= 2;
        }
    } else {
        let (mut hi, mut step) = (x0, 1u64);
        loop {
            let probe = hi.saturating_sub(step);
            if overshoots(probe) {
                break (probe, hi);
            }
            if probe == 0 {
                return 0;
            }
            hi = probe;
            step *= 2;
        }
    };
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if overshoots(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// The `SubsimUniform` per-CSR-edge-slot overshoot table: entry `lo + c`
/// of node `v` holds [`miss_threshold`] at `v`'s rate and horizon
/// `d - c`. Nodes the kernel never skips over (`p <= 0` or
/// `p >= SCAN_THRESHOLD`) keep zeros.
///
/// The boundary depends only on `(rate, horizon)`, so it is memoized in
/// one row per distinct rate, running to the largest in-degree seen at
/// that rate: `row[h - 1]` is the boundary at horizon `h`, and a node's
/// slots are its row's first `d` entries reversed. That is one search
/// per distinct `(rate, horizon)` pair. All rows share one allocation,
/// sized by a first pass over the rates and made after the table's own:
/// one growing `Vec` per rate, or the rows allocated first, leave freed
/// heap blocks behind that raised the `hist-ic` benchmark's peak RSS by
/// 0.3–0.7 MB.
fn miss_table(probs: &[f64], offsets: &[u32], m: usize) -> Vec<u64> {
    let mut miss = vec![0u64; m];
    // The nodes the kernel walks with geometric skips, with their rates.
    let skipping = || {
        probs
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0.0 && p < SCAN_THRESHOLD)
    };
    let span = |v: usize| offsets[v] as usize..offsets[v + 1] as usize;
    // Rate bits → (row start in `memo`, row length).
    let mut rows: HashMap<u64, (usize, usize)> = HashMap::new();
    for (v, p) in skipping() {
        let len = &mut rows.entry(p.to_bits()).or_default().1;
        *len = (*len).max(span(v).len());
    }
    let mut memo = Vec::with_capacity(rows.values().map(|&(_, len)| len).sum());
    for (&bits, (start, len)) in rows.iter_mut() {
        let p = f64::from_bits(bits);
        let (sk, ln_q) = (GeometricSkipper::new(p), (-p).ln_1p());
        *start = memo.len();
        memo.extend((1..=*len as u64).map(|h| miss_threshold(sk, ln_q, h)));
    }
    for (v, p) in skipping() {
        let slots = span(v);
        let row = &memo[rows[&p.to_bits()].0..][..slots.len()];
        for (t, &b) in miss[slots].iter_mut().zip(row.iter().rev()) {
            *t = b;
        }
    }
    miss
}

/// Which specialized kernel the strategy × weight-mode pair resolved to.
#[derive(Debug, Clone, Copy)]
enum Mode {
    VanillaUniform,
    VanillaPerEdge,
    SubsimUniform,
    SubsimPerEdge,
    BucketPerEdge,
    /// LT reverse chain: the "frontier" is always one node wide, but the
    /// per-step alias draw runs over flattened per-edge-slot tables with
    /// integer-domain coins instead of chasing `Option<AliasTable>`
    /// objects (see [`lt_chain`]).
    Lt,
}

/// Per-`(graph, strategy)` state of the flat kernel.
#[derive(Debug)]
pub(super) struct FrontierIndex {
    /// Reverse-CSR offsets narrowed to `u32`.
    offsets: Vec<u32>,
    /// Per-node geometric skippers (`SubsimUniform` only).
    bank: Option<SkipperBank>,
    /// Integer coin thresholds: per node (`VanillaUniform`,
    /// `SubsimUniform`) or per edge (`VanillaPerEdge`); empty otherwise.
    coin: Vec<u64>,
    /// Per-CSR-edge-slot overshoot boundaries (`SubsimUniform` only):
    /// entry `lo + c` decides the draw taken at cursor `c`, whose
    /// remaining horizon is `degree - c`.
    miss: Vec<u64>,
    /// Per-node chain-step records (`Lt` only): CSR base, in-degree, and
    /// continue coin packed into one 16-byte entry so a chain step pays a
    /// single node-metadata load instead of three (offsets ×2, coin,
    /// tabled flag). Bit 63 of the coin is the [`LT_TABLED`] flag — coin
    /// thresholds are ≤ 2⁵³, so the top bits are free.
    lt_nodes: Vec<LtNode>,
    /// Per-CSR-edge-slot alias records (`Lt` on per-edge weights): the
    /// acceptance threshold `⌈prob[col] · 2⁵³⌉` plus the *pre-resolved
    /// source node* of both outcomes — the column itself and its alias
    /// redirect — so one 16-byte load finishes the step with no chase
    /// through a separate alias-column array and the CSR source list.
    /// Empty for uniform-weight graphs (the scalar path samples those
    /// with a bare `gen_range`, no table).
    lt_slots: Vec<LtSlot>,
    mode: Mode,
}

/// Flag bit stolen from the top of [`LtNode::coin`]: whether the scalar
/// path draws this node's step through an alias table (vs. the uniform
/// `gen_range` fallback it uses when no table was built).
const LT_TABLED: u64 = 1 << 63;

/// Packed per-node record for the LT chain kernel. 16 bytes — one cache
/// line covers four nodes' worth of chain-step metadata.
#[derive(Debug, Clone, Copy)]
struct LtNode {
    /// Reverse-CSR base of this node's in-edge slots.
    lo: u32,
    /// In-degree (`hi - lo`, precomputed).
    d: u32,
    /// Continue-the-walk threshold `⌈min(Σp, 1) · 2⁵³⌉`, with
    /// [`LT_TABLED`] in bit 63.
    coin: u64,
}

/// Packed per-edge-slot record for the LT chain kernel: drawing column
/// `col` resolves to `src` when the unit sample accepts and `alias_src`
/// when it redirects — the sources are baked in at build time, so the
/// kernel never re-indexes the CSR source array.
#[derive(Debug, Clone, Copy, Default)]
struct LtSlot {
    /// Alias acceptance threshold `⌈prob[col] · 2⁵³⌉`.
    accept: u64,
    /// Source node of this column.
    src: u32,
    /// Source node of this column's alias redirect.
    alias_src: u32,
}

impl FrontierIndex {
    /// Builds the kernel index, or `None` when the edge count does not
    /// fit `u32` offsets.
    ///
    /// `lt` is the sampler's alias index, required for
    /// [`RrStrategy::Lt`] (its tables are flattened into the per-slot
    /// `lt_accept`/`lt_alias` arrays) and ignored otherwise.
    ///
    /// Cost: `O(n + m)` for the offsets, bank, and coin tables, plus
    /// about 2 skipper evaluations per distinct `(rate, horizon)` pair
    /// for the overshoot boundaries (a galloping search from the
    /// closed-form guess, memoized in one row per rate — weight models
    /// with few distinct rates, e.g. WC's `1/d`, share nearly all of
    /// them): ~5 ms under WC on the 16384-node, 267k-edge `pokec-s` R-MAT
    /// graph, on a 2-core x86-64 Xeon.
    pub(super) fn build(
        g: &Graph,
        strategy: RrStrategy,
        lt: Option<&LtIndex>,
    ) -> Option<FrontierIndex> {
        if g.m() >= u32::MAX as usize {
            return None;
        }
        let uniform = g.has_uniform_in_probs();
        let mode = match (strategy, uniform) {
            (RrStrategy::Lt, _) => Mode::Lt,
            (RrStrategy::VanillaIc, true) => Mode::VanillaUniform,
            (RrStrategy::VanillaIc, false) => Mode::VanillaPerEdge,
            // Bucket-IC on uniform graphs falls back to plain SUBSIM in
            // the scalar dispatch; the kernel mirrors that.
            (RrStrategy::SubsimIc | RrStrategy::SubsimBucketIc, true) => Mode::SubsimUniform,
            (RrStrategy::SubsimIc, false) => Mode::SubsimPerEdge,
            (RrStrategy::SubsimBucketIc, false) => Mode::BucketPerEdge,
        };
        let offsets: Vec<u32> = g.in_csr_offsets().iter().map(|&o| o as u32).collect();
        let mut bank = None;
        let mut coin = Vec::new();
        let mut miss = Vec::new();
        let mut lt_nodes = Vec::new();
        let mut lt_slots = Vec::new();
        match mode {
            Mode::VanillaUniform => {
                let probs = g.uniform_in_probs().expect("uniform mode");
                coin = probs.iter().map(|&p| coin_threshold(p)).collect();
            }
            Mode::VanillaPerEdge => {
                let probs = g.per_edge_in_probs().expect("per-edge mode");
                coin = probs.iter().map(|&p| coin_threshold(p)).collect();
            }
            Mode::SubsimUniform => {
                let probs = g.uniform_in_probs().expect("uniform mode");
                let b = SkipperBank::new(probs.iter().copied());
                coin = probs.iter().map(|&p| coin_threshold(p)).collect();
                miss = miss_table(probs, &offsets, g.m());
                bank = Some(b);
            }
            Mode::Lt => {
                let lt = lt.expect("LT samplers carry their alias index");
                // Continue-the-walk threshold: the scalar step draws one
                // unit sample and returns None when it lands at or above
                // min(Σp, 1) — so the chain continues iff the 53-bit
                // sample is < ⌈min(Σp, 1) · 2⁵³⌉.
                // Clamped to `X_MAX`: unit samples are 53-bit, so any
                // threshold ≥ 2⁵³ decides identically to the saturated
                // `u64::MAX` that `coin_threshold` returns for p ≥ 1 —
                // and the clamp keeps bit 63 free for [`LT_TABLED`].
                lt_nodes = (0..g.n())
                    .map(|v| LtNode {
                        lo: offsets[v],
                        d: offsets[v + 1] - offsets[v],
                        coin: coin_threshold(lt.in_weight_sum(v as NodeId).min(1.0)).min(X_MAX),
                    })
                    .collect();
                if !uniform {
                    let sources = g.in_csr_sources();
                    lt_slots = vec![LtSlot::default(); g.m()];
                    for v in 0..g.n() {
                        let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
                        // Untabled nodes draw a bare `gen_range` column,
                        // so every slot carries its own source.
                        for (slot, s) in lt_slots[lo..hi].iter_mut().enumerate() {
                            s.src = sources[lo + slot];
                        }
                        let Some(table) = lt.table(v as NodeId) else {
                            continue;
                        };
                        lt_nodes[v].coin |= LT_TABLED;
                        debug_assert_eq!(table.len(), g.in_degree(v as NodeId));
                        for (slot, (&p, &a)) in
                            table.probs().iter().zip(table.aliases()).enumerate()
                        {
                            lt_slots[lo + slot].accept = coin_threshold(p);
                            lt_slots[lo + slot].alias_src = sources[lo + a as usize];
                        }
                    }
                }
            }
            Mode::SubsimPerEdge | Mode::BucketPerEdge => {}
        }
        Some(FrontierIndex {
            offsets,
            bank,
            coin,
            miss,
            lt_nodes,
            lt_slots,
            mode,
        })
    }
}

/// Hints the cache that `*p` is about to be read. A pure performance
/// hint: prefetches never fault, so any address is fine.
#[inline(always)]
fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` only hints the prefetcher; it performs no
    // memory access and cannot fault.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Activates `w` during frontier expansion: marks it visited, appends it
/// to the output buffer (which doubles as the next frontier level), and
/// probes the packed sentinel bitset. Returns `true` when a sentinel was
/// hit and the whole generation must stop.
///
/// Mirrors `ic::activate` exactly, minus the scalar queue push — the
/// kernel re-walks the buffer instead.
///
/// # Safety
///
/// `w` must be a valid node id (`w < n` for the graph that sized `ctx`).
/// Kernel callers only pass ids read out of the validated reverse CSR.
#[inline(always)]
unsafe fn activate_flat(ctx: &mut RrContext, w: NodeId) -> bool {
    // SAFETY: `w < n` per the function contract; `visited` has length `n`.
    let slot = unsafe { ctx.visited.get_unchecked_mut(w as usize) };
    if *slot == ctx.epoch {
        return false;
    }
    *slot = ctx.epoch;
    ctx.buf.push(w);
    if ctx.is_sentinel(w) {
        ctx.sentinel_hits += 1;
        return true;
    }
    false
}

/// Level-synchronous drive loop shared by all kernels.
///
/// Walks `ctx.buf` in level slices — the nodes appended while expanding
/// level `l` are exactly the level-`l + 1` frontier — prefetching the
/// *next* frontier entry's offset row while `expand` works on the
/// current one, and recording per-level width telemetry. `expand` is
/// called as `(ctx, rng, node, lo, hi)` with `lo..hi` the node's in-edge
/// range and returns `true` to abort the whole generation (sentinel
/// hit). Nodes with no in-edges are skipped before `expand`.
///
/// The flattened iteration order over buffer positions is `0, 1, 2, …` —
/// exactly the scalar queue walk's order — so any `expand` that consumes
/// the RNG like its scalar counterpart keeps the whole stream
/// bit-identical.
#[inline(always)]
fn drive<R: Rng + ?Sized>(
    offsets: &[u32],
    ctx: &mut RrContext,
    rng: &mut R,
    mut expand: impl FnMut(&mut RrContext, &mut R, usize, usize, usize) -> bool,
) {
    debug_assert_eq!(ctx.buf.len(), 1, "drive starts from the root alone");
    let mut level_start = 0usize;
    while level_start < ctx.buf.len() {
        let level_end = ctx.buf.len();
        ctx.note_level(level_end - level_start);
        for i in level_start..level_end {
            // SAFETY: `i < level_end <= buf.len()`, and the buffer only
            // ever holds CSR-validated node ids `< n`, so `u` indexes
            // `offsets` (length `n + 1`) in bounds — as does `u + 1`.
            let (u, lo, hi) = unsafe {
                let u = *ctx.buf.get_unchecked(i) as usize;
                if i + 1 < level_end {
                    let nx = *ctx.buf.get_unchecked(i + 1) as usize;
                    prefetch_read(offsets.as_ptr().add(nx));
                }
                (
                    u,
                    *offsets.get_unchecked(u) as usize,
                    *offsets.get_unchecked(u + 1) as usize,
                )
            };
            if lo == hi {
                continue;
            }
            if expand(ctx, rng, u, lo, hi) {
                return;
            }
        }
        level_start = level_end;
    }
}

/// Entry point: dispatches to the kernel resolved at build time. The
/// caller has already pushed the root into `ctx.buf` and cleared the
/// scratch (see `RrSampler::start`).
pub(super) fn traverse<R: Rng + ?Sized>(
    g: &Graph,
    idx: &FrontierIndex,
    bucket: Option<&[Option<BucketJumpSampler>]>,
    ctx: &mut RrContext,
    rng: &mut R,
) {
    match idx.mode {
        Mode::VanillaUniform => vanilla_uniform(g, idx, ctx, rng),
        Mode::VanillaPerEdge => vanilla_per_edge(g, idx, ctx, rng),
        Mode::SubsimUniform => subsim_uniform(g, idx, ctx, rng),
        Mode::SubsimPerEdge => subsim_per_edge(g, idx, ctx, rng),
        Mode::BucketPerEdge => bucket_per_edge(
            g,
            idx,
            bucket.expect("bucket mode implies a bucket index"),
            ctx,
            rng,
        ),
        Mode::Lt => lt_chain(g, idx, ctx, rng),
    }
}

/// The LT reverse chain over packed per-node and per-slot records.
///
/// LT's "frontier" degenerates to a single node per level (at most one
/// in-neighbor survives each step), so the level loop of [`drive`] is
/// replaced by a chain walk whose steps hop to *random* nodes — making
/// the walk memory-latency-bound, not compute-bound. The layout is
/// built for that: one 16-byte [`LtNode`] load yields the CSR base,
/// degree, continue coin, and tabled flag, and one 16-byte [`LtSlot`]
/// load yields the acceptance threshold plus the pre-resolved source of
/// both alias outcomes, so a step touches at most two data cache lines
/// (plus the visited stamp). Telemetry and the cost proxy accumulate in
/// registers and post once per chain.
///
/// **Bit-identity with [`super::lt::traverse_lt`]**, step by step:
/// `cost += 1`; a zero-in-degree node returns before any draw; one unit
/// sample decides continue-vs-stop against `⌈min(Σp,1)·2⁵³⌉` exactly
/// like the scalar `gen::<f64>() >= sum` test; a tabled node then draws
/// `gen_range(0..d)` for the column and one unit sample against the
/// column's acceptance threshold — the same two draws, in the same
/// order, deciding identically to `AliasTable::sample` — while an
/// untabled node draws only `gen_range(0..d)`; revisit and sentinel
/// handling mirror the scalar walk verbatim. Telemetry records one
/// width-1 level per expanded chain node.
fn lt_chain<R: Rng + ?Sized>(g: &Graph, idx: &FrontierIndex, ctx: &mut RrContext, rng: &mut R) {
    let sources = g.in_csr_sources();
    let nodes = &idx.lt_nodes;
    let slots = &idx.lt_slots;
    let per_edge = !slots.is_empty();
    let mut cur = ctx.buf[0] as usize;
    let mut steps = 0u64;
    loop {
        steps += 1;
        // SAFETY: `cur` is a CSR-validated node id (`< n`) and
        // `lt_nodes` has length `n`.
        let node = unsafe { *nodes.get_unchecked(cur) };
        let d = node.d as usize;
        if d == 0 {
            // Dead end: the scalar step returns None before drawing.
            break;
        }
        if (rng.next_u64() >> 11) >= (node.coin & !LT_TABLED) {
            // No in-neighbor chosen (probability 1 - min(Σp, 1)).
            break;
        }
        let lo = node.lo as usize;
        let col = rng.gen_range(0..d);
        // SAFETY (each arm): `col < d`, so `lo + col < m`; `lt_slots`
        // (when built) and `sources` both have length `m`.
        let u = if node.coin & LT_TABLED != 0 {
            let slot = unsafe { *slots.get_unchecked(lo + col) };
            if (rng.next_u64() >> 11) < slot.accept {
                slot.src
            } else {
                slot.alias_src
            }
        } else if per_edge {
            unsafe { slots.get_unchecked(lo + col).src }
        } else {
            unsafe { *sources.get_unchecked(lo + col) }
        };
        // The next iteration's first load is `lt_nodes[u]` — issue it
        // now, before the visited-stamp and sentinel work.
        prefetch_read(unsafe { nodes.as_ptr().add(u as usize) });
        if !ctx.visit(u) {
            // Revisit: the chain has closed a cycle.
            break;
        }
        ctx.buf.push(u);
        if ctx.is_sentinel(u) {
            ctx.sentinel_hits += 1;
            break;
        }
        cur = u as usize;
    }
    ctx.cost += steps;
    ctx.note_chain(steps);
}

fn vanilla_uniform<R: Rng + ?Sized>(
    g: &Graph,
    idx: &FrontierIndex,
    ctx: &mut RrContext,
    rng: &mut R,
) {
    let sources = g.in_csr_sources();
    let coin = &idx.coin;
    drive(&idx.offsets, ctx, rng, |ctx, rng, u, lo, hi| {
        ctx.cost += (hi - lo) as u64;
        // SAFETY: `u < n` (`coin` has length `n`) and `lo <= hi <= m` by
        // CSR offset monotonicity (`sources` has length `m`).
        let (t, nbrs) = unsafe { (*coin.get_unchecked(u), sources.get_unchecked(lo..hi)) };
        for &w in nbrs {
            if (rng.next_u64() >> 11) < t {
                // SAFETY: `w` comes from the validated CSR (`w < n`).
                if unsafe { activate_flat(ctx, w) } {
                    return true;
                }
            }
        }
        false
    });
}

fn vanilla_per_edge<R: Rng + ?Sized>(
    g: &Graph,
    idx: &FrontierIndex,
    ctx: &mut RrContext,
    rng: &mut R,
) {
    let sources = g.in_csr_sources();
    let coin = &idx.coin;
    drive(&idx.offsets, ctx, rng, |ctx, rng, _u, lo, hi| {
        ctx.cost += (hi - lo) as u64;
        // SAFETY: `lo <= hi <= m` by CSR offset monotonicity; `sources`
        // and the per-edge `coin` table both have length `m`.
        let (nbrs, ts) = unsafe { (sources.get_unchecked(lo..hi), coin.get_unchecked(lo..hi)) };
        for (&w, &t) in nbrs.iter().zip(ts) {
            if (rng.next_u64() >> 11) < t {
                // SAFETY: `w` comes from the validated CSR (`w < n`).
                if unsafe { activate_flat(ctx, w) } {
                    return true;
                }
            }
        }
        false
    });
}

fn subsim_uniform<R: Rng + ?Sized>(
    g: &Graph,
    idx: &FrontierIndex,
    ctx: &mut RrContext,
    rng: &mut R,
) {
    let sources = g.in_csr_sources();
    let probs = g
        .uniform_in_probs()
        .expect("uniform mode implies per-node rates");
    let bank = idx.bank.as_ref().expect("built for SubsimUniform");
    let coin = &idx.coin;
    let miss = &idx.miss;
    drive(&idx.offsets, ctx, rng, |ctx, rng, u, lo, hi| {
        // SAFETY: `u < n`; `probs`, `coin`, and the bank all have length
        // `n`, and `lo <= hi <= m` by CSR offset monotonicity.
        let (p, nbrs) = unsafe { (*probs.get_unchecked(u), sources.get_unchecked(lo..hi)) };
        if p <= 0.0 {
            ctx.cost += 1;
            return false;
        }
        if p >= SCAN_THRESHOLD {
            ctx.cost += nbrs.len() as u64;
            // The scalar path short-circuits `p >= 1.0 || coin` per edge;
            // hoisting the certain-success case out of the loop draws the
            // same (zero) coins.
            if p >= 1.0 {
                for &w in nbrs {
                    // SAFETY: `w` comes from the validated CSR.
                    if unsafe { activate_flat(ctx, w) } {
                        return true;
                    }
                }
            } else {
                // SAFETY: `u < n` as above.
                let t = unsafe { *coin.get_unchecked(u) };
                for &w in nbrs {
                    if (rng.next_u64() >> 11) < t {
                        // SAFETY: `w` comes from the validated CSR.
                        if unsafe { activate_flat(ctx, w) } {
                            return true;
                        }
                    }
                }
            }
            return false;
        }
        let skipper = bank.get(u);
        let d = nbrs.len() as u64;
        let mut cursor = 0u64;
        loop {
            ctx.cost += 1;
            if cursor == d {
                // Horizon exhausted: any skip (always >= 1) overshoots.
                // Consume the draw the scalar loop would, then stop.
                rng.next_u64();
                break;
            }
            let x = rng.next_u64() >> 11;
            // SAFETY: `cursor < d`, so `lo + cursor <= hi - 1 < m` and
            // the `miss` table (length `m`) is in bounds.
            if x < unsafe { *miss.get_unchecked(lo + cursor as usize) } {
                // The draw overshoots the remaining horizon (or is NEVER):
                // decided in the integer domain, no logarithm needed.
                break;
            }
            let skip = skipper.skip_from(x as f64 * UNIT);
            // The miss table already decided this draw lands, so these
            // two guards are never taken; they stay as real branches so
            // the unchecked neighbor index below never has to trust the
            // table's boundary search for memory safety.
            debug_assert!(skip != NEVER && cursor + skip <= d);
            if skip == NEVER {
                break;
            }
            cursor += skip;
            if cursor > d {
                break;
            }
            // SAFETY: `1 <= cursor <= d = nbrs.len()`, and `w` comes from
            // the validated CSR.
            if unsafe { activate_flat(ctx, *nbrs.get_unchecked((cursor - 1) as usize)) } {
                return true;
            }
        }
        false
    });
}

fn subsim_per_edge<R: Rng + ?Sized>(
    g: &Graph,
    idx: &FrontierIndex,
    ctx: &mut RrContext,
    rng: &mut R,
) {
    let sources = g.in_csr_sources();
    let probs = g
        .per_edge_in_probs()
        .expect("per-edge mode implies per-edge rates");
    drive(&idx.offsets, ctx, rng, |ctx, rng, _u, lo, hi| {
        ctx.cost += 1;
        sample_per_edge(ctx, &sources[lo..hi], rng, |rng, visit| {
            SortedSubsetSampler::new(&probs[lo..hi]).sample_into(rng, visit)
        })
    });
}

fn bucket_per_edge<R: Rng + ?Sized>(
    g: &Graph,
    idx: &FrontierIndex,
    bucket: &[Option<BucketJumpSampler>],
    ctx: &mut RrContext,
    rng: &mut R,
) {
    let sources = g.in_csr_sources();
    drive(&idx.offsets, ctx, rng, |ctx, rng, u, lo, hi| {
        ctx.cost += 1;
        let Some(sampler) = &bucket[u] else {
            return false;
        };
        sample_per_edge(ctx, &sources[lo..hi], rng, |rng, visit| {
            sampler.sample_into(rng, visit)
        })
    });
}

#[cfg(test)]
mod tests {
    //! Referees for the miss-table build: a full-domain bisection per
    //! boundary and a per-slot `(rate, horizon)` memo per table.

    use super::*;
    use proptest::prelude::*;
    use subsim_graph::generators::rmat;
    use subsim_graph::{GraphBuilder, WeightModel};
    use subsim_sampling::rng_from_seed;

    /// Reference boundary: a plain bisection over the whole 53-bit sample
    /// domain, independent of any closed-form start.
    fn miss_threshold_bisect(sk: GeometricSkipper, h: u64) -> u64 {
        // NEVER (= u64::MAX) also counts as an overshoot for any real horizon.
        let overshoots = |x: u64| sk.skip_from(x as f64 * UNIT) > h;
        if !overshoots(0) {
            return 0;
        }
        if overshoots(X_MAX - 1) {
            return X_MAX;
        }
        // Invariant: overshoots(lo) && !overshoots(hi).
        let (mut lo, mut hi) = (0u64, X_MAX - 1);
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if overshoots(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Reference table: one memo entry per `(rate, horizon)` pair, looked
    /// up once per edge slot, over the bisection referee.
    fn miss_table_per_slot(g: &Graph) -> Vec<u64> {
        let probs = g.uniform_in_probs().expect("uniform mode");
        let offsets = g.in_csr_offsets();
        let b = SkipperBank::new(probs.iter().copied());
        let mut miss = vec![0u64; g.m()];
        let mut memo: HashMap<(u64, u64), u64> = HashMap::new();
        for v in 0..g.n() {
            let p = probs[v];
            if p <= 0.0 || p >= SCAN_THRESHOLD {
                continue;
            }
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            let sk = b.get(v);
            for (slot, m) in miss[lo..hi].iter_mut().enumerate() {
                let h = (hi - lo - slot) as u64;
                *m = *memo
                    .entry((p.to_bits(), h))
                    .or_insert_with(|| miss_threshold_bisect(sk, h));
            }
        }
        miss
    }

    /// Draws a rate in `(0, SCAN_THRESHOLD)` of kind `kind`: WC's `1/d`,
    /// WC-variant's `4/d`, uniform, within `2²⁰` ulps below
    /// `SCAN_THRESHOLD`, or tiny (`1e-300…1e-9`, the `X_MAX` branch).
    /// `None` outside that range (a `1/d`-style rate at small `d`, or a
    /// zero draw), where the kernel builds no boundary.
    fn rate(kind: u8, d: u64, x: f64) -> Option<f64> {
        let p = match kind {
            0 => 1.0 / d as f64,
            1 => 4.0 / d as f64,
            2 => x * SCAN_THRESHOLD,
            3 => f64::from_bits(SCAN_THRESHOLD.to_bits() - 1 - (x * (1u64 << 20) as f64) as u64),
            _ => 10f64.powf(-9.0 - 291.0 * x),
        };
        (p > 0.0 && p < SCAN_THRESHOLD).then_some(p)
    }

    /// Picks horizon `1`, `2`, `d`, `r` (random `≤ 10⁵`) or `2⁴⁰`.
    fn horizon(kind: u8, d: u64, r: u64) -> u64 {
        match kind {
            0 => 1,
            1 => 2,
            2 => d,
            3 => r,
            _ => 1 << 40,
        }
    }

    fn assert_search_matches_bisection(
        rk: u8,
        d: u64,
        x: f64,
        hk: u8,
        r: u64,
    ) -> Result<(), TestCaseError> {
        let p = rate(rk, d, x);
        prop_assume!(p.is_some());
        let (p, h) = (p.unwrap(), horizon(hk, d, r));
        let sk = GeometricSkipper::new(p);
        prop_assert_eq!(
            miss_threshold(sk, (-p).ln_1p(), h),
            miss_threshold_bisect(sk, h),
            "p = {:e}, h = {}",
            p,
            h
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn boundary_search_matches_bisection(
            rk in 0u8..5,
            d in 1u64..=100_000,
            x in 0.0f64..1.0,
            hk in 0u8..5,
            r in 1u64..=100_000,
        ) {
            assert_search_matches_bisection(rk, d, x, hk, r)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000_000))]

        #[test]
        #[ignore = "heavy: 2M (rate, horizon) pairs; run in release"]
        fn boundary_search_matches_bisection_wide(
            rk in 0u8..5,
            d in 1u64..=100_000,
            x in 0.0f64..1.0,
            hk in 0u8..5,
            r in 1u64..=100_000,
        ) {
            assert_search_matches_bisection(rk, d, x, hk, r)?;
        }
    }

    /// A sparse random digraph on 3000 nodes whose node 0 has in-degree
    /// 2500, so per-rate rows run far past the small degrees.
    fn hub_graph(model: WeightModel) -> Graph {
        let n = 3000u32;
        let mut rng = rng_from_seed(18);
        let sparse: Vec<(NodeId, NodeId)> = (0..12_000)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        GraphBuilder::new(n as usize)
            .edges(sparse.into_iter().chain((1..=2500).map(|u| (u, 0))))
            .weights(model)
            .build()
            .expect("valid hub graph")
    }

    fn assert_table_matches_per_slot_memo(g: &Graph) {
        let idx = FrontierIndex::build(g, RrStrategy::SubsimIc, None).expect("fits u32");
        assert!(matches!(idx.mode, Mode::SubsimUniform));
        let want = miss_table_per_slot(g);
        assert_eq!(idx.miss.len(), want.len());
        for (slot, (a, b)) in idx.miss.iter().zip(&want).enumerate() {
            assert_eq!(a, b, "miss entry {slot} diverged");
        }
    }

    fn uniform_models() -> [WeightModel; 3] {
        [
            WeightModel::Wc,
            WeightModel::WcVariant { theta: 4.0 },
            WeightModel::UniformIc { p: 0.05 },
        ]
    }

    #[test]
    fn miss_table_matches_per_slot_memo() {
        for model in uniform_models() {
            let g = hub_graph(model);
            assert!(g.in_degree(0) >= 2000, "{model:?}: hub lost its in-edges");
            assert_table_matches_per_slot_memo(&g);
        }
    }

    /// The same equality on the benchmark's `pokec-s` recipe (R-MAT
    /// scale 14, 19 edges per node, generator seed 1).
    #[test]
    #[ignore = "heavy: three 267k-edge tables against the bisection; run in release"]
    fn miss_table_matches_per_slot_memo_on_pokec_s() {
        for model in uniform_models() {
            assert_table_matches_per_slot_memo(&rmat(14, 16384 * 19, model, 1));
        }
    }
}
