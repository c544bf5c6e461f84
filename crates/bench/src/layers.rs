//! `experiments layers`: the kernel and tier comparisons below the
//! end-to-end benchmark, in one gated sweep.
//!
//! Every comparison is a [`Row`]: one metric measured on a baseline side
//! and a variant side, their ratio, whether the two sides produced the
//! same output where they must, and the ratio the row must reach if it is
//! gated. The sweep covers
//!
//! - `kernel.subsim_ic` / `kernel.lt`: the scalar queue walk vs the
//!   flat-frontier kernel, SUBSIM-IC (Alg. 3's geometric skips) and the LT
//!   chain kernel, per worker-thread count;
//! - `sentinel.warm` / `sentinel.mean_rr_size`: pools built with HIST's
//!   sentinel truncation (Alg. 5) off and on;
//! - `selection.threads` / `selection.buckets`: sequential vs parallel
//!   selection preparation, and the bucket greedy vs the lazy heap;
//! - `sampler.subset`: the per-edge Bernoulli scan vs the geometric skip;
//! - `sketch.bytes` / `sketch.query`: exact vs HLL-sketched validation
//!   pools per register precision, and `sketch.build`: the time to
//!   sketch one `R₂` at a low and at the highest precision;
//! - `repair` / `repair.dirty_sets`: delta repair vs a full rebuild.
//!
//! [`judge`] checks every row before the artifact is written; the sweep
//! writes nothing if any row fails, and reports every failure.

use crate::harness::provenance;
use crate::workloads::{dataset, Scale};
use std::hint::black_box;
use std::time::Instant;
use subsim_core::coverage::{greedy_max_coverage, greedy_max_coverage_buckets, GreedyConfig};
use subsim_delta::{DeltaIndex, GraphDelta, VersionedGraph};
use subsim_diffusion::pool::WorkerPool;
use subsim_diffusion::{RrCollection, RrSampler, RrStrategy};
use subsim_graph::{Graph, GraphBuilder, WeightModel};
use subsim_index::{IndexConfig, RrIndex, SketchedPool, SENTINEL_WARMUP_CHUNKS};
use subsim_sampling::{bernoulli_subset_naive, rng_from_seed, uniform_subset};

/// Back-to-back rounds per paired timing.
const ROUNDS: usize = 7;

/// The ratio a gated row must reach.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// `ratio >= min`.
    AtLeast(f64),
    /// `ratio > min`.
    Above(f64),
}

impl Gate {
    fn passes(self, ratio: f64) -> bool {
        match self {
            Gate::AtLeast(min) => ratio >= min,
            Gate::Above(min) => ratio > min,
        }
    }

    fn op_and_min(self) -> (&'static str, f64) {
        match self {
            Gate::AtLeast(min) => (">=", min),
            Gate::Above(min) => (">", min),
        }
    }
}

/// One comparison of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    /// What is compared, e.g. `kernel.subsim_ic`.
    pub layer: &'static str,
    /// The baseline side and the variant side, e.g. `["scalar", "frontier"]`.
    pub sides: [&'static str; 2],
    /// The row's setting, e.g. `threads=2` or `p=8`.
    pub param: String,
    /// Unit of `base` and `variant`.
    pub unit: &'static str,
    /// The metric on the baseline side.
    pub base: f64,
    /// The metric on the variant side.
    pub variant: f64,
    /// How far the variant beats the baseline; above 1 is a win. For
    /// timings it is the median of per-round ratios (see [`paired`]).
    pub ratio: f64,
    /// Whether both sides produced the same output, where they must;
    /// `None` where the sides differ by design.
    pub identical: Option<bool>,
    /// The ratio the row must reach, if gated.
    pub gate: Option<Gate>,
}

/// Every failure among `rows`: a side pair that should be identical and
/// is not, or a ratio short of its gate. Empty when all rows pass.
pub fn judge(rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for row in rows {
        let [base, variant] = row.sides;
        if row.identical == Some(false) {
            failures.push(format!(
                "{} {}: {base} and {variant} outputs differ",
                row.layer, row.param
            ));
        }
        if let Some(gate) = row.gate.filter(|g| !g.passes(row.ratio)) {
            let (op, min) = gate.op_and_min();
            failures.push(format!(
                "{} {}: {variant} vs {base} ratio {:.3}, gate {op} {min}",
                row.layer, row.param, row.ratio
            ));
        }
    }
    failures
}

/// Worker-thread counts 1, 2, 4, … up to the host's cores, one worker per
/// core. A 1-core host gets `[1]`: it can show kernel ratios, not thread
/// scaling.
pub fn thread_ladder(cores: usize) -> Vec<usize> {
    std::iter::successors(Some(1usize), |&t| Some(t * 2))
        .take_while(|&t| t <= cores.max(1))
        .collect()
}

/// Seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Paired timings of a baseline and a variant.
struct Paired {
    base_s: f64,
    variant_s: f64,
    ratio: f64,
}

/// Times `base` and `variant` back to back for `ROUNDS` rounds; each
/// closure returns the seconds of the work it timed, so set-up can stay
/// outside the clock. Each side runs once untimed right before its timed
/// run, so both are timed warm rather than straight after the other side
/// evicted their tables. The sides report their medians, and `ratio` is
/// the median of the per-round `base / variant` ratios, so host-speed
/// drift between rounds cancels instead of landing on one side.
fn paired(mut base: impl FnMut() -> f64, mut variant: impl FnMut() -> f64) -> Paired {
    let (mut b, mut v, mut r) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        base();
        let tb = base();
        variant();
        let tv = variant();
        b.push(tb);
        v.push(tv);
        r.push(tb / tv.max(1e-12));
    }
    let median = |x: &mut Vec<f64>| {
        x.sort_by(f64::total_cmp);
        x[x.len() / 2]
    };
    Paired {
        base_s: median(&mut b),
        variant_s: median(&mut v),
        ratio: median(&mut r),
    }
}

fn timed_row(
    layer: &'static str,
    sides: [&'static str; 2],
    param: String,
    t: Paired,
    identical: Option<bool>,
    gate: Option<Gate>,
) -> Row {
    Row {
        layer,
        sides,
        param,
        unit: "s",
        base: t.base_s,
        variant: t.variant_s,
        ratio: t.ratio,
        identical,
        gate,
    }
}

fn same_sets(a: &RrCollection, b: &RrCollection) -> bool {
    a.len() == b.len() && (0..a.len()).all(|i| a.get(i) == b.get(i))
}

/// Runs the sweep at `scale` and writes the artifact to `out_path`. On
/// any failed gate or identity it writes nothing and returns every
/// failure.
pub fn layers(scale: Scale, out_path: &str) -> Result<(), Vec<String>> {
    println!("layers: kernel and tier comparisons, scale {scale:?}");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let ladder = thread_ladder(cores);
    let top = *ladder.last().expect("the ladder starts at 1");
    let small = matches!(scale, Scale::Small);
    let g = dataset("pokec-s", WeightModel::Wc, scale);
    println!(
        "pokec-s n={} m={}, cores {cores}, threads {ladder:?}",
        g.n(),
        g.m()
    );
    println!(
        "{:<22} {:<22} {:<12} {:>12} {:>12} {:>9} {:>5} {:>8}",
        "layer", "base/variant", "param", "base", "variant", "ratio", "same", "gate"
    );

    let mut rows = Vec::new();
    let mut emit = |new: Vec<Row>| {
        for row in &new {
            print_row(row);
        }
        rows.extend(new);
    };
    let (chunks, chunk_size) = match scale {
        Scale::Small => (32u64, 128usize),
        Scale::Paper => (64, 512),
    };
    let ic_gate = small.then_some(Gate::AtLeast(1.25));
    emit(kernel_rows(
        "kernel.subsim_ic",
        &g,
        RrStrategy::SubsimIc,
        (chunks, chunk_size, 1800),
        &ladder,
        ic_gate,
    ));
    // LT chains are short, so the LT rig runs a much deeper pool, on
    // harmonic-skew weights that make every multi-in-degree node sample
    // through a real alias table.
    let lt_pool = match scale {
        Scale::Small => (64u64, 1024usize, 1810),
        Scale::Paper => (128, 2048, 1810),
    };
    let lt_gate = small.then_some(Gate::AtLeast(1.2));
    emit(kernel_rows(
        "kernel.lt",
        &harmonic_lt_graph(&g),
        RrStrategy::Lt,
        lt_pool,
        &ladder,
        lt_gate,
    ));
    emit(selection_rows(&g, (chunks, chunk_size, 1800), &ladder));
    emit(vec![subset_row()]);
    emit(sentinel_rows(&g, scale, &ladder));
    emit(sketch_rows(&g, scale, top));
    emit(repair_rows(&g, scale, top));

    let failures = judge(&rows);
    if !failures.is_empty() {
        return Err(failures);
    }
    std::fs::write(out_path, artifact(scale, &ladder, &rows)).expect("writing bench artifact");
    println!("wrote {out_path}");
    Ok(())
}

fn print_row(row: &Row) {
    let same = match row.identical {
        Some(true) => "yes",
        Some(false) => "NO",
        None => "-",
    };
    let gate = row.gate.map_or("-".to_string(), |g| {
        let (op, min) = g.op_and_min();
        format!("{op}{min}")
    });
    println!(
        "{:<22} {:<22} {:<12} {:>12.6} {:>12.6} {:>9.3} {:>5} {:>8}",
        row.layer,
        format!("{}/{}", row.sides[0], row.sides[1]),
        row.param,
        row.base,
        row.variant,
        row.ratio,
        same,
        gate
    );
}

/// The artifact: provenance, the thread ladder (or why there is none),
/// and every row.
fn artifact(scale: Scale, ladder: &[usize], rows: &[Row]) -> String {
    let (ladder_json, note) = if ladder.len() > 1 {
        (
            format!("{ladder:?}"),
            "thread counts are capped at the host's cores, one worker per core",
        )
    } else {
        (
            "null".to_string(),
            "1-core host: thread scaling not measured; kernel and tier ratios only",
        )
    };
    let rows: Vec<String> = rows
        .iter()
        .map(|row| {
            let identical = row.identical.map_or("null".to_string(), |b| b.to_string());
            let gate = row.gate.map_or("null".to_string(), |g| {
                let (op, min) = g.op_and_min();
                format!("{{\"op\": \"{op}\", \"min\": {min}}}")
            });
            format!(
                "    {{\"layer\": \"{}\", \"base_side\": \"{}\", \"variant_side\": \"{}\", \
                 \"param\": \"{}\", \"unit\": \"{}\", \"base\": {:.6}, \"variant\": {:.6}, \
                 \"ratio\": {:.4}, \"identical\": {identical}, \"gate\": {gate}}}",
                row.layer,
                row.sides[0],
                row.sides[1],
                row.param,
                row.unit,
                row.base,
                row.variant,
                row.ratio,
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"layers\",\n  {},\n  \"scale\": \"{scale:?}\",\n  \
         \"dataset\": \"pokec-s\",\n  \"thread_ladder\": {ladder_json},\n  \
         \"note\": \"{note}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        provenance(*ladder.last().expect("the ladder starts at 1")),
        rows.join(",\n"),
    )
}

/// Scalar queue walk vs flat-frontier kernel over one chunked pool
/// `(chunks, chunk_size, seed)`, per thread count. The two must agree bit
/// for bit on every set and on the cost proxy.
fn kernel_rows(
    layer: &'static str,
    g: &Graph,
    strategy: RrStrategy,
    (chunks, chunk_size, seed): (u64, usize, u64),
    ladder: &[usize],
    gate: Option<Gate>,
) -> Vec<Row> {
    let scalar = RrSampler::scalar(g, strategy);
    let frontier = RrSampler::new(g, strategy);
    assert!(
        frontier.uses_frontier(),
        "{layer}: the frontier kernel must engage on this workload"
    );
    let sets = chunks as usize * chunk_size;
    ladder
        .iter()
        .map(|&threads| {
            let pool = WorkerPool::new(threads);
            let generate =
                |s: &RrSampler| pool.generate_chunks(s, None, 0..chunks, chunk_size, seed);
            let (a, b) = (generate(&scalar), generate(&frontier));
            let identical = a.rr.len() == sets && same_sets(&a.rr, &b.rr) && a.cost == b.cost;
            let t = paired(
                || secs(|| drop(generate(&scalar))),
                || secs(|| drop(generate(&frontier))),
            );
            timed_row(
                layer,
                ["scalar", "frontier"],
                format!("threads={threads}"),
                t,
                Some(identical),
                gate,
            )
        })
        .collect()
}

/// `g`'s topology under harmonic-skew per-edge weights summing to 0.9 per
/// node, so reverse LT chains run ~10 links deep.
fn harmonic_lt_graph(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new(g.n());
    for v in 0..g.n() as u32 {
        let nbrs = g.in_neighbors(v);
        let h: f64 = (1..=nbrs.len()).map(|i| 1.0 / i as f64).sum();
        for (i, &u) in nbrs.iter().enumerate() {
            b = b.add_weighted_edge(u, v, 0.9 / ((i + 1) as f64 * h));
        }
    }
    b.build().expect("re-weighted LT graph")
}

/// Sequential vs parallel selection preparation per thread count above 1
/// (the picks must match), and the bucket greedy of the reference C++
/// implementations vs the lazy heap (picks may differ on ties).
fn selection_rows(
    g: &Graph,
    (chunks, chunk_size, seed): (u64, usize, u64),
    ladder: &[usize],
) -> Vec<Row> {
    let k = 50;
    let sampler = RrSampler::new(g, RrStrategy::SubsimIc);
    let rr = WorkerPool::new(1)
        .generate_chunks(&sampler, None, 0..chunks, chunk_size, seed)
        .rr;
    let seq = GreedyConfig::standard(k);
    let mut rows: Vec<Row> = ladder
        .iter()
        .filter(|&&threads| threads > 1)
        .map(|&threads| {
            let par = GreedyConfig::standard(k).with_threads(threads);
            let (a, b) = (
                greedy_max_coverage(&rr, &seq),
                greedy_max_coverage(&rr, &par),
            );
            let identical = a.seeds == b.seeds && a.coverage_upper == b.coverage_upper;
            let t = paired(
                || secs(|| drop(greedy_max_coverage(&rr, &seq))),
                || secs(|| drop(greedy_max_coverage(&rr, &par))),
            );
            timed_row(
                "selection.threads",
                ["sequential", "parallel"],
                format!("threads={threads} k={k}"),
                t,
                Some(identical),
                None,
            )
        })
        .collect();
    let t = paired(
        || secs(|| drop(greedy_max_coverage_buckets(&rr, k))),
        || secs(|| drop(greedy_max_coverage(&rr, &seq))),
    );
    rows.push(timed_row(
        "selection.buckets",
        ["buckets", "heap"],
        format!("k={k}"),
        t,
        None,
        None,
    ));
    rows
}

/// Lemma 3 at the sampler level: the naive scan flips `h` coins per draw,
/// the geometric skip costs `O(1 + μ)`.
fn subset_row() -> Row {
    let (h, p, draws) = (4096usize, 0.005, 2000);
    let probs = vec![p; h];
    let t = paired(
        || {
            let mut rng = rng_from_seed(1);
            secs(|| {
                for _ in 0..draws {
                    bernoulli_subset_naive(&mut rng, &probs, |i| {
                        black_box(i);
                    });
                }
            })
        },
        || {
            let mut rng = rng_from_seed(2);
            secs(|| {
                for _ in 0..draws {
                    uniform_subset(&mut rng, h, p, |i| {
                        black_box(i);
                    });
                }
            })
        },
    );
    timed_row(
        "sampler.subset",
        ["naive", "geometric"],
        format!("h={h} p={p} draws={draws}"),
        t,
        None,
        None,
    )
}

/// Pools built with the sentinel tier off and on: warm time per thread
/// count, and the mean RR size over the chunk range where Alg. 5
/// stopping is active, which the tier must cut.
fn sentinel_rows(g: &Graph, scale: Scale, ladder: &[usize]) -> Vec<Row> {
    let (chunks, chunk_size, budget) = match scale {
        Scale::Small => (64u64, 64usize, 16usize),
        Scale::Paper => (256, 128, 64),
    };
    let sets = chunks as usize * chunk_size;
    let from_sets = SENTINEL_WARMUP_CHUNKS as usize * chunk_size;
    assert!(from_sets < sets, "pool must extend past the warmup prefix");
    let config = |threads: usize, sentinels: usize| {
        IndexConfig::new(RrStrategy::SubsimIc)
            .seed(1407)
            .chunk_size(chunk_size)
            .threads(threads)
            .sentinels(sentinels)
    };
    let warmed = |config: IndexConfig| {
        let mut index = RrIndex::new(g, config);
        index.warm(sets).expect("warming pool");
        index
    };
    let mut rows: Vec<Row> = ladder
        .iter()
        .map(|&threads| {
            let t = paired(
                || secs(|| drop(warmed(config(threads, 0)))),
                || secs(|| drop(warmed(config(threads, budget)))),
            );
            timed_row(
                "sentinel.warm",
                ["off", "on"],
                format!("threads={threads} b={budget}"),
                t,
                None,
                None,
            )
        })
        .collect();
    // The pool is a pure function of `(config, size)`, whatever the
    // thread count, so one build per side gives the content figures.
    let mean_tail = |index: &RrIndex| {
        let tail = |rr: &RrCollection| {
            let nodes: usize = (from_sets..rr.len()).map(|i| rr.get(i).len()).sum();
            nodes as f64 / (rr.len() - from_sets) as f64
        };
        (tail(index.selection_pool()) + tail(index.validation_pool())) / 2.0
    };
    let top = *ladder.last().expect("the ladder starts at 1");
    let off = mean_tail(&warmed(config(top, 0)));
    let on = mean_tail(&warmed(config(top, budget)));
    rows.push(Row {
        layer: "sentinel.mean_rr_size",
        sides: ["off", "on"],
        param: format!("b={budget}"),
        unit: "nodes",
        base: off,
        variant: on,
        ratio: off / on.max(1e-12),
        identical: None,
        gate: Some(Gate::Above(1.0)),
    });
    rows
}

/// Exact vs sketched validation pools per HLL precision, on large chunks
/// (sketch compression amortizes per-node costs over one chunk's sets).
/// Selection is exact in both tiers, so at the matched pool size every
/// sketched seed set must equal the exact one.
fn sketch_rows(g: &Graph, scale: Scale, threads: usize) -> Vec<Row> {
    let (warm_sets, chunk_size, k) = match scale {
        Scale::Small => (32768usize, 16384usize, 20usize),
        Scale::Paper => (131072, 65536, 50),
    };
    let (epsilon, delta) = (0.15, 0.01);
    let base = IndexConfig::new(RrStrategy::SubsimIc)
        .seed(1909)
        .chunk_size(chunk_size)
        .threads(threads);
    let mut exact = RrIndex::new(g, base);
    exact.warm(warm_sets).expect("exact warm");
    let want = exact.query(k, epsilon, delta).expect("exact query");
    assert_eq!(
        want.stats.pool_after, warm_sets,
        "the exact path must certify at the warm size for the seed comparison"
    );
    // `subsim_sketch::DEFAULT_PRECISION`, kept literal so the bench crate
    // does not grow a dependency for one constant.
    let default_precision = 8usize;
    let mut rows = Vec::new();
    for precision in [4usize, 6, 8, 10] {
        let mut sketched = RrIndex::new(g, base.sketch(precision));
        sketched.warm(warm_sets).expect("sketched warm");
        let ans = sketched.query(k, epsilon, delta).expect("sketched query");
        let identical = ans.stats.pool_after == warm_sets && ans.seeds == want.seeds;
        let (resident, displaced) = sketched.sketch_bytes();
        assert!(resident > 0, "sketch tier inactive at p={precision}");
        rows.push(Row {
            layer: "sketch.bytes",
            sides: ["exact", "sketch"],
            param: format!("p={precision}"),
            unit: "bytes",
            base: displaced as f64,
            variant: resident as f64,
            ratio: displaced as f64 / resident as f64,
            identical: Some(identical),
            gate: (precision == default_precision).then_some(Gate::AtLeast(4.0)),
        });
        let t = paired(
            || secs(|| drop(exact.query(k, epsilon, delta).expect("exact query"))),
            || secs(|| drop(sketched.query(k, epsilon, delta).expect("sketched query"))),
        );
        rows.push(timed_row(
            "sketch.query",
            ["exact", "sketch"],
            format!("p={precision} k={k}"),
            t,
            None,
            None,
        ));
    }
    rows.push(sketch_build_row(exact.validation_pool(), chunk_size));
    rows
}

/// Milliseconds to absorb `r2`, the sketch rig's exact `R₂` in chunks of
/// `chunk_size`, into chunk sketches at `p = 6` and at `p = 10`. A chunk
/// sketch is built from its sorted appearances at any precision, so the
/// ratio stays near 1 instead of falling with `2^p`.
fn sketch_build_row(r2: &RrCollection, chunk_size: usize) -> Row {
    let ids: Vec<u64> = (0..(r2.len() / chunk_size) as u64).collect();
    let absorb = |precision: u8| {
        let mut pool = SketchedPool::new(r2.graph_n(), chunk_size, precision);
        secs(|| pool.absorb_chunk_ids(&ids, r2))
    };
    let t = paired(|| absorb(6), || absorb(10));
    Row {
        layer: "sketch.build",
        sides: ["p=6", "p=10"],
        param: format!("sets={} chunk={chunk_size}", r2.len()),
        unit: "ms",
        base: t.base_s * 1e3,
        variant: t.variant_s * 1e3,
        ratio: t.ratio,
        identical: None,
        gate: None,
    }
}

/// Deterministic splitmix64, for synthesizing delta batches.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A canonical delta of exactly `ops` edge mutations against `vg`:
/// existing edges alternate delete/reweight, absent edges insert; at most
/// one op per `(u, v)` pair.
fn synth_delta(vg: &VersionedGraph, ops: usize, seed: u64) -> GraphDelta {
    let n = vg.graph().n() as u64;
    let mut state = seed;
    let mut delta = GraphDelta::new();
    let mut touched = std::collections::HashSet::new();
    while delta.len() < ops {
        let u = (splitmix64(&mut state) % n) as u32;
        let v = (splitmix64(&mut state) % n) as u32;
        if u == v || !touched.insert((u, v)) {
            continue;
        }
        let p = (splitmix64(&mut state) % 900 + 50) as f64 / 1000.0;
        delta = if vg.has_edge(u, v) {
            if splitmix64(&mut state) & 1 == 0 {
                delta.delete_edge(u, v)
            } else {
                delta.reweight_edge(u, v, p)
            }
        } else {
            delta.insert_edge(u, v, p)
        };
    }
    delta
}

/// Delta repair vs a full rebuild on a warmed serving index, per delta
/// size. The repaired pool must equal the rebuilt one bit for bit, and a
/// small delta must not dirty the whole pool.
fn repair_rows(g: &Graph, scale: Scale, threads: usize) -> Vec<Row> {
    // Chunks are the repair granularity: one dirty set regenerates its
    // whole chunk, so serving pools that expect mutation keep chunks small.
    let (chunks, chunk_size) = match scale {
        Scale::Small => (128u64, 32usize),
        Scale::Paper => (512, 64),
    };
    let sets = chunks as usize * chunk_size;
    let config = IndexConfig::new(RrStrategy::SubsimIc)
        .seed(1201)
        .chunk_size(chunk_size)
        .threads(threads);
    let fresh = || {
        let vg = VersionedGraph::new(g.clone()).expect("versioned graph");
        let mut index = DeltaIndex::from_versioned(vg, config);
        index.warm(sets).expect("warming pool");
        index
    };
    let rebuilt = |delta: &GraphDelta| {
        let mut vg = VersionedGraph::new(g.clone()).expect("versioned graph");
        vg.apply(delta).expect("delta applies");
        let mut index = DeltaIndex::from_versioned(vg, config);
        index.warm(sets).expect("rebuild warm");
        index
    };
    let mut rows = Vec::new();
    for ops in [1usize, 4, 16, 64, 256] {
        let mut repaired = fresh();
        let delta = synth_delta(repaired.versioned(), ops, 0x5eed_0000 + ops as u64);
        let report = repaired.apply_delta(&delta).expect("repair");
        let rebuilt_index = rebuilt(&delta);
        let identical = repaired.fingerprint() == rebuilt_index.fingerprint()
            && same_sets(repaired.selection_pool(), rebuilt_index.selection_pool())
            && same_sets(repaired.validation_pool(), rebuilt_index.validation_pool());
        let t = paired(
            || secs(|| drop(rebuilt(&delta))),
            || {
                let mut index = fresh();
                secs(|| {
                    index.apply_delta(&delta).expect("repair");
                })
            },
        );
        let param = format!("ops={ops}");
        rows.push(timed_row(
            "repair",
            ["rebuild", "repair"],
            param.clone(),
            t,
            Some(identical),
            None,
        ));
        rows.push(Row {
            layer: "repair.dirty_sets",
            sides: ["pool", "regenerated"],
            param,
            unit: "sets",
            base: report.pool_sets as f64,
            variant: report.regenerated_sets as f64,
            ratio: report.pool_sets as f64 / report.regenerated_sets.max(1) as f64,
            identical: None,
            gate: (ops < 64).then_some(Gate::Above(1.0)),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(identical: Option<bool>, ratio: f64, gate: Option<Gate>) -> Row {
        Row {
            layer: "kernel.test",
            sides: ["scalar", "frontier"],
            param: "threads=1".into(),
            unit: "s",
            base: ratio,
            variant: 1.0,
            ratio,
            identical,
            gate,
        }
    }

    #[test]
    fn clean_rows_pass() {
        let rows = [
            row(Some(true), 1.3, Some(Gate::AtLeast(1.25))),
            row(Some(true), 1.25, Some(Gate::AtLeast(1.25))),
            row(None, 1.01, Some(Gate::Above(1.0))),
            row(None, 0.5, None),
            row(Some(true), 0.9, None),
        ];
        assert!(judge(&rows).is_empty(), "{:?}", judge(&rows));
    }

    #[test]
    fn a_non_identical_row_fails_even_ungated() {
        let failures = judge(&[row(Some(false), 2.0, None)]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("differ"), "{failures:?}");
    }

    #[test]
    fn a_ratio_below_its_gate_fails() {
        assert_eq!(
            judge(&[row(Some(true), 1.249, Some(Gate::AtLeast(1.25)))]).len(),
            1
        );
        // `Above` is strict: an unchanged metric is not a cut.
        assert_eq!(judge(&[row(None, 1.0, Some(Gate::Above(1.0)))]).len(), 1);
    }

    #[test]
    fn every_failure_is_listed() {
        let rows = [
            row(Some(false), 1.1, Some(Gate::AtLeast(1.25))),
            row(Some(true), 1.5, Some(Gate::AtLeast(1.25))),
            row(None, 0.9, Some(Gate::Above(1.0))),
            row(Some(false), 3.0, None),
        ];
        let failures = judge(&rows);
        assert_eq!(failures.len(), 4, "{failures:?}");
    }

    #[test]
    fn the_ladder_doubles_up_to_the_cores() {
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(2), vec![1, 2]);
        assert_eq!(thread_ladder(6), vec![1, 2, 4]);
        assert_eq!(thread_ladder(0), vec![1]);
    }

    #[test]
    fn the_artifact_marks_a_one_core_host() {
        let rows = [row(Some(true), 1.3, Some(Gate::AtLeast(1.25)))];
        let one = artifact(Scale::Small, &[1], &rows);
        assert!(one.contains("\"thread_ladder\": null"), "{one}");
        assert!(one.contains("thread scaling not measured"), "{one}");
        let two = artifact(Scale::Small, &[1, 2], &rows);
        assert!(two.contains("\"thread_ladder\": [1, 2]"), "{two}");
        assert!(
            two.contains("\"gate\": {\"op\": \">=\", \"min\": 1.25}"),
            "{two}"
        );
    }
}
