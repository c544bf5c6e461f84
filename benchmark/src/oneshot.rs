//! The one-shot workloads: the paper's algorithms in a closed loop on one
//! thread, each answer a fresh certified run with its own seed.

use crate::inputs::{
    check_graph, check_schedule, oneshot_k, oneshot_seed, oneshot_setup_seed, oneshot_warm_seed,
    Workload,
};
use crate::stats::{median, median_rate, Samples};
use crate::{check_seeds, ms, DiffusionTimes, Metric, Outcome};
use std::time::{Duration, Instant};
use subsim_core::coverage::{greedy_max_coverage, GreedyConfig};
use subsim_core::{Hist, ImAlgorithm, ImOptions, ImResult, OpimC};
use subsim_diffusion::{RrCollection, RrContext, RrSampler, RrStrategy};
use subsim_graph::Graph;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 7;
/// Answers whose final selection the traced run repeats from outside.
const REPLAYS: usize = 3;

fn algorithm(w: Workload) -> Box<dyn ImAlgorithm> {
    match w {
        Workload::HistIc => Box::new(Hist::with_subsim()),
        _ => Box::new(OpimC::lt()),
    }
}

fn strategy(w: Workload) -> RrStrategy {
    match w {
        Workload::HistIc => RrStrategy::SubsimIc,
        _ => RrStrategy::Lt,
    }
}

/// Runs a one-shot workload for `seconds` of measurement.
///
/// One set-up is what a single run of the algorithm pays before its
/// answer: the graph build and a first, cold answer on the new graph. It
/// runs [`SETUPS`] times and the last graph is kept. `peak_rss_mb` is the
/// high-water mark right after the set-ups: the allocator's heap creeps
/// up by a few MB at answers that depend on the seeds a run draws, so the
/// mark at the end of a run would jump between runs of the same code.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let alg = algorithm(w);
    let k = oneshot_k(w);
    let mut outcome = Outcome::new(w);
    let mut graph_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let start = Instant::now();
        let g = w.graph();
        graph_s.push(start.elapsed().as_secs_f64());
        let answer = alg.run(&g, &ImOptions::new(k).seed(oneshot_setup_seed(i)));
        setup_s.push(start.elapsed().as_secs_f64());
        outcome.checks.record(check(&g, k, answer.as_ref()));
        kept = Some(g);
    }
    let g = kept.expect("at least one set-up");
    check_graph(w, &g)?;
    check_schedule(w, &g)?;
    let peak_rss_mb = crate::peak_rss_mb()?;

    let warm = Duration::from_secs_f64(seconds.min(2.0));
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < warm {
        let answer = alg.run(&g, &ImOptions::new(k).seed(oneshot_warm_seed(seed, i)));
        outcome.checks.record(check(&g, k, answer.as_ref()));
        i += 1;
    }

    let measured = Duration::from_secs_f64(seconds);
    let mut answers = Samples::default();
    let mut spans = Vec::new();
    let mut results = Vec::new();
    let mut i = 0;
    let start = Instant::now();
    while start.elapsed() < measured {
        let t = Instant::now();
        let answer = alg.run(&g, &ImOptions::new(k).seed(oneshot_seed(seed, i)));
        answers.push(ms(t.elapsed()));
        outcome.checks.record(check(&g, k, answer.as_ref()));
        spans.push(((t - start).as_secs_f64(), start.elapsed().as_secs_f64()));
        if let (true, Ok(r)) = (trace, answer) {
            results.push(r);
        }
        i += 1;
    }
    outcome.end_to_end = vec![
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
        Metric::new(
            "answer_p50_ms",
            answers.percentile(500),
            "ms",
            answers.len(),
        ),
        Metric::new(
            "answers_per_s",
            median_rate(&spans, seconds),
            "1/s",
            answers.len(),
        ),
    ];
    outcome.notes.extend(crate::tail_note("answer", &answers));
    outcome.notes.push(Metric::new(
        "end.peak_rss_mb",
        crate::peak_rss_mb()?,
        "MB",
        1,
    ));
    if trace {
        layers(w, &g, &graph_s, &answers, &results, &mut outcome);
    }
    Ok(outcome)
}

/// Every answer must be `k` distinct ids below `n` with a certified
/// ratio of at least `1 − 1/e − ε`.
fn check(
    g: &Graph,
    k: usize,
    answer: Result<&ImResult, &subsim_core::ImError>,
) -> Result<(), String> {
    let r = answer.map_err(|e| e.to_string())?;
    check_seeds(&r.seeds, k, g.n())?;
    let target = 1.0 - (-1.0f64).exp() - ImOptions::new(k).epsilon;
    match r.stats.certified_ratio() {
        Some(ratio) if ratio >= target => Ok(()),
        other => Err(format!("certified ratio {other:?} below {target:.4}")),
    }
}

/// Generates, from outside the algorithm, a collection shaped like an
/// answer's final `R₁`: half its RR sets, truncated at its sentinel set
/// when it has one (HIST's phase 2), as greedy selection last saw them.
fn final_r1(g: &Graph, strategy: RrStrategy, r: &ImResult, seed: u64) -> RrCollection {
    let sampler = RrSampler::new(g, strategy);
    let mut ctx = RrContext::new(g.n());
    ctx.set_sentinel(&r.seeds[..r.stats.sentinel_size]);
    let mut rng = subsim_sampling::rng_from_seed(seed);
    let mut rr = RrCollection::new(g.n());
    for _ in 0..r.stats.rr_generated / 2 {
        sampler.generate(&mut ctx, &mut rng);
        rr.push(ctx.last());
    }
    rr
}

/// The per-layer split of the measured loop. The algorithms offer no
/// hook inside a run, so the loop itself carries no wrapper: the counts
/// come from each answer's `RunStats`, and the layer times from separate
/// calls of the same public functions after the loop.
fn layers(
    w: Workload,
    g: &Graph,
    graph_s: &[f64],
    answers: &Samples,
    results: &[ImResult],
    outcome: &mut Outcome,
) {
    let strategy = strategy(w);
    let diffusion = DiffusionTimes::measure(g, strategy);
    let greedy: Vec<f64> = results
        .iter()
        .take(REPLAYS)
        .enumerate()
        .map(|(i, r)| {
            let rr = final_r1(g, strategy, r, i as u64);
            crate::median_ms(1, || {
                greedy_max_coverage(&rr, &GreedyConfig::standard(r.seeds.len()));
            })
        })
        .collect();
    let n = results.len().max(1) as f64;
    let sum = |f: &dyn Fn(&ImResult) -> f64| results.iter().map(f).sum::<f64>();
    let rr_generated = sum(&|r| r.stats.rr_generated as f64);
    // Generation inside an answer, estimated as its cost proxy times the
    // measured time per unit of cost.
    let gen_ms = diffusion.ns_per_cost * 1e-6 * sum(&|r| r.stats.cost as f64) / n;
    outcome.per_layer = vec![
        Metric::new("graph.build_s", median(graph_s), "s", graph_s.len()),
        Metric::new(
            "diffusion.sampler_build_ms",
            diffusion.sampler_build_ms,
            "ms",
            3,
        ),
        Metric::new("diffusion.set_us", diffusion.set_us, "us", diffusion.sets),
        Metric::new(
            "diffusion.avg_rr_size",
            sum(&|r| r.stats.rr_total_nodes as f64) / rr_generated.max(1.0),
            "nodes",
            results.len(),
        ),
        Metric::new("core.greedy_ms", median(&greedy), "ms", greedy.len()),
        Metric::new(
            "core.rr_sets_per_answer",
            rr_generated / n,
            "count",
            results.len(),
        ),
        Metric::new(
            "lib.call_p50_ms",
            answers.percentile(500),
            "ms",
            answers.len(),
        ),
    ];
    // The split of a mean answer: sampler build, generation, and the
    // rest (selection and bounds). The first two are timed in separate
    // calls, so the rest is an estimate and can come out negative.
    outcome.notes.extend([
        Metric::new("diffusion.gen_ms_per_answer", gen_ms, "ms", results.len()),
        Metric::new(
            "core.rest_ms_per_answer",
            answers.mean() - diffusion.sampler_build_ms - gen_ms,
            "ms",
            results.len(),
        ),
    ]);
    let hits = sum(&|r| r.stats.sentinel_hits as f64);
    if hits > 0.0 {
        outcome.notes.push(Metric::new(
            "diffusion.sentinel_hit_share",
            hits / rr_generated,
            "ratio",
            results.len(),
        ));
    }
}
