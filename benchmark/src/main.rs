//! `benchmark` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One invocation runs one workload (see `inputs.rs` and `BENCHMARK.md`)
//! for `S` seconds of measurement, prints one line per metric as
//! `workload metric value unit n=samples`, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! wrapper around the program; with `--trace 1` they are the per-layer
//! ones, timed from outside each layer's public functions. Without
//! `--workload` every workload runs in turn, each in its own child
//! process so that peak memory is per workload.
//!
//! The exit code is 0 only when every check passed.

mod inputs;
mod oneshot;
mod serving;
mod stats;

use inputs::{Workload, DEFAULT_SECONDS, DEFAULT_SEED};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use subsim_diffusion::{RrContext, RrSampler, RrStrategy};
use subsim_graph::{Graph, NodeId};

/// End-to-end metrics with their units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("answer_p50_ms", "ms"),
    ("answers_per_s", "1/s"),
];

/// Per-layer metrics with their units, as `BENCHMARK.json` lists them.
/// Every workload measures each of them; the serve, index and delta
/// numbers that only some workloads have are printed as lines of their
/// own and kept out of the JSON result.
const PER_LAYER: [(&str, &str); 7] = [
    ("graph.build_s", "s"),
    ("diffusion.sampler_build_ms", "ms"),
    ("diffusion.set_us", "us"),
    ("diffusion.avg_rr_size", "nodes"),
    ("core.greedy_ms", "ms"),
    ("core.rr_sets_per_answer", "count"),
    ("lib.call_p50_ms", "ms"),
];

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    n: usize,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// `{stem}_p<q>_ms` for the highest percentile above the median that the
/// sample count supports (p90 needs 100 samples, p99 1000).
pub fn tail_note(stem: &str, samples: &stats::Samples) -> Option<Metric> {
    samples.tail().map(|(p, value)| {
        let q = if p % 10 == 0 {
            (p / 10).to_string()
        } else {
            format!("{}.{}", p / 10, p % 10)
        };
        Metric::new(format!("{stem}_p{q}_ms"), value, "ms", samples.len())
    })
}

/// Correctness checks: every checked output counts as attempted, every
/// failed check as failed.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    /// The first few failures, for the report.
    messages: Vec<String>,
}

impl Checks {
    fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = verdict {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(message);
            }
        }
    }

    fn merge(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in &other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m.clone());
            }
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    workload: Workload,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Printed, not part of the JSON result.
    notes: Vec<Metric>,
    checks: Checks,
}

impl Outcome {
    fn new(workload: Workload) -> Outcome {
        Outcome {
            workload,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            notes: Vec::new(),
            checks: Checks::default(),
        }
    }
}

/// A seed set must hold exactly `k` distinct node ids below `n`.
pub fn check_seeds(seeds: &[NodeId], k: usize, n: usize) -> Result<(), String> {
    let mut sorted = seeds.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if seeds.len() != k || sorted.len() != k {
        return Err(format!(
            "{} seeds ({} distinct), expected {k}",
            seeds.len(),
            sorted.len()
        ));
    }
    if let Some(&bad) = sorted.iter().find(|&&v| v as usize >= n) {
        return Err(format!("seed {bad} out of range for {n} nodes"));
    }
    Ok(())
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            ms(start.elapsed())
        })
        .collect();
    stats::median(&times)
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    subsim_bench::harness::read_proc_status_kb()
        .peak_rss_kb
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "VmHWM is not available (no /proc/self/status)".to_string())
}

/// Diffusion-layer timings taken from outside the layer.
pub struct DiffusionTimes {
    /// Median `RrSampler::new` time, ms.
    sampler_build_ms: f64,
    /// Mean time per plain RR set, µs.
    set_us: f64,
    /// Mean time per unit of the generation cost proxy
    /// (`RrContext::cost`: edges examined or random draws), ns.
    ns_per_cost: f64,
    /// Sets generated.
    sets: usize,
}

impl DiffusionTimes {
    /// Times three sampler builds, then plain RR generation for up to
    /// 4096 sets or 200 ms, whichever ends first.
    fn measure(g: &Graph, strategy: RrStrategy) -> DiffusionTimes {
        let sampler_build_ms = median_ms(3, || {
            std::hint::black_box(RrSampler::new(g, strategy));
        });
        let sampler = RrSampler::new(g, strategy);
        let mut ctx = RrContext::new(g.n());
        let mut rng = subsim_sampling::rng_from_seed(0x5e75);
        let mut sets = 0usize;
        let start = Instant::now();
        while sets < 4096 && start.elapsed() < Duration::from_millis(200) {
            std::hint::black_box(sampler.generate(&mut ctx, &mut rng));
            sets += 1;
        }
        let took = ms(start.elapsed());
        DiffusionTimes {
            sampler_build_ms,
            set_us: 1e3 * took / sets as f64,
            ns_per_cost: 1e6 * took / ctx.cost.max(1) as f64,
            sets,
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: benchmark [--workload warm-read|read-write|hist-ic|opimc-lt] \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let outcome = if w.is_serving() {
        serving::run(w, args.seed, args.seconds, args.trace)
    } else {
        oneshot::run(w, args.seed, args.seconds, args.trace)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    match report(&outcome, args.trace) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}

/// Prints the metric lines and the JSON result; `Ok(true)` when every
/// check passed.
fn report(o: &Outcome, trace: bool) -> Result<bool, String> {
    let (metrics, expected) = if trace {
        (&o.per_layer, &PER_LAYER[..])
    } else {
        (&o.end_to_end, &END_TO_END[..])
    };
    let listed: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    if listed != expected {
        return Err(format!(
            "reported metrics {listed:?} differ from {expected:?}"
        ));
    }
    let name = o.workload.name();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("{name} provenance cores={cores} trace={}", u8::from(trace));
    for m in o.end_to_end.iter().chain(&o.per_layer).chain(&o.notes) {
        println!("{name} {} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
    let c = &o.checks;
    println!(
        "{name} checks attempted={} failed={} failed_share={}",
        c.attempted,
        c.failed,
        c.failed as f64 / c.attempted.max(1) as f64
    );
    for message in &c.messages {
        println!("{name} check failed: {message}");
    }
    let mut json = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
        json.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    let correct = c.failed == 0 && c.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.attempted.max(1),
        c.failed,
        json.join(", ")
    );
    Ok(correct)
}

/// Runs every workload in its own child process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("benchmark: {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("benchmark: starting {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not print"
        );
        for w in Workload::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn seed_sets_are_checked() {
        assert!(check_seeds(&[3, 1, 2], 3, 4).is_ok());
        assert!(check_seeds(&[3, 1], 3, 4).is_err());
        assert!(check_seeds(&[3, 1, 1], 3, 4).is_err());
        assert!(check_seeds(&[3, 1, 4], 3, 4).is_err());
    }
}
