//! The figure/table regeneration harness.
//!
//! One function per experiment; each prints the same rows/series the paper
//! reports (see `DESIGN.md` §4 for the experiment index). The
//! `experiments` binary dispatches into these.

use crate::workloads::{calibrated_p_for, calibrated_theta_for, dataset, Scale, DATASETS};
use std::time::Instant;
use subsim_core::{Hist, ImAlgorithm, ImOptions, Imm, OpimC, Ssa};
use subsim_diffusion::forward::{mc_influence, CascadeModel};
use subsim_diffusion::{RrContext, RrSampler, RrStrategy};
use subsim_graph::{Graph, GraphStats, WeightModel};
use subsim_index::{IndexConfig, RrIndex};
use subsim_sampling::rng_from_seed;

/// Repetitions per timing. The paper uses 5 on a large multi-core server;
/// the recorded run used a single-core machine, where repetitions triple
/// wall-clock without changing the order-of-magnitude comparisons, so
/// `Paper` scale uses 1 (medians at `Small` scale still smooth CI noise).
fn reps(scale: Scale) -> usize {
    match scale {
        Scale::Small => 3,
        Scale::Paper => 1,
    }
}

/// Target average RR sizes, scaled to what the graph can express
/// (an RR set cannot exceed `n`; see `DESIGN.md` §3).
pub fn size_targets(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Small => vec![50.0, 200.0, 400.0],
        Scale::Paper => vec![50.0, 400.0, 1000.0, 4000.0],
    }
}

/// The `k` sweep of Figures 1/4/5 (trimmed at `Small` scale).
pub fn k_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => vec![1, 10, 50, 100, 200],
        Scale::Paper => vec![1, 10, 50, 100, 200, 500, 1000, 1500, 2000],
    }
}

/// Runs `alg` `reps` times and returns the median wall-clock seconds.
pub fn time_algorithm(alg: &dyn ImAlgorithm, g: &Graph, opts: &ImOptions, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|r| {
            let o = opts.clone().seed(opts.seed + r as u64);
            let start = Instant::now();
            alg.run(g, &o).expect("algorithm run failed");
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Table 2: dataset summary.
pub fn table2(scale: Scale) {
    header("Table 2: datasets");
    println!(
        "{:<14} {:>8} {:>9} {:>9} {:>9}",
        "dataset", "n", "m", "avg-deg", "max-in"
    );
    for name in DATASETS {
        let g = dataset(name, WeightModel::Wc, scale);
        let s = GraphStats::compute(&g);
        println!(
            "{:<14} {:>8} {:>9} {:>9.1} {:>9}",
            name, s.n, s.m, s.avg_degree, s.max_in_degree
        );
    }
}

/// Figure 1: running time under WC, varying `k`, four algorithms.
pub fn fig1(scale: Scale) {
    header("Figure 1: running time (s), WC model, eps=0.1, delta=1/n");
    let algs: Vec<(&str, Box<dyn ImAlgorithm>)> = vec![
        ("IMM", Box::new(Imm::vanilla())),
        ("SSA", Box::new(Ssa::vanilla())),
        ("OPIM-C", Box::new(OpimC::vanilla())),
        ("SUBSIM", Box::new(OpimC::subsim())),
    ];
    for name in DATASETS {
        let g = dataset(name, WeightModel::Wc, scale);
        println!("-- {name} (n={}, m={})", g.n(), g.m());
        print!("{:>6}", "k");
        for (label, _) in &algs {
            print!(" {label:>10}");
        }
        println!();
        for k in k_sweep(scale) {
            print!("{k:>6}");
            for (_, alg) in &algs {
                let t = time_algorithm(alg.as_ref(), &g, &ImOptions::new(k).seed(100), reps(scale));
                print!(" {t:>10.3}");
            }
            println!();
        }
    }
}

/// Figure 2: RR-set generation cost under skewed weights, vanilla vs
/// SUBSIM (and the bucket-jump variant as an ablation).
pub fn fig2(scale: Scale) {
    let batch_label = match scale {
        Scale::Small => "2^14",
        Scale::Paper => "2^17",
    };
    header(&format!(
        "Figure 2: RR generation time (s) for {batch_label} sets, skewed weights"
    ));
    let batch = match scale {
        Scale::Small => 1 << 14,
        Scale::Paper => 1 << 17,
    };
    println!(
        "{:<14} {:<12} {:>10} {:>10} {:>10} {:>8}",
        "dataset", "distribution", "vanilla", "subsim", "bucket", "speedup"
    );
    for name in DATASETS {
        for (dist, model) in [
            ("exponential", WeightModel::Exponential { lambda: 1.0 }),
            ("weibull", WeightModel::Weibull),
        ] {
            let g = dataset(name, model, scale);
            let time_gen = |strategy: RrStrategy| {
                let sampler = RrSampler::new(&g, strategy);
                let mut ctx = RrContext::new(g.n());
                let mut rng = rng_from_seed(200);
                let start = Instant::now();
                for _ in 0..batch {
                    sampler.generate(&mut ctx, &mut rng);
                }
                start.elapsed().as_secs_f64()
            };
            let tv = time_gen(RrStrategy::VanillaIc);
            let ts = time_gen(RrStrategy::SubsimIc);
            let tb = time_gen(RrStrategy::SubsimBucketIc);
            println!(
                "{:<14} {:<12} {:>10.3} {:>10.3} {:>10.3} {:>7.1}x",
                name,
                dist,
                tv,
                ts,
                tb,
                tv / ts
            );
        }
    }
}

/// Figures 3(a)/(b): RR-set statistics of HIST vs OPIM-C in the
/// high-influence setting.
pub fn fig3(scale: Scale) {
    header("Figure 3: RR statistics, WC-variant @ largest size target, large k");
    let k = match scale {
        Scale::Small => 100,
        Scale::Paper => 2000,
    };
    let target = *size_targets(scale).last().unwrap();
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "dataset", "theta", "opim #rr", "hist p1 #rr", "opim avg|R|", "hist avg|R|"
    );
    for name in DATASETS {
        let theta = calibrated_theta_for(name, scale, target);
        let g = dataset(name, WeightModel::WcVariant { theta }, scale);
        let opts = ImOptions::new(k).seed(301);
        let opim = OpimC::subsim().run(&g, &opts).expect("opim");
        let hist = Hist::with_subsim().run(&g, &opts).expect("hist");
        println!(
            "{:<14} {:>10.2} {:>12} {:>12} {:>12.1} {:>12.1}",
            name,
            theta,
            opim.stats.rr_generated,
            hist.stats.phase1_rr,
            opim.stats.avg_rr_size(),
            hist.stats.avg_rr_size(),
        );
    }
}

/// Figure 4: running time vs `k`, WC-variant at the big size target.
pub fn fig4(scale: Scale) {
    header("Figure 4: running time (s) vs k, WC-variant high influence");
    let target = *size_targets(scale).last().unwrap();
    for name in DATASETS {
        let theta = calibrated_theta_for(name, scale, target);
        let g = dataset(name, WeightModel::WcVariant { theta }, scale);
        println!("-- {name} (θ={theta:.2}, avg|R|≈{target})");
        println!(
            "{:>6} {:>10} {:>10} {:>12}",
            "k", "OPIM-C", "HIST", "HIST+SUBSIM"
        );
        for k in k_sweep(scale) {
            let opts = ImOptions::new(k).seed(401);
            let to = time_algorithm(&OpimC::vanilla(), &g, &opts, reps(scale));
            let th = time_algorithm(&Hist::vanilla(), &g, &opts, reps(scale));
            let ths = time_algorithm(&Hist::with_subsim(), &g, &opts, reps(scale));
            println!("{k:>6} {to:>10.3} {th:>10.3} {ths:>12.3}");
        }
    }
}

/// Figure 5: expected influence of the returned seeds vs `k`.
pub fn fig5(scale: Scale) {
    header("Figure 5: expected influence (forward MC) vs k, WC-variant");
    let target = *size_targets(scale).last().unwrap();
    let mc_runs = match scale {
        Scale::Small => 2000,
        Scale::Paper => 300,
    };
    for name in DATASETS {
        let theta = calibrated_theta_for(name, scale, target);
        let g = dataset(name, WeightModel::WcVariant { theta }, scale);
        println!("-- {name}");
        println!("{:>6} {:>14} {:>14}", "k", "HIST+SUBSIM", "OPIM-C");
        for k in k_sweep(scale) {
            let opts = ImOptions::new(k).seed(501);
            let hist = Hist::with_subsim().run(&g, &opts).expect("hist");
            let opim = OpimC::subsim().run(&g, &opts).expect("opim");
            let ih = mc_influence(&g, &hist.seeds, CascadeModel::Ic, mc_runs, 502);
            let io = mc_influence(&g, &opim.seeds, CascadeModel::Ic, mc_runs, 502);
            println!("{k:>6} {ih:>14.1} {io:>14.1}");
        }
    }
}

/// Figure 6: running time vs average RR size (WC-variant), k = 200.
pub fn fig6(scale: Scale) {
    header("Figure 6: running time (s) vs θ-target, WC-variant, k=200");
    let k = match scale {
        Scale::Small => 50,
        Scale::Paper => 200,
    };
    for name in DATASETS {
        println!("-- {name}");
        println!(
            "{:>10} {:>10} {:>10} {:>10} {:>12}",
            "avg|R|", "θ", "OPIM-C", "HIST", "HIST+SUBSIM"
        );
        for target in size_targets(scale) {
            let theta = calibrated_theta_for(name, scale, target);
            let g = dataset(name, WeightModel::WcVariant { theta }, scale);
            let opts = ImOptions::new(k).seed(601);
            let to = time_algorithm(&OpimC::vanilla(), &g, &opts, reps(scale));
            let th = time_algorithm(&Hist::vanilla(), &g, &opts, reps(scale));
            let ths = time_algorithm(&Hist::with_subsim(), &g, &opts, reps(scale));
            println!("{target:>10.0} {theta:>10.2} {to:>10.3} {th:>10.3} {ths:>12.3}");
        }
    }
}

/// Figure 7: running time vs average RR size (Uniform IC), k = 200.
pub fn fig7(scale: Scale) {
    header("Figure 7: running time (s) vs p-target, Uniform IC, k=200");
    let k = match scale {
        Scale::Small => 50,
        Scale::Paper => 200,
    };
    for name in DATASETS {
        println!("-- {name}");
        println!(
            "{:>10} {:>12} {:>10} {:>10} {:>12}",
            "avg|R|", "p", "OPIM-C", "HIST", "HIST+SUBSIM"
        );
        for target in size_targets(scale) {
            let p = calibrated_p_for(name, scale, target);
            let g = dataset(name, WeightModel::UniformIc { p }, scale);
            let opts = ImOptions::new(k).seed(701);
            let to = time_algorithm(&OpimC::vanilla(), &g, &opts, reps(scale));
            let th = time_algorithm(&Hist::vanilla(), &g, &opts, reps(scale));
            let ths = time_algorithm(&Hist::with_subsim(), &g, &opts, reps(scale));
            println!("{target:>10.0} {p:>12.6} {to:>10.3} {th:>10.3} {ths:>12.3}");
        }
    }
}

/// Section 3.1 claim: SUBSIM vs vanilla RR generation under WC (the
/// setting of the paper's headline "order of magnitude" generation
/// speedup). Prints time and the edges-examined cost proxy.
pub fn gen_wc(scale: Scale) {
    header("Supplement: WC RR generation, vanilla vs SUBSIM (Section 3.1)");
    let count = match scale {
        Scale::Small => 100_000,
        Scale::Paper => 300_000,
    };
    println!(
        "{:<14} {:>12} {:>12} {:>9} {:>14} {:>14}",
        "dataset", "vanilla (s)", "subsim (s)", "speedup", "vanilla cost", "subsim cost"
    );
    for name in DATASETS {
        let g = dataset(name, WeightModel::Wc, scale);
        let time_and_cost = |strategy: RrStrategy| {
            let sampler = RrSampler::new(&g, strategy);
            let mut ctx = RrContext::new(g.n());
            let mut rng = rng_from_seed(900);
            let start = Instant::now();
            for _ in 0..count {
                sampler.generate(&mut ctx, &mut rng);
            }
            (start.elapsed().as_secs_f64(), ctx.cost)
        };
        let (tv, cv) = time_and_cost(RrStrategy::VanillaIc);
        let (ts, cs) = time_and_cost(RrStrategy::SubsimIc);
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>8.1}x {:>14} {:>14}",
            name,
            tv,
            ts,
            tv / ts,
            cv,
            cs
        );
    }
}

/// Design ablations (`DESIGN.md` §4): sentinel size `b` sweep and the
/// revised-greedy tie-break, in the high-influence setting.
pub fn ablation(scale: Scale) {
    header("Ablation: HIST design choices, WC-variant high influence");
    let k = match scale {
        Scale::Small => 50,
        Scale::Paper => 200,
    };
    let target = *size_targets(scale).last().unwrap();
    let name = "pokec-s";
    let theta = calibrated_theta_for(name, scale, target);
    let g = dataset(name, WeightModel::WcVariant { theta }, scale);
    let opts = ImOptions::new(k).seed(801);

    println!("-- sentinel size b (auto vs forced), {name}, k={k}");
    println!("{:>8} {:>10} {:>12} {:>10}", "b", "time", "avg|R|", "#RR");
    let auto = Hist::with_subsim().run(&g, &opts).expect("hist");
    println!(
        "{:>8} {:>10.3} {:>12.1} {:>10}",
        format!("auto={}", auto.stats.sentinel_size),
        time_algorithm(&Hist::with_subsim(), &g, &opts, reps(scale)),
        auto.stats.avg_rr_size(),
        auto.stats.rr_generated
    );
    for b in [1usize, 4, 16, 64, k] {
        let alg = Hist::with_subsim().force_b(b);
        let res = alg.run(&g, &opts).expect("hist");
        println!(
            "{:>8} {:>10.3} {:>12.1} {:>10}",
            b,
            time_algorithm(&alg, &g, &opts, reps(scale)),
            res.stats.avg_rr_size(),
            res.stats.rr_generated
        );
    }

    println!("-- greedy tie-break (Algorithm 6 vs Algorithm 1), {name}, k={k}");
    for (label, alg) in [
        ("revised (out-degree)", Hist::with_subsim()),
        ("standard", Hist::with_subsim().standard_greedy()),
    ] {
        let res = alg.run(&g, &opts).expect("hist");
        println!(
            "{:<22} time={:.3}s avg|R|={:.1} hits={} b={}",
            label,
            time_algorithm(&alg, &g, &opts, reps(scale)),
            res.stats.avg_rr_size(),
            res.stats.sentinel_hits,
            res.stats.sentinel_size
        );
    }
}

/// The `k` sweep of the index-amortization experiment.
pub fn index_k_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => vec![10, 50, 100],
        Scale::Paper => vec![10, 50, 100, 200, 500],
    }
}

/// Multi-query serving: a warmed [`RrIndex`] vs a fresh OPIM-C run per
/// query, WC model, ε = 0.1. Each `k` is asked twice: the first ("cold")
/// pays whatever pool growth its certificate needs, the second ("warm")
/// is served entirely from the pool — that is the amortized serving cost.
pub fn index_amortization(scale: Scale) {
    header("Index amortization: warm RrIndex query vs fresh OPIM-C, WC, eps=0.1");
    let eps = 0.1;
    for name in DATASETS {
        let g = dataset(name, WeightModel::Wc, scale);
        let delta = 1.0 / g.n() as f64;
        let mut index = RrIndex::new(&g, IndexConfig::new(RrStrategy::SubsimIc).seed(1001));
        println!("-- {name} (n={}, m={})", g.n(), g.m());
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>9} {:>10} {:>10}",
            "k", "fresh (s)", "cold (s)", "warm (s)", "speedup", "ratio", "certified"
        );
        for k in index_k_sweep(scale) {
            let fresh = time_algorithm(
                &OpimC::subsim(),
                &g,
                &ImOptions::new(k).epsilon(eps).delta(delta).seed(1001),
                reps(scale),
            );
            let start = Instant::now();
            index.query(k, eps, delta).expect("cold query");
            let cold = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let warm_ans = index.query(k, eps, delta).expect("warm query");
            let warm = start.elapsed().as_secs_f64();
            assert_eq!(warm_ans.stats.fresh_sets, 0, "warm query regenerated sets");
            println!(
                "{:>6} {:>10.4} {:>10.4} {:>10.4} {:>8.1}x {:>10.4} {:>10}",
                k,
                fresh,
                cold,
                warm,
                fresh / warm.max(1e-9),
                warm_ans.stats.ratio(),
                warm_ans.stats.certified_by_bounds
            );
        }
        let c = index.counters();
        println!(
            "   pool {} sets/half, {} sets generated, cache hit ratio {:.3}",
            index.pool_len(),
            c.rr_sets_generated,
            c.cache_hit_ratio()
        );
    }
}

/// JSON provenance fragment of the `experiments layers` artifact: the
/// core count, worker-thread count, git revision, and process memory
/// watermarks that produced the numbers, so a recorded artifact is
/// never misread across machines (thread scaling needs real cores to
/// show up, and memory claims need the RSS they were measured at).
///
/// `peak_rss_kb` is the process high-water mark (`VmHWM`) and `rss_kb`
/// the resident size at emission time (`VmRSS`), both from
/// `/proc/self/status`; `heap_kb` is the data+stack segment size
/// (`VmData`), the closest allocator-level figure available without a
/// malloc-stats dependency. On platforms without procfs all three are
/// `null` rather than fabricated.
pub fn provenance(threads: usize) -> String {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mem = read_proc_status_kb();
    let field = |v: Option<u64>| v.map_or("null".to_string(), |kb| kb.to_string());
    format!(
        "\"provenance\": {{\"cores\": {cores}, \"threads\": {threads}, \
         \"git_rev\": \"{git_rev}\", \"peak_rss_kb\": {}, \"rss_kb\": {}, \
         \"heap_kb\": {}}}",
        field(mem.peak_rss_kb),
        field(mem.rss_kb),
        field(mem.heap_kb),
    )
}

/// Process memory watermarks parsed from `/proc/self/status`, in kB.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcMemory {
    /// `VmHWM`: peak resident set size.
    pub peak_rss_kb: Option<u64>,
    /// `VmRSS`: resident set size right now.
    pub rss_kb: Option<u64>,
    /// `VmData`: private data segment size (heap + globals).
    pub heap_kb: Option<u64>,
}

/// Reads the `Vm*` lines of `/proc/self/status`. Every field is `None`
/// when the file is absent (non-Linux) or a line fails to parse — the
/// artifact records `null`, never a guessed number.
pub fn read_proc_status_kb() -> ProcMemory {
    let mut mem = ProcMemory::default();
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return mem;
    };
    for line in status.lines() {
        let parse_into = |prefix: &str, slot: &mut Option<u64>| {
            if let Some(rest) = line.strip_prefix(prefix) {
                *slot = rest.trim().trim_end_matches(" kB").trim().parse().ok();
            }
        };
        parse_into("VmHWM:", &mut mem.peak_rss_kb);
        parse_into("VmRSS:", &mut mem.rss_kb);
        parse_into("VmData:", &mut mem.heap_kb);
    }
    mem
}

/// Sanity line printed by `experiments all` before the figures.
pub fn preamble(scale: Scale) {
    println!("SUBSIM/HIST experiment harness — scale {scale:?}");
    println!("(relative times and orderings are the reproduction target; see EXPERIMENTS.md)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_sorted_and_nonempty() {
        for scale in [Scale::Small, Scale::Paper] {
            let ks = k_sweep(scale);
            assert!(!ks.is_empty());
            assert!(ks.windows(2).all(|w| w[0] < w[1]));
            let ts = size_targets(scale);
            assert!(!ts.is_empty());
            assert!(ts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn time_algorithm_returns_positive_median() {
        let g = dataset("pokec-s", WeightModel::Wc, Scale::Small);
        let t = time_algorithm(&OpimC::subsim(), &g, &ImOptions::new(5).seed(1), 3);
        assert!(t > 0.0);
    }
}
