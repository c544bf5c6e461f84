//! The figure/table regeneration harness.
//!
//! One function per experiment; each prints the same rows/series the paper
//! reports (see `DESIGN.md` §4 for the experiment index). The
//! `experiments` binary dispatches into these.

use crate::workloads::{calibrated_p_for, calibrated_theta_for, dataset, Scale, DATASETS};
use std::time::{Duration, Instant};
use subsim_core::coverage::{greedy_max_coverage, GreedyConfig};
use subsim_core::{Hist, ImAlgorithm, ImOptions, Imm, OpimC, Ssa};
use subsim_delta::{DeltaIndex, GraphDelta, VersionedGraph};
use subsim_diffusion::forward::{mc_influence, CascadeModel};
use subsim_diffusion::pool::WorkerPool;
use subsim_diffusion::RrCollection;
use subsim_diffusion::{par_generate_chunks_static, RrContext, RrSampler, RrStrategy};
use subsim_graph::{Graph, GraphStats, WeightModel};
use subsim_index::{ConcurrentRrIndex, IndexConfig, RrIndex, SENTINEL_WARMUP_CHUNKS};
use subsim_sampling::rng_from_seed;
use subsim_serve::ShardedDeltaIndex;

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

/// JSON provenance fragment shared by every `bench-pr*` artifact: the
/// core count, worker-thread count, git revision, and process memory
/// watermarks that produced the numbers, so a recorded artifact is
/// never misread across machines (scheduler and shard speedups need
/// real cores to show up, and memory claims need the RSS they were
/// measured at).
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

/// Median of `reps` runs of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// The straggler-free-generation benchmark behind `BENCH_pr3.json`:
/// static vs work-stealing chunk scheduling, sequential vs parallel
/// selection, and warm-query serving latency, all on the skewed WC
/// workload where chunk costs are most uneven. Writes the JSON artifact
/// to `out_path` and prints the same numbers as a table.
///
/// The scheduler comparison is *content-neutral* (both produce the same
/// pool bit for bit — asserted here); only wall-clock may differ, and
/// only on multi-core hosts. `cores` is recorded so single-core CI runs
/// are not misread as a regression.
pub fn bench_pr3(scale: Scale, out_path: &str) {
    header("PR3: work-stealing scheduler + parallel selection");
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let threads = 4usize;
    let g = dataset("pokec-s", WeightModel::Wc, scale);
    let sampler = RrSampler::new(&g, RrStrategy::SubsimIc);
    let (chunks, chunk_size) = match scale {
        Scale::Small => (32u64, 128usize),
        Scale::Paper => (64, 512),
    };
    let sets = chunks as usize * chunk_size;
    let r = reps(scale).max(3);

    let t_static = median_secs(r, || {
        let b = par_generate_chunks_static(&sampler, None, 0..chunks, chunk_size, threads, 1100);
        assert_eq!(b.rr.len(), sets);
    });
    // The stealing side runs on a persistent pool, as `subsim-index` does,
    // so it also amortizes thread spawning across batches.
    let pool = WorkerPool::new(threads);
    let t_steal = median_secs(r, || {
        let b = pool.generate_chunks(&sampler, None, 0..chunks, chunk_size, 1100);
        assert_eq!(b.rr.len(), sets);
    });
    let batch = pool.generate_chunks(&sampler, None, 0..chunks, chunk_size, 1100);
    let reference =
        par_generate_chunks_static(&sampler, None, 0..chunks, chunk_size, threads, 1100);
    for i in 0..sets {
        assert_eq!(batch.rr.get(i), reference.rr.get(i), "schedulers diverged");
    }
    let sets_per_sec = sets as f64 / t_steal;

    let k = 50;
    let seq_out = greedy_max_coverage(&batch.rr, &GreedyConfig::standard(k));
    let par_out = greedy_max_coverage(&batch.rr, &GreedyConfig::standard(k).with_threads(threads));
    assert_eq!(seq_out.seeds, par_out.seeds, "parallel selection diverged");
    assert_eq!(seq_out.coverage_upper, par_out.coverage_upper);
    let t_sel_seq = median_secs(r, || {
        greedy_max_coverage(&batch.rr, &GreedyConfig::standard(k));
    });
    let t_sel_par = median_secs(r, || {
        greedy_max_coverage(&batch.rr, &GreedyConfig::standard(k).with_threads(threads));
    });

    // Warm-query latency through the concurrent index: one cold query
    // grows the pool, the warm tail is what a serving deployment sees.
    let index = ConcurrentRrIndex::new(
        &g,
        IndexConfig::new(RrStrategy::SubsimIc)
            .seed(1103)
            .threads(threads),
    );
    let delta = 1.0 / g.n() as f64;
    index.query(k, 0.1, delta).expect("cold query");
    let warm = ConcurrentRrIndex::from_index(index.into_index());
    for _ in 0..40 {
        let ans = warm.query(k, 0.1, delta).expect("warm query");
        assert_eq!(ans.stats.fresh_sets, 0, "warm query regenerated sets");
    }
    let m = warm.metrics();

    println!("cores={cores} threads={threads} sets={sets} (chunks {chunks} x {chunk_size})");
    println!(
        "generation: static {t_static:.4}s, stealing {t_steal:.4}s ({:.2}x), {:.0} sets/s",
        t_static / t_steal.max(1e-12),
        sets_per_sec
    );
    println!(
        "selection (k={k}): sequential {t_sel_seq:.4}s, parallel {t_sel_par:.4}s ({:.2}x)",
        t_sel_seq / t_sel_par.max(1e-12)
    );
    println!(
        "warm query: p50 {}ns, p99 {}ns over {} queries",
        m.latency_p50_ns, m.latency_p99_ns, m.queries
    );

    let json = format!(
        "{{\n  \"bench\": \"pr3_straggler_free_generation\",\n  {},\n  \
         \"cores\": {cores},\n  \
         \"threads\": {threads},\n  \"scale\": \"{scale:?}\",\n  \"sets_per_batch\": {sets},\n  \
         \"batch_wall_clock_static_s\": {t_static:.6},\n  \
         \"batch_wall_clock_stealing_s\": {t_steal:.6},\n  \
         \"scheduler_speedup\": {:.4},\n  \"sets_per_sec_stealing\": {sets_per_sec:.1},\n  \
         \"selection_seq_s\": {t_sel_seq:.6},\n  \"selection_par_s\": {t_sel_par:.6},\n  \
         \"selection_speedup\": {:.4},\n  \"warm_query_p50_ns\": {},\n  \
         \"warm_query_p99_ns\": {},\n  \"warm_queries\": {},\n  \
         \"note\": \"speedups require multiple physical cores; output is bit-identical across schedulers and thread counts by construction\"\n}}\n",
        provenance(threads),
        t_static / t_steal.max(1e-12),
        t_sel_seq / t_sel_par.max(1e-12),
        m.latency_p50_ns,
        m.latency_p99_ns,
        m.queries,
    );
    std::fs::write(out_path, json).expect("writing bench artifact");
    println!("wrote {out_path}");
}

/// Deterministic splitmix64 used to synthesize delta batches without
/// dragging a full RNG crate into the bench surface.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Synthesizes a canonical delta of exactly `ops` edge mutations against
/// `vg`: existing edges alternate delete/reweight, absent edges insert;
/// at most one op per `(u, v)` pair.
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

/// PR 4 artifact: incremental RR-pool repair vs full rebuild across delta
/// batch sizes, on a warmed serving index. Like `bench_pr3` this is
/// explicit-only (never part of `all`) and writes a JSON artifact.
pub fn bench_pr4(scale: Scale, out_path: &str) {
    header("PR4: incremental RR repair vs full rebuild");
    let threads = 4usize;
    let g = dataset("pokec-s", WeightModel::Wc, scale);
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
    let r = reps(scale).max(3);
    println!(
        "graph n={} m={}, pool {sets} sets/half (chunks {chunks} x {chunk_size}), threads {threads}",
        g.n(),
        g.m()
    );
    println!(
        "{:>9} {:>8} {:>11} {:>10} {:>10} {:>10} {:>8}",
        "delta_ops", "targets", "regenerated", "pool_sets", "repair_s", "rebuild_s", "speedup"
    );

    let fresh_index = || {
        let vg = VersionedGraph::new(g.clone()).expect("versioned graph");
        let mut index = DeltaIndex::from_versioned(vg, config);
        index.warm(sets).expect("warming pool");
        index
    };

    let mut rows = Vec::new();
    for &ops in &[1usize, 4, 16, 64, 256] {
        // Each repetition repairs a fresh copy of the same warmed base, so
        // the median measures one batch applied to the steady state.
        let base = fresh_index();
        let delta = synth_delta(base.versioned(), ops, 0x5eed_0000 + ops as u64);
        drop(base);
        // Time only the batch application: each repetition repairs a fresh
        // copy of the same warmed base (warming stays outside the clock).
        let mut repair_times = Vec::with_capacity(r);
        let mut repaired = None;
        let mut report = None;
        for _ in 0..r {
            let mut index = fresh_index();
            let start = Instant::now();
            let rep = index.apply_delta(&delta).expect("repair");
            repair_times.push(start.elapsed().as_secs_f64());
            report = Some(rep);
            repaired = Some(index);
        }
        repair_times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let t_repair = repair_times[repair_times.len() / 2];
        let repaired = repaired.expect("repaired index");
        let report = report.expect("repair report");

        let mut rebuilt = None;
        let t_rebuild = median_secs(r, || {
            let mut vg = VersionedGraph::new(g.clone()).expect("versioned graph");
            vg.apply(&delta).expect("delta applies");
            let mut index = DeltaIndex::from_versioned(vg, config);
            index.warm(sets).expect("rebuild warm");
            rebuilt = Some(index);
        });
        let rebuilt = rebuilt.expect("rebuilt index");

        // The artifact's claim is only honest if repair is exact: the
        // repaired pool must be bit-identical to the rebuilt one.
        assert_eq!(rebuilt.fingerprint(), repaired.fingerprint());
        assert_eq!(rebuilt.pool_len(), repaired.pool_len());
        for i in 0..repaired.pool_len() {
            assert_eq!(
                repaired.selection_pool().get(i),
                rebuilt.selection_pool().get(i),
                "repair diverged from rebuild (r1 set {i})"
            );
            assert_eq!(
                repaired.validation_pool().get(i),
                rebuilt.validation_pool().get(i),
                "repair diverged from rebuild (r2 set {i})"
            );
        }
        assert!(
            ops >= 64 || report.regenerated_sets < report.pool_sets,
            "a {ops}-op delta should not dirty the whole pool \
             ({} of {} sets)",
            report.regenerated_sets,
            report.pool_sets
        );

        let speedup = t_rebuild / t_repair.max(1e-12);
        println!(
            "{:>9} {:>8} {:>11} {:>10} {:>10.4} {:>10.4} {:>7.1}x",
            ops,
            delta.targets().len(),
            report.regenerated_sets,
            report.pool_sets,
            t_repair,
            t_rebuild,
            speedup
        );
        rows.push(format!(
            "    {{\"delta_ops\": {ops}, \"targets\": {}, \"dirty_sets\": {}, \
             \"regenerated_sets\": {}, \"pool_sets\": {}, \"repair_fraction\": {:.6}, \
             \"repair_s\": {t_repair:.6}, \"rebuild_s\": {t_rebuild:.6}, \
             \"speedup\": {speedup:.2}}}",
            delta.targets().len(),
            report.dirty_sets_r1 + report.dirty_sets_r2,
            report.regenerated_sets,
            report.pool_sets,
            report.repair_fraction(),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"pr4_incremental_rr_repair\",\n  {},\n  \"scale\": \"{scale:?}\",\n  \
         \"dataset\": \"pokec-s\",\n  \"n\": {},\n  \"m\": {},\n  \
         \"pool_sets_per_half\": {sets},\n  \"chunk_size\": {chunk_size},\n  \
         \"threads\": {threads},\n  \"rows\": [\n{}\n  ],\n  \
         \"note\": \"repaired pools asserted bit-identical to a full rebuild at every row; \
         repair cost scales with dirty chunks, not pool size\"\n}}\n",
        provenance(threads),
        g.n(),
        g.m(),
        rows.join(",\n"),
    );
    std::fs::write(out_path, json).expect("writing bench artifact");
    println!("wrote {out_path}");
}

/// PR 6 artifact: shard-scaling of the sharded serving index behind
/// `BENCH_pr6.json`. For each shard count the pool is warmed, warm-query
/// throughput is measured, and — the honesty condition — every answer
/// and the reassembled union pool are asserted bit-identical to the
/// sequential [`DeltaIndex`] before the row is recorded. Sharding may
/// only buy wall-clock (on multi-core hosts), never change output.
pub fn bench_pr6(scale: Scale, out_path: &str) {
    header("PR6: sharded serving index scaling");
    let threads = 4usize;
    let g = dataset("pokec-s", WeightModel::Wc, scale);
    let (chunks, chunk_size) = match scale {
        Scale::Small => (64u64, 64usize),
        Scale::Paper => (256, 128),
    };
    let sets = chunks as usize * chunk_size;
    let config = IndexConfig::new(RrStrategy::SubsimIc)
        .seed(1301)
        .chunk_size(chunk_size)
        .threads(threads);
    let r = reps(scale).max(3);
    let ks = [10usize, 50];
    let delta_q = 1.0 / g.n() as f64;
    let query_batch = 20usize;

    // The sequential reference: answers and pool the shards must match.
    let mut seq = DeltaIndex::new(g.clone(), config).expect("sequential index");
    seq.warm(sets).expect("warming sequential pool");
    let reference: Vec<_> = ks
        .iter()
        .map(|&k| seq.query(k, 0.1, delta_q).expect("reference query"))
        .collect();

    println!(
        "graph n={} m={}, pool {sets} sets/half (chunks {chunks} x {chunk_size}), threads {threads}",
        g.n(),
        g.m()
    );
    println!(
        "{:>7} {:>10} {:>12} {:>13}",
        "shards", "warm_s", "queries_s", "queries_per_s"
    );

    let mut rows = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let index = ShardedDeltaIndex::new(g.clone(), config, shards).expect("sharded index");
        let warm_start = Instant::now();
        index.warm(sets).expect("warming sharded pool");
        let t_warm = warm_start.elapsed().as_secs_f64();

        // Bit-equality per row: answers and the reassembled union pool
        // must match the sequential reference exactly.
        for (&k, want) in ks.iter().zip(&reference) {
            let got = index.query(k, 0.1, delta_q).expect("sharded query");
            assert_eq!(
                got.seeds, want.seeds,
                "shards={shards} k={k} seeds diverged"
            );
            assert_eq!(
                got.stats.lower_bound, want.stats.lower_bound,
                "shards={shards} k={k} lower bound diverged"
            );
            assert_eq!(
                got.stats.upper_bound, want.stats.upper_bound,
                "shards={shards} k={k} upper bound diverged"
            );
        }
        let snap = index.load();
        let (u1, u2) = snap.union_pools(chunk_size);
        assert_eq!(u1.len(), seq.selection_pool().len(), "shards={shards}");
        for i in 0..u1.len() {
            assert_eq!(
                u1.get(i),
                seq.selection_pool().get(i),
                "shards={shards} r1 set {i} diverged"
            );
            assert_eq!(
                u2.get(i),
                seq.validation_pool().get(i),
                "shards={shards} r2 set {i} diverged"
            );
        }

        let t_query = median_secs(r, || {
            for q in 0..query_batch {
                let k = ks[q % ks.len()];
                index.query(k, 0.1, delta_q).expect("warm query");
            }
        });
        let qps = query_batch as f64 / t_query.max(1e-12);
        println!("{shards:>7} {t_warm:>10.4} {t_query:>12.4} {qps:>13.1}");
        rows.push(format!(
            "    {{\"shards\": {shards}, \"warm_s\": {t_warm:.6}, \
             \"queries_s\": {t_query:.6}, \"queries_per_sec\": {qps:.1}, \
             \"bit_identical_to_sequential\": true}}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"pr6_sharded_serving_scaling\",\n  {},\n  \"scale\": \"{scale:?}\",\n  \
         \"dataset\": \"pokec-s\",\n  \"n\": {},\n  \"m\": {},\n  \
         \"pool_sets_per_half\": {sets},\n  \"chunk_size\": {chunk_size},\n  \
         \"warm_queries_per_row\": {query_batch},\n  \"rows\": [\n{}\n  ],\n  \
         \"note\": \"every row asserts seeds, bounds, and the reassembled union pool \
         bit-identical to the sequential DeltaIndex; shard speedups require multiple \
         physical cores\"\n}}\n",
        provenance(threads),
        g.n(),
        g.m(),
        rows.join(",\n"),
    );
    std::fs::write(out_path, json).expect("writing bench artifact");
    println!("wrote {out_path}");
}

/// PR 7 artifact: sentinel-truncated RR generation (`BENCH_pr7.json`).
///
/// For each worker-thread count (1, 2, 4, … capped at the host's
/// available cores, so workers map one-to-one onto real cores and are
/// never oversubscribed), the same pool is built twice — plain and with
/// the sentinel tier (HIST Alg 5 stopping) — and the artifact records
/// generation throughput plus the mean RR set size over the
/// post-warmup chunk range, where truncation bites. The witness
/// condition, asserted before the artifact is written: sentinels must
/// reduce the mean stopped-RR size on this high-influence WC workload.
pub fn bench_pr7(scale: Scale, out_path: &str) {
    header("PR7: sentinel-truncated RR generation");
    let g = dataset("pokec-s", WeightModel::Wc, scale);
    let (chunks, chunk_size, budget) = match scale {
        Scale::Small => (64u64, 64usize, 16usize),
        Scale::Paper => (256, 128, 64),
    };
    let sets = chunks as usize * chunk_size;
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize];
    while thread_counts.last().is_some_and(|&t| t * 2 <= cores) {
        let next = thread_counts.last().unwrap() * 2;
        thread_counts.push(next);
    }
    let r = reps(scale).max(3);
    // Truncation starts after the plain warmup prefix in both runs, so
    // the size comparison covers exactly the chunk range where the
    // sentinel wrapper is active.
    let from_sets = SENTINEL_WARMUP_CHUNKS as usize * chunk_size;
    assert!(from_sets < sets, "pool must extend past the warmup prefix");

    println!(
        "graph n={} m={}, pool {sets} sets/half (chunks {chunks} x {chunk_size}), \
         sentinel budget b={budget}, cores {cores}",
        g.n(),
        g.m()
    );
    println!(
        "{:>7} {:>9} {:>10} {:>12} {:>13} {:>9}",
        "threads", "sentinel", "warm_s", "sets_per_s", "mean_rr_size", "hit_rate"
    );

    let mean_tail = |rr: &RrCollection| {
        let nodes: usize = (from_sets..rr.len()).map(|i| rr.get(i).len()).sum();
        nodes as f64 / (rr.len() - from_sets) as f64
    };

    let mut rows = Vec::new();
    let mut witness = (0.0f64, 0.0f64); // (plain, sentinel) tail means
    for &threads in &thread_counts {
        for (slot, &sentinels) in [0usize, budget].iter().enumerate() {
            let config = IndexConfig::new(RrStrategy::SubsimIc)
                .seed(1407)
                .chunk_size(chunk_size)
                .threads(threads)
                .sentinels(sentinels);
            let t_warm = median_secs(r, || {
                let mut index = RrIndex::new(&g, config);
                index.warm(sets).expect("warming pool");
            });
            let sps = (2 * sets) as f64 / t_warm.max(1e-12);
            // One more build for content stats — the pool is a pure
            // function of `(config, size)`, so it is the timed pool.
            let mut index = RrIndex::new(&g, config);
            index.warm(sets).expect("warming pool");
            let hit_rate = index
                .sentinel_state()
                .map_or(0.0, |st| st.hit_rate(chunk_size));
            let mean_size =
                (mean_tail(index.selection_pool()) + mean_tail(index.validation_pool())) / 2.0;
            if slot == 0 {
                witness.0 = mean_size;
            } else {
                witness.1 = mean_size;
            }
            let mode = if sentinels > 0 { "on" } else { "off" };
            println!(
                "{threads:>7} {mode:>9} {t_warm:>10.4} {sps:>12.1} {mean_size:>13.2} {hit_rate:>9.3}"
            );
            rows.push(format!(
                "    {{\"threads\": {threads}, \"sentinels\": {sentinels}, \
                 \"warm_s\": {t_warm:.6}, \"sets_per_sec\": {sps:.1}, \
                 \"mean_rr_size_post_warmup\": {mean_size:.4}, \
                 \"sentinel_hit_rate\": {hit_rate:.4}}}"
            ));
        }
    }
    assert!(
        witness.1 < witness.0,
        "sentinel truncation must reduce the mean stopped-RR size: \
         {:.4} (on) vs {:.4} (off)",
        witness.1,
        witness.0
    );
    println!(
        "mean RR size over the truncated range: {:.2} plain -> {:.2} with sentinels ({:.1}% reduction)",
        witness.0,
        witness.1,
        100.0 * (1.0 - witness.1 / witness.0)
    );

    let json = format!(
        "{{\n  \"bench\": \"pr7_sentinel_truncated_generation\",\n  {},\n  \
         \"scale\": \"{scale:?}\",\n  \"dataset\": \"pokec-s\",\n  \"n\": {},\n  \"m\": {},\n  \
         \"pool_sets_per_half\": {sets},\n  \"chunk_size\": {chunk_size},\n  \
         \"sentinel_budget\": {budget},\n  \"warmup_sets\": {from_sets},\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"note\": \"mean_rr_size_post_warmup covers the chunk range where Alg 5 stopping is \
         active; the artifact is only written after asserting the sentinel-on mean is \
         strictly below plain. thread counts are capped at the host's cores, one worker \
         per core. answers from sentinel pools are certified statistically (see DESIGN.md), \
         not bit-equal to plain pools\"\n}}\n",
        provenance(*thread_counts.last().unwrap()),
        g.n(),
        g.m(),
        rows.join(",\n"),
    );
    std::fs::write(out_path, json).expect("writing bench artifact");
    println!("wrote {out_path}");
}

/// The flat-frontier kernel benchmark behind `BENCH_pr8.json`: scalar vs
/// frontier RR generation across a thread sweep (1, 2, 4, … up to the
/// host's cores), plus sequential-vs-parallel selection rows on the
/// frontier-generated pool. Writes the JSON artifact to `out_path` and
/// prints the same numbers as a table.
///
/// The two generation paths are *content-neutral* — the frontier kernel
/// is bit-identical to the scalar walk (asserted per thread count here
/// and pinned by `crates/diffusion/tests/frontier.rs`), so only
/// wall-clock differs. At `Small` scale the artifact is only written
/// after asserting the frontier path sustains ≥ 1.25× the scalar
/// sets/sec at every thread count; a single-core host is annotated (the
/// sweep degenerates to `[1]`) so future multi-core runs can witness
/// thread scaling on top of the single-thread kernel win.
pub fn bench_pr8(scale: Scale, out_path: &str) {
    header("PR8: flat-frontier RR generation");
    let g = dataset("pokec-s", WeightModel::Wc, scale);
    let (chunks, chunk_size) = match scale {
        Scale::Small => (32u64, 128usize),
        Scale::Paper => (64, 512),
    };
    let sets = chunks as usize * chunk_size;
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize];
    while thread_counts.last().is_some_and(|&t| t * 2 <= cores) {
        let next = thread_counts.last().unwrap() * 2;
        thread_counts.push(next);
    }
    let r = reps(scale).max(3);
    let k = 50;

    let scalar = RrSampler::scalar(&g, RrStrategy::SubsimIc);
    let frontier = RrSampler::new(&g, RrStrategy::SubsimIc);
    assert!(
        frontier.uses_frontier(),
        "frontier kernel must engage on the bench workload"
    );

    // Per-level width telemetry from one single-threaded pass: how much
    // data-parallelism the level-synchronous kernel actually exposes.
    let mut ctx = RrContext::new(g.n());
    let mut rng = rng_from_seed(1808);
    for _ in 0..sets {
        frontier.generate(&mut ctx, &mut rng);
    }
    let mean_width = ctx.frontier_width_sum as f64 / ctx.frontier_levels.max(1) as f64;
    let levels_per_set = ctx.frontier_levels as f64 / sets as f64;
    let peak_width = ctx.frontier_peak_width;

    println!(
        "graph n={} m={}, pool {sets} sets (chunks {chunks} x {chunk_size}), cores {cores}",
        g.n(),
        g.m()
    );
    println!(
        "frontier telemetry: {levels_per_set:.2} levels/set, mean width {mean_width:.2}, \
         peak width {peak_width}"
    );
    println!(
        "{:>7} {:>10} {:>12} {:>14} {:>16} {:>9} {:>11} {:>11} {:>9}",
        "threads",
        "scalar_s",
        "frontier_s",
        "scalar_sets/s",
        "frontier_sets/s",
        "speedup",
        "sel_seq_s",
        "sel_par_s",
        "sel_x"
    );

    let mut rows = Vec::new();
    for &threads in &thread_counts {
        let pool = WorkerPool::new(threads);
        let t_scalar = median_secs(r, || {
            let b = pool.generate_chunks(&scalar, None, 0..chunks, chunk_size, 1800);
            assert_eq!(b.rr.len(), sets);
        });
        let t_frontier = median_secs(r, || {
            let b = pool.generate_chunks(&frontier, None, 0..chunks, chunk_size, 1800);
            assert_eq!(b.rr.len(), sets);
        });
        // Content witness at this thread count: the two paths must agree
        // bit for bit (and on the cost proxy) before their wall-clocks
        // are compared.
        let a = pool.generate_chunks(&scalar, None, 0..chunks, chunk_size, 1800);
        let b = pool.generate_chunks(&frontier, None, 0..chunks, chunk_size, 1800);
        for i in 0..sets {
            assert_eq!(a.rr.get(i), b.rr.get(i), "paths diverged at set {i}");
        }
        assert_eq!(a.cost, b.cost, "cost proxies diverged");
        let sps_scalar = sets as f64 / t_scalar.max(1e-12);
        let sps_frontier = sets as f64 / t_frontier.max(1e-12);
        let speedup = t_scalar / t_frontier.max(1e-12);
        if matches!(scale, Scale::Small) {
            assert!(
                speedup >= 1.25,
                "frontier path must sustain >= 1.25x scalar sets/sec on the \
                 Small rig, got {speedup:.3}x at threads={threads}"
            );
        }

        let seq_out = greedy_max_coverage(&b.rr, &GreedyConfig::standard(k));
        let par_out = greedy_max_coverage(&b.rr, &GreedyConfig::standard(k).with_threads(threads));
        assert_eq!(seq_out.seeds, par_out.seeds, "parallel selection diverged");
        let t_sel_seq = median_secs(r, || {
            greedy_max_coverage(&b.rr, &GreedyConfig::standard(k));
        });
        let t_sel_par = median_secs(r, || {
            greedy_max_coverage(&b.rr, &GreedyConfig::standard(k).with_threads(threads));
        });
        let sel_speedup = t_sel_seq / t_sel_par.max(1e-12);

        println!(
            "{threads:>7} {t_scalar:>10.4} {t_frontier:>12.4} {sps_scalar:>14.1} \
             {sps_frontier:>16.1} {speedup:>9.2} {t_sel_seq:>11.4} {t_sel_par:>11.4} \
             {sel_speedup:>9.2}"
        );
        rows.push(format!(
            "    {{\"threads\": {threads}, \"scalar_s\": {t_scalar:.6}, \
             \"frontier_s\": {t_frontier:.6}, \"scalar_sets_per_sec\": {sps_scalar:.1}, \
             \"frontier_sets_per_sec\": {sps_frontier:.1}, \
             \"frontier_speedup\": {speedup:.4}, \"selection_seq_s\": {t_sel_seq:.6}, \
             \"selection_par_s\": {t_sel_par:.6}, \"selection_speedup\": {sel_speedup:.4}}}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"pr8_flat_frontier_generation\",\n  {},\n  \
         \"scale\": \"{scale:?}\",\n  \"dataset\": \"pokec-s\",\n  \"n\": {},\n  \"m\": {},\n  \
         \"pool_sets\": {sets},\n  \"chunk_size\": {chunk_size},\n  \
         \"frontier_levels_per_set\": {levels_per_set:.4},\n  \
         \"frontier_mean_width\": {mean_width:.4},\n  \
         \"frontier_peak_width\": {peak_width},\n  \
         \"single_core\": {},\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"note\": \"scalar and frontier pools are bit-identical (asserted per row); \
         frontier_speedup is the single-path kernel win at equal thread count, asserted \
         >= 1.25x at Small scale before this artifact is written. {}\"\n}}\n",
        provenance(*thread_counts.last().unwrap()),
        g.n(),
        g.m(),
        cores == 1,
        rows.join(",\n"),
        if cores == 1 {
            "this run was recorded on a single-core host: the thread sweep degenerates to \
             [1] and selection parallelism is clamped to sequential, so thread-scaling \
             rows await a multi-core rerun"
        } else {
            "thread counts are capped at the host's cores, one worker per core"
        },
    );
    std::fs::write(out_path, json).expect("writing bench artifact");
    println!("wrote {out_path}");
}

/// The memory-bounded-serving benchmark behind `BENCH_pr9.json`: exact
/// vs sketched validation pools swept over HLL register precision.
///
/// Selection is exact in both tiers, so at matched pool sizes every
/// sketched seed set must be bit-identical to the exact path — asserted
/// per precision before timing is even reported. The artifact is only
/// written after asserting the sketched tier cuts validation-resident
/// bytes by ≥ 4× at the default precision (8); the certified bounds per
/// precision are recorded so the certificate cost of the slack is
/// visible next to the memory win.
pub fn bench_pr9(scale: Scale, out_path: &str) {
    header("PR9: count-distinct sketched validation pools");
    let g = dataset("pokec-s", WeightModel::Wc, scale);
    // Sketch compression amortizes per-node fixed costs over the sets of
    // one chunk, so it only materializes once a chunk spans far more sets
    // than `n / E|RR|` — the big-validation-pool regime the tier exists
    // for. The bench pins that regime explicitly with large chunks.
    let (warm_sets, chunk_size, threads, k) = match scale {
        Scale::Small => (32768usize, 16384usize, 2usize, 20usize),
        Scale::Paper => (131072, 65536, 4, 50),
    };
    let r = reps(scale).max(3);
    let (epsilon, delta) = (0.15, 0.01);
    let base = IndexConfig::new(RrStrategy::SubsimIc)
        .seed(1909)
        .chunk_size(chunk_size)
        .threads(threads);

    let mut exact = RrIndex::new(&g, base);
    let t_exact_warm = median_secs(1, || exact.warm(warm_sets).expect("exact warm"));
    let want = exact.query(k, epsilon, delta).expect("exact query");
    assert_eq!(
        want.stats.pool_after, warm_sets,
        "exact path must certify at the warm size for the seed comparison"
    );
    let t_exact_query = median_secs(r, || {
        exact.query(k, epsilon, delta).expect("exact query");
    });
    let exact_r2_bytes =
        4 * exact.validation_pool().total_nodes() as u64 + 8 * exact.validation_pool().len() as u64;

    println!(
        "graph n={} m={}, pool {warm_sets} sets/half (chunk {chunk_size}), k={k}, \
         exact R2 {exact_r2_bytes} bytes",
        g.n(),
        g.m()
    );
    println!(
        "{:>9} {:>10} {:>11} {:>13} {:>13} {:>8} {:>10} {:>9}",
        "precision", "warm_s", "query_s", "resident_B", "displaced_B", "ratio", "cert", "seeds=="
    );
    println!(
        "{:>9} {t_exact_warm:>10.4} {t_exact_query:>11.4} {exact_r2_bytes:>13} \
         {exact_r2_bytes:>13} {:>8.2} {:>10} {:>9}",
        "exact", 1.0, want.stats.certified_by_bounds, "-"
    );

    // `subsim_sketch::DEFAULT_PRECISION` — kept literal here so the
    // bench crate does not grow a dependency for one constant.
    let default_precision = 8usize;
    let mut default_compression = 0.0f64;
    let mut rows = Vec::new();
    for precision in [4usize, 6, 8, 10] {
        let mut sketched = RrIndex::new(&g, base.sketch(precision));
        let t_warm = median_secs(1, || sketched.warm(warm_sets).expect("sketched warm"));
        let ans = sketched.query(k, epsilon, delta).expect("sketched query");
        assert_eq!(
            ans.stats.pool_after, warm_sets,
            "p={precision}: sketched path grew past the warm size; the seed \
             comparison needs a matched pool"
        );
        // Seed bit-equality with the exact path — the acceptance gate:
        // sketching the validation tier must not perturb selection.
        assert_eq!(
            ans.seeds, want.seeds,
            "p={precision}: sketched seed set diverged from the exact path"
        );
        let t_query = median_secs(r, || {
            sketched.query(k, epsilon, delta).expect("sketched query");
        });
        let (resident, displaced) = sketched.sketch_bytes();
        assert!(resident > 0, "sketch tier inactive at p={precision}");
        let compression = displaced as f64 / resident as f64;
        if precision == default_precision {
            default_compression = compression;
        }
        println!(
            "{precision:>9} {t_warm:>10.4} {t_query:>11.4} {resident:>13} {displaced:>13} \
             {compression:>8.2} {:>10} {:>9}",
            ans.stats.certified_by_bounds, "yes"
        );
        rows.push(format!(
            "    {{\"precision\": {precision}, \"warm_s\": {t_warm:.6}, \
             \"query_s\": {t_query:.6}, \"resident_bytes\": {resident}, \
             \"displaced_bytes\": {displaced}, \"compression\": {compression:.4}, \
             \"lower_bound\": {:.4}, \"upper_bound\": {:.4}, \
             \"certified\": {}, \"seeds_match_exact\": true}}",
            ans.stats.lower_bound, ans.stats.upper_bound, ans.stats.certified_by_bounds
        ));
    }

    // Acceptance gate: the artifact must not be written unless the
    // default precision actually buys the promised memory reduction.
    assert!(
        default_compression >= 4.0,
        "sketched validation pool must cut resident bytes >= 4x at the default \
         precision ({default_precision}), got {default_compression:.2}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"pr9_sketched_validation_pools\",\n  {},\n  \
         \"scale\": \"{scale:?}\",\n  \"dataset\": \"pokec-s\",\n  \"n\": {},\n  \"m\": {},\n  \
         \"pool_sets\": {warm_sets},\n  \"chunk_size\": {chunk_size},\n  \"k\": {k},\n  \
         \"epsilon\": {epsilon},\n  \"exact_warm_s\": {t_exact_warm:.6},\n  \
         \"exact_query_s\": {t_exact_query:.6},\n  \
         \"exact_r2_bytes\": {exact_r2_bytes},\n  \
         \"default_precision\": {default_precision},\n  \
         \"default_compression\": {default_compression:.4},\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"note\": \"seed sets are bit-identical to the exact path at every precision \
         (asserted per row before this artifact is written), and the default precision \
         is asserted to cut validation-resident bytes >= 4x; compression is \
         displaced_bytes / resident_bytes, both measured by the sketch itself over the \
         same absorbed RR stream\"\n}}\n",
        provenance(threads),
        g.n(),
        g.m(),
        rows.join(",\n"),
    );
    std::fs::write(out_path, json).expect("writing bench artifact");
    println!("wrote {out_path}");
}

/// The Linear Threshold kernel benchmark behind `BENCH_pr10.json`:
/// scalar vs flat-frontier LT RR generation across a thread sweep, under
/// per-edge (Trivalency) weights so the chain kernel runs its
/// alias-table arm rather than the uniform `gen_range` shortcut.
///
/// The two paths are *content-neutral* — the LT chain kernel consumes
/// the RNG stream bitwise identically to the scalar alias walk (asserted
/// per thread count here and pinned by `crates/diffusion/tests/frontier.rs`
/// and `crates/testkit/tests/lt.rs`) — so only wall-clock differs. At
/// `Small` scale the artifact is only written after asserting the
/// frontier path sustains ≥ 1.2× the scalar sets/sec at every thread
/// count.
pub fn bench_pr10(scale: Scale, out_path: &str) {
    header("PR10: Linear Threshold frontier generation");
    // Re-weight the dataset for the LT rig: harmonic-skew per-edge
    // weights summing to 0.9 per node, so reverse chains run ~10 links
    // deep and every multi-in-degree node samples through a real alias
    // table — the regime the chain kernel exists for. (WC/Trivalency
    // sums leave chains ~2 links deep, where the per-set overhead both
    // paths share hides the kernel comparison entirely.)
    let base = dataset("pokec-s", WeightModel::Wc, scale);
    let mut b = subsim_graph::GraphBuilder::new(base.n());
    for v in 0..base.n() as u32 {
        let nbrs = base.in_neighbors(v);
        let h: f64 = (1..=nbrs.len()).map(|i| 1.0 / i as f64).sum();
        for (i, &u) in nbrs.iter().enumerate() {
            b = b.add_weighted_edge(u, v, 0.9 / ((i + 1) as f64 * h));
        }
    }
    let g = b.build().expect("re-weighted bench graph");
    // LT reverse walks are chains (each node keeps <= 1 live in-edge),
    // so a pool sized like the IC benches finishes in microseconds and
    // timer noise swamps the comparison. The LT rig uses a much deeper
    // pool to push per-rep wall-clock into the stable-measurement
    // regime.
    let (chunks, chunk_size) = match scale {
        Scale::Small => (64u64, 1024usize),
        Scale::Paper => (128, 2048),
    };
    let sets = chunks as usize * chunk_size;
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize];
    while thread_counts.last().is_some_and(|&t| t * 2 <= cores) {
        let next = thread_counts.last().unwrap() * 2;
        thread_counts.push(next);
    }
    let r = reps(scale).max(7);

    let scalar = RrSampler::scalar(&g, RrStrategy::Lt);
    let frontier = RrSampler::new(&g, RrStrategy::Lt);
    assert!(
        frontier.uses_frontier(),
        "LT chain kernel must engage on the bench workload"
    );

    // Chain-shape telemetry from one single-threaded pass: LT reverse
    // walks are chains (each node keeps <= 1 live in-edge), so levels/set
    // doubles as mean chain length before sentinel or cycle cutoff.
    let mut ctx = RrContext::new(g.n());
    let mut rng = rng_from_seed(1810);
    for _ in 0..sets {
        frontier.generate(&mut ctx, &mut rng);
    }
    let links_per_set = ctx.frontier_levels as f64 / sets as f64;

    println!(
        "graph n={} m={} (harmonic skew, Σp=0.9/node), pool {sets} sets \
         (chunks {chunks} x {chunk_size}), cores {cores}",
        g.n(),
        g.m()
    );
    println!("chain telemetry: {links_per_set:.2} reverse links/set");
    println!(
        "{:>7} {:>10} {:>12} {:>14} {:>16} {:>9}",
        "threads", "scalar_s", "frontier_s", "scalar_sets/s", "frontier_sets/s", "speedup"
    );

    let mut rows = Vec::new();
    for &threads in &thread_counts {
        let pool = WorkerPool::new(threads);
        // Content witness at this thread count (doubles as warmup): the
        // acceptance gate is meaningless unless the two paths agree bit
        // for bit first.
        let a = pool.generate_chunks(&scalar, None, 0..chunks, chunk_size, 1810);
        let b = pool.generate_chunks(&frontier, None, 0..chunks, chunk_size, 1810);
        for i in 0..sets {
            assert_eq!(a.rr.get(i), b.rr.get(i), "LT paths diverged at set {i}");
        }
        assert_eq!(a.cost, b.cost, "LT cost proxies diverged");
        // Paired rounds: each round times the two paths back to back and
        // contributes one scalar/frontier ratio, so host-speed drift
        // between rounds (the dominant noise on a shared box) cancels
        // out of the gated speedup instead of landing on one side.
        let mut t_s = Vec::with_capacity(r);
        let mut t_f = Vec::with_capacity(r);
        let mut ratios = Vec::with_capacity(r);
        for _ in 0..r {
            let start = Instant::now();
            let b = pool.generate_chunks(&scalar, None, 0..chunks, chunk_size, 1810);
            let s = start.elapsed().as_secs_f64();
            assert_eq!(b.rr.len(), sets);
            let start = Instant::now();
            let b = pool.generate_chunks(&frontier, None, 0..chunks, chunk_size, 1810);
            let f = start.elapsed().as_secs_f64();
            assert_eq!(b.rr.len(), sets);
            t_s.push(s);
            t_f.push(f);
            ratios.push(s / f.max(1e-12));
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let t_scalar = med(&mut t_s);
        let t_frontier = med(&mut t_f);
        let speedup = med(&mut ratios);
        let sps_scalar = sets as f64 / t_scalar.max(1e-12);
        let sps_frontier = sets as f64 / t_frontier.max(1e-12);
        if matches!(scale, Scale::Small) {
            assert!(
                speedup >= 1.2,
                "LT frontier path must sustain >= 1.2x scalar sets/sec on the \
                 Small rig, got {speedup:.3}x at threads={threads}"
            );
        }

        println!(
            "{threads:>7} {t_scalar:>10.4} {t_frontier:>12.4} {sps_scalar:>14.1} \
             {sps_frontier:>16.1} {speedup:>9.2}"
        );
        rows.push(format!(
            "    {{\"threads\": {threads}, \"scalar_s\": {t_scalar:.6}, \
             \"frontier_s\": {t_frontier:.6}, \"scalar_sets_per_sec\": {sps_scalar:.1}, \
             \"frontier_sets_per_sec\": {sps_frontier:.1}, \
             \"lt_speedup\": {speedup:.4}}}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"pr10_linear_threshold_frontier\",\n  {},\n  \
         \"scale\": \"{scale:?}\",\n  \"dataset\": \"pokec-s\",\n  \
         \"weights\": \"harmonic-skew-0.9\",\n  \"n\": {},\n  \"m\": {},\n  \
         \"pool_sets\": {sets},\n  \"chunk_size\": {chunk_size},\n  \
         \"links_per_set\": {links_per_set:.4},\n  \
         \"single_core\": {},\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"note\": \"scalar and frontier LT pools are bit-identical (asserted per row); \
         lt_speedup is the chain-kernel win at equal thread count, asserted >= 1.2x at \
         Small scale before this artifact is written. {}\"\n}}\n",
        provenance(*thread_counts.last().unwrap()),
        g.n(),
        g.m(),
        cores == 1,
        rows.join(",\n"),
        if cores == 1 {
            "this run was recorded on a single-core host: the thread sweep degenerates to \
             [1], so thread-scaling rows await a multi-core rerun"
        } else {
            "thread counts are capped at the host's cores, one worker per core"
        },
    );
    std::fs::write(out_path, json).expect("writing bench artifact");
    println!("wrote {out_path}");
}

/// Sanity line printed by `experiments all` before the figures.
pub fn preamble(scale: Scale) {
    println!("SUBSIM/HIST experiment harness — scale {scale:?}");
    println!("(relative times and orderings are the reproduction target; see EXPERIMENTS.md)");
}

/// Small helper for benches: total wall time of generating `count` sets.
pub fn generation_time(g: &Graph, strategy: RrStrategy, count: usize, seed: u64) -> Duration {
    let sampler = RrSampler::new(g, strategy);
    let mut ctx = RrContext::new(g.n());
    let mut rng = rng_from_seed(seed);
    let start = Instant::now();
    for _ in 0..count {
        sampler.generate(&mut ctx, &mut rng);
    }
    start.elapsed()
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

    #[test]
    fn generation_time_measures_something() {
        let g = dataset("pokec-s", WeightModel::Wc, Scale::Small);
        let d = generation_time(&g, RrStrategy::SubsimIc, 500, 2);
        assert!(d.as_nanos() > 0);
    }
}
