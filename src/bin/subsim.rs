//! Command-line influence maximization over edge-list files.
//!
//! ```text
//! subsim --graph edges.txt --k 50 [--algorithm hist] [--model wc]
//!        [--epsilon 0.1] [--seed 0] [--undirected] [--evaluate 10000]
//!        [--rr-out sets.rr | --rr-in sets.rr]
//! subsim query-server --graph edges.txt [--index-file warm.idx] [--delta-stream] [...]
//! subsim apply-delta --graph edges.txt --delta updates.txt [--out new.txt]
//!        [--index-in warm.idx [--index-out repaired.idx]] [...]
//! ```
//!
//! The graph file holds one `u v` (or `u v p`) pair per line; `#`/`%`
//! comment lines are ignored. With a third column the explicit per-edge
//! probabilities are used and `--model` is ignored.
//!
//! `query-server` keeps a [`ConcurrentRrIndex`] alive and answers
//! `k [epsilon] [@version]` queries, one per line, from stdin or a Unix socket
//! (`--socket`): seeds go back to the query source (one space-separated
//! line per query, in input order), per-query stats to stderr. Queries
//! fan out over `--threads` worker threads, which all read lock-free
//! snapshots of one shared pool; growth is serialized through the index's
//! writer, so pool content stays a pure function of its size no matter
//! how queries interleave. With `--index-file` the warmed pool is loaded
//! at startup (if the file exists) and saved back at exit, so the pool
//! survives restarts; `--stats-out` dumps serving metrics (per-query
//! latency histogram + quantiles, cache hits, snapshot publishes) as JSON.
//!
//! With `--delta-stream` (or `--shards`) the server runs a
//! [`ShardedDeltaIndex`] instead — one shard unless `--shards` says
//! otherwise. With `--delta-stream` it additionally accepts `delta + u v p` / `delta - u v` /
//! `delta ~ u v p` lines interleaved with queries: each mutation applies
//! atomically, the RR pool is repaired incrementally (only chunks holding
//! a set that contains a mutated edge target regenerate), and an ack with
//! the repair stats goes to stderr. Queries answer against the latest
//! published graph version unless pinned with a trailing `@version`
//! token, which fails with a typed stale-version error if the graph has
//! moved past it. Delta lines are a barrier: they apply only after every
//! earlier query line has answered.
//!
//! `apply-delta` is the batch form: it reads a delta file (same op lines,
//! `#` comments ignored), applies it to the graph, optionally writes the
//! updated edge list (`--out`) and incrementally repairs an on-disk index
//! snapshot (`--index-in` → `--index-out`, default in place) instead of
//! regenerating it from scratch.

use std::process::ExitCode;
use subsim::core::coverage::{greedy_max_coverage, GreedyConfig};
use subsim::delta::{
    serve_queries, DeltaError, LineError, RepairReport, ServeError, ServeEvent, ServeIndex,
};
use subsim::diffusion::serialize::{read_rr_collection, write_rr_collection};
use subsim::diffusion::{chunk_seed, mc_influence, par_generate_chunks, CascadeModel};
use subsim::prelude::*;
use subsim::sampling::rng_from_seed;
use subsim::serve::{serve_framed, Listener, ServerConfig, ShardedDeltaIndex};
use subsim_graph::io::{read_edge_list_file, write_edge_list};
use subsim_graph::Graph;
use subsim_index::TenantMetrics;

struct Args {
    graph: String,
    k: usize,
    algorithm: String,
    model: String,
    theta: f64,
    p: f64,
    epsilon: f64,
    seed: u64,
    undirected: bool,
    evaluate: usize,
    rr_out: Option<String>,
    rr_in: Option<String>,
    rr_count: usize,
    threads: usize,
}

struct ServerArgs {
    graph: String,
    model: String,
    theta: f64,
    p: f64,
    seed: u64,
    delta: f64,
    threads: usize,
    undirected: bool,
    index_file: Option<String>,
    warm: usize,
    max_nodes: Option<usize>,
    socket: Option<String>,
    stats_out: Option<String>,
    delta_stream: bool,
    shards: usize,
    sentinels: usize,
    sketch: usize,
    framed: bool,
    listen: Option<String>,
}

struct ApplyDeltaArgs {
    graph: String,
    delta: String,
    out: Option<String>,
    index_in: Option<String>,
    index_out: Option<String>,
    model: String,
    theta: f64,
    p: f64,
    seed: u64,
    threads: usize,
    undirected: bool,
}

fn usage() -> &'static str {
    "usage: subsim --graph <edge-list> --k <seeds>\n\
     \t[--algorithm mc|tim+|imm|ssa|opim|subsim|hist|hist+subsim]  (default hist+subsim)\n\
     \t[--model wc|wc-variant|uniform|exponential|weibull|trivalency|lt]  (default wc)\n\
     \t[--lt]               shorthand for --model lt (Linear Threshold diffusion;\n\
     \t                     works for the IM run, query-server, and apply-delta)\n\
     \t[--theta <f64>]      WC-variant boost (default 4.0)\n\
     \t[--p <f64>]          uniform-IC probability (default 0.01)\n\
     \t[--epsilon <f64>]    accuracy (default 0.1)\n\
     \t[--seed <u64>]       RNG seed (default 0)\n\
     \t[--undirected]       treat edges as undirected\n\
     \t[--evaluate <runs>]  forward-MC influence estimate of the result\n\
     \t[--rr-out <file>]    generate RR sets, save them, greedy-select k (skips the IM run)\n\
     \t[--rr-count <n>]     how many RR sets --rr-out generates (default 50000)\n\
     \t[--rr-in <file>]     load saved RR sets and greedy-select k (skips the IM run)\n\
     \t[--threads <n>]      worker threads for --rr-out generation and greedy\n\
     \t                     selection (default 1; output is thread-count invariant)\n\
     \n\
     usage: subsim query-server --graph <edge-list>\n\
     \t[--model ...] [--theta ...] [--p ...] [--undirected] as above\n\
     \t[--seed <u64>]       RNG seed for the pool's chunk stream (default 0)\n\
     \t[--delta <f64>]      per-query failure probability (default 0.01)\n\
     \t[--threads <n>]      query workers and pool top-up workers (default 1)\n\
     \t[--index-file <f>]   load the pool from <f> if present, save it back at exit\n\
     \t[--warm <sets>]      pre-grow the pool before serving\n\
     \t[--max-nodes <n>]    refuse pool growth past n arena node entries\n\
     \t[--socket <path>]    serve a Unix socket instead of stdin (one\n\
     \t                     connection at a time unless --framed; a stale\n\
     \t                     socket file is unlinked at startup, the live one\n\
     \t                     removed at exit; `shutdown` stops the server)\n\
     \t[--stats-out <f>]    write serving metrics (latency histogram, cache\n\
     \t                     hits, snapshot publishes) as JSON to <f> at exit\n\
     \t[--delta-stream]     also accept `delta + u v p` / `delta - u v` /\n\
     \t                     `delta ~ u v p` lines: apply the edge mutation and\n\
     \t                     incrementally repair the RR pool (acks on stderr)\n\
     \t[--shards <n>]       partition the RR pool across n shards with merged\n\
     \t                     selection (answers are bit-identical to --shards 1;\n\
     \t                     --index-file round-trips through any shard count)\n\
     \t[--sentinels <b>]    select b sentinel nodes after a warmup prefix and\n\
     \t                     truncate later RR generation at the first sentinel\n\
     \t                     hit (HIST Alg 5); answers keep the full (epsilon,\n\
     \t                     delta) certificate, re-proved per query. Choose\n\
     \t                     b <= the smallest k you will serve: a k < b query\n\
     \t                     certifies conservatively and may grow the pool to\n\
     \t                     its theta_max fallback before answering\n\
     \t[--sketch <p>]       compress the validation pool into per-node HLL\n\
     \t                     count-distinct sketches at register precision p\n\
     \t                     (4..=10; ~2^p bytes per touched node per chunk).\n\
     \t                     Certificates subtract the sketch error bound, so\n\
     \t                     answers stay (epsilon, delta)-sound; precision\n\
     \t                     auto-promotes when the slack blocks certification.\n\
     \t                     Mutually exclusive with --sentinels\n\
     \t[--framed]           async multi-connection server over --socket and/or\n\
     \t                     --listen: 4-byte big-endian length-prefixed frames,\n\
     \t                     one reply frame per request frame, in order\n\
     \t[--listen <addr>]    also accept framed TCP connections on <addr>\n\
     \t                     (implies --framed)\n\
     then one query per line: `k [epsilon]` (epsilon defaults to 0.1)\n\
     \n\
     usage: subsim apply-delta --graph <edge-list> --delta <delta-file>\n\
     \t[--model ...] [--theta ...] [--p ...] [--undirected] as above\n\
     \t[--out <file>]       write the updated edge list to <file>\n\
     \t[--index-in <f>]     repair the RR-pool snapshot <f> incrementally\n\
     \t[--index-out <f>]    where to save the repaired snapshot (default: --index-in)\n\
     \t[--seed <u64>] [--threads <n>] as above\n\
     delta file: one `+ u v p` (insert), `- u v` (delete), or `~ u v p`\n\
     (reweight) per line; `#` comments and blank lines ignored"
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        graph: String::new(),
        k: 0,
        algorithm: "hist+subsim".into(),
        model: "wc".into(),
        theta: 4.0,
        p: 0.01,
        epsilon: 0.1,
        seed: 0,
        undirected: false,
        evaluate: 0,
        rr_out: None,
        rr_in: None,
        rr_count: 50_000,
        threads: 1,
    };
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--graph" => args.graph = val("--graph")?,
            "--k" => args.k = val("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--algorithm" => args.algorithm = val("--algorithm")?,
            "--model" => args.model = val("--model")?,
            "--lt" => args.model = "lt".into(),
            "--theta" => {
                args.theta = val("--theta")?
                    .parse()
                    .map_err(|e| format!("--theta: {e}"))?
            }
            "--p" => args.p = val("--p")?.parse().map_err(|e| format!("--p: {e}"))?,
            "--epsilon" => {
                args.epsilon = val("--epsilon")?
                    .parse()
                    .map_err(|e| format!("--epsilon: {e}"))?
            }
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--undirected" => args.undirected = true,
            "--evaluate" => {
                args.evaluate = val("--evaluate")?
                    .parse()
                    .map_err(|e| format!("--evaluate: {e}"))?
            }
            "--rr-out" => args.rr_out = Some(val("--rr-out")?),
            "--rr-in" => args.rr_in = Some(val("--rr-in")?),
            "--rr-count" => {
                args.rr_count = val("--rr-count")?
                    .parse()
                    .map_err(|e| format!("--rr-count: {e}"))?
            }
            "--threads" => {
                args.threads = val("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--help" | "-h" => return Err(usage().into()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if args.graph.is_empty() || args.k == 0 {
        return Err(format!("--graph and --k are required\n{}", usage()));
    }
    if args.rr_out.is_some() && args.rr_in.is_some() {
        return Err("--rr-out and --rr-in are mutually exclusive".into());
    }
    if args.rr_count == 0 {
        return Err("--rr-count must be positive".into());
    }
    if args.threads == 0 {
        return Err("--threads must be positive".into());
    }
    Ok(args)
}

fn parse_server_args(mut it: impl Iterator<Item = String>) -> Result<ServerArgs, String> {
    let mut args = ServerArgs {
        graph: String::new(),
        model: "wc".into(),
        theta: 4.0,
        p: 0.01,
        seed: 0,
        delta: 0.01,
        threads: 1,
        undirected: false,
        index_file: None,
        warm: 0,
        max_nodes: None,
        socket: None,
        stats_out: None,
        delta_stream: false,
        shards: 1,
        sentinels: 0,
        sketch: 0,
        framed: false,
        listen: None,
    };
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--graph" => args.graph = val("--graph")?,
            "--model" => args.model = val("--model")?,
            "--lt" => args.model = "lt".into(),
            "--theta" => {
                args.theta = val("--theta")?
                    .parse()
                    .map_err(|e| format!("--theta: {e}"))?
            }
            "--p" => args.p = val("--p")?.parse().map_err(|e| format!("--p: {e}"))?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--delta" => {
                args.delta = val("--delta")?
                    .parse()
                    .map_err(|e| format!("--delta: {e}"))?
            }
            "--threads" => {
                args.threads = val("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--undirected" => args.undirected = true,
            "--index-file" => args.index_file = Some(val("--index-file")?),
            "--delta-stream" => args.delta_stream = true,
            "--socket" => args.socket = Some(val("--socket")?),
            "--stats-out" => args.stats_out = Some(val("--stats-out")?),
            "--shards" => {
                args.shards = val("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--sentinels" => {
                args.sentinels = val("--sentinels")?
                    .parse()
                    .map_err(|e| format!("--sentinels: {e}"))?
            }
            "--sketch" => {
                args.sketch = val("--sketch")?
                    .parse()
                    .map_err(|e| format!("--sketch: {e}"))?
            }
            "--framed" => args.framed = true,
            "--listen" => args.listen = Some(val("--listen")?),
            "--warm" => args.warm = val("--warm")?.parse().map_err(|e| format!("--warm: {e}"))?,
            "--max-nodes" => {
                args.max_nodes = Some(
                    val("--max-nodes")?
                        .parse()
                        .map_err(|e| format!("--max-nodes: {e}"))?,
                )
            }
            "--help" | "-h" => return Err(usage().into()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if args.graph.is_empty() {
        return Err(format!("--graph is required\n{}", usage()));
    }
    if args.threads == 0 {
        return Err("--threads must be positive".into());
    }
    if args.shards == 0 {
        return Err("--shards must be positive".into());
    }
    if args.sketch != 0 && !(4..=10).contains(&args.sketch) {
        return Err("--sketch precision must be in 4..=10".into());
    }
    if args.sketch != 0 && args.sentinels != 0 {
        return Err(
            "--sketch and --sentinels are mutually exclusive: truncated RR sets \
             would poison the count-distinct estimates"
                .into(),
        );
    }
    if args.listen.is_some() {
        args.framed = true;
    }
    if args.framed && args.socket.is_none() && args.listen.is_none() {
        return Err("--framed needs --socket and/or --listen".into());
    }
    Ok(args)
}

fn parse_apply_delta_args(mut it: impl Iterator<Item = String>) -> Result<ApplyDeltaArgs, String> {
    let mut args = ApplyDeltaArgs {
        graph: String::new(),
        delta: String::new(),
        out: None,
        index_in: None,
        index_out: None,
        model: "wc".into(),
        theta: 4.0,
        p: 0.01,
        seed: 0,
        threads: 1,
        undirected: false,
    };
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--graph" => args.graph = val("--graph")?,
            "--delta" => args.delta = val("--delta")?,
            "--out" => args.out = Some(val("--out")?),
            "--index-in" => args.index_in = Some(val("--index-in")?),
            "--index-out" => args.index_out = Some(val("--index-out")?),
            "--model" => args.model = val("--model")?,
            "--lt" => args.model = "lt".into(),
            "--theta" => {
                args.theta = val("--theta")?
                    .parse()
                    .map_err(|e| format!("--theta: {e}"))?
            }
            "--p" => args.p = val("--p")?.parse().map_err(|e| format!("--p: {e}"))?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threads" => {
                args.threads = val("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--undirected" => args.undirected = true,
            "--help" | "-h" => return Err(usage().into()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if args.graph.is_empty() || args.delta.is_empty() {
        return Err(format!("--graph and --delta are required\n{}", usage()));
    }
    if args.threads == 0 {
        return Err("--threads must be positive".into());
    }
    if args.index_out.is_some() && args.index_in.is_none() {
        return Err("--index-out requires --index-in".into());
    }
    Ok(args)
}

fn parse_model(model: &str, theta: f64, p: f64) -> Result<WeightModel, String> {
    Ok(match model {
        "wc" => WeightModel::Wc,
        "wc-variant" => WeightModel::WcVariant { theta },
        "uniform" => WeightModel::UniformIc { p },
        "exponential" => WeightModel::Exponential { lambda: 1.0 },
        "weibull" => WeightModel::Weibull,
        "trivalency" => WeightModel::Trivalency,
        "lt" => WeightModel::Lt,
        other => return Err(format!("unknown model {other}")),
    })
}

fn load_graph(path: &str, model: WeightModel, undirected: bool) -> Result<Graph, String> {
    let el = read_edge_list_file(path).map_err(|e| format!("reading graph: {e}"))?;
    if undirected && el.probs.is_some() {
        return Err(
            "--undirected cannot be combined with a weighted edge list; \
             list both directions explicitly instead"
                .into(),
        );
    }
    let g = if undirected && el.probs.is_none() {
        GraphBuilder::new(el.n)
            .edges(el.edges.clone())
            .undirected(true)
            .weights(model)
            .build()
            .map_err(|e| format!("building graph: {e}"))?
    } else {
        el.into_graph(model)
            .map_err(|e| format!("building graph: {e}"))?
    };
    eprintln!(
        "graph: {} nodes, {} edges ({})",
        g.n(),
        g.m(),
        GraphStats::compute(&g)
    );
    Ok(g)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("query-server") => parse_server_args(argv.into_iter().skip(1)).and_then(run_server),
        Some("apply-delta") => {
            parse_apply_delta_args(argv.into_iter().skip(1)).and_then(run_apply_delta)
        }
        _ => parse_args(argv.into_iter()).and_then(run),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    let model = parse_model(&args.model, args.theta, args.p)?;
    let lt = args.model == "lt";
    let g = load_graph(&args.graph, model, args.undirected)?;

    // RR-collection round-trip modes bypass the IM algorithms entirely:
    // both just greedy-select over a materialized pool.
    if let Some(path) = &args.rr_out {
        let strategy = if lt {
            RrStrategy::Lt
        } else {
            RrStrategy::SubsimIc
        };
        let sampler = RrSampler::new(&g, strategy);
        // Chunk-deterministic generation: full chunks through the
        // work-stealing pool, the sub-chunk tail sequentially from the
        // next chunk's RNG — exact count, thread-count invariant output.
        const CHUNK: usize = 256;
        let full = (args.rr_count / CHUNK) as u64;
        let mut rr =
            par_generate_chunks(&sampler, None, 0..full, CHUNK, args.threads, args.seed).rr;
        let tail = args.rr_count % CHUNK;
        if tail > 0 {
            let mut ctx = RrContext::new(g.n());
            let mut rng = rng_from_seed(chunk_seed(args.seed, full));
            rr.generate(&sampler, &mut ctx, &mut rng, tail);
        }
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        write_rr_collection(&rr, file).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "wrote {} RR sets ({} node entries) to {path}",
            rr.len(),
            rr.total_nodes()
        );
        return greedy_over(&rr, args.k, args.threads, args.evaluate, &g, lt, args.seed);
    }
    if let Some(path) = &args.rr_in {
        let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
        let rr = read_rr_collection(file).map_err(|e| format!("reading {path}: {e}"))?;
        if rr.graph_n() != g.n() {
            return Err(format!(
                "{path} stores RR sets over {} nodes but the graph has {}",
                rr.graph_n(),
                g.n()
            ));
        }
        eprintln!("loaded {} RR sets from {path}", rr.len());
        return greedy_over(&rr, args.k, args.threads, args.evaluate, &g, lt, args.seed);
    }

    let alg: Box<dyn ImAlgorithm> = match (args.algorithm.as_str(), lt) {
        ("mc", false) => Box::new(McGreedy::ic(10_000)),
        ("mc", true) => Box::new(McGreedy::lt(10_000)),
        ("tim+", _) => Box::new(TimPlus::vanilla()),
        ("imm", _) => Box::new(Imm::vanilla()),
        ("ssa", _) => Box::new(Ssa::vanilla()),
        ("opim", false) => Box::new(OpimC::vanilla()),
        ("opim", true) | ("subsim", true) | ("hist+subsim", true) | ("hist", true) => {
            Box::new(OpimC::lt())
        }
        ("subsim", false) => Box::new(OpimC::subsim()),
        ("hist", false) => Box::new(Hist::vanilla()),
        ("hist+subsim", false) => Box::new(Hist::with_subsim()),
        (other, _) => return Err(format!("unknown algorithm {other}\n{}", usage())),
    };

    let opts = ImOptions::new(args.k).epsilon(args.epsilon).seed(args.seed);
    let result = alg.run(&g, &opts).map_err(|e| e.to_string())?;

    eprintln!(
        "{}: {} RR sets (avg size {:.1}), {:?}",
        alg.name(),
        result.stats.rr_generated,
        result.stats.avg_rr_size(),
        result.stats.elapsed
    );
    if let Some(ratio) = result.stats.certified_ratio() {
        eprintln!("certified approximation ratio: {ratio:.4}");
    }
    for &s in &result.seeds {
        println!("{s}");
    }
    evaluate_seeds(&g, &result.seeds, lt, args.evaluate, args.seed);
    Ok(())
}

/// Greedy-selects `k` seeds from `rr` and prints them (the `--rr-out` /
/// `--rr-in` paths).
fn greedy_over(
    rr: &RrCollection,
    k: usize,
    threads: usize,
    evaluate: usize,
    g: &Graph,
    lt: bool,
    seed: u64,
) -> Result<(), String> {
    if rr.is_empty() {
        return Err("the RR collection is empty".into());
    }
    let out = greedy_max_coverage(rr, &GreedyConfig::standard(k).with_threads(threads));
    eprintln!(
        "greedy over {} sets: coverage {} ({:.1}% of sets)",
        rr.len(),
        out.coverage(),
        100.0 * out.coverage() as f64 / rr.len() as f64
    );
    for &s in &out.seeds {
        println!("{s}");
    }
    evaluate_seeds(g, &out.seeds, lt, evaluate, seed);
    Ok(())
}

fn evaluate_seeds(g: &Graph, seeds: &[NodeId], lt: bool, runs: usize, seed: u64) {
    if runs > 0 {
        let cascade = if lt {
            CascadeModel::Lt
        } else {
            CascadeModel::Ic
        };
        let inf = mc_influence(g, seeds, cascade, runs, seed ^ 1);
        eprintln!(
            "estimated influence: {inf:.1} nodes ({:.2}% of graph)",
            100.0 * inf / g.n() as f64
        );
    }
}

fn run_server(args: ServerArgs) -> Result<(), String> {
    let model = parse_model(&args.model, args.theta, args.p)?;
    let lt = args.model == "lt";
    let g = load_graph(&args.graph, model, args.undirected)?;
    let strategy = if lt {
        RrStrategy::Lt
    } else {
        RrStrategy::SubsimIc
    };

    let mut config = IndexConfig::new(strategy)
        .seed(args.seed)
        .threads(args.threads)
        .sentinels(args.sentinels)
        .sketch(args.sketch);
    if let Some(cap) = args.max_nodes {
        config = config.max_nodes(cap);
    }
    if args.shards > 1 || args.delta_stream {
        run_sharded_server(args, g, config)
    } else {
        run_static_server(args, g, config)
    }
}

/// `--shards N` and `--delta-stream` serving: a [`ShardedDeltaIndex`]
/// owns a versioned graph and partitions chunk generation and coverage
/// counting across N shards (one by default); selection merges the
/// per-shard counts, so answers stay bit-identical to `--shards 1`. With
/// `--delta-stream`, `delta` op lines apply atomically between queries
/// and the pool is repaired incrementally; without it the index serves
/// frozen: `delta` lines are rejected exactly like the static server.
fn run_sharded_server(args: ServerArgs, g: Graph, config: IndexConfig) -> Result<(), String> {
    let index = match &args.index_file {
        Some(path) if std::path::Path::new(path).exists() => {
            let loaded = ShardedDeltaIndex::load_snapshot(g, config, args.shards, path)
                .map_err(|e| format!("loading {path}: {e}"))?;
            eprintln!(
                "index: loaded {} sets/half from {path} (cursor {}, re-split across {} shards)",
                loaded.load().pool_len(),
                loaded.load().chunk_cursor(),
                loaded.shard_count()
            );
            loaded
        }
        _ => ShardedDeltaIndex::new(g, config, args.shards).map_err(|e| e.to_string())?,
    };
    eprintln!("index: {} shards", index.shard_count());
    if args.warm > 0 {
        index.warm(args.warm).map_err(|e| e.to_string())?;
        eprintln!("index: warmed to {} sets/half", index.load().pool_len());
    }
    if args.delta_stream {
        serve_transport(&index, &args)?;
    } else {
        serve_transport(&FrozenSharded(&index), &args)?;
    }
    let m = index.metrics();
    report_metrics(&m, &args)?;
    if m.deltas_applied > 0 {
        eprintln!(
            "applied {} deltas: {} sets / {} chunks regenerated, total repair time {:?}",
            m.deltas_applied,
            m.sets_repaired,
            m.chunks_repaired,
            std::time::Duration::from_nanos(m.repair_time_ns),
        );
    }
    if let Some(path) = &args.index_file {
        index
            .save_snapshot(path)
            .map_err(|e| format!("saving {path}: {e}"))?;
        let snap = index.load();
        eprintln!(
            "index: saved {} sets/half to {path} (graph version {})",
            snap.pool_len(),
            snap.version()
        );
    }
    Ok(())
}

/// A sharded index serving without `--delta-stream`: queries (including
/// version pins, which are trivially satisfied at version 0) pass
/// through; `delta` lines are rejected as on a frozen index.
struct FrozenSharded<'a>(&'a ShardedDeltaIndex);

impl ServeIndex for FrozenSharded<'_> {
    fn run_query(
        &self,
        k: usize,
        epsilon: f64,
        delta: f64,
        pin: Option<u64>,
    ) -> Result<QueryAnswer, ServeError> {
        self.0.run_query(k, epsilon, delta, pin)
    }

    fn apply_delta_line(&self, _op: &str) -> Result<RepairReport, ServeError> {
        Err(ServeError::Frozen)
    }

    fn version(&self) -> Option<u64> {
        ServeIndex::version(self.0)
    }
}

/// The original serving mode: a [`ConcurrentRrIndex`] over a frozen
/// graph; `delta` lines are rejected with a pointer to `--delta-stream`.
fn run_static_server(args: ServerArgs, g: Graph, config: IndexConfig) -> Result<(), String> {
    let mut index = match &args.index_file {
        Some(path) if std::path::Path::new(path).exists() => {
            let mut loaded =
                RrIndex::load_from_path(&g, path).map_err(|e| format!("loading {path}: {e}"))?;
            // A pool generated under another diffusion model must not be
            // adopted silently — same refusal the delta/sharded loaders
            // make.
            loaded
                .ensure_strategy(config.strategy)
                .map_err(|e| format!("loading {path}: {e}"))?;
            eprintln!(
                "index: loaded {} sets/half from {path} (cursor {})",
                loaded.pool_len(),
                loaded.chunk_cursor()
            );
            loaded.set_threads(args.threads);
            loaded.set_max_nodes(args.max_nodes);
            loaded
        }
        _ => RrIndex::new(&g, config),
    };
    if args.warm > 0 {
        index.warm(args.warm).map_err(|e| e.to_string())?;
        eprintln!("index: warmed to {} sets/half", index.pool_len());
    }

    let index = ConcurrentRrIndex::from_index(index);
    serve_transport(&index, &args)?;
    report_metrics(&index.metrics(), &args)?;
    if let Some(path) = &args.index_file {
        let index = index.into_index();
        index
            .save_to_path(path)
            .map_err(|e| format!("saving {path}: {e}"))?;
        eprintln!("index: saved {} sets/half to {path}", index.pool_len());
    }
    Ok(())
}

/// Runs the query loop over stdin, the `--socket` transport, or — with
/// `--framed` — the async multi-connection server.
fn serve_transport<I: ServeIndex>(index: &I, args: &ServerArgs) -> Result<(), String> {
    if args.framed {
        return serve_framed_transport(index, args);
    }
    match &args.socket {
        None => {
            let stdin = std::io::stdin();
            serve_queries(
                index,
                args.delta,
                args.threads,
                stdin.lock(),
                std::io::stdout(),
                &log_serve_event,
            )?;
        }
        Some(path) => {
            // Unlinks a stale socket left by a dead server, refuses to
            // unlink anything that is not a socket, and removes the
            // live socket on every exit path (the guard drops on `?`).
            let (listener, _guard) = Listener::bind_unix(std::path::Path::new(path))
                .map_err(|e| format!("binding {path}: {e}"))?;
            let Listener::Unix(listener) = listener else {
                unreachable!("bind_unix returns a unix listener");
            };
            eprintln!("listening on {path}");
            loop {
                let (stream, _) = listener
                    .accept()
                    .map_err(|e| format!("accepting on {path}: {e}"))?;
                let reader = std::io::BufReader::new(
                    stream.try_clone().map_err(|e| format!("socket: {e}"))?,
                );
                // A client that drops mid-answer ends its own session
                // only; the server keeps accepting.
                match serve_queries(
                    index,
                    args.delta,
                    args.threads,
                    reader,
                    stream,
                    &log_serve_event,
                ) {
                    Ok(true) => break,
                    Ok(false) => {}
                    Err(e) => eprintln!("client on {path} dropped: {e}"),
                }
            }
        }
    }
    Ok(())
}

/// `--framed` serving: binds every requested transport, then runs the
/// epoll reactor until a `shutdown` frame drains the server.
fn serve_framed_transport<I: ServeIndex>(index: &I, args: &ServerArgs) -> Result<(), String> {
    let mut listeners = Vec::new();
    let mut _guard = None;
    if let Some(path) = &args.socket {
        let (listener, guard) = Listener::bind_unix(std::path::Path::new(path))
            .map_err(|e| format!("binding {path}: {e}"))?;
        eprintln!("listening on {path} (framed)");
        listeners.push(listener);
        _guard = Some(guard);
    }
    if let Some(addr) = &args.listen {
        listeners.push(Listener::bind_tcp(addr).map_err(|e| format!("binding {addr}: {e}"))?);
        eprintln!("listening on {addr} (framed)");
    }
    let config = ServerConfig {
        workers: args.threads,
        delta: args.delta,
        ..ServerConfig::default()
    };
    let tenants = TenantMetrics::new();
    let report = serve_framed(index, listeners, &config, &tenants, &log_serve_event)
        .map_err(|e| format!("framed server: {e}"))?;
    eprintln!(
        "framed server: {} connections, {} frames in, {} replies out{}",
        report.connections,
        report.frames,
        report.replies,
        if report.shutdown {
            ", graceful shutdown"
        } else {
            ""
        },
    );
    eprintln!("tenants: {}", tenants.to_json());
    Ok(())
}

fn report_metrics(m: &MetricsSnapshot, args: &ServerArgs) -> Result<(), String> {
    eprintln!(
        "served {} queries ({} bound-certified): {} sets / {} node entries generated, \
         cache hit ratio {:.3}, {} snapshot publishes, total query time {:?}",
        m.queries,
        m.certified_queries,
        m.rr_sets_generated,
        m.rr_nodes_generated,
        m.cache_hit_ratio,
        m.snapshot_publishes,
        std::time::Duration::from_nanos(m.query_time_ns),
    );
    if let Some(path) = &args.stats_out {
        std::fs::write(path, m.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("stats: wrote serving metrics to {path}");
    }
    Ok(())
}

/// Batch delta application: mutate the graph, optionally repairing an
/// on-disk pool snapshot and writing the updated edge list.
fn run_apply_delta(args: ApplyDeltaArgs) -> Result<(), String> {
    let model = parse_model(&args.model, args.theta, args.p)?;
    let lt = args.model == "lt";
    let g = load_graph(&args.graph, model, args.undirected)?;
    let text =
        std::fs::read_to_string(&args.delta).map_err(|e| format!("reading {}: {e}", args.delta))?;
    let delta = GraphDelta::parse(&text).map_err(|e| format!("parsing {}: {e}", args.delta))?;
    if delta.is_empty() {
        return Err(format!("{} holds no delta ops", args.delta));
    }
    eprintln!(
        "delta: {} ops touching {} distinct edge targets",
        delta.len(),
        delta.targets().len()
    );

    let final_graph: Graph = match &args.index_in {
        Some(path) => {
            let strategy = if lt {
                RrStrategy::Lt
            } else {
                RrStrategy::SubsimIc
            };
            let config = IndexConfig::new(strategy)
                .seed(args.seed)
                .threads(args.threads);
            let mut index = DeltaIndex::load_snapshot(g, config, path)
                .map_err(|e| format!("loading {path}: {e}"))?;
            eprintln!("index: loaded {} sets/half from {path}", index.pool_len());
            let report = index.apply_delta(&delta).map_err(|e| e.to_string())?;
            eprintln!(
                "repair: version {}, {} dirty sets (R1 {}, R2 {}), {}/{} sets regenerated \
                 ({:.1}% of pool, {} chunks), {:?}",
                report.version,
                report.dirty_sets_r1 + report.dirty_sets_r2,
                report.dirty_sets_r1,
                report.dirty_sets_r2,
                report.regenerated_sets,
                report.pool_sets,
                100.0 * report.repair_fraction(),
                report.dirty_chunks_r1 + report.dirty_chunks_r2,
                report.elapsed
            );
            let out_path = args.index_out.as_deref().unwrap_or(path);
            index
                .save_snapshot(out_path)
                .map_err(|e| format!("saving {out_path}: {e}"))?;
            eprintln!("index: saved repaired pool to {out_path}");
            index.graph().clone()
        }
        None => {
            let mut vg = VersionedGraph::new(g).map_err(|e: DeltaError| e.to_string())?;
            vg.apply(&delta).map_err(|e| e.to_string())?;
            eprintln!(
                "graph: version {}, fingerprint {:016x}",
                vg.version(),
                vg.fingerprint()
            );
            vg.graph().clone()
        }
    };
    if let Some(out) = &args.out {
        let file = std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
        write_edge_list(&final_graph, file).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!(
            "graph: wrote {} nodes / {} edges to {out}",
            final_graph.n(),
            final_graph.m()
        );
    }
    Ok(())
}

/// Renders one serving-loop event in the CLI's stderr format. The loop
/// itself lives in [`subsim::delta::serve_queries`]; this sink is the
/// only CLI-specific part.
fn log_serve_event(event: ServeEvent) {
    match event {
        ServeEvent::Answered { stats, .. } => {
            let s = &*stats;
            eprintln!(
                "query k={} eps={}: pool {}→{} sets/half ({} fresh, {} reused), \
                 {} rounds, ratio {:.4}{}, {:?}",
                s.k,
                s.epsilon,
                s.pool_before,
                s.pool_after,
                s.fresh_sets,
                s.reused_sets(),
                s.rounds,
                s.ratio(),
                if s.certified_by_bounds {
                    ""
                } else {
                    " (theta_max cap)"
                },
                s.elapsed
            );
        }
        ServeEvent::DeltaApplied { report, .. } => {
            eprintln!(
                "delta applied: version {}, {}/{} sets regenerated ({:.1}% of pool, {} chunks), {:?}",
                report.version,
                report.regenerated_sets,
                report.pool_sets,
                100.0 * report.repair_fraction(),
                report.dirty_chunks_r1 + report.dirty_chunks_r2,
                report.elapsed
            );
        }
        ServeEvent::LineFailed { line, error } => match error {
            LineError::Malformed { reason } => eprintln!("bad query {line:?}: {reason}"),
            LineError::Frame(v) => eprintln!("bad frame on {line:?}: {v}"),
            LineError::Rejected(e) => {
                if let Some(op) = line.strip_prefix("delta ") {
                    eprintln!("delta {op:?} rejected: {e}");
                } else {
                    eprintln!("query {line:?} failed: {e}");
                }
            }
        },
        ServeEvent::InputError { message } => eprintln!("reading queries: {message}"),
    }
}
