//! The four workloads and every input they are given: graphs, query
//! mixes, arrival schedules and delta ops, all generated from `--seed`.
//!
//! The graphs never depend on the seed: each workload runs on the
//! `pokec-s` recipe (R-MAT scale 14, generator seed 1) under its own fixed
//! weight model. The seed drives only what a client would send. [`PINS`]
//! records each graph's size and fingerprint and a hash of each
//! workload's schedule at [`DEFAULT_SEED`], and the benchmark refuses to
//! report when either has drifted, so a change to the generators cannot
//! pass as a change in speed.

use std::time::Duration;
use subsim_bench::workloads::{dataset, Scale};
use subsim_graph::{Graph, NodeId, WeightModel};
use subsim_index::graph_fingerprint;

/// The WC-variant boost of `hist-ic`: a fixed constant, never calibrated.
pub const THETA: f64 = 4.0;

/// Seed whose schedules [`PINS`] hashes.
pub const DEFAULT_SEED: u64 = 1;

/// `--seconds` whose schedules [`PINS`] hashes (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Certificate failure probability of every served query (the framed
/// server's default `δ`).
pub const DELTA: f64 = 0.01;

/// The served query mix: k ∈ {10, 50, 100} × ε ∈ {0.1, 0.05}, drawn
/// uniformly.
pub const MIX: [(usize, f64); 6] = [
    (10, 0.1),
    (10, 0.05),
    (50, 0.1),
    (50, 0.05),
    (100, 0.1),
    (100, 0.05),
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm `ConcurrentRrIndex` behind the framed server, reads only.
    WarmRead,
    /// 2-shard `ShardedDeltaIndex` with sketched validation, reads beside
    /// a stream of single-edge deltas.
    ReadWrite,
    /// `Hist::with_subsim()` at k = 50 in a closed loop, high influence.
    HistIc,
    /// `OpimC::lt()` at k = 200 in a closed loop.
    OpimcLt,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WarmRead,
        Workload::ReadWrite,
        Workload::HistIc,
        Workload::OpimcLt,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmRead => "warm-read",
            Workload::ReadWrite => "read-write",
            Workload::HistIc => "hist-ic",
            Workload::OpimcLt => "opimc-lt",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs behind the framed server.
    pub fn is_serving(self) -> bool {
        matches!(self, Workload::WarmRead | Workload::ReadWrite)
    }

    fn model(self) -> WeightModel {
        match self {
            Workload::WarmRead | Workload::ReadWrite => WeightModel::Wc,
            Workload::HistIc => WeightModel::WcVariant { theta: THETA },
            Workload::OpimcLt => WeightModel::Lt,
        }
    }

    /// Builds the workload's graph (always Paper scale; `SUBSIM_SCALE` is
    /// not consulted).
    pub fn graph(self) -> Graph {
        dataset("pokec-s", self.model(), Scale::Paper)
    }
}

/// What [`PINS`] fixes for one workload.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// Node count of the workload graph.
    pub n: usize,
    /// Edge count of the workload graph.
    pub m: usize,
    /// `subsim_index::graph_fingerprint` of the workload graph.
    pub fingerprint: u64,
    /// FNV-1a of the request schedule at [`DEFAULT_SEED`] and
    /// [`DEFAULT_SECONDS`].
    pub schedule: u64,
}

/// The pinned inputs, in [`Workload::ALL`] order.
pub const PINS: [Pin; 4] = [
    Pin {
        n: 16384,
        m: 266977,
        fingerprint: 0x1913_e5b6_9b08_b90e,
        schedule: 0x3bde_3fd7_082e_cb22,
    },
    Pin {
        n: 16384,
        m: 266977,
        fingerprint: 0x1913_e5b6_9b08_b90e,
        schedule: 0x190a_9d72_8ae1_2ec7,
    },
    Pin {
        n: 16384,
        m: 266977,
        fingerprint: 0x13d0_3e4a_4d64_a7a6,
        schedule: 0xa0b9_2afa_0d62_204a,
    },
    Pin {
        n: 16384,
        m: 266977,
        fingerprint: 0x1913_e5b6_9b08_b90e,
        schedule: 0xd2e3_8d20_042f_904a,
    },
];

fn pin(w: Workload) -> Pin {
    PINS[Workload::ALL
        .iter()
        .position(|&x| x == w)
        .expect("every workload is pinned")]
}

/// Checks a freshly built workload graph against its pin.
pub fn check_graph(w: Workload, g: &Graph) -> Result<(), String> {
    let want = pin(w);
    let got = (g.n(), g.m(), graph_fingerprint(g));
    if got != (want.n, want.m, want.fingerprint) {
        return Err(format!(
            "graph drifted from its pin: n={} m={} fingerprint={:#018x}, pinned n={} m={} \
             fingerprint={:#018x}",
            got.0, got.1, got.2, want.n, want.m, want.fingerprint
        ));
    }
    Ok(())
}

/// Checks the schedule generators against the pinned hash.
pub fn check_schedule(w: Workload, g: &Graph) -> Result<(), String> {
    let got = schedule_hash(w, g);
    let want = pin(w).schedule;
    if got != want {
        return Err(format!(
            "request schedule drifted from its pin: hash {got:#018x}, pinned {want:#018x}"
        ));
    }
    Ok(())
}

/// Hash of everything a run at [`DEFAULT_SEED`] and [`DEFAULT_SECONDS`]
/// sends in its first drive (one-shot workloads: the first 256 answers'
/// `(k, seed)`).
pub fn schedule_hash(w: Workload, g: &Graph) -> u64 {
    let mut h = Fnv::default();
    if w.is_serving() {
        let plan = Plan::new(DEFAULT_SECONDS);
        let mut deltas = DeltaStream::new(g, DEFAULT_SEED);
        for req in plan.timed_requests(w, DEFAULT_SEED, 0, &mut deltas) {
            h.write(&(req.at.as_micros() as u64).to_le_bytes());
            h.write(&[req.conn as u8]);
            h.write(req.line.as_bytes());
        }
        let mut closed = Rng::new(DEFAULT_SEED, 0x636c_6f73 /* "clos" */);
        for _ in 0..256 {
            let (k, eps) = closed.query();
            h.write(format!("{k} {eps}").as_bytes());
        }
    } else {
        for i in 0..256 {
            h.write(&(oneshot_k(w) as u64).to_le_bytes());
            h.write(&oneshot_seed(DEFAULT_SEED, i).to_le_bytes());
        }
    }
    h.0
}

/// The `k` of a one-shot workload.
pub fn oneshot_k(w: Workload) -> usize {
    match w {
        Workload::HistIc => 50,
        _ => 200,
    }
}

/// The algorithm seed of the `i`-th measured one-shot answer.
pub fn oneshot_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i)
}

/// The algorithm seed of the `i`-th warm-up answer, disjoint from the
/// measured ones for any realistic run length.
pub fn oneshot_warm_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(1 << 40).wrapping_add(i)
}

/// The algorithm seed of the `i`-th set-up answer. Set-ups answer the
/// same inputs whatever the run's seed, so neither their time nor the
/// memory they leave resident depends on which seeds a run draws.
pub fn oneshot_setup_seed(i: u64) -> u64 {
    (1 << 41) + i
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// splitmix64: the benchmark's own generator, so the inputs do not move
/// when the library's RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, tag)`; distinct tags give independent streams.
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Gap to the next arrival at `rate` per second: uniform between half
    /// and one and a half mean gaps. Exponential (Poisson) gaps send
    /// bursts that queue behind each other on 2 cores and, with a
    /// sleeping sender waking up to milliseconds late, made the run-to-run
    /// spread of open-loop latency several times wider.
    fn gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64((0.5 + self.unit()) / rate)
    }

    /// One query of [`MIX`].
    pub fn query(&mut self) -> (usize, f64) {
        MIX[self.below(MIX.len())]
    }
}

/// Which kind of request a frame carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `k epsilon`.
    Query {
        /// Seeds asked for.
        k: usize,
        /// Accuracy asked for.
        eps: f64,
    },
    /// `delta <op>`.
    Delta,
}

/// The part of a run a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Unmeasured warm-up at the workload's load.
    Warmup,
    /// Open loop: measured from each request's intended send time.
    Open,
    /// Closed loop: measured as answers per second.
    Closed,
}

/// One scheduled frame.
#[derive(Debug, Clone)]
pub struct Request {
    /// Intended send time, from the start of the drive.
    pub at: Duration,
    /// Connection index (0 or 1).
    pub conn: usize,
    /// Frame payload.
    pub line: String,
    /// What the frame asks for.
    pub kind: Kind,
    /// Phase the frame belongs to.
    pub phase: Phase,
}

/// Open-loop query rate, per second.
pub fn query_rate(w: Workload) -> f64 {
    match w {
        Workload::WarmRead => 200.0,
        _ => 150.0,
    }
}

/// Interval between deltas on `read-write`'s writer connection.
pub const DELTA_PERIOD: Duration = Duration::from_millis(250);

/// Phase lengths of one serving drive.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Unmeasured warm-up.
    pub warmup: Duration,
    /// Measured open loop.
    pub open: Duration,
    /// Measured closed loop.
    pub closed: Duration,
}

impl Plan {
    /// Splits `seconds` of measurement two thirds open loop, one third
    /// closed loop, after a warm-up of at most 2 s.
    pub fn new(seconds: f64) -> Plan {
        Plan {
            warmup: Duration::from_secs_f64(seconds.min(2.0)),
            open: Duration::from_secs_f64(seconds * 2.0 / 3.0),
            closed: Duration::from_secs_f64(seconds / 3.0),
        }
    }

    /// Start of the closed loop, from the start of the drive.
    pub fn closed_start(&self) -> Duration {
        self.warmup + self.open
    }

    /// End of the drive.
    pub fn end(&self) -> Duration {
        self.warmup + self.open + self.closed
    }

    /// Every frame the sender sends on its own schedule in drive `drive`:
    /// open-loop queries through warm-up and open phases and, on
    /// `read-write`, one delta per [`DELTA_PERIOD`] through all phases.
    /// Closed-loop queries are not scheduled; the receiver sends each one
    /// when the previous answer arrives.
    pub fn timed_requests(
        &self,
        w: Workload,
        seed: u64,
        drive: u64,
        deltas: &mut DeltaStream,
    ) -> Vec<Request> {
        let mut rng = Rng::new(seed, 0x6f70_656e /* "open" */ + drive);
        let rate = query_rate(w);
        let mut out = Vec::new();
        let mut at = rng.gap(rate);
        while at < self.closed_start() {
            let (k, eps) = rng.query();
            let conn = match w {
                Workload::WarmRead => rng.below(2),
                _ => 0,
            };
            out.push(Request {
                at,
                conn,
                line: format!("{k} {eps}"),
                kind: Kind::Query { k, eps },
                phase: self.phase_at(at),
            });
            at += rng.gap(rate);
        }
        if w == Workload::ReadWrite {
            let mut at = DELTA_PERIOD / 2;
            while at < self.end() {
                out.push(Request {
                    at,
                    conn: 1,
                    line: format!("delta {}", deltas.next_op()),
                    kind: Kind::Delta,
                    phase: self.phase_at(at),
                });
                at += DELTA_PERIOD;
            }
        }
        out.sort_by_key(|r| r.at);
        out
    }

    fn phase_at(&self, at: Duration) -> Phase {
        if at < self.warmup {
            Phase::Warmup
        } else if at < self.closed_start() {
            Phase::Open
        } else {
            Phase::Closed
        }
    }
}

/// Generates valid single-edge delta ops: the stream tracks the edges it
/// has produced so far, so a delete or reweight always names an existing
/// edge and an insert an absent one. Ops are 50% reweight, 25% delete and
/// 25% insert, each on a target node drawn uniformly (an existing in-edge
/// of it for reweight and delete).
///
/// Drawing the target by node rather than by edge keeps repair costs
/// comparable from op to op: an edge-uniform target is a hub so often
/// that a few ops per run regenerate most of the pool, and the run's
/// total repair work then depends on how many of those it drew.
#[derive(Debug)]
pub struct DeltaStream {
    rng: Rng,
    /// In-edges `(source, probability)` of every node.
    sources: Vec<Vec<(NodeId, f64)>>,
}

impl DeltaStream {
    /// A stream over the edges of `g`.
    pub fn new(g: &Graph, seed: u64) -> DeltaStream {
        let mut sources = vec![Vec::new(); g.n()];
        for (u, v, p) in g.edges() {
            sources[v as usize].push((u, p));
        }
        DeltaStream {
            rng: Rng::new(seed, 0x6465_6c74 /* "delt" */),
            sources,
        }
    }

    /// A uniform node with at least one in-edge.
    fn target_with_in_edge(&mut self) -> usize {
        loop {
            let v = self.rng.below(self.sources.len());
            if !self.sources[v].is_empty() {
                return v;
            }
        }
    }

    /// The next op, in the `+ u v p` / `- u v` / `~ u v p` line format.
    pub fn next_op(&mut self) -> String {
        match self.rng.below(4) {
            0 | 1 => {
                let v = self.target_with_in_edge();
                let i = self.rng.below(self.sources[v].len());
                let scale = 0.5 + self.rng.unit();
                let edge = &mut self.sources[v][i];
                edge.1 = round4(edge.1 * scale);
                format!("~ {} {v} {}", edge.0, edge.1)
            }
            2 => {
                let v = self.target_with_in_edge();
                let i = self.rng.below(self.sources[v].len());
                let (u, _) = self.sources[v].swap_remove(i);
                format!("- {u} {v}")
            }
            _ => loop {
                let n = self.sources.len();
                let v = self.rng.below(n);
                let u = self.rng.below(n) as NodeId;
                if u as usize == v || self.sources[v].iter().any(|&(s, _)| s == u) {
                    continue;
                }
                let p = round4(1.0 / (self.sources[v].len() as f64 + 1.0));
                self.sources[v].push((u, p));
                break format!("+ {u} {v} {p}");
            },
        }
    }
}

/// Rounds a probability to 4 decimals inside `[1e-4, 1]`, so the op line
/// stays short and parses back to exactly the same value.
fn round4(p: f64) -> f64 {
    ((p * 1e4).round() / 1e4).clamp(1e-4, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_graph::generators::barabasi_albert;

    #[test]
    fn delta_stream_ops_always_apply() {
        let g = barabasi_albert(60, 2, WeightModel::Wc, 3);
        let mut vg = subsim_delta::VersionedGraph::new(g.clone()).unwrap();
        let mut stream = DeltaStream::new(&g, 9);
        for _ in 0..300 {
            let line = stream.next_op();
            let op = subsim_delta::GraphDelta::parse_line(&line)
                .unwrap()
                .unwrap();
            let mut d = subsim_delta::GraphDelta::new();
            d.push(op);
            vg.apply(&d).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn schedules_are_a_function_of_the_seed() {
        let g = barabasi_albert(60, 2, WeightModel::Wc, 3);
        let plan = Plan::new(3.0);
        let run = |seed| {
            let mut deltas = DeltaStream::new(&g, seed);
            plan.timed_requests(Workload::ReadWrite, seed, 0, &mut deltas)
                .into_iter()
                .map(|r| (r.at, r.conn, r.line))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        let reqs = run(5);
        assert!(reqs.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by time");
        // About 150 queries/s over 4 s of warm-up + open loop.
        let queries = reqs.iter().filter(|r| r.1 == 0).count();
        assert!((450..750).contains(&queries), "{queries} queries");
        let deltas = reqs.iter().filter(|r| r.1 == 1).count();
        assert_eq!(deltas, 20, "one delta per 250 ms over 5 s");
    }
}
