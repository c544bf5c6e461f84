//! The serving workloads: the real framed server (`serve_framed`) runs
//! in-process on a unix socket, and a load generator in the same process
//! drives it over that socket with two threads and two connections.
//!
//! The sender thread sends every scheduled frame at its intended time.
//! The receiver thread waits on the server crate's own `Poller`, checks
//! every reply, and keeps the closed loop going by sending the next query
//! on a connection as soon as its previous answer arrives. Replies on one
//! connection come back in request order, so each connection keeps a
//! FIFO of the replies it is waiting for.

use crate::inputs::{
    check_graph, check_schedule, DeltaStream, Kind, Phase, Plan, Request, Rng, Workload, DELTA, MIX,
};
use crate::stats::{median, median_rate, Samples};
use crate::{check_seeds, ms, Checks, Metric, Outcome};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use subsim_core::coverage::{greedy_max_coverage, GreedyConfig};
use subsim_delta::{
    DeltaIndex, GraphDelta, NullSink, RepairReport, ServeError, ServeEvent, ServeIndex, ServeSink,
    VersionedGraph,
};
use subsim_diffusion::{RrCollection, RrStrategy};
use subsim_graph::{Graph, NodeId};
use subsim_index::{
    graph_fingerprint, ConcurrentRrIndex, IndexConfig, MetricsSnapshot, QueryAnswer, QueryStats,
    TenantMetrics,
};
use subsim_serve::net::sys::{Interest, PollEvent, Poller};
use subsim_serve::{
    encode_frame, serve_framed, FrameDecoder, FrameItem, Listener, ServerConfig, ServerReport,
    ShardedDeltaIndex,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Worker threads of the framed server.
const SERVER_WORKERS: usize = 2;
/// Top-up (and selection-prep) threads of each index.
const INDEX_THREADS: usize = 2;
/// Shards of `read-write`'s index.
const SHARDS: usize = 2;
/// How long a drive may wait for its last replies before the run is
/// abandoned as hung.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Directory, relative to the working directory, holding the sockets.
const SOCKET_DIR: &str = ".bench_tmp";

fn warm_read_config() -> IndexConfig {
    IndexConfig::new(RrStrategy::SubsimIc)
        .seed(11)
        .threads(INDEX_THREADS)
}

fn read_write_config() -> IndexConfig {
    IndexConfig::new(RrStrategy::SubsimIc)
        .seed(12)
        .threads(INDEX_THREADS)
        .chunk_size(64)
        .sketch(6)
}

/// What the benchmark reads from a served index besides [`ServeIndex`].
trait Served: ServeIndex {
    fn metrics(&self) -> MetricsSnapshot;
    /// The selection half `R₁` of the current pool.
    fn selection_pool(&self) -> RrCollection;
    /// The graph the pool is sampled from, as the index stores it.
    fn sampled_graph(&self) -> Graph;
    /// Register precision of the sketched validation pool (0: exact),
    /// which the error-adaptive ladder may have raised while serving.
    fn sketch_precision(&self) -> usize;
}

impl Served for ConcurrentRrIndex<'_> {
    fn metrics(&self) -> MetricsSnapshot {
        ConcurrentRrIndex::metrics(self)
    }

    fn selection_pool(&self) -> RrCollection {
        self.load().selection_pool().clone()
    }

    fn sampled_graph(&self) -> Graph {
        self.graph().clone()
    }

    fn sketch_precision(&self) -> usize {
        self.load()
            .sketch_state()
            .map_or(0, |s| s.precision() as usize)
    }
}

impl Served for ShardedDeltaIndex {
    fn metrics(&self) -> MetricsSnapshot {
        ShardedDeltaIndex::metrics(self)
    }

    fn selection_pool(&self) -> RrCollection {
        self.load().union_pools(self.config().chunk_size).0
    }

    fn sampled_graph(&self) -> Graph {
        self.load().graph().clone()
    }

    fn sketch_precision(&self) -> usize {
        self.load()
            .shard(0)
            .sketch_state()
            .map_or(0, |s| s.precision() as usize)
    }
}

/// Seeds per `(k, ε bits)`.
type Reference = HashMap<(usize, u64), Vec<NodeId>>;

/// Answers every query of [`MIX`] in passes until a whole pass generates
/// no RR set, so the pool is warm before timing. Returns the last pass's
/// seeds per `(k, ε)`.
fn warm_pool<I: ServeIndex>(index: &I) -> Result<Reference, String> {
    for _ in 0..16 {
        let mut fresh = 0;
        let mut answers = Reference::new();
        for &(k, eps) in &MIX {
            let a = index
                .run_query(k, eps, DELTA, None)
                .map_err(|e| format!("warming query {k} {eps}: {e}"))?;
            fresh += a.stats.fresh_sets;
            answers.insert((k, eps.to_bits()), a.seeds);
        }
        if fresh == 0 {
            return Ok(answers);
        }
    }
    Err("the pool did not settle after 16 warming passes".into())
}

/// Set-up timings of one run.
#[derive(Default)]
struct Setup {
    graph_s: Vec<f64>,
    setup_s: Vec<f64>,
}

/// Runs a serving workload for `seconds` of measurement.
///
/// One set-up is the graph build, the index construction and the warming
/// passes; it runs [`SETUPS`] times and the last one is served.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let g0 = w.graph();
    check_graph(w, &g0)?;
    check_schedule(w, &g0)?;
    let mut setup = Setup::default();
    match w {
        Workload::WarmRead => {
            for _ in 1..SETUPS {
                let start = Instant::now();
                let g = w.graph();
                setup.graph_s.push(start.elapsed().as_secs_f64());
                warm_pool(&ConcurrentRrIndex::new(&g, warm_read_config()))?;
                setup.setup_s.push(start.elapsed().as_secs_f64());
            }
            let start = Instant::now();
            let g = w.graph();
            setup.graph_s.push(start.elapsed().as_secs_f64());
            let index = ConcurrentRrIndex::new(&g, warm_read_config());
            let reference = warm_pool(&index)?;
            setup.setup_s.push(start.elapsed().as_secs_f64());
            measure(
                w,
                seed,
                seconds,
                trace,
                &g0,
                setup,
                Some(&reference),
                &index,
            )
        }
        Workload::ReadWrite => {
            let mut kept = None;
            for _ in 0..SETUPS {
                // One index alive at a time, as in the workload itself.
                drop(kept.take());
                let start = Instant::now();
                let g = w.graph();
                setup.graph_s.push(start.elapsed().as_secs_f64());
                let index = ShardedDeltaIndex::new(g, read_write_config(), SHARDS)
                    .map_err(|e| e.to_string())?;
                warm_pool(&index)?;
                // One doubling past the size every query needs, so that a
                // delta does not tip a query into growing the pool mid-run
                // (the pool size, and with it the cost of every later read,
                // would then depend on the seed's delta stream).
                index
                    .warm(2 * index.load().pool_len())
                    .map_err(|e| e.to_string())?;
                warm_pool(&index)?;
                setup.setup_s.push(start.elapsed().as_secs_f64());
                kept = Some(index);
            }
            let index = kept.expect("at least one set-up");
            measure(w, seed, seconds, trace, &g0, setup, None, &index)
        }
        _ => unreachable!("{} is not a serving workload", w.name()),
    }
}

#[allow(clippy::too_many_arguments)]
fn measure<I: Served>(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    g0: &Graph,
    setup: Setup,
    reference: Option<&Reference>,
    index: &I,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(w);
    let mut deltas = DeltaStream::new(g0, seed);
    let mut sent_ops = Vec::new();
    let sockets = SocketDir::create()?;
    // A traced run splits its time between an untraced drive and a
    // traced drive of the same load, and reports the ratio.
    let plan = Plan::new(if trace { seconds / 2.0 } else { seconds });

    let requests = plan.timed_requests(w, seed, 0, &mut deltas);
    sent_ops.extend(delta_ops(&requests));
    let before = index.metrics();
    let plain = drive(
        index,
        &NullSink,
        Drive {
            w,
            plan,
            requests,
            closed_mix: Rng::new(seed, 0x636c_6f73 /* "clos" */),
            n: g0.n(),
            reference,
            next_version: 1,
            socket: sockets.socket(0),
        },
    )?;
    check_pool_unchanged(w, &before, &index.metrics(), &mut outcome.checks);
    outcome.checks.merge(&plain.checks);
    let peak_rss_mb = crate::peak_rss_mb()?;
    outcome.end_to_end = vec![
        Metric::new("setup_s", median(&setup.setup_s), "s", setup.setup_s.len()),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
        Metric::new(
            "answer_p50_ms",
            plain.open.percentile(500),
            "ms",
            plain.open.len(),
        ),
        Metric::new(
            "answers_per_s",
            median_rate(&plain.closed_spans, plan.closed.as_secs_f64()),
            "1/s",
            plain.closed.len(),
        ),
    ];
    plain.notes("", &mut outcome.notes);
    let pool = index.selection_pool().len();
    outcome
        .notes
        .push(Metric::new("index.pool_sets", pool as f64, "count", 1));

    if trace {
        let traced_index = Traced::new(index);
        let recorder = Recorder::default();
        let requests = plan.timed_requests(w, seed, 1, &mut deltas);
        sent_ops.extend(delta_ops(&requests));
        let before = index.metrics();
        let traced = drive(
            &traced_index,
            &recorder,
            Drive {
                w,
                plan,
                requests,
                closed_mix: Rng::new(seed, 0x636c_6f74 /* "clot" */),
                n: g0.n(),
                reference,
                next_version: plain.next_version,
                socket: sockets.socket(1),
            },
        )?;
        let after = index.metrics();
        check_pool_unchanged(w, &before, &after, &mut outcome.checks);
        outcome.checks.merge(&traced.checks);
        traced.notes("traced.", &mut outcome.notes);
        let span = Layers {
            w,
            setup: &setup,
            traced_index: &traced_index,
            recorder: &recorder,
            plain: &plain,
            traced: &traced,
            before: &before,
            after: &after,
        };
        span.report(index, &mut outcome);
    }
    drop(sockets);

    if w == Workload::ReadWrite {
        outcome
            .checks
            .record(check_final_pool(index, g0, &sent_ops));
    }
    Ok(outcome)
}

fn delta_ops(requests: &[Request]) -> impl Iterator<Item = String> + '_ {
    requests
        .iter()
        .filter_map(|r| r.line.strip_prefix("delta ").map(str::to_owned))
}

/// `warm-read` serves every answer from the pool set up before timing:
/// no query may generate an RR set.
fn check_pool_unchanged(
    w: Workload,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    checks: &mut Checks,
) {
    if w == Workload::WarmRead {
        let fresh = after.fresh_sets - before.fresh_sets;
        checks.record(if fresh == 0 {
            Ok(())
        } else {
            Err(format!("warm-read generated {fresh} RR sets while serving"))
        });
    }
}

/// After the run, the served pool must answer every query of [`MIX`]
/// exactly as a fresh sequential `DeltaIndex` does when it is built on the
/// final graph and warmed to the served pool size: same seeds, same
/// bounds.
fn check_final_pool<I: Served>(index: &I, g0: &Graph, ops: &[String]) -> Result<(), String> {
    let mut vg = VersionedGraph::new(g0.clone()).map_err(|e| e.to_string())?;
    for op in ops {
        let parsed = GraphDelta::parse_line(op)
            .map_err(|e| format!("{op}: {e}"))?
            .ok_or_else(|| format!("{op}: empty op"))?;
        let mut d = GraphDelta::new();
        d.push(parsed);
        vg.apply(&d).map_err(|e| format!("replaying {op}: {e}"))?;
    }
    if graph_fingerprint(&index.sampled_graph()) != vg.fingerprint() {
        return Err("the served graph differs from the replayed delta stream".into());
    }
    let pool = index.selection_pool().len();
    let config = read_write_config().sketch(index.sketch_precision());
    let mut fresh = DeltaIndex::from_versioned(vg, config);
    fresh.warm(pool).map_err(|e| e.to_string())?;
    for &(k, eps) in &MIX {
        let a = index
            .run_query(k, eps, DELTA, None)
            .map_err(|e| e.to_string())?;
        let b = fresh.query(k, eps, DELTA).map_err(|e| e.to_string())?;
        if a.seeds != b.seeds
            || a.stats.lower_bound != b.stats.lower_bound
            || a.stats.upper_bound != b.stats.upper_bound
        {
            return Err(format!(
                "query {k} {eps}: the served answer differs from a fresh sequential index"
            ));
        }
    }
    Ok(())
}

/// A unique directory for this process's sockets, removed on drop.
struct SocketDir(PathBuf);

impl SocketDir {
    fn create() -> Result<SocketDir, String> {
        let dir = Path::new(SOCKET_DIR).join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(SocketDir(dir))
    }

    fn socket(&self, drive: u64) -> PathBuf {
        self.0.join(format!("{drive}.sock"))
    }
}

impl Drop for SocketDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only when no other run is using the parent.
        let _ = std::fs::remove_dir(SOCKET_DIR);
    }
}

/// The index seen through a timing wrapper: every call into the index
/// layer is timed from outside it.
struct Traced<'a, I> {
    inner: &'a I,
    /// `(start, ms)` per `run_query`.
    calls: Mutex<Vec<(Instant, f64)>>,
    /// ms per `apply_delta_line`.
    repairs: Mutex<Samples>,
}

impl<'a, I> Traced<'a, I> {
    fn new(inner: &'a I) -> Self {
        Traced {
            inner,
            calls: Mutex::new(Vec::new()),
            repairs: Mutex::new(Samples::default()),
        }
    }
}

impl<I: ServeIndex> ServeIndex for Traced<'_, I> {
    fn run_query(
        &self,
        k: usize,
        epsilon: f64,
        delta: f64,
        pin: Option<u64>,
    ) -> Result<QueryAnswer, ServeError> {
        let start = Instant::now();
        let answer = self.inner.run_query(k, epsilon, delta, pin);
        let took = ms(start.elapsed());
        self.calls
            .lock()
            .expect("trace lock poisoned")
            .push((start, took));
        answer
    }

    fn apply_delta_line(&self, op: &str) -> Result<RepairReport, ServeError> {
        let start = Instant::now();
        let report = self.inner.apply_delta_line(op);
        let took = ms(start.elapsed());
        self.repairs.lock().expect("trace lock poisoned").push(took);
        report
    }

    fn version(&self) -> Option<u64> {
        self.inner.version()
    }
}

/// Keeps the `QueryStats` and `RepairReport` the server reports.
#[derive(Default)]
struct Recorder {
    queries: Mutex<Vec<QueryStats>>,
    repairs: Mutex<Vec<RepairReport>>,
}

impl ServeSink for Recorder {
    fn event(&self, event: ServeEvent) {
        match event {
            ServeEvent::Answered { stats, .. } => self
                .queries
                .lock()
                .expect("trace lock poisoned")
                .push(*stats),
            ServeEvent::DeltaApplied { report, .. } => self
                .repairs
                .lock()
                .expect("trace lock poisoned")
                .push(*report),
            _ => {}
        }
    }
}

/// One server lifetime under one load.
struct Drive<'a> {
    w: Workload,
    plan: Plan,
    requests: Vec<Request>,
    closed_mix: Rng,
    n: usize,
    reference: Option<&'a Reference>,
    /// Version the next delta ack must carry.
    next_version: u64,
    socket: PathBuf,
}

impl Drive<'_> {
    fn tenants(&self) -> [&'static str; 2] {
        match self.w {
            Workload::WarmRead => ["a", "b"],
            _ => ["reader", "writer"],
        }
    }

    /// Connections of the closed loop's outstanding queries: two on each
    /// connection for `warm-read`; four on `reader` for `read-write`,
    /// whose `writer` keeps its delta rate. Two per server worker keep
    /// both workers busy while the receiver turns an answer into the next
    /// query; with one per worker, they idle through that turnaround and
    /// the loop measures the client as much as the server.
    fn closed_conns(&self) -> [usize; 4] {
        match self.w {
            Workload::WarmRead => [0, 0, 1, 1],
            _ => [0, 0, 0, 0],
        }
    }
}

/// Replies per phase.
#[derive(Debug, Default, Clone, Copy)]
struct Count {
    succeeded: u64,
    failed: u64,
}

/// What one drive measured.
#[derive(Default)]
struct DriveResult {
    /// Open-loop query latency from the intended send time, ms.
    open: Samples,
    /// Closed-loop query latency of answers inside the phase, ms.
    closed: Samples,
    /// `(sent, answered)` of every closed-loop query, in seconds from the
    /// start of the closed loop.
    closed_spans: Vec<(f64, f64)>,
    /// Delta ack latency from the intended send time in measured phases.
    acks: Samples,
    /// Σ delta ack latency over the whole drive, ms.
    all_acks_ms: f64,
    /// How late the sender sent each open-loop frame, ms.
    late: Samples,
    counts: [Count; 3],
    checks: Checks,
    next_version: u64,
    report: ServerReport,
    /// The open phase, as instants.
    open_window: Option<(Instant, Instant)>,
}

impl DriveResult {
    fn notes(&self, prefix: &str, notes: &mut Vec<Metric>) {
        let note = |notes: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str, n| {
            notes.push(Metric::new(format!("{prefix}{name}"), value, unit, n));
        };
        let tail = |notes: &mut Vec<Metric>, stem: &str, samples: &Samples| {
            if let Some(mut m) = crate::tail_note(stem, samples) {
                m.name = format!("{prefix}{}", m.name);
                notes.push(m);
            }
        };
        tail(notes, "answer", &self.open);
        note(
            notes,
            "closed.answer_p50_ms",
            self.closed.percentile(500),
            "ms",
            self.closed.len(),
        );
        tail(notes, "closed.answer", &self.closed);
        note(
            notes,
            "load.late_p50_ms",
            self.late.percentile(500),
            "ms",
            self.late.len(),
        );
        tail(notes, "load.late", &self.late);
        if self.acks.len() > 0 {
            note(
                notes,
                "delta.ack_p50_ms",
                self.acks.percentile(500),
                "ms",
                self.acks.len(),
            );
            tail(notes, "delta.ack", &self.acks);
        }
        for (phase, count) in ["warmup", "open", "closed"].iter().zip(&self.counts) {
            let sent = count.succeeded + count.failed;
            note(notes, &format!("{phase}.sent"), sent as f64, "count", 1);
            note(
                notes,
                &format!("{phase}.succeeded"),
                count.succeeded as f64,
                "count",
                1,
            );
            note(
                notes,
                &format!("{phase}.failed"),
                count.failed as f64,
                "count",
                1,
            );
        }
    }
}

/// Starts the framed server on `d.socket`, drives it through warm-up,
/// open loop and closed loop, shuts it down and returns what the client
/// saw.
fn drive<I: ServeIndex, S: ServeSink>(
    index: &I,
    sink: &S,
    d: Drive<'_>,
) -> Result<DriveResult, String> {
    let (listener, _guard) = Listener::bind_unix(&d.socket)
        .map_err(|e| format!("binding {}: {e}", d.socket.display()))?;
    let config = ServerConfig {
        workers: SERVER_WORKERS,
        ..ServerConfig::default()
    };
    let tenants = TenantMetrics::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_framed(index, vec![listener], &config, &tenants, sink));
        let load = generate_load(&d);
        if load.is_err() {
            // Let the server end even though the load did not.
            let _ =
                UnixStream::connect(&d.socket).and_then(|s| write_frames(&s, &["shutdown".into()]));
        }
        let report = server
            .join()
            .expect("server thread panicked")
            .map_err(|e| format!("framed server: {e}"))?;
        let mut result = load?;
        result.report = report;
        Ok(result)
    })
}

/// A reply a connection is waiting for.
struct Pending {
    intended: Instant,
    expect: Expect,
    phase: Phase,
}

#[derive(Debug, Clone, Copy)]
enum Expect {
    Tenant,
    Shutdown,
    Request(Kind),
}

/// State shared by the sender and the receiver.
struct Shared<'a> {
    pending: [Mutex<VecDeque<Pending>>; 2],
    closed_mix: Mutex<Rng>,
    closed_start: Instant,
    closed_end: Instant,
    d: &'a Drive<'a>,
}

impl Shared<'_> {
    /// Queues `pending` and writes the matching frames in one write, so
    /// the receiver always finds the entry a reply belongs to.
    fn send(
        &self,
        stream: &UnixStream,
        conn: usize,
        pending: Vec<Pending>,
        lines: &[String],
    ) -> std::io::Result<()> {
        self.pending[conn]
            .lock()
            .expect("pending lock poisoned")
            .extend(pending);
        write_frames(stream, lines)
    }

    fn next_closed_query(&self, phase_start: Instant) -> (Pending, String) {
        let (k, eps) = self.closed_mix.lock().expect("mix lock poisoned").query();
        (
            Pending {
                intended: phase_start,
                expect: Expect::Request(Kind::Query { k, eps }),
                phase: Phase::Closed,
            },
            format!("{k} {eps}"),
        )
    }

    fn outstanding(&self) -> usize {
        self.pending
            .iter()
            .map(|p| p.lock().expect("pending lock poisoned").len())
            .sum()
    }
}

fn write_frames(stream: &UnixStream, lines: &[String]) -> std::io::Result<()> {
    let mut buf = Vec::new();
    for line in lines {
        encode_frame(line, &mut buf);
    }
    let mut s = stream;
    s.write_all(&buf)
}

/// Sleeps until `due`, spinning through the last stretch because a
/// sleeping thread wakes up to a millisecond late.
fn sleep_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The sender (this thread) and the receiver (one spawned thread).
fn generate_load(d: &Drive<'_>) -> Result<DriveResult, String> {
    let connect = || UnixStream::connect(&d.socket).map_err(|e| format!("connecting: {e}"));
    let streams = [connect()?, connect()?];
    let readers = [
        streams[0].try_clone().map_err(|e| e.to_string())?,
        streams[1].try_clone().map_err(|e| e.to_string())?,
    ];
    // Leave the receiver a moment to start before the first frame is due.
    let t0 = Instant::now() + Duration::from_millis(20);
    let shared = Shared {
        pending: [Mutex::new(VecDeque::new()), Mutex::new(VecDeque::new())],
        closed_mix: Mutex::new(d.closed_mix.clone()),
        closed_start: t0 + d.plan.closed_start(),
        closed_end: t0 + d.plan.end(),
        d,
    };
    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(&shared, readers));
        let sent = send_schedule(&shared, &streams, t0);
        // Always end the server, so the receiver sees both connections
        // close and returns.
        let shutdown = Pending {
            intended: Instant::now(),
            expect: Expect::Shutdown,
            phase: Phase::Warmup,
        };
        let closed = shared.send(&streams[0], 0, vec![shutdown], &["shutdown".into()]);
        if sent.is_err() {
            // A server that stopped answering may never close these
            // connections; close them from this side so the receiver ends.
            for s in &streams {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        let mut result = receiver.join().expect("receiver thread panicked");
        let (late, open_window) = sent?;
        closed.map_err(|e| format!("sending shutdown: {e}"))?;
        result.late = late;
        result.open_window = Some(open_window);
        if shared.outstanding() > 0 {
            result.checks.record(Err(format!(
                "{} requests never answered",
                shared.outstanding()
            )));
        }
        Ok(result)
    })
}

/// Sends tenant tags, the timed schedule and the closed loop's first
/// queries, then waits for every reply. Returns the sender's lateness and
/// the open phase's window.
fn send_schedule(
    shared: &Shared<'_>,
    streams: &[UnixStream; 2],
    t0: Instant,
) -> Result<(Samples, (Instant, Instant)), String> {
    let d = shared.d;
    let io = |e: std::io::Error| format!("sending: {e}");
    for (conn, tenant) in d.tenants().iter().enumerate() {
        let tag = Pending {
            intended: Instant::now(),
            expect: Expect::Tenant,
            phase: Phase::Warmup,
        };
        shared
            .send(
                &streams[conn],
                conn,
                vec![tag],
                &[format!("tenant {tenant}")],
            )
            .map_err(io)?;
    }
    let closed_start = shared.closed_start;
    let mut late = Samples::default();
    let mut closed_started = false;
    for req in &d.requests {
        let due = t0 + req.at;
        if !closed_started && due >= closed_start {
            start_closed_loop(shared, streams, closed_start).map_err(io)?;
            closed_started = true;
        }
        sleep_until(due);
        if req.phase == Phase::Open {
            late.push(ms(due.elapsed()));
        }
        let pending = Pending {
            intended: due,
            expect: Expect::Request(req.kind),
            phase: req.phase,
        };
        shared
            .send(
                &streams[req.conn],
                req.conn,
                vec![pending],
                std::slice::from_ref(&req.line),
            )
            .map_err(io)?;
    }
    if !closed_started {
        start_closed_loop(shared, streams, closed_start).map_err(io)?;
    }
    sleep_until(shared.closed_end);
    let deadline = Instant::now() + DRAIN_LIMIT;
    while shared.outstanding() > 0 {
        if Instant::now() > deadline {
            return Err(format!(
                "the server stopped answering: {} requests outstanding after {:?}",
                shared.outstanding(),
                DRAIN_LIMIT
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((late, (t0 + d.plan.warmup, closed_start)))
}

/// Puts the closed loop's first queries in flight, one write per
/// connection.
fn start_closed_loop(
    shared: &Shared<'_>,
    streams: &[UnixStream; 2],
    start: Instant,
) -> std::io::Result<()> {
    sleep_until(start);
    for (conn, stream) in streams.iter().enumerate() {
        let (pending, lines): (Vec<Pending>, Vec<String>) = shared
            .d
            .closed_conns()
            .iter()
            .filter(|&&c| c == conn)
            .map(|_| shared.next_closed_query(start))
            .unzip();
        if !lines.is_empty() {
            shared.send(stream, conn, pending, &lines)?;
        }
    }
    Ok(())
}

/// The receiver: reads replies until the server closes both
/// connections, checks each one, and refills the closed loop.
fn receive(shared: &Shared<'_>, streams: [UnixStream; 2]) -> DriveResult {
    let mut out = DriveResult {
        next_version: shared.d.next_version,
        ..DriveResult::default()
    };
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            out.checks.record(Err(format!("poller: {e}")));
            return out;
        }
    };
    for (i, s) in streams.iter().enumerate() {
        if let Err(e) = poller.register(s.as_raw_fd(), i as u64, Interest::READ) {
            out.checks.record(Err(format!("poller: {e}")));
            return out;
        }
    }
    let mut decoders = [FrameDecoder::new(1 << 20), FrameDecoder::new(1 << 20)];
    let mut open = [true, true];
    let mut events: Vec<PollEvent> = Vec::new();
    let mut items = Vec::new();
    let mut buf = vec![0u8; 64 << 10];
    while open[0] || open[1] {
        if let Err(e) = poller.wait(&mut events, 8) {
            out.checks.record(Err(format!("poller: {e}")));
            return out;
        }
        for ev in &events {
            let i = ev.token as usize;
            if !open[i] {
                continue;
            }
            // Level-triggered readiness: one read cannot block, and
            // whatever is left is reported again.
            match (&streams[i]).read(&mut buf) {
                Ok(0) => {
                    open[i] = false;
                    let _ = poller.deregister(streams[i].as_raw_fd());
                }
                Ok(n) => {
                    decoders[i].push(&buf[..n], &mut items);
                    let now = Instant::now();
                    for item in items.drain(..) {
                        on_reply(shared, &streams[i], i, item, now, &mut out);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    out.checks.record(Err(format!("reading replies: {e}")));
                    open[i] = false;
                    let _ = poller.deregister(streams[i].as_raw_fd());
                }
            }
        }
    }
    out
}

fn on_reply(
    shared: &Shared<'_>,
    stream: &UnixStream,
    conn: usize,
    item: FrameItem,
    now: Instant,
    out: &mut DriveResult,
) {
    let FrameItem::Line(line) = item else {
        out.checks
            .record(Err(format!("malformed reply frame: {item:?}")));
        return;
    };
    // The closed loop's next query is queued under the same lock that
    // takes this reply's entry off, so the sender never sees the queue
    // empty while the loop is still running.
    let (pending, refill) = {
        let mut queue = shared.pending[conn].lock().expect("pending lock poisoned");
        let Some(pending) = queue.pop_front() else {
            out.checks
                .record(Err(format!("reply without a request: {line}")));
            return;
        };
        let closed_query = pending.phase == Phase::Closed
            && matches!(pending.expect, Expect::Request(Kind::Query { .. }));
        let refill = (closed_query && now <= shared.closed_end).then(|| {
            let (next, line) = shared.next_closed_query(now);
            queue.push_back(next);
            line
        });
        (pending, refill)
    };
    if let Some(next) = refill {
        if let Err(e) = write_frames(stream, &[next]) {
            out.checks.record(Err(format!("closed loop: {e}")));
        }
    }
    let latency = ms(now.saturating_duration_since(pending.intended));
    let phase = pending.phase as usize;
    match pending.expect {
        Expect::Tenant => out.checks.record(expect_prefix(&line, "ok tenant ")),
        Expect::Shutdown => out.checks.record(expect_prefix(&line, "ok shutdown")),
        Expect::Request(Kind::Query { k, eps }) => {
            let verdict = check_answer(&line, k, eps, shared.d);
            tally(&mut out.counts[phase], &verdict);
            out.checks.record(verdict);
            match pending.phase {
                Phase::Open => out.open.push(latency),
                Phase::Closed => {
                    let from_start = |t: Instant| {
                        t.saturating_duration_since(shared.closed_start)
                            .as_secs_f64()
                    };
                    out.closed_spans
                        .push((from_start(pending.intended), from_start(now)));
                    if now <= shared.closed_end {
                        out.closed.push(latency);
                    }
                }
                _ => {}
            }
        }
        Expect::Request(Kind::Delta) => {
            let want = format!("ok delta v{}", out.next_version);
            let verdict = if line == want {
                Ok(())
            } else {
                Err(format!("delta ack {line:?}, expected {want:?}"))
            };
            out.next_version += 1;
            tally(&mut out.counts[phase], &verdict);
            out.checks.record(verdict);
            out.all_acks_ms += latency;
            if pending.phase != Phase::Warmup {
                out.acks.push(latency);
            }
        }
    }
}

fn tally(count: &mut Count, verdict: &Result<(), String>) {
    if verdict.is_ok() {
        count.succeeded += 1;
    } else {
        count.failed += 1;
    }
}

fn expect_prefix(line: &str, prefix: &str) -> Result<(), String> {
    if line.starts_with(prefix) {
        Ok(())
    } else {
        Err(format!("reply {line:?}, expected {prefix:?}"))
    }
}

/// A query reply must be `k` distinct ids below `n`, and on `warm-read`
/// exactly the answer computed for the same `(k, ε)` at set-up.
fn check_answer(line: &str, k: usize, eps: f64, d: &Drive<'_>) -> Result<(), String> {
    let seeds: Vec<NodeId> = line
        .split_whitespace()
        .map(|t| t.parse::<NodeId>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("query {k} {eps}: reply {line:?}"))?;
    check_seeds(&seeds, k, d.n)?;
    if let Some(reference) = d.reference {
        if reference.get(&(k, eps.to_bits())) != Some(&seeds) {
            return Err(format!(
                "query {k} {eps}: answer differs from the set-up reference"
            ));
        }
    }
    Ok(())
}

/// The per-layer split, from the traced drive.
struct Layers<'a, I> {
    w: Workload,
    setup: &'a Setup,
    traced_index: &'a Traced<'a, I>,
    recorder: &'a Recorder,
    plain: &'a DriveResult,
    traced: &'a DriveResult,
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
}

impl<I: Served> Layers<'_, I> {
    /// Fills `outcome.per_layer` with the metrics every workload has, and
    /// adds the serve, index and delta numbers as printed lines.
    fn report(&self, index: &I, outcome: &mut Outcome) {
        let g = index.sampled_graph();
        let pool = index.selection_pool();
        let diffusion = crate::DiffusionTimes::measure(&g, RrStrategy::SubsimIc);
        let greedy_ms = crate::median_ms(3, || {
            greedy_max_coverage(
                &pool,
                &GreedyConfig::standard(50).with_threads(INDEX_THREADS),
            );
        });
        let mut calls = Samples::default();
        if let Some((from, to)) = self.traced.open_window {
            let all = self.traced_index.calls.lock().expect("trace lock poisoned");
            for &(_, took) in all.iter().filter(|(start, _)| (from..to).contains(start)) {
                calls.push(took);
            }
        }
        let stats = self.recorder.queries.lock().expect("trace lock poisoned");
        let (b, a) = (self.before, self.after);
        let per_answer =
            |f: &dyn Fn(&QueryStats) -> f64| share(stats.iter().map(f).sum(), stats.len() as f64);
        let answered = stats.len();
        outcome.per_layer = vec![
            Metric::new(
                "graph.build_s",
                median(&self.setup.graph_s),
                "s",
                self.setup.graph_s.len(),
            ),
            Metric::new(
                "diffusion.sampler_build_ms",
                diffusion.sampler_build_ms,
                "ms",
                3,
            ),
            Metric::new("diffusion.set_us", diffusion.set_us, "us", diffusion.sets),
            Metric::new(
                "diffusion.avg_rr_size",
                pool.avg_size(),
                "nodes",
                pool.len(),
            ),
            Metric::new("core.greedy_ms", greedy_ms, "ms", 3),
            Metric::new(
                "core.rr_sets_per_answer",
                per_answer(&|s| 2.0 * s.pool_after as f64),
                "count",
                answered,
            ),
            Metric::new("lib.call_p50_ms", calls.percentile(500), "ms", calls.len()),
        ];

        let notes = &mut outcome.notes;
        notes.extend([
            Metric::new(
                "core.select_share",
                share(
                    (a.selection_time_ns - b.selection_time_ns) as f64,
                    (a.query_time_ns - b.query_time_ns) as f64,
                ),
                "ratio",
                answered,
            ),
            Metric::new(
                "serve.outside_ms",
                self.traced.open.mean() - calls.mean(),
                "ms",
                calls.len(),
            ),
            Metric::new("serve.frames", self.traced.report.frames as f64, "count", 1),
            Metric::new(
                "serve.replies",
                self.traced.report.replies as f64,
                "count",
                1,
            ),
            Metric::new(
                "index.rounds_per_query",
                per_answer(&|s| s.rounds as f64),
                "count",
                answered,
            ),
            Metric::new(
                "index.cache_hit_ratio",
                share(
                    (a.reused_sets - b.reused_sets) as f64,
                    (a.sets_consumed - b.sets_consumed) as f64,
                ),
                "ratio",
                answered,
            ),
            Metric::new(
                "trace.overhead_ratio",
                share(
                    self.traced.open.percentile(500),
                    self.plain.open.percentile(500),
                ),
                "ratio",
                self.traced.open.len(),
            ),
        ]);
        if self.w != Workload::ReadWrite {
            // `warm-read` checks that its pool neither grows nor changes.
            return;
        }
        let repair_ms = self
            .traced_index
            .repairs
            .lock()
            .expect("trace lock poisoned");
        let repairs = self.recorder.repairs.lock().expect("trace lock poisoned");
        notes.extend([
            Metric::new(
                "index.fresh_sets",
                (a.fresh_sets - b.fresh_sets) as f64,
                "count",
                answered,
            ),
            Metric::new(
                "index.snapshot_publishes",
                (a.snapshot_publishes - b.snapshot_publishes) as f64,
                "count",
                1,
            ),
            Metric::new(
                "delta.repair_p50_ms",
                repair_ms.percentile(500),
                "ms",
                repair_ms.len(),
            ),
            Metric::new(
                "delta.repair_fraction",
                share(
                    repairs.iter().map(RepairReport::repair_fraction).sum(),
                    repairs.len() as f64,
                ),
                "ratio",
                repairs.len(),
            ),
            Metric::new(
                "delta.dirty_share",
                share(
                    repairs
                        .iter()
                        .map(|r| (r.dirty_sets_r1 + r.dirty_sets_r2) as f64)
                        .sum(),
                    repairs.iter().map(|r| r.regenerated_sets as f64).sum(),
                ),
                "ratio",
                repairs.len(),
            ),
            Metric::new(
                "delta.wait_share",
                share(
                    self.traced.all_acks_ms - repair_ms.sum(),
                    self.traced.all_acks_ms,
                ),
                "ratio",
                repairs.len(),
            ),
        ]);
        notes.extend(crate::tail_note("delta.repair", &repair_ms));
    }
}

/// `a / b`, or 0 when `b` is 0.
fn share(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
