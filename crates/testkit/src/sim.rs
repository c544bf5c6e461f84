//! Deterministic simulation of the serving path.
//!
//! A single `u64` seed expands into a full serving **script** — an
//! interleaving of influence queries, version-pinned queries (some
//! deliberately stale), graph delta ops, and malformed lines — via
//! [`generate_script`]. The script then drives two independent
//! executions, both configured by one [`Sim`] (index config, pre-serving
//! warmup, shard count):
//!
//! - [`run_serving`] feeds it through the *real* serving stack:
//!   [`subsim_delta::serve_queries`] over a [`ShardedDeltaIndex`] with
//!   `sim.shards` shards, with reader, worker, and collector threads
//!   exactly as the CLI runs them (one query worker, so answers are a
//!   pure function of the script — delta lines are already a barrier in
//!   the loop). One shard is the CLI's `--delta-stream` server.
//! - [`run_model`] replays the same lines against the plain sequential
//!   [`DeltaIndex`] — the model whose semantics the serving stack
//!   promises to match bit-for-bit at every shard count.
//!
//! Both produce a [`SimOutcome`]: one canonical record per script line
//! (`ok <seeds>`, `applied v<version> regen=<sets>`, `stale ...`,
//! `malformed`, ...). [`check_seed`] asserts the two outcomes are equal
//! and reports the seed plus the first diverging line on failure, so any
//! counterexample replays bit-identically from the printed seed.
//!
//! Every generated line is textually unique (ε and p carry a per-step
//! jitter in their last digits), which is what lets the serving run's
//! events be re-associated with script lines unambiguously.
//!
//! [`run_sessions`] model-checks the per-connection
//! [`subsim_delta::Session`] that every transport pumps, below any
//! threads or sockets: a seeded scheduler interleaves several sessions'
//! inputs ([`generate_session`]: script lines salted with framing faults)
//! and delivers job completions in a permuted order, and each session's
//! replies must equal the sequential model's records.

use rand::Rng;
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;
use subsim_delta::{
    execute, parse_query, seed_line, serve_queries, DeltaError, DeltaIndex, Done, FrameViolation,
    GraphDelta, JobKind, LineError, RepairReport, Reply, ServeError, ServeEvent, ServeIndex,
    ServeSink, Session, DEFERRED_CAP,
};
use subsim_diffusion::RrStrategy;
use subsim_graph::{Graph, NodeId};
use subsim_index::{IndexConfig, QueryAnswer};
use subsim_serve::ShardedDeltaIndex;

/// The `δ` every simulated query uses.
const SIM_DELTA: f64 = 0.1;

/// Sets every sentinel-enabled run pre-grows to before serving: past
/// the 4-chunk warmup boundary, so the sentinel tier is active (and
/// identically selected on every stack) before the first scripted line.
const SENTINEL_WARM_SETS: usize = 320;

/// Sets every sketch-enabled run pre-grows to before serving, so the
/// first scripted query certifies (or ladders) from a populated sketch
/// rather than growing from zero.
const SKETCH_WARM_SETS: usize = 320;

/// One simulated serving setup, shared by the serving run and the model.
///
/// The pool must be a pure function of its size for the comparison to
/// be exact, which holds for any fixed `(strategy, seed, chunk_size)` and
/// for every tier: the sentinel set is selected at a fixed chunk
/// boundary and sketch content is deterministic hashing of pool content.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// The index configuration both executions use.
    pub config: IndexConfig,
    /// Sets per half both indexes pre-grow to before the script (`0`:
    /// none).
    pub warm: usize,
    /// Shards of the serving index (the model is always sequential).
    pub shards: usize,
}

impl Sim {
    /// Subsim-style IC on one shard, no warmup — the default workload.
    pub fn ic() -> Self {
        Self::with_strategy(RrStrategy::SubsimIc)
    }

    /// Linear Threshold: chain-shaped LT RR sets through the identical
    /// serving machinery (the LT sampler is seeded per chunk the same
    /// way, so pool purity holds exactly as for IC).
    pub fn lt() -> Self {
        Self::with_strategy(RrStrategy::Lt)
    }

    fn with_strategy(strategy: RrStrategy) -> Self {
        Sim {
            config: IndexConfig::new(strategy)
                .seed(42)
                .chunk_size(32)
                .threads(2),
            warm: 0,
            shards: 1,
        }
    }

    /// Enables the sentinel tier over a 2-node set and warms past its
    /// boundary, so every scripted query serves from truncated pools.
    pub fn sentinel(self) -> Self {
        Sim {
            config: self.config.sentinels(2),
            warm: SENTINEL_WARM_SETS,
            ..self
        }
    }

    /// Enables the sketched validation tier at register precision 6 and
    /// warms the sketch first.
    pub fn sketch(self) -> Self {
        Sim {
            config: self.config.sketch(6),
            warm: SKETCH_WARM_SETS,
            ..self
        }
    }

    /// Serves from `shards` shards.
    pub fn shards(self, shards: usize) -> Self {
        Sim { shards, ..self }
    }

    fn label(&self) -> String {
        let mut label = format!("sharded({})", self.shards);
        if self.config.strategy == RrStrategy::Lt {
            label.push_str("+lt");
        }
        if self.config.sentinels > 0 {
            label.push_str("+sentinel");
        }
        if self.config.sketch > 0 {
            label.push_str("+sketch");
        }
        label
    }
}

/// What one script line did, in canonical text form (identical between
/// the serving run and the sequential model when behavior matches).
pub type SimStep = String;

/// The outcome of one simulated serving session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// One canonical record per script line, in script order.
    pub records: Vec<SimStep>,
    /// Graph version after the session.
    pub final_version: u64,
}

/// Expands `seed` into a serving script of `steps` lines over `g`:
/// ~55% plain queries, ~15% queries pinned to the then-current version,
/// ~5% deliberately stale pins, ~20% valid delta ops (insert / delete /
/// reweight, tracked against the evolving edge set so they stay
/// applicable), ~5% malformed lines. Pure function of `(g, seed, steps)`.
pub fn generate_script(g: &Graph, seed: u64, steps: usize) -> Vec<String> {
    let mut rng = subsim_sampling::rng_from_seed(seed);
    let n = g.n() as NodeId;
    let mut edges: BTreeSet<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
    // Every pair ever used as an insert target, so delete lines stay
    // textually unique even across insert/delete cycles.
    let mut used: BTreeSet<(NodeId, NodeId)> = edges.clone();
    let mut version = 0u64;
    let mut script = Vec::with_capacity(steps);
    for i in 0..steps {
        let jitter = (i + 1) as f64 * 1e-9;
        let query = |rng: &mut dyn FnMut() -> f64, pin: Option<u64>| {
            let k = 1 + (rng() * 3.0) as usize;
            let eps = 0.3 + rng() * 0.2 + jitter;
            match pin {
                Some(v) => format!("{k} {eps:.9} @{v}"),
                None => format!("{k} {eps:.9}"),
            }
        };
        let mut draw = || rng.gen::<f64>();
        let roll = (draw() * 100.0) as u32;
        let line = match roll {
            0..=54 => query(&mut draw, None),
            55..=69 => query(&mut draw, Some(version)),
            70..=74 => {
                // A stale pin needs an old version to exist.
                let pin = if version > 0 {
                    (draw() * version as f64) as u64 // in 0..version
                } else {
                    version
                };
                query(&mut draw, Some(pin))
            }
            75..=94 => {
                let p = 0.05 + draw() * 0.45 + jitter;
                let kind = (draw() * 3.0) as u32;
                if kind == 0 || edges.len() <= 2 {
                    // Insert a fresh, never-before-used pair.
                    let mut pick = || {
                        let u = (draw() * n as f64) as NodeId;
                        let v = (draw() * n as f64) as NodeId;
                        (u.min(n - 1), v.min(n - 1))
                    };
                    let mut pair = pick();
                    let mut tries = 0;
                    while (pair.0 == pair.1 || used.contains(&pair)) && tries < 50 {
                        pair = pick();
                        tries += 1;
                    }
                    if pair.0 == pair.1 || used.contains(&pair) {
                        // Dense graph, no fresh pair found: fall back to
                        // a plain query rather than emit an invalid op.
                        script.push(query(&mut draw, None));
                        continue;
                    }
                    edges.insert(pair);
                    used.insert(pair);
                    version += 1;
                    format!("delta + {} {} {p:.9}", pair.0, pair.1)
                } else {
                    let idx = (draw() * edges.len() as f64) as usize;
                    let &(u, v) = edges.iter().nth(idx.min(edges.len() - 1)).unwrap();
                    if kind == 1 {
                        edges.remove(&(u, v));
                        version += 1;
                        format!("delta - {u} {v}")
                    } else {
                        version += 1;
                        format!("delta ~ {u} {v} {p:.9}")
                    }
                }
            }
            _ => {
                if roll.is_multiple_of(2) {
                    format!("bogus {i}")
                } else {
                    format!("delta ? {i}")
                }
            }
        };
        script.push(line);
    }
    script
}

/// Canonical rendering of a line failure — shared by both executions so
/// records compare exactly without depending on full `Display` strings.
fn render_failure(error: &LineError) -> String {
    match error {
        LineError::Malformed { .. } => "malformed".to_string(),
        LineError::Frame(v) => format!("frame: {v}"),
        LineError::Rejected(ServeError::Delta(DeltaError::StaleVersion { requested, current })) => {
            format!("stale requested={requested} current={current}")
        }
        LineError::Rejected(ServeError::Delta(DeltaError::Parse { .. })) => {
            "rejected-parse".to_string()
        }
        LineError::Rejected(e) => format!("rejected: {e}"),
    }
}

/// Event recorder for the serving run.
#[derive(Default)]
struct Recorder(Mutex<Vec<ServeEvent>>);

impl ServeSink for Recorder {
    fn event(&self, event: ServeEvent) {
        self.0.lock().expect("recorder poisoned").push(event);
    }
}

/// Runs `script` through the real serving stack — [`serve_queries`] with
/// one query worker over a [`ShardedDeltaIndex`] built from `sim` — and
/// canonicalizes the result. Panics on internal serving errors: those
/// are test failures, not simulation outcomes.
pub fn run_serving(g: &Graph, script: &[String], sim: Sim) -> SimOutcome {
    let index =
        ShardedDeltaIndex::new(g.clone(), sim.config, sim.shards).expect("simulated index builds");
    if sim.warm > 0 {
        index.warm(sim.warm).expect("index warmup");
    }
    run_serve_stack(&index, script)
}

/// Drives `index` through [`serve_queries`] (one query worker) and
/// canonicalizes the outcome.
fn run_serve_stack(index: &ShardedDeltaIndex, script: &[String]) -> SimOutcome {
    let input = format!("{}\n", script.join("\n"));
    let mut output = Vec::new();
    let rec = Recorder::default();
    let shutdown = serve_queries(index, SIM_DELTA, 1, input.as_bytes(), &mut output, &rec)
        .expect("serving loop I/O");
    assert!(!shutdown, "scripts do not contain shutdown lines");

    // Re-associate events with script lines. Lines are unique, so a map
    // by text is unambiguous; answers pair with Answered events by order.
    let events = rec.0.into_inner().expect("recorder poisoned");
    let answers: Vec<&str> = std::str::from_utf8(&output)
        .expect("seed output is ASCII")
        .lines()
        .collect();
    let mut answered_order: Vec<String> = Vec::new();
    let mut failed: HashMap<String, String> = HashMap::new();
    let mut applied: HashMap<String, String> = HashMap::new();
    for event in &events {
        match event {
            ServeEvent::Answered { line, .. } => answered_order.push(line.clone()),
            ServeEvent::LineFailed { line, error } => {
                let prev = failed.insert(line.clone(), render_failure(error));
                assert!(prev.is_none(), "script lines must be unique: {line:?}");
            }
            ServeEvent::DeltaApplied { op, report } => {
                let prev = applied.insert(
                    op.clone(),
                    format!(
                        "applied v{} regen={}",
                        report.version, report.regenerated_sets
                    ),
                );
                assert!(prev.is_none(), "delta ops must be unique: {op:?}");
            }
            ServeEvent::InputError { message } => {
                panic!("unexpected input error in simulation: {message}")
            }
        }
    }
    assert_eq!(
        answered_order.len(),
        answers.len(),
        "every answered query writes exactly one output line"
    );

    let mut next_answer = 0usize;
    let records = script
        .iter()
        .map(|line| {
            if let Some(op) = line.strip_prefix("delta ") {
                if let Some(r) = applied.get(op.trim()) {
                    return r.clone();
                }
                return failed
                    .get(line)
                    .unwrap_or_else(|| panic!("no outcome for {line:?}"))
                    .clone();
            }
            if answered_order.get(next_answer).map(String::as_str) == Some(line.as_str()) {
                let r = format!("ok {}", answers[next_answer]);
                next_answer += 1;
                return r;
            }
            failed
                .get(line)
                .unwrap_or_else(|| panic!("no outcome for {line:?}"))
                .clone()
        })
        .collect();
    SimOutcome {
        records,
        final_version: index.version(),
    }
}

/// Replays `script` against the sequential [`DeltaIndex`] built from
/// `sim` (its shard count is ignored) — the reference semantics the
/// serving stack must match.
pub fn run_model(g: &Graph, script: &[String], sim: Sim) -> SimOutcome {
    let mut index = DeltaIndex::new(g.clone(), sim.config).expect("simulated index builds");
    if sim.warm > 0 {
        index.warm(sim.warm).expect("index warmup");
    }
    replay(index, script)
}

fn replay(mut index: DeltaIndex, script: &[String]) -> SimOutcome {
    let records = script
        .iter()
        .map(|line| model_record(&mut index, line))
        .collect();
    SimOutcome {
        records,
        final_version: index.version(),
    }
}

/// The sequential model's record for one script line.
fn model_record(index: &mut DeltaIndex, line: &str) -> SimStep {
    if let Some(op) = line.strip_prefix("delta ") {
        return match GraphDelta::parse_op(op).map(|delta| index.apply_delta(&delta)) {
            Ok(Ok(report)) => format!(
                "applied v{} regen={}",
                report.version, report.regenerated_sets
            ),
            Ok(Err(DeltaError::Parse { .. })) | Err(_) => "rejected-parse".to_string(),
            Ok(Err(e)) => format!("rejected: {e}"),
        };
    }
    match parse_query(line) {
        Err(_) => "malformed".to_string(),
        Ok((k, epsilon, pin)) => {
            if let Some(p) = pin {
                if p != index.version() {
                    return format!("stale requested={p} current={}", index.version());
                }
            }
            match index.query(k, epsilon, SIM_DELTA) {
                Ok(ans) => format!("ok {}", seed_line(&ans)),
                Err(e) => format!("rejected: {e}"),
            }
        }
    }
}

/// Generates the script for `seed`, runs both executions under `sim`,
/// and compares. On divergence the error names the setup, the seed and
/// the first differing line, so the failure replays bit-identically from
/// that seed alone.
pub fn check_seed(g: &Graph, sim: Sim, seed: u64, steps: usize) -> Result<(), String> {
    let script = generate_script(g, seed, steps);
    let served = run_serving(g, &script, sim);
    let model = run_model(g, &script, sim);
    diff_outcomes(&sim.label(), seed, steps, &script, &served, &model)
}

/// Reports the first divergence between a serving-stack outcome and the
/// sequential model, naming the seed so failures replay exactly.
fn diff_outcomes(
    label: &str,
    seed: u64,
    steps: usize,
    script: &[String],
    got: &SimOutcome,
    model: &SimOutcome,
) -> Result<(), String> {
    if got == model {
        return Ok(());
    }
    if got.final_version != model.final_version {
        return Err(format!(
            "seed {seed}: final version diverged ({label} {} vs model {}); \
             reproduce with seed {seed}, {steps} steps",
            got.final_version, model.final_version
        ));
    }
    let (i, (c, m)) = got
        .records
        .iter()
        .zip(&model.records)
        .enumerate()
        .find(|(_, (c, m))| c != m)
        .expect("equal-length record lists differ somewhere");
    Err(format!(
        "seed {seed}: line {i} {:?} diverged: {label} {c:?} vs model {m:?}; \
         reproduce with seed {seed}, {steps} steps",
        script[i]
    ))
}

/// One input of a scheduled [`Session`]: a protocol line, or a framing
/// fault the framed transport decoded in its place.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionInput {
    /// A decoded line.
    Line(String),
    /// A framing fault.
    Violation(FrameViolation),
}

/// Expands `seed` into one session's input: [`generate_script`]'s lines
/// with, at seeded positions, oversized and non-UTF-8 frame faults
/// (~10%) and skipped blank or `#` lines (~5%); on odd seeds the input
/// ends in a frame truncated at EOF. Pure function of `(g, seed, steps)`.
pub fn generate_session(g: &Graph, seed: u64, steps: usize) -> Vec<SessionInput> {
    let mut rng = subsim_sampling::rng_from_seed(seed ^ 0x5e55_1011);
    let mut inputs = Vec::with_capacity(steps + steps / 5 + 1);
    for line in generate_script(g, seed, steps) {
        let roll = rng.gen_range(0..100u32);
        match roll {
            0..=4 => inputs.push(SessionInput::Violation(FrameViolation::Oversized {
                declared: 100 + roll as usize,
                max: 64,
            })),
            5..=9 => inputs.push(SessionInput::Violation(FrameViolation::NotUtf8)),
            10..=12 => inputs.push(SessionInput::Line("   ".into())),
            13..=14 => inputs.push(SessionInput::Line(format!("# note {roll}"))),
            _ => {}
        }
        inputs.push(SessionInput::Line(line));
    }
    if seed % 2 == 1 {
        let missing = 1 + rng.gen_range(0..8usize);
        inputs.push(SessionInput::Violation(FrameViolation::Truncated {
            missing,
        }));
    }
    inputs
}

/// What a scheduled multi-session run observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRun {
    /// Per session, one record per reply, in the order it released them.
    pub records: Vec<Vec<SimStep>>,
    /// The most inputs any session held deferred at once.
    pub max_deferred: usize,
    /// Completions delivered before an earlier-dispatched one.
    pub reordered: usize,
}

/// The sequential model as a [`ServeIndex`], one line at a time.
struct Sequential(Mutex<DeltaIndex>);

impl ServeIndex for Sequential {
    fn run_query(
        &self,
        k: usize,
        epsilon: f64,
        delta: f64,
        pin: Option<u64>,
    ) -> Result<QueryAnswer, ServeError> {
        let mut index = self.0.lock().expect("model index poisoned");
        if let Some(requested) = pin.filter(|&v| v != index.version()) {
            let current = index.version();
            return Err(DeltaError::StaleVersion { requested, current }.into());
        }
        Ok(index.query(k, epsilon, delta)?)
    }

    fn apply_delta_line(&self, op: &str) -> Result<RepairReport, ServeError> {
        let delta = GraphDelta::parse_op(op)?;
        Ok(self
            .0
            .lock()
            .expect("model index poisoned")
            .apply_delta(&delta)?)
    }
}

/// One session under the scheduler: the state machine, the sequential
/// index its jobs run on, and what it has been fed and dispatched.
struct Scheduled<'a> {
    session: Session,
    index: Sequential,
    inputs: &'a [SessionInput],
    fed: usize,
    queries_out: usize,
    delta_out: bool,
    records: Vec<SimStep>,
}

/// Drives one [`Session`] per script through a seeded completion-order
/// scheduler. Each step either feeds the next input of a random session
/// that is not [`Session::gated`] (with probability `feed_bias` when a
/// completion is also waiting) or delivers a random waiting completion.
/// A dispatched job executes at once against its session's own
/// sequential [`DeltaIndex`], in dispatch order; only delivery order is
/// permuted.
///
/// Checks the barrier as jobs dispatch (a delta never runs beside its
/// session's queries), the deferred cap after every step, that every
/// session ends [`Session::idle`], and that every session's replies
/// equal [`run_model`]'s records for its lines. Errors name the seed.
pub fn run_sessions(
    g: &Graph,
    scripts: &[Vec<SessionInput>],
    sim: Sim,
    seed: u64,
    feed_bias: f64,
) -> Result<SessionRun, String> {
    let fail = |what: String| format!("seed {seed}: {what}; reproduce with seed {seed}");
    let mut rng = subsim_sampling::rng_from_seed(seed);
    let mut sessions: Vec<Scheduled> = scripts
        .iter()
        .map(|inputs| {
            let mut index = DeltaIndex::new(g.clone(), sim.config).expect("simulated index builds");
            if sim.warm > 0 {
                index.warm(sim.warm).expect("index warmup");
            }
            Scheduled {
                session: Session::default(),
                index: Sequential(Mutex::new(index)),
                inputs,
                fed: 0,
                queries_out: 0,
                delta_out: false,
                records: Vec::new(),
            }
        })
        .collect();
    // Waiting completions: (session, dispatch number, completion).
    let mut waiting: Vec<(usize, u64, Done)> = Vec::new();
    let mut dispatched = 0u64;
    let mut delivered_up_to = 0u64;
    let mut run = SessionRun {
        records: Vec::new(),
        max_deferred: 0,
        reordered: 0,
    };
    loop {
        let feedable: Vec<usize> = (0..sessions.len())
            .filter(|&i| {
                let s = &sessions[i];
                s.fed < s.inputs.len() && !s.session.gated()
            })
            .collect();
        if feedable.is_empty() && waiting.is_empty() {
            break;
        }
        let i = if !feedable.is_empty() && (waiting.is_empty() || rng.gen_bool(feed_bias)) {
            let i = feedable[rng.gen_range(0..feedable.len())];
            let s = &mut sessions[i];
            match s.inputs[s.fed].clone() {
                SessionInput::Line(line) => s.session.line(&line),
                SessionInput::Violation(v) => s.session.violation(v),
            }
            s.fed += 1;
            i
        } else {
            let (i, n, done) = waiting.swap_remove(rng.gen_range(0..waiting.len()));
            if n < delivered_up_to {
                run.reordered += 1;
            }
            delivered_up_to = delivered_up_to.max(n);
            let s = &mut sessions[i];
            match done.reply {
                Reply::Delta { .. } => s.delta_out = false,
                _ => s.queries_out -= 1,
            }
            s.session.complete(done);
            i
        };
        let s = &mut sessions[i];
        while let Some(job) = s.session.next_job() {
            if s.delta_out {
                return Err(fail(format!(
                    "session {i} dispatched {:?} beside a running delta",
                    job.line
                )));
            }
            match job.kind {
                JobKind::Delta if s.queries_out > 0 => {
                    return Err(fail(format!(
                        "session {i} dispatched {:?} with {} queries out",
                        job.line, s.queries_out
                    )));
                }
                JobKind::Delta => s.delta_out = true,
                JobKind::Query { .. } => s.queries_out += 1,
            }
            waiting.push((i, dispatched, execute(&s.index, SIM_DELTA, job)));
            dispatched += 1;
        }
        while let Some(reply) = s.session.next_reply() {
            s.records.push(reply_record(reply));
        }
        if s.session.deferred() > DEFERRED_CAP {
            return Err(fail(format!(
                "session {i} deferred {} inputs",
                s.session.deferred()
            )));
        }
        run.max_deferred = run.max_deferred.max(s.session.deferred());
    }
    for (i, s) in sessions.into_iter().enumerate() {
        if !s.session.idle() {
            return Err(fail(format!("session {i} ended with work outstanding")));
        }
        let model = session_model(g, s.inputs, sim);
        if s.records != model {
            let at = s
                .records
                .iter()
                .zip(&model)
                .take_while(|(a, b)| a == b)
                .count();
            return Err(fail(format!(
                "session {i} reply {at} diverged: served {:?} vs model {:?} ({} vs {} replies)",
                s.records.get(at),
                model.get(at),
                s.records.len(),
                model.len()
            )));
        }
        run.records.push(s.records);
    }
    Ok(run)
}

/// Canonical record of one session reply, in [`run_model`]'s terms.
fn reply_record(reply: Reply) -> SimStep {
    match reply {
        Reply::Query {
            result: Ok(ans), ..
        } => format!("ok {}", seed_line(&ans)),
        Reply::Delta {
            result: Ok(report), ..
        } => format!(
            "applied v{} regen={}",
            report.version, report.regenerated_sets
        ),
        Reply::Query { result: Err(e), .. } | Reply::Delta { result: Err(e), .. } => {
            render_failure(&LineError::Rejected(e))
        }
        Reply::Failed { error, .. } => render_failure(&error),
        other => format!("unexpected {}", other.payload()),
    }
}

/// The sequential model's records for one session's input: one per
/// line that is not blank or `#`, and one per framing fault.
fn session_model(g: &Graph, inputs: &[SessionInput], sim: Sim) -> Vec<SimStep> {
    let mut index = DeltaIndex::new(g.clone(), sim.config).expect("simulated index builds");
    if sim.warm > 0 {
        index.warm(sim.warm).expect("index warmup");
    }
    inputs
        .iter()
        .filter_map(|input| match input {
            SessionInput::Violation(v) => Some(render_failure(&LineError::Frame(v.clone()))),
            SessionInput::Line(line) => {
                let line = line.trim();
                (!line.is_empty() && !line.starts_with('#')).then(|| model_record(&mut index, line))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_graph::generators::barabasi_albert;
    use subsim_graph::WeightModel;

    fn sim_graph() -> Graph {
        barabasi_albert(48, 2, WeightModel::Wc, 17)
    }

    #[test]
    fn script_generation_is_deterministic_and_unique() {
        let g = sim_graph();
        let a = generate_script(&g, 7, 60);
        let b = generate_script(&g, 7, 60);
        assert_eq!(a, b, "same seed, same script");
        let distinct: BTreeSet<&String> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "lines are textually unique");
        let c = generate_script(&g, 8, 60);
        assert_ne!(a, c, "different seed, different script");
    }

    #[test]
    fn script_mixes_all_line_kinds() {
        let g = sim_graph();
        let script = generate_script(&g, 3, 200);
        assert!(script.iter().any(|l| l.starts_with("delta + ")));
        assert!(script.iter().any(|l| l.starts_with("delta - ")));
        assert!(script.iter().any(|l| l.starts_with("delta ~ ")));
        assert!(script.iter().any(|l| l.contains('@')));
        assert!(script.iter().any(|l| l.starts_with("bogus")));
    }
}
