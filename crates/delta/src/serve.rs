//! The query-serving loop, factored out of the CLI so it can be driven
//! (and fault-injected) in-process by tests and the deterministic
//! simulator in `subsim-testkit`.
//!
//! A serving session reads lines from any `BufRead`:
//!
//! - `k [epsilon] [@version]` — an IM query; `@version` pins it to an
//!   exact graph version (delta-stream servers only) and fails with a
//!   typed [`DeltaError::StaleVersion`] if the index has moved on.
//! - `delta <op>` — one `+ u v p` / `- u v` / `~ u v p` graph mutation.
//!   Delta lines are a **barrier**: the op applies only after every
//!   earlier query line has answered, so a pin in an earlier line can
//!   never go spuriously stale, and every later line sees the mutation.
//!   This makes a serving session's outcome a pure function of its input
//!   lines (given a deterministic index), which the simulator in
//!   `subsim-testkit` relies on.
//! - `shutdown` — ends the session and reports it to the caller.
//!
//! Every failure is **per line and typed** ([`LineError`]): a malformed
//! query, a rejected delta op, a stale version pin, or a mid-stream read
//! error produces a [`ServeEvent`] and the loop keeps serving subsequent
//! lines. Seeds for successful queries go to `output` one line per query
//! in **input order** (a reorder buffer holds early-finished answers);
//! everything else is surfaced through the [`ServeSink`] so callers
//! decide between stderr logging (the CLI) and structured assertions
//! (tests).

use crate::error::DeltaError;
use crate::repair::RepairReport;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::sync::{mpsc, Mutex};
use subsim_index::{ConcurrentRrIndex, IndexError, QueryAnswer, QueryStats};

/// Why a serving index refused a query or delta line.
#[derive(Debug)]
pub enum ServeError {
    /// A `delta` line reached an index whose graph is frozen (a server
    /// started without `--delta-stream`).
    Frozen,
    /// A `@version` pin reached an index that serves exactly one version.
    PinUnsupported,
    /// The index layer failed the query.
    Index(IndexError),
    /// The delta layer failed the query or mutation (including
    /// [`DeltaError::StaleVersion`] for pins the index moved past).
    Delta(DeltaError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Frozen => write!(
                f,
                "graph is frozen; start the server with --delta-stream to accept delta lines"
            ),
            ServeError::PinUnsupported => write!(
                f,
                "version pins need a versioned index; start the server with --delta-stream"
            ),
            ServeError::Index(e) => write!(f, "{e}"),
            ServeError::Delta(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Index(e) => Some(e),
            ServeError::Delta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IndexError> for ServeError {
    fn from(e: IndexError) -> Self {
        ServeError::Index(e)
    }
}

impl From<DeltaError> for ServeError {
    fn from(e: DeltaError) -> Self {
        ServeError::Delta(e)
    }
}

/// Typed failure of one input line; the loop continues after every one.
#[derive(Debug)]
pub enum LineError {
    /// The line did not parse as `k [epsilon] [@version]`.
    Malformed {
        /// What failed to parse.
        reason: String,
    },
    /// The line parsed but the index rejected it.
    Rejected(ServeError),
    /// The line never materialized: its enclosing frame violated the
    /// length-framed transport (multi-connection server only).
    Frame(FrameViolation),
}

/// How a length-framed payload violated the wire protocol. Framing
/// faults are per-connection: the violating frame (or, for
/// [`FrameViolation::Truncated`], the connection) is rejected with a
/// typed error while every other connection keeps serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameViolation {
    /// The declared payload length exceeds the server's frame cap; the
    /// payload is skipped so the stream stays in sync.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// The server's cap.
        max: usize,
    },
    /// The stream ended mid-header or mid-payload.
    Truncated {
        /// Bytes still expected when the stream ended.
        missing: usize,
    },
    /// The payload was not valid UTF-8.
    NotUtf8,
}

impl std::fmt::Display for FrameViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameViolation::Oversized { declared, max } => {
                write!(f, "oversized frame: {declared} bytes exceeds cap {max}")
            }
            FrameViolation::Truncated { missing } => {
                write!(f, "truncated frame: stream ended {missing} bytes early")
            }
            FrameViolation::NotUtf8 => write!(f, "frame payload is not valid UTF-8"),
        }
    }
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::Malformed { reason } => write!(f, "malformed line: {reason}"),
            LineError::Rejected(e) => write!(f, "{e}"),
            LineError::Frame(v) => write!(f, "{v}"),
        }
    }
}

/// One observable outcome of the serving loop, in the order outcomes
/// happen (answers are emitted in input order; delta acks and line
/// failures in read order).
#[derive(Debug)]
pub enum ServeEvent {
    /// A query answered; its seeds line was written to the output.
    Answered {
        /// The input line, verbatim (trimmed).
        line: String,
        /// The answering query's statistics.
        stats: Box<QueryStats>,
    },
    /// A `delta` op applied and the repaired snapshot published.
    DeltaApplied {
        /// The op text after the `delta ` prefix.
        op: String,
        /// What the repair did.
        report: Box<RepairReport>,
    },
    /// A line failed; the loop moved on to the next line.
    LineFailed {
        /// The offending line, verbatim (including any `delta ` prefix).
        line: String,
        /// Why it failed.
        error: LineError,
    },
    /// The input stream itself errored mid-read (e.g. a dropped socket);
    /// the session ends after this event, already-submitted queries still
    /// answer.
    InputError {
        /// The I/O error, rendered.
        message: String,
    },
}

/// Receives [`ServeEvent`]s from the serving loop. Events arrive from the
/// reader and the collector thread, hence `Sync`.
pub trait ServeSink: Sync {
    /// Called once per event.
    fn event(&self, event: ServeEvent);
}

impl<F: Fn(ServeEvent) + Sync> ServeSink for F {
    fn event(&self, event: ServeEvent) {
        self(event)
    }
}

/// A sink that drops every event — for callers that only need the output
/// lines.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ServeSink for NullSink {
    fn event(&self, _event: ServeEvent) {}
}

/// What the serving loop needs from an index: concurrent queries
/// (optionally pinned to a graph version) and — for delta-stream servers
/// — in-band graph mutation.
pub trait ServeIndex: Sync {
    /// Answers one query; `pin` asks for an exact graph version.
    fn run_query(
        &self,
        k: usize,
        epsilon: f64,
        delta: f64,
        pin: Option<u64>,
    ) -> Result<QueryAnswer, ServeError>;

    /// Applies one `+ u v p` / `- u v` / `~ u v p` op line.
    fn apply_delta_line(&self, op: &str) -> Result<RepairReport, ServeError>;

    /// Currently served graph version; `None` for frozen single-version
    /// indexes.
    fn version(&self) -> Option<u64> {
        None
    }
}

impl ServeIndex for ConcurrentRrIndex<'_> {
    fn run_query(
        &self,
        k: usize,
        epsilon: f64,
        delta: f64,
        pin: Option<u64>,
    ) -> Result<QueryAnswer, ServeError> {
        if pin.is_some() {
            return Err(ServeError::PinUnsupported);
        }
        Ok(self.query(k, epsilon, delta)?)
    }

    fn apply_delta_line(&self, _op: &str) -> Result<RepairReport, ServeError> {
        Err(ServeError::Frozen)
    }
}

/// One parsed query line, tagged with its position in the input so
/// answers can be re-serialized in input order.
struct Job {
    id: u64,
    line: String,
    k: usize,
    epsilon: f64,
    pin: Option<u64>,
}

/// Parses a query line `k [epsilon] [@version]` into
/// `(k, epsilon, pin)`; `epsilon` defaults to `0.1`. Tokens may appear
/// in any order except that `k` precedes `epsilon`. Public so external
/// drivers (the test simulator) share the exact serving grammar.
pub fn parse_query(line: &str) -> Result<(usize, f64, Option<u64>), String> {
    let mut k = None;
    let mut epsilon = None;
    let mut pin = None;
    for tok in line.split_whitespace() {
        if let Some(v) = tok.strip_prefix('@') {
            if pin.is_some() {
                return Err("duplicate @version pin".into());
            }
            pin = Some(
                v.parse::<u64>()
                    .map_err(|e| format!("bad version pin {tok:?}: {e}"))?,
            );
        } else if k.is_none() {
            k = Some(tok.parse::<usize>().map_err(|e| format!("k: {e}"))?);
        } else if epsilon.is_none() {
            epsilon = Some(tok.parse::<f64>().map_err(|e| format!("epsilon: {e}"))?);
        } else {
            return Err(format!("unexpected token {tok:?}"));
        }
    }
    Ok((k.ok_or("missing k")?, epsilon.unwrap_or(0.1), pin))
}

/// Serves query and delta lines from `input` until EOF (or a `shutdown`
/// line), fanning queries out over `workers` threads that query `index`
/// concurrently. See the module docs for the line grammar and error
/// contract. Returns whether a `shutdown` line was seen; `Err` only for
/// failures writing `output` (per-line problems go to `sink` instead).
pub fn serve_queries<I, R, W, S>(
    index: &I,
    delta: f64,
    workers: usize,
    input: R,
    mut output: W,
    sink: &S,
) -> Result<bool, String>
where
    I: ServeIndex,
    R: BufRead,
    W: std::io::Write + Send,
    S: ServeSink + ?Sized,
{
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Mutex::new(job_rx);
    let (ans_tx, ans_rx) = mpsc::channel::<(Job, Result<QueryAnswer, ServeError>)>();
    // Queries completed by the collector, for the delta-line barrier.
    let done = (Mutex::new(0u64), std::sync::Condvar::new());

    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            let ans_tx = ans_tx.clone();
            let job_rx = &job_rx;
            scope.spawn(move || loop {
                // Hold the receiver lock only to pull one job; the query
                // itself runs unlocked so workers overlap.
                let job = match job_rx.lock().expect("job queue poisoned").recv() {
                    Ok(job) => job,
                    Err(_) => break,
                };
                let result = index.run_query(job.k, job.epsilon, delta, job.pin);
                if ans_tx.send((job, result)).is_err() {
                    break;
                }
            });
        }
        drop(ans_tx); // the collector below must see EOF once workers finish

        let collector = scope.spawn({
            let output = &mut output;
            let done = &done;
            move || -> Result<(), String> {
                // Reorder buffer: answers surface in completion order but
                // must leave in input order.
                let mut pending: BTreeMap<u64, (Job, Result<QueryAnswer, ServeError>)> =
                    BTreeMap::new();
                let mut next_id = 0u64;
                for (job, result) in ans_rx {
                    pending.insert(job.id, (job, result));
                    while let Some((job, result)) = pending.remove(&next_id) {
                        next_id += 1;
                        match result {
                            Ok(ans) => {
                                let seeds: Vec<String> =
                                    ans.seeds.iter().map(|s| s.to_string()).collect();
                                writeln!(output, "{}", seeds.join(" "))
                                    .map_err(|e| e.to_string())?;
                                output.flush().map_err(|e| e.to_string())?;
                                sink.event(ServeEvent::Answered {
                                    line: job.line,
                                    stats: Box::new(ans.stats),
                                });
                            }
                            Err(e) => sink.event(ServeEvent::LineFailed {
                                line: job.line,
                                error: LineError::Rejected(e),
                            }),
                        }
                        *done.0.lock().expect("done counter poisoned") = next_id;
                        done.1.notify_all();
                    }
                }
                Ok(())
            }
        });

        let mut shutdown = false;
        let mut id = 0u64;
        for line in input.lines() {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    sink.event(ServeEvent::InputError {
                        message: e.to_string(),
                    });
                    break;
                }
            };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "shutdown" {
                shutdown = true;
                break;
            }
            if let Some(rest) = line.strip_prefix("delta ") {
                // Barrier: wait for every earlier query to answer, so
                // earlier pins never race the mutation and later lines
                // deterministically see it.
                let mut answered = done.0.lock().expect("done counter poisoned");
                while *answered < id {
                    answered = done.1.wait(answered).expect("done counter poisoned");
                }
                drop(answered);
                let op = rest.trim();
                match index.apply_delta_line(op) {
                    Ok(report) => sink.event(ServeEvent::DeltaApplied {
                        op: op.to_string(),
                        report: Box::new(report),
                    }),
                    Err(e) => sink.event(ServeEvent::LineFailed {
                        line: line.to_string(),
                        error: LineError::Rejected(e),
                    }),
                }
                continue;
            }
            let (k, epsilon, pin) = match parse_query(line) {
                Ok(parts) => parts,
                Err(reason) => {
                    sink.event(ServeEvent::LineFailed {
                        line: line.to_string(),
                        error: LineError::Malformed { reason },
                    });
                    continue;
                }
            };
            let job = Job {
                id,
                line: line.to_string(),
                k,
                epsilon,
                pin,
            };
            id += 1;
            if job_tx.send(job).is_err() {
                break; // all workers gone (collector error below reports why)
            }
        }
        drop(job_tx); // workers drain the queue, then ans_rx sees EOF
        collector.join().expect("collector panicked")?;
        Ok(shutdown)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;
    use subsim_diffusion::RrStrategy;
    use subsim_graph::generators::barabasi_albert;
    use subsim_graph::WeightModel;
    use subsim_index::IndexConfig;

    /// Collects every event for assertions.
    #[derive(Default)]
    struct Recorder(StdMutex<Vec<ServeEvent>>);

    impl ServeSink for Recorder {
        fn event(&self, event: ServeEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    /// A delta-stream index for the loop: the sequential model behind a
    /// lock (the concurrent serving index lives downstream, in
    /// `subsim-serve`).
    struct Locked(StdMutex<crate::DeltaIndex>);

    impl ServeIndex for Locked {
        fn run_query(
            &self,
            k: usize,
            epsilon: f64,
            delta: f64,
            pin: Option<u64>,
        ) -> Result<QueryAnswer, ServeError> {
            let mut index = self.0.lock().unwrap();
            if let Some(requested) = pin.filter(|&v| v != index.version()) {
                return Err(ServeError::Delta(DeltaError::StaleVersion {
                    requested,
                    current: index.version(),
                }));
            }
            Ok(index.query(k, epsilon, delta)?)
        }

        fn apply_delta_line(&self, op: &str) -> Result<RepairReport, ServeError> {
            let op = crate::GraphDelta::parse_line(op)?.ok_or(DeltaError::Parse {
                message: "empty delta line".into(),
            })?;
            let mut delta = crate::GraphDelta::new();
            delta.push(op);
            Ok(self.0.lock().unwrap().apply_delta(&delta)?)
        }

        fn version(&self) -> Option<u64> {
            Some(self.0.lock().unwrap().version())
        }
    }

    fn delta_index() -> Locked {
        let g = barabasi_albert(120, 3, WeightModel::Wc, 7);
        let config = IndexConfig::new(RrStrategy::SubsimIc)
            .seed(3)
            .chunk_size(64)
            .threads(2);
        Locked(StdMutex::new(crate::DeltaIndex::new(g, config).unwrap()))
    }

    fn lines(out: &[u8]) -> Vec<String> {
        String::from_utf8(out.to_vec())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn parse_query_grammar() {
        assert_eq!(parse_query("5").unwrap(), (5, 0.1, None));
        assert_eq!(parse_query("5 0.2").unwrap(), (5, 0.2, None));
        assert_eq!(parse_query("5 0.2 @3").unwrap(), (5, 0.2, Some(3)));
        assert_eq!(parse_query("5 @0").unwrap(), (5, 0.1, Some(0)));
        assert_eq!(parse_query("@1 5").unwrap(), (5, 0.1, Some(1)));
        assert!(parse_query("x").is_err());
        assert!(parse_query("5 0.2 0.3").is_err());
        assert!(parse_query("5 @1 @2").is_err());
        assert!(parse_query("5 @x").is_err());
    }

    #[test]
    fn malformed_lines_are_typed_and_serving_continues() {
        let index = delta_index();
        let input = "2 0.2\nnot-a-query\ndelta bogus\n2 0.2\n";
        let mut out = Vec::new();
        let rec = Recorder::default();
        let shutdown = serve_queries(&index, 0.05, 2, input.as_bytes(), &mut out, &rec).unwrap();
        assert!(!shutdown);
        let answers = lines(&out);
        assert_eq!(answers.len(), 2, "both well-formed queries answered");
        assert_eq!(answers[0], answers[1], "same pool, same seeds");
        let events = rec.0.into_inner().unwrap();
        let failures: Vec<&ServeEvent> = events
            .iter()
            .filter(|e| matches!(e, ServeEvent::LineFailed { .. }))
            .collect();
        assert_eq!(failures.len(), 2, "{events:?}");
        assert!(matches!(
            failures[0],
            ServeEvent::LineFailed {
                error: LineError::Malformed { .. },
                ..
            }
        ));
        assert!(matches!(
            failures[1],
            ServeEvent::LineFailed {
                error: LineError::Rejected(ServeError::Delta(DeltaError::Parse { .. })),
                ..
            }
        ));
    }

    #[test]
    fn stale_pin_is_typed_and_serving_continues() {
        let index = delta_index();
        // Pin to version 0, mutate (version 1), pin to 0 again (stale),
        // pin to 1 (fresh), and query unpinned.
        let input = "2 0.2 @0\ndelta ~ 0 1 0.5\n2 0.2 @0\n2 0.2 @1\n2 0.2\n";
        let mut out = Vec::new();
        let rec = Recorder::default();
        serve_queries(&index, 0.05, 1, input.as_bytes(), &mut out, &rec).unwrap();
        assert_eq!(lines(&out).len(), 3, "three of four queries answered");
        let events = rec.0.into_inner().unwrap();
        let stale: Vec<_> = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ServeEvent::LineFailed {
                        error: LineError::Rejected(ServeError::Delta(DeltaError::StaleVersion {
                            requested: 0,
                            current: 1
                        })),
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(stale.len(), 1, "{events:?}");
        assert!(events
            .iter()
            .any(|e| matches!(e, ServeEvent::DeltaApplied { .. })));
    }

    #[test]
    fn frozen_index_rejects_deltas_and_pins() {
        let g = barabasi_albert(100, 3, WeightModel::Wc, 11);
        let config = IndexConfig::new(RrStrategy::SubsimIc)
            .seed(5)
            .chunk_size(64);
        let index = ConcurrentRrIndex::new(&g, config);
        let input = "delta + 0 1 0.5\n2 0.2 @0\n2 0.2\n";
        let mut out = Vec::new();
        let rec = Recorder::default();
        serve_queries(&index, 0.05, 1, input.as_bytes(), &mut out, &rec).unwrap();
        assert_eq!(lines(&out).len(), 1, "only the unpinned query answers");
        let events = rec.0.into_inner().unwrap();
        assert!(events.iter().any(|e| matches!(
            e,
            ServeEvent::LineFailed {
                error: LineError::Rejected(ServeError::Frozen),
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            ServeEvent::LineFailed {
                error: LineError::Rejected(ServeError::PinUnsupported),
                ..
            }
        )));
    }

    #[test]
    fn shutdown_line_ends_the_session() {
        let index = delta_index();
        let input = "2 0.2\nshutdown\n2 0.2\n";
        let mut out = Vec::new();
        let shutdown =
            serve_queries(&index, 0.05, 1, input.as_bytes(), &mut out, &NullSink).unwrap();
        assert!(shutdown);
        assert_eq!(lines(&out).len(), 1, "lines after shutdown are not read");
    }

    #[test]
    fn mid_stream_read_error_surfaces_and_session_ends_cleanly() {
        struct FailingRead {
            data: &'static [u8],
            pos: usize,
        }
        impl std::io::Read for FailingRead {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "injected mid-stream failure",
                    ));
                }
                let take = buf.len().min(self.data.len() - self.pos);
                buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
                self.pos += take;
                Ok(take)
            }
        }
        let index = delta_index();
        let reader = std::io::BufReader::new(FailingRead {
            data: b"2 0.2\n",
            pos: 0,
        });
        let mut out = Vec::new();
        let rec = Recorder::default();
        let shutdown = serve_queries(&index, 0.05, 1, reader, &mut out, &rec).unwrap();
        assert!(!shutdown);
        assert_eq!(lines(&out).len(), 1, "the query before the fault answers");
        let events = rec.0.into_inner().unwrap();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ServeEvent::InputError { .. })),
            "{events:?}"
        );
        // The index is still fully queryable after the failed session.
        assert!(index.run_query(2, 0.2, 0.05, None).is_ok());
    }
}
