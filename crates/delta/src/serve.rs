//! The serving vocabulary and the line transport.
//!
//! The types every transport shares live here: [`ServeIndex`] (what is
//! served), [`ServeEvent`] and [`LineError`] (what happened, per line
//! and typed) and [`ServeSink`] (who hears it: stderr logging in the
//! CLI, structured assertions in tests). The protocol itself is
//! [`crate::Session`]'s.
//!
//! [`serve_queries`] is the line transport: a pump around one session
//! that reads lines from any `BufRead` (stdin, or one unframed
//! `--socket` client at a time) and writes one seed line per answered
//! query, in input order. Everything else reaches the sink, also in
//! input order; `tenant` lines are accepted and have no effect here.

use crate::error::DeltaError;
use crate::repair::RepairReport;
use crate::session::{seed_line, work, Done, Job, Reply, Session};
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

/// One observable outcome of serving: a session reports one per line,
/// in input order.
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

/// Receives [`ServeEvent`]s from serving. Events may arrive from more
/// than one thread, hence `Sync`.
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
/// failures writing `output` (per-line problems go to `sink` instead),
/// returned once reading has stopped and every dispatched job finished.
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
    let (msg_tx, msg_rx) = mpsc::channel::<Msg>();
    let (job_tx, job_rx) = mpsc::channel::<((), Job)>();
    let job_rx = Mutex::new(job_rx);
    // After each line: whether the reader may read on.
    let (go_tx, go_rx) = mpsc::channel::<bool>();

    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            let (msg_tx, job_rx) = (msg_tx.clone(), &job_rx);
            scope.spawn(move || {
                work(index, delta, job_rx, |(), done| {
                    msg_tx.send(Msg::Done(done)).is_ok()
                })
            });
        }
        // The pump owns the session and the output. It never waits on
        // the writer: a write error closes the session and stops the
        // reader, and the pump returns once the reader has stopped and
        // every dispatched job has completed.
        let pump = scope.spawn(move || {
            let mut session = Session::default();
            let (mut reading, mut reader_waits) = (true, false);
            let mut failed: Option<String> = None;
            while reading || !session.idle() {
                // Workers keep their senders until `job_tx` drops here.
                match msg_rx.recv().expect("workers outlive the pump") {
                    Msg::Line(line) => {
                        session.line(&line);
                        reader_waits = true;
                    }
                    Msg::Eof => reading = false,
                    Msg::Done(done) => session.complete(done),
                }
                while let Some(job) = session.next_job() {
                    job_tx.send(((), job)).expect("workers outlive the pump");
                }
                while let Some(reply) = session.next_reply() {
                    if failed.is_some() {
                        continue;
                    }
                    if let Reply::Query {
                        result: Ok(ans), ..
                    } = &reply
                    {
                        let line = format!("{}\n", seed_line(ans));
                        let written = output.write_all(line.as_bytes());
                        if let Err(e) = written.and_then(|()| output.flush()) {
                            failed = Some(e.to_string());
                            session.close();
                            continue;
                        }
                    }
                    reply.report(sink);
                }
                let stop = failed.is_some() || session.shut_down();
                if reader_waits && (stop || !session.gated()) {
                    let _ = go_tx.send(!stop);
                    reader_waits = false;
                }
            }
            failed.map_or(Ok(session.shut_down()), Err)
        });

        // `R` need not be `Send`, so this thread reads.
        for line in input.lines() {
            match line {
                Ok(line) => {
                    if msg_tx.send(Msg::Line(line)).is_err() || go_rx.recv() != Ok(true) {
                        break;
                    }
                }
                Err(e) => {
                    let message = e.to_string();
                    sink.event(ServeEvent::InputError { message });
                    break;
                }
            }
        }
        let _ = msg_tx.send(Msg::Eof);
        pump.join().expect("serving pump panicked")
    })
}

/// What the line pump hears: from the reader or from a worker.
enum Msg {
    Line(String),
    Eof,
    Done(Done),
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

    #[test]
    fn failing_writer_ends_the_session_with_err_instead_of_hanging() {
        struct FailingWrite;
        impl std::io::Write for FailingWrite {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "injected write failure",
                ))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // A delta line waits behind a query whose answer cannot be
        // written: the session must still end, with the write error.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let index = delta_index();
            let input = "2 0.2\ndelta + 0 1 0.5\n2 0.2\n";
            let result = serve_queries(&index, 0.05, 2, input.as_bytes(), FailingWrite, &NullSink);
            let _ = tx.send(result);
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("serve_queries hung on a failed writer");
        let err = result.expect_err("a failed write is an error");
        assert!(err.contains("injected write failure"), "{err}");
    }

    #[test]
    fn tenant_lines_are_accepted_and_write_nothing() {
        let index = delta_index();
        let input = "tenant acme\n2 0.2\ntenant \n";
        let mut out = Vec::new();
        let rec = Recorder::default();
        serve_queries(&index, 0.05, 1, input.as_bytes(), &mut out, &rec).unwrap();
        assert_eq!(lines(&out).len(), 1, "only the query writes a line");
        let events = rec.0.into_inner().unwrap();
        assert!(
            matches!(
                &events[..],
                [
                    ServeEvent::Answered { .. },
                    ServeEvent::LineFailed {
                        error: LineError::Malformed { .. },
                        ..
                    }
                ]
            ),
            "{events:?}"
        );
    }
}
