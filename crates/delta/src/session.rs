//! The serving protocol, written once as a sans-IO state machine.
//!
//! Every transport speaks one line grammar; each admitted line gets one
//! [`Reply`], whose framed rendering ([`Reply::payload`]) is shown:
//!
//! - `k [epsilon] [@version]` — an IM query → its seeds, `"s1 s2 …"`. A
//!   `@version` pin asks for an exact graph version and fails typed
//!   (`err stale version …`) once the index has moved on.
//! - `delta <op>` — one `+ u v p` / `- u v` / `~ u v p` graph mutation →
//!   `ok delta v<version>`. It is a **barrier**: it runs only after every
//!   earlier query of its session has completed, and later input,
//!   framing faults included, waits in a deferred queue until it
//!   completes. A pin in an earlier line never goes spuriously stale and
//!   every later line sees the mutation.
//! - `tenant <name>` → `ok tenant <name>`; re-tags the session for
//!   per-tenant counters.
//! - `shutdown` → `ok shutdown`; the session admits nothing more.
//!
//! Blank and `#` lines are skipped. A malformed line, a framing fault
//! and any typed failure reply `err <reason>`, and replies leave in
//! admission order, so a session's replies are a pure function of its
//! input whenever no other session mutates the graph.
//!
//! A [`Session`] owns all of that ordering: reply slots, the barrier and
//! the capped deferred queue. It performs no I/O and runs no queries.
//! Its transport feeds it lines ([`Session::line`]), framing faults
//! ([`Session::violation`]) and completions ([`Session::complete`]), runs
//! the jobs it hands out ([`Session::next_job`]) with [`execute`] on any
//! thread, renders [`Session::next_reply`], and reads only while the
//! session is not [`Session::gated`]. The line transport
//! ([`crate::serve_queries`]), the framed server
//! (`subsim_serve::serve_framed`) and the test simulator all pump it.

use crate::repair::RepairReport;
use crate::serve::{parse_query, FrameViolation, LineError, ServeError, ServeEvent, ServeIndex};
use crate::ServeSink;
use std::collections::VecDeque;
use std::sync::{mpsc, Mutex};
use subsim_index::QueryAnswer;

/// Inputs a session defers behind a `delta` barrier before
/// [`Session::gated`] asks its transport to stop reading.
pub const DEFERRED_CAP: usize = 1024;

/// One unit of work a [`Session`] hands out for [`execute`].
#[derive(Debug, Clone)]
pub struct Job {
    /// The reply slot this job fills.
    pub seq: u64,
    /// The input line, trimmed.
    pub line: String,
    /// What to run.
    pub kind: JobKind,
}

/// What a [`Job`] runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobKind {
    /// An IM query, parsed from the line.
    Query {
        /// Seed-set size.
        k: usize,
        /// Approximation slack.
        epsilon: f64,
        /// Exact graph version the query is pinned to.
        pin: Option<u64>,
    },
    /// The `delta <op>` line's graph mutation.
    Delta,
}

/// A finished [`Job`], handed back through [`Session::complete`].
#[derive(Debug)]
pub struct Done {
    /// The job's reply slot.
    pub seq: u64,
    /// Its reply.
    pub reply: Reply,
}

/// The typed answer to one admitted line or framing fault.
#[derive(Debug)]
pub enum Reply {
    /// A query ran; `Err` is the index's typed rejection.
    Query {
        /// The query line, trimmed.
        line: String,
        /// Seeds and statistics, or why the index refused.
        result: Result<QueryAnswer, ServeError>,
    },
    /// A `delta` line ran.
    Delta {
        /// The delta line, trimmed, `delta ` prefix included.
        line: String,
        /// The repair, which names the version it published, or why it
        /// failed.
        result: Result<Box<RepairReport>, ServeError>,
    },
    /// `tenant <name>` re-tagged the session.
    Tenant(String),
    /// `shutdown` was admitted.
    Shutdown,
    /// The line failed before reaching the index (malformed, empty tenant
    /// name) or never materialized (a framing fault, with an empty line).
    Failed {
        /// The offending line, trimmed.
        line: String,
        /// Why it failed.
        error: LineError,
    },
}

impl Reply {
    /// The framed transport's reply payload (see the module docs).
    pub fn payload(&self) -> String {
        match self {
            Reply::Query {
                result: Ok(ans), ..
            } => seed_line(ans),
            Reply::Delta {
                result: Ok(report), ..
            } => format!("ok delta v{}", report.version),
            Reply::Query { result: Err(e), .. } | Reply::Delta { result: Err(e), .. } => {
                format!("err {e}")
            }
            Reply::Tenant(name) => format!("ok tenant {name}"),
            Reply::Shutdown => "ok shutdown".into(),
            Reply::Failed { error, .. } => format!("err {error}"),
        }
    }

    /// Reports this reply to `sink` as its [`ServeEvent`], if it has one
    /// (`tenant` and `shutdown` have none).
    pub fn report<S: ServeSink + ?Sized>(self, sink: &S) {
        let event = match self {
            Reply::Query {
                line,
                result: Ok(ans),
            } => ServeEvent::Answered {
                line,
                stats: Box::new(ans.stats),
            },
            Reply::Delta {
                line,
                result: Ok(report),
            } => ServeEvent::DeltaApplied {
                op: delta_op(&line).to_owned(),
                report,
            },
            Reply::Query {
                line,
                result: Err(e),
            }
            | Reply::Delta {
                line,
                result: Err(e),
            } => ServeEvent::LineFailed {
                line,
                error: LineError::Rejected(e),
            },
            Reply::Failed { line, error } => ServeEvent::LineFailed { line, error },
            Reply::Tenant(_) | Reply::Shutdown => return,
        };
        sink.event(event);
    }
}

/// Renders seeds the way both transports write them: ids joined by one
/// space.
pub fn seed_line(answer: &QueryAnswer) -> String {
    let seeds: Vec<String> = answer.seeds.iter().map(|s| s.to_string()).collect();
    seeds.join(" ")
}

/// The op text of a trimmed `delta <op>` line.
fn delta_op(line: &str) -> &str {
    line.strip_prefix("delta ").unwrap_or(line).trim()
}

/// Runs one job against `index`; `delta` is the certificate failure
/// probability every query uses.
pub fn execute<I: ServeIndex + ?Sized>(index: &I, delta: f64, job: Job) -> Done {
    let Job { seq, line, kind } = job;
    let reply = match kind {
        JobKind::Query { k, epsilon, pin } => Reply::Query {
            result: index.run_query(k, epsilon, delta, pin),
            line,
        },
        JobKind::Delta => Reply::Delta {
            result: index.apply_delta_line(delta_op(&line)).map(Box::new),
            line,
        },
    };
    Done { seq, reply }
}

/// A worker thread's loop: pulls tagged jobs until the queue closes,
/// executes each, and hands the completion to `deliver`, stopping when
/// it returns `false`. The tag routes a completion back to its session.
pub fn work<I, T>(
    index: &I,
    delta: f64,
    jobs: &Mutex<mpsc::Receiver<(T, Job)>>,
    mut deliver: impl FnMut(T, Done) -> bool,
) where
    I: ServeIndex + ?Sized,
{
    loop {
        // The lock guard drops with this statement: only pulling a job
        // is serialized, so workers overlap.
        let next = jobs.lock().expect("job queue poisoned").recv();
        let Ok((tag, job)) = next else { break };
        if !deliver(tag, execute(index, delta, job)) {
            break;
        }
    }
}

/// One input line or framing fault, as the deferred queue holds it.
#[derive(Debug)]
enum Input {
    Line(String),
    Violation(FrameViolation),
}

/// One client's protocol state (see the module docs); a default
/// session has nothing admitted.
#[derive(Debug, Default)]
pub struct Session {
    /// Reply slots from `emit_seq` on, in admission order; `None` until
    /// the line's reply is known.
    slots: VecDeque<Option<Reply>>,
    /// Sequence number of `slots[0]`.
    emit_seq: u64,
    /// Admitted queries not yet completed.
    inflight: usize,
    /// An admitted `delta` has not completed.
    barrier: bool,
    /// Input that arrived behind the barrier.
    deferred: VecDeque<Input>,
    /// Admitted jobs not yet handed out; a barrier delta is always last.
    jobs: VecDeque<Job>,
    /// No further input is admitted.
    closed: bool,
    /// A `shutdown` line was admitted.
    shutdown: bool,
}

impl Session {
    /// Admits one decoded input line.
    pub fn line(&mut self, line: &str) {
        let line = line.trim();
        if !line.is_empty() && !line.starts_with('#') {
            self.input(Input::Line(line.to_owned()));
        }
    }

    /// Admits a framing fault, ordered like any line.
    pub fn violation(&mut self, violation: FrameViolation) {
        self.input(Input::Violation(violation));
    }

    /// Takes one job's completion, and releases deferred input if that
    /// lifted the barrier.
    pub fn complete(&mut self, done: Done) {
        if let Reply::Delta { .. } = done.reply {
            self.barrier = false;
        } else {
            self.inflight -= 1;
        }
        self.fill(done.seq, done.reply);
        while !self.barrier {
            let Some(input) = self.deferred.pop_front() else {
                break;
            };
            self.admit(input);
        }
    }

    /// The next job to run; a `delta` waits until every earlier query
    /// has completed.
    pub fn next_job(&mut self) -> Option<Job> {
        match self.jobs.front()?.kind {
            JobKind::Delta if self.inflight > 0 => None,
            _ => self.jobs.pop_front(),
        }
    }

    /// The next reply in admission order, once every earlier one has
    /// been taken.
    pub fn next_reply(&mut self) -> Option<Reply> {
        let reply = self.slots.front_mut()?.take()?;
        self.slots.pop_front();
        self.emit_seq += 1;
        Some(reply)
    }

    /// Whether the deferred queue is full: the transport must stop
    /// reading until a completion lifts the barrier.
    pub fn gated(&self) -> bool {
        self.deferred.len() >= DEFERRED_CAP
    }

    /// Whether every admitted line has completed and its reply has been
    /// taken, with no input deferred.
    pub fn idle(&self) -> bool {
        self.slots.is_empty() && self.deferred.is_empty()
    }

    /// Whether a `shutdown` line was admitted; the session admits nothing
    /// after it.
    pub fn shut_down(&self) -> bool {
        self.shutdown
    }

    /// Inputs waiting behind the barrier.
    pub fn deferred(&self) -> usize {
        self.deferred.len()
    }

    /// Stops admitting: deferred input is dropped unanswered, while
    /// admitted lines still run and reply.
    pub fn close(&mut self) {
        self.closed = true;
        self.deferred.clear();
    }

    fn input(&mut self, input: Input) {
        if self.closed {
            return;
        }
        if self.barrier {
            self.deferred.push_back(input);
        } else {
            self.admit(input);
        }
    }

    /// Assigns the next reply slot and routes the input.
    fn admit(&mut self, input: Input) {
        let seq = self.emit_seq + self.slots.len() as u64;
        self.slots.push_back(None);
        let line = match input {
            Input::Line(line) => line,
            Input::Violation(v) => {
                let error = LineError::Frame(v);
                let line = String::new();
                return self.fill(seq, Reply::Failed { line, error });
            }
        };
        let reply = if line == "shutdown" {
            self.shutdown = true;
            self.close();
            Reply::Shutdown
        } else if let Some(name) = line.strip_prefix("tenant ").map(str::trim) {
            if name.is_empty() {
                let reason = "empty tenant name".into();
                let error = LineError::Malformed { reason };
                Reply::Failed { line, error }
            } else {
                Reply::Tenant(name.to_owned())
            }
        } else if line.starts_with("delta ") {
            self.barrier = true;
            let kind = JobKind::Delta;
            return self.jobs.push_back(Job { seq, line, kind });
        } else {
            match parse_query(&line) {
                Ok((k, epsilon, pin)) => {
                    self.inflight += 1;
                    let kind = JobKind::Query { k, epsilon, pin };
                    return self.jobs.push_back(Job { seq, line, kind });
                }
                Err(reason) => {
                    let error = LineError::Malformed { reason };
                    Reply::Failed { line, error }
                }
            }
        };
        self.fill(seq, reply);
    }

    fn fill(&mut self, seq: u64, reply: Reply) {
        let slot = (seq - self.emit_seq) as usize;
        self.slots[slot] = Some(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completes `job` without an index: every query and delta fails
    /// typed, which is all the ordering checks need.
    fn finish(job: Job) -> Done {
        let reply = match job.kind {
            JobKind::Query { .. } => Reply::Query {
                line: job.line,
                result: Err(ServeError::PinUnsupported),
            },
            JobKind::Delta => Reply::Delta {
                line: job.line,
                result: Err(ServeError::Frozen),
            },
        };
        Done {
            seq: job.seq,
            reply,
        }
    }

    fn payloads(session: &mut Session) -> Vec<String> {
        std::iter::from_fn(|| session.next_reply())
            .map(|r| r.payload())
            .collect()
    }

    #[test]
    fn gated_at_the_cap_and_shutdown_closes() {
        let mut s = Session::default();
        s.line("delta + 0 1 0.5");
        for i in 0..DEFERRED_CAP {
            assert!(!s.gated(), "gated early at {i}");
            s.line("1");
        }
        assert!(s.gated());
        s.line("shutdown");
        s.line("  ");
        s.line("# comment");
        let delta = s.next_job().unwrap();
        s.complete(finish(delta));
        assert!(!s.gated());
        assert!(s.shut_down(), "the deferred shutdown was admitted");
        let mut jobs = 0;
        while let Some(job) = s.next_job() {
            jobs += 1;
            s.complete(finish(job));
        }
        assert_eq!(jobs, DEFERRED_CAP);
        let replies = payloads(&mut s);
        assert_eq!(replies.len(), DEFERRED_CAP + 2);
        assert_eq!(replies.last().unwrap(), "ok shutdown");
        s.line("1");
        assert!(s.next_job().is_none(), "nothing admitted after shutdown");
        assert!(s.idle());
    }
}
