//! The multi-connection framed server.
//!
//! A single reactor thread owns every socket: it accepts connections,
//! decodes length-framed lines ([`crate::net::frame`]), and pumps each
//! connection's frames, framing faults included, through its own
//! [`Session`] — the protocol every transport shares — writing one reply
//! frame per [`Reply`]. Jobs go to a small pool of worker threads that
//! run them against the shared [`ServeIndex`]. Readiness comes from the
//! no-dependency poller in [`crate::net::sys`] (epoll on Linux, `poll(2)`
//! elsewhere); workers wake the reactor through a nonblocking socketpair.
//! Across connections, deltas serialize through the index's writer lock
//! and each version bump fences all shards at one atomic snapshot swap.
//! A `tenant` reply moves the connection's later replies to that
//! tenant's counters; a `shutdown` reply drains the server.
//!
//! Backpressure: outbound bytes queue per connection. When a client
//! stops reading and its queue crosses `WRITE_HIGH_WATER` (256 KiB), the reactor
//! stops reading that connection until the queue falls below
//! `WRITE_LOW_WATER` (32 KiB), so a client cannot pump queries faster than it
//! drains answers. Reads also stop while the session is
//! [`Session::gated`]; only the frames of the read that filled the
//! deferred queue can overshoot its cap.

use crate::net::frame::{encode_frame, FrameDecoder, FrameItem, HEADER_LEN};
use crate::net::sys::{
    Interest, PollEvent, Poller, TOKEN_CONN_BASE, TOKEN_LISTENER_BASE, TOKEN_WAKE,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use subsim_delta::{work, Done, Job, Reply, ServeEvent, ServeIndex, ServeSink, Session};
use subsim_index::{TenantCounters, TenantMetrics};

/// Stop reading a connection when its outbound buffer exceeds this.
const WRITE_HIGH_WATER: usize = 256 << 10;
/// Resume reading once the outbound buffer falls below this.
const WRITE_LOW_WATER: usize = 32 << 10;
/// Tenant connections report under before any `tenant` frame.
const DEFAULT_TENANT: &str = "default";

/// Tuning for [`serve_framed`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads answering queries against the index.
    pub workers: usize,
    /// Certificate failure probability handed to every query
    /// (the `delta` of `serve_queries`, not a graph delta).
    pub delta: f64,
    /// Maximum accepted frame payload, bytes.
    pub max_frame: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            delta: 0.01,
            max_frame: 64 << 10,
        }
    }
}

/// What a finished server run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Whether a `shutdown` frame ended the run.
    pub shutdown: bool,
    /// Connections accepted over the run's lifetime.
    pub connections: u64,
    /// Frames decoded (including violating frames).
    pub frames: u64,
    /// Reply frames written into connection buffers.
    pub replies: u64,
}

/// Removes a bound unix-socket path when dropped, so a crashed or
/// completed server never leaves a stale socket behind to trigger
/// `AddrInUse` on the next start.
#[derive(Debug)]
pub struct SocketPathGuard {
    path: Option<PathBuf>,
}

impl SocketPathGuard {
    /// The guarded path.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Keeps the socket file on disk after drop.
    pub fn disarm(mut self) {
        self.path = None;
    }
}

impl Drop for SocketPathGuard {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One accept socket, unix or TCP.
#[derive(Debug)]
pub enum Listener {
    /// A `SOCK_STREAM` unix-domain listener.
    Unix(UnixListener),
    /// A TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds a unix listener at `path`, unlinking a **stale socket** left
    /// by a previous run first. A path that exists but is not a socket is
    /// refused rather than unlinked — the server never deletes a file it
    /// could not have created. The returned guard removes the socket on
    /// drop (graceful shutdown included).
    pub fn bind_unix(path: &Path) -> io::Result<(Listener, SocketPathGuard)> {
        match std::fs::symlink_metadata(path) {
            Ok(meta) => {
                use std::os::unix::fs::FileTypeExt;
                if !meta.file_type().is_socket() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        format!(
                            "{} exists and is not a socket; refusing to unlink",
                            path.display()
                        ),
                    ));
                }
                std::fs::remove_file(path)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(path)?;
        Ok((
            Listener::Unix(listener),
            SocketPathGuard {
                path: Some(path.to_path_buf()),
            },
        ))
    }

    /// Binds a TCP listener at `addr` (e.g. `127.0.0.1:7979`).
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(true),
            Listener::Tcp(l) => l.set_nonblocking(true),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }

    /// Accepts one pending connection, set nonblocking.
    fn accept(&self) -> io::Result<Option<Box<dyn Stream>>> {
        let accepted = match self {
            Listener::Unix(l) => l.accept().and_then(|(s, _)| {
                s.set_nonblocking(true)?;
                Ok(Box::new(s) as Box<dyn Stream>)
            }),
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| {
                s.set_nonblocking(true)?;
                Ok(Box::new(s) as Box<dyn Stream>)
            }),
        };
        match accepted {
            Ok(stream) => Ok(Some(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// An accepted connection, unix or TCP.
trait Stream: Read + Write + AsRawFd {}

impl<T: Read + Write + AsRawFd> Stream for T {}

struct Conn {
    token: u64,
    stream: Box<dyn Stream>,
    decoder: FrameDecoder,
    interest: Interest,
    /// Outbound bytes; `write_pos` is the flushed prefix.
    write_buf: Vec<u8>,
    write_pos: usize,
    session: Session,
    tenant: Arc<TenantCounters>,
    read_eof: bool,
    dead: bool,
}

impl Conn {
    fn write_pending(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn try_write(&mut self) {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > (64 << 10) {
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
    }

    fn idle(&self) -> bool {
        self.session.idle() && (self.dead || self.write_pending() == 0)
    }

    fn should_close(&self) -> bool {
        self.dead || (self.read_eof && self.idle())
    }
}

struct Env<'a, S: ?Sized> {
    job_tx: mpsc::Sender<(u64, Job)>,
    tenants: &'a TenantMetrics,
    sink: &'a S,
    config: &'a ServerConfig,
}

/// Runs the framed multi-connection server over `listeners` until a
/// `shutdown` frame arrives, answering queries against `index` on
/// `config.workers` threads. Per-tenant counters accumulate into
/// `tenants`; observability events stream to `sink`. Returns only on
/// shutdown (or a fatal poller/accept error).
pub fn serve_framed<I, S>(
    index: &I,
    listeners: Vec<Listener>,
    config: &ServerConfig,
    tenants: &TenantMetrics,
    sink: &S,
) -> io::Result<ServerReport>
where
    I: ServeIndex,
    S: ServeSink + ?Sized,
{
    let (job_tx, job_rx) = mpsc::channel::<(u64, Job)>();
    let (done_tx, done_rx) = mpsc::channel::<(u64, Done)>();
    let job_rx = Mutex::new(job_rx);
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;

    let mut poller = Poller::new()?;
    poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
    for (i, listener) in listeners.iter().enumerate() {
        listener.set_nonblocking()?;
        poller.register(
            listener.raw_fd(),
            TOKEN_LISTENER_BASE + i as u64,
            Interest::READ,
        )?;
    }

    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            let done_tx = done_tx.clone();
            let job_rx = &job_rx;
            let mut wake = &wake_tx;
            scope.spawn(move || {
                work(index, config.delta, job_rx, |conn, done| {
                    let sent = done_tx.send((conn, done)).is_ok();
                    let _ = wake.write(&[1u8]);
                    sent
                })
            });
        }
        drop(done_tx);
        let env = Env {
            job_tx,
            tenants,
            sink,
            config,
        };
        reactor_loop(&mut poller, &listeners, &wake_rx, &done_rx, env)
        // `env.job_tx` drops here, closing the job channel; workers
        // finish their current job and exit, and the scope joins them.
    })
}

fn reactor_loop<S: ServeSink + ?Sized>(
    poller: &mut Poller,
    listeners: &[Listener],
    wake_rx: &UnixStream,
    done_rx: &mpsc::Receiver<(u64, Done)>,
    env: Env<'_, S>,
) -> io::Result<ServerReport> {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = TOKEN_CONN_BASE;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut report = ServerReport::default();
    let mut draining = false;
    let mut listeners_live = true;

    loop {
        poller.wait(&mut events, 64)?;
        let batch: Vec<PollEvent> = std::mem::take(&mut events);
        for ev in batch {
            if ev.token == TOKEN_WAKE {
                drain_wake(wake_rx);
                while let Ok((token, done)) = done_rx.try_recv() {
                    if let Some(conn) = conns.get_mut(&token) {
                        conn.session.complete(done);
                        pump(conn, &env, &mut draining, &mut report);
                    }
                    sync_conn(poller, &mut conns, token, draining);
                }
            } else if ev.token < TOKEN_CONN_BASE {
                let listener = &listeners[(ev.token - TOKEN_LISTENER_BASE) as usize];
                if !listeners_live {
                    continue;
                }
                while let Some(stream) = listener.accept()? {
                    let token = next_conn;
                    next_conn += 1;
                    poller.register(stream.as_raw_fd(), token, Interest::READ)?;
                    conns.insert(
                        token,
                        Conn {
                            token,
                            stream,
                            decoder: FrameDecoder::new(env.config.max_frame),
                            interest: Interest::READ,
                            write_buf: Vec::new(),
                            write_pos: 0,
                            session: Session::default(),
                            tenant: env.tenants.tenant(DEFAULT_TENANT),
                            read_eof: false,
                            dead: false,
                        },
                    );
                    report.connections += 1;
                }
            } else if let Some(conn) = conns.get_mut(&ev.token) {
                if ev.readable && conn.interest.readable && !draining {
                    handle_readable(conn, &env, &mut report);
                    pump(conn, &env, &mut draining, &mut report);
                }
                if ev.writable {
                    conn.try_write();
                }
                sync_conn(poller, &mut conns, ev.token, draining);
            }
        }
        if draining && listeners_live {
            // Stop accepting and stop reading: finish what was admitted.
            for listener in listeners {
                poller.deregister(listener.raw_fd())?;
            }
            listeners_live = false;
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.session.close();
                }
                sync_conn(poller, &mut conns, token, draining);
            }
        }
        if draining && conns.values().all(Conn::idle) {
            report.shutdown = true;
            return Ok(report);
        }
    }
}

fn drain_wake(wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    let mut wake = wake_rx;
    loop {
        match wake.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Reads what is available and feeds each decoded frame, in arrival
/// order, to the connection's session; stops early once the session is
/// gated.
fn handle_readable<S: ServeSink + ?Sized>(
    conn: &mut Conn,
    env: &Env<'_, S>,
    report: &mut ServerReport,
) {
    let mut items: Vec<FrameItem> = Vec::new();
    let mut buf = [0u8; 16 << 10];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_eof = true;
                items.extend(conn.decoder.on_eof().map(FrameItem::Violation));
            }
            Ok(n) => conn.decoder.push(&buf[..n], &mut items),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                env.sink.event(ServeEvent::InputError {
                    message: e.to_string(),
                });
                conn.dead = true;
            }
        }
        report.frames += items.len() as u64;
        for item in items.drain(..) {
            match item {
                FrameItem::Line(line) => conn.session.line(&line),
                FrameItem::Violation(violation) => conn.session.violation(violation),
            }
        }
        if conn.read_eof || conn.dead || conn.session.gated() {
            break;
        }
    }
}

/// Dispatches the session's jobs and writes its replies, one frame
/// each, counting them toward the connection's tenant.
fn pump<S: ServeSink + ?Sized>(
    conn: &mut Conn,
    env: &Env<'_, S>,
    draining: &mut bool,
    report: &mut ServerReport,
) {
    while let Some(job) = conn.session.next_job() {
        let _ = env.job_tx.send((conn.token, job));
    }
    *draining |= conn.session.shut_down();
    while let Some(reply) = conn.session.next_reply() {
        let t = &conn.tenant;
        let bump = |counter: &AtomicU64| {
            counter.fetch_add(1, Ordering::Relaxed);
        };
        match &reply {
            Reply::Query { result, .. } => {
                bump(&t.queries);
                bump(if result.is_ok() {
                    &t.answered
                } else {
                    &t.failed
                });
            }
            Reply::Delta { result, .. } => bump(if result.is_ok() { &t.deltas } else { &t.failed }),
            Reply::Failed { .. } => bump(&t.failed),
            Reply::Tenant(name) => conn.tenant = env.tenants.tenant(name),
            Reply::Shutdown => {}
        }
        let before = conn.write_buf.len();
        encode_frame(&reply.payload(), &mut conn.write_buf);
        conn.tenant
            .bytes_out
            .fetch_add((conn.write_buf.len() - before) as u64, Ordering::Relaxed);
        report.replies += 1;
        reply.report(env.sink);
    }
}

/// Flushes, recomputes poll interest, and closes the connection when it
/// has nothing left to do.
fn sync_conn(poller: &mut Poller, conns: &mut HashMap<u64, Conn>, token: u64, draining: bool) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    if !conn.dead {
        conn.try_write();
    }
    if conn.should_close() {
        let _ = poller.deregister(conn.stream.as_raw_fd());
        conns.remove(&token);
        return;
    }
    // Hysteresis: a connection that tripped the high-water mark must
    // drain below the low-water mark before reads resume.
    let resume = if conn.interest.readable {
        WRITE_HIGH_WATER
    } else {
        WRITE_LOW_WATER
    };
    let want = Interest {
        readable: !draining
            && !conn.read_eof
            && !conn.dead
            && conn.write_pending() < resume.max(HEADER_LEN)
            && !conn.session.gated(),
        writable: conn.write_pending() > 0,
    };
    if want != conn.interest {
        if poller
            .reregister(conn.stream.as_raw_fd(), token, want)
            .is_err()
        {
            conn.dead = true;
            let _ = poller.deregister(conn.stream.as_raw_fd());
            conns.remove(&token);
            return;
        }
        conn.interest = want;
    }
}
