//! End-to-end tests of the framed multi-connection server over real
//! unix sockets: concurrent clients with in-order replies, typed frame
//! faults that stay per-connection, the per-connection delta barrier,
//! tenant accounting, and stale-socket handling.

use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use subsim_delta::NullSink;
use subsim_diffusion::RrStrategy;
use subsim_graph::generators::barabasi_albert;
use subsim_graph::{Graph, WeightModel};
use subsim_index::{IndexConfig, TenantMetrics};
use subsim_serve::{encode_frame, serve_framed, Listener, ServerConfig, ShardedDeltaIndex};

fn config() -> IndexConfig {
    IndexConfig::new(RrStrategy::SubsimIc)
        .seed(11)
        .chunk_size(32)
        .threads(2)
}

fn graph() -> Graph {
    barabasi_albert(120, 3, WeightModel::Wc, 41)
}

fn sock_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("subsim-serve-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn send_line(stream: &mut UnixStream, line: &str) {
    let mut buf = Vec::new();
    encode_frame(line, &mut buf);
    stream.write_all(&buf).unwrap();
}

fn read_reply(stream: &mut UnixStream) -> String {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_be_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    String::from_utf8(payload).unwrap()
}

fn connect(path: &Path) -> UnixStream {
    // The server thread may not have bound yet; retry briefly.
    for _ in 0..200 {
        if let Ok(s) = UnixStream::connect(path) {
            return s;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("could not connect to {}", path.display());
}

/// Eight concurrent clients pipeline distinct query batches; every
/// client sees its own replies, in its own send order, matching a
/// direct query against an identical index.
#[test]
fn socket_smoke_eight_concurrent_clients_in_order() {
    let g = graph();
    let index = ShardedDeltaIndex::new(g.clone(), config(), 2).unwrap();
    let reference = ShardedDeltaIndex::new(g, config(), 2).unwrap();
    let path = sock_path("smoke");
    let tenants = TenantMetrics::new();
    let server_cfg = ServerConfig {
        workers: 3,
        delta: 0.01,
        ..ServerConfig::default()
    };

    // Expected reply per k, computed against an identical index.
    let ks = [1usize, 2, 3, 4];
    let expected: Vec<String> = ks
        .iter()
        .map(|&k| {
            let ans = reference.query(k, 0.2, 0.01).unwrap();
            ans.seeds
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();

    let report = std::thread::scope(|scope| {
        let (listener, guard) = Listener::bind_unix(&path).unwrap();
        let index = &index;
        let tenants = &tenants;
        let server_cfg = &server_cfg;
        let server = scope.spawn(move || {
            let report = serve_framed(index, vec![listener], server_cfg, tenants, &NullSink);
            drop(guard);
            report
        });
        let mut clients = Vec::new();
        for c in 0..8 {
            let path = &path;
            let expected = &expected;
            clients.push(scope.spawn(move || {
                let mut stream = connect(path);
                // Pipeline all queries before reading any reply.
                for (i, &k) in ks.iter().enumerate() {
                    let _ = (c, i);
                    send_line(&mut stream, &format!("{k} 0.2"));
                }
                for want in expected {
                    assert_eq!(&read_reply(&mut stream), want);
                }
            }));
        }
        for client in clients {
            client.join().unwrap();
        }
        let mut stream = connect(&path);
        send_line(&mut stream, "shutdown");
        assert_eq!(read_reply(&mut stream), "ok shutdown");
        server.join().unwrap().unwrap()
    });
    assert!(report.shutdown);
    assert_eq!(report.connections, 9);
    assert!(!path.exists(), "socket removed on graceful shutdown");
}

/// Frame violations produce typed per-connection errors and never
/// disturb other connections.
#[test]
fn frame_faults_are_typed_and_isolated() {
    let g = graph();
    let index = ShardedDeltaIndex::new(g, config(), 2).unwrap();
    let path = sock_path("faults");
    let tenants = TenantMetrics::new();
    let server_cfg = ServerConfig {
        max_frame: 32,
        ..ServerConfig::default()
    };

    std::thread::scope(|scope| {
        let (listener, guard) = Listener::bind_unix(&path).unwrap();
        let index = &index;
        let tenants = &tenants;
        let server_cfg = &server_cfg;
        let server = scope.spawn(move || {
            let report = serve_framed(index, vec![listener], server_cfg, tenants, &NullSink);
            drop(guard);
            report
        });

        // Victim connection: oversized frame, bad UTF-8, then a valid
        // query — each fault answered typed, the query still answered.
        let mut bad = connect(&path);
        let oversized = "x".repeat(64);
        send_line(&mut bad, &oversized);
        bad.write_all(&[0, 0, 0, 2, 0xff, 0xfe]).unwrap();
        send_line(&mut bad, "2 0.2");
        assert_eq!(
            read_reply(&mut bad),
            "err oversized frame: 64 bytes exceeds cap 32"
        );
        assert_eq!(read_reply(&mut bad), "err frame payload is not valid UTF-8");
        let seeds = read_reply(&mut bad);
        assert!(!seeds.starts_with("err"), "query still answers: {seeds}");

        // A second connection is untouched throughout.
        let mut good = connect(&path);
        send_line(&mut good, "2 0.2");
        assert_eq!(read_reply(&mut good), seeds);

        // Truncation: half a frame then write-side close. The typed
        // error still arrives on the read side.
        let mut trunc = connect(&path);
        trunc.write_all(&[0, 0, 0, 9, b'x']).unwrap();
        trunc.shutdown(Shutdown::Write).unwrap();
        assert_eq!(
            read_reply(&mut trunc),
            "err truncated frame: stream ended 8 bytes early"
        );

        // Malformed lines are typed errors too, not disconnects.
        send_line(&mut good, "not a query");
        let reply = read_reply(&mut good);
        assert!(reply.starts_with("err malformed line:"), "{reply}");

        send_line(&mut good, "shutdown");
        assert_eq!(read_reply(&mut good), "ok shutdown");
        let report = server.join().unwrap().unwrap();
        assert!(report.shutdown);
    });
}

/// A `delta` frame fences its connection: earlier queries answer first,
/// later queries run on the repaired snapshot, replies stay in order.
#[test]
fn delta_barrier_keeps_per_connection_order() {
    let g = graph();
    let index = ShardedDeltaIndex::new(g.clone(), config(), 3).unwrap();
    let path = sock_path("barrier");
    let tenants = TenantMetrics::new();
    let server_cfg = ServerConfig::default();

    // A fresh edge to insert.
    let hub = (0..g.n() as u32).max_by_key(|&v| g.in_degree(v)).unwrap();
    let u = (0..g.n() as u32)
        .find(|&u| u != hub && g.prob_of_edge(u, hub).is_none())
        .unwrap();

    std::thread::scope(|scope| {
        let (listener, guard) = Listener::bind_unix(&path).unwrap();
        let index = &index;
        let tenants = &tenants;
        let server_cfg = &server_cfg;
        let server = scope.spawn(move || {
            let report = serve_framed(index, vec![listener], server_cfg, tenants, &NullSink);
            drop(guard);
            report
        });
        let mut stream = connect(&path);
        // Pipeline: queries, a delta, a pinned query at the new version,
        // a stale pinned query — all before reading anything.
        send_line(&mut stream, "2 0.2");
        send_line(&mut stream, "3 0.2");
        send_line(&mut stream, &format!("delta + {u} {hub} 0.7"));
        send_line(&mut stream, "2 0.2 @1");
        send_line(&mut stream, "2 0.2 @0");
        let first = read_reply(&mut stream);
        let second = read_reply(&mut stream);
        assert!(!first.starts_with("err"), "{first}");
        assert!(!second.starts_with("err"), "{second}");
        assert_eq!(read_reply(&mut stream), "ok delta v1");
        let pinned = read_reply(&mut stream);
        assert!(!pinned.starts_with("err"), "pin at live version: {pinned}");
        let stale = read_reply(&mut stream);
        assert!(
            stale.starts_with("err stale version"),
            "stale pin is typed: {stale}"
        );
        send_line(&mut stream, "shutdown");
        assert_eq!(read_reply(&mut stream), "ok shutdown");
        server.join().unwrap().unwrap();
    });
    assert_eq!(index.version(), 1);
}

/// `tenant` frames re-tag the connection; counters land on the named
/// tenant.
#[test]
fn tenant_frames_route_counters() {
    let g = graph();
    let index = ShardedDeltaIndex::new(g, config(), 2).unwrap();
    let path = sock_path("tenant");
    let tenants = TenantMetrics::new();
    let server_cfg = ServerConfig::default();

    std::thread::scope(|scope| {
        let (listener, guard) = Listener::bind_unix(&path).unwrap();
        let index = &index;
        let tenants_ref = &tenants;
        let server_cfg = &server_cfg;
        let server = scope.spawn(move || {
            let report = serve_framed(index, vec![listener], server_cfg, tenants_ref, &NullSink);
            drop(guard);
            report
        });
        let mut stream = connect(&path);
        send_line(&mut stream, "tenant acme");
        send_line(&mut stream, "2 0.2");
        send_line(&mut stream, "bogus");
        assert_eq!(read_reply(&mut stream), "ok tenant acme");
        assert!(!read_reply(&mut stream).starts_with("err"));
        assert!(read_reply(&mut stream).starts_with("err malformed"));
        send_line(&mut stream, "shutdown");
        assert_eq!(read_reply(&mut stream), "ok shutdown");
        server.join().unwrap().unwrap();
    });
    let acme = tenants.tenant("acme");
    assert_eq!(acme.queries.load(Ordering::Relaxed), 1);
    assert_eq!(acme.answered.load(Ordering::Relaxed), 1);
    assert_eq!(acme.failed.load(Ordering::Relaxed), 1);
    assert!(acme.bytes_out.load(Ordering::Relaxed) > 0);
}

/// Startup unlinks a stale socket left by a dead server, but refuses to
/// unlink a path that is not a socket.
#[test]
fn stale_socket_is_unlinked_but_regular_files_are_refused() {
    let path = sock_path("stale");
    // Simulate a crashed server: bind, then drop the listener without
    // removing the path.
    {
        let l = std::os::unix::net::UnixListener::bind(&path).unwrap();
        drop(l);
    }
    assert!(path.exists(), "stale socket file left behind");
    let (listener, guard) = Listener::bind_unix(&path).unwrap();
    drop(listener);
    drop(guard);
    assert!(!path.exists(), "guard removed the socket");

    // A regular file at the path is refused, not deleted.
    std::fs::write(&path, b"precious").unwrap();
    let err = Listener::bind_unix(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    assert_eq!(std::fs::read(&path).unwrap(), b"precious");
    std::fs::remove_file(&path).unwrap();
}

/// A frame violation queues behind a `delta` barrier like any line:
/// pipelined `delta`, query and oversized frame in one write reply as
/// delta ack, seeds, `err oversized…`; a truncated frame at EOF behind a
/// barrier likewise replies after the barrier and the query it fenced.
#[test]
fn frame_violations_keep_their_place_behind_a_barrier() {
    let g = graph();
    let index = ShardedDeltaIndex::new(g.clone(), config(), 2).unwrap();
    let path = sock_path("violation-order");
    let tenants = TenantMetrics::new();
    let server_cfg = ServerConfig {
        max_frame: 32,
        ..ServerConfig::default()
    };
    let hub = (0..g.n() as u32).max_by_key(|&v| g.in_degree(v)).unwrap();
    let mut fresh = (0..g.n() as u32).filter(|&u| u != hub && g.prob_of_edge(u, hub).is_none());
    let (u1, u2) = (fresh.next().unwrap(), fresh.next().unwrap());
    // Replies are collected first and checked after shutdown, so an
    // ordering bug fails the test instead of leaving the server running.
    let (pipelined, truncated) = std::thread::scope(|scope| {
        let (listener, guard) = Listener::bind_unix(&path).unwrap();
        let index = &index;
        let tenants = &tenants;
        let server_cfg = &server_cfg;
        let server = scope.spawn(move || {
            let report = serve_framed(index, vec![listener], server_cfg, tenants, &NullSink);
            drop(guard);
            report
        });

        let mut stream = connect(&path);
        let mut burst = Vec::new();
        encode_frame(&format!("delta + {u1} {hub} 0.7"), &mut burst);
        encode_frame("2 0.2", &mut burst);
        encode_frame(&"x".repeat(64), &mut burst);
        stream.write_all(&burst).unwrap();
        let pipelined: Vec<String> = (0..3).map(|_| read_reply(&mut stream)).collect();

        // Truncation at EOF behind a barrier.
        let mut trunc = connect(&path);
        let mut burst = Vec::new();
        encode_frame(&format!("delta + {u2} {hub} 0.6"), &mut burst);
        encode_frame("2 0.2", &mut burst);
        burst.extend_from_slice(&[0, 0, 0, 9, b'x']);
        trunc.write_all(&burst).unwrap();
        trunc.shutdown(Shutdown::Write).unwrap();
        let truncated: Vec<String> = (0..3).map(|_| read_reply(&mut trunc)).collect();

        send_line(&mut stream, "shutdown");
        assert_eq!(read_reply(&mut stream), "ok shutdown");
        assert!(server.join().unwrap().unwrap().shutdown);
        (pipelined, truncated)
    });
    assert_eq!(pipelined[0], "ok delta v1");
    assert!(
        !pipelined[1].starts_with("err"),
        "seeds second: {pipelined:?}"
    );
    assert_eq!(pipelined[2], "err oversized frame: 64 bytes exceeds cap 32");
    assert_eq!(truncated[0], "ok delta v2");
    assert!(
        !truncated[1].starts_with("err"),
        "seeds second: {truncated:?}"
    );
    assert_eq!(
        truncated[2],
        "err truncated frame: stream ended 8 bytes early"
    );
    assert_eq!(index.version(), 2);
}
