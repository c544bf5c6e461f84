//! The fault-injection battery: every injected fault class must surface
//! as a **typed** error — never a panic across the API boundary, never a
//! poisoned lock, never a silently wrong answer — and the index must
//! answer subsequent queries correctly, bit-identical to a twin that
//! never saw the fault.
//!
//! Fault levers (see `subsim_testkit::fault`):
//! - [`FaultyReader`] injects truncation, byte corruption, and hard
//!   mid-stream I/O errors into snapshot loading and the serving loop's
//!   input.
//! - the worker-pool chunk hooks (forwarded by `RrIndex`,
//!   `DeltaIndex`, and `ShardedDeltaIndex` as `set_chunk_hook`)
//!   panic inside generation workers, exercising the
//!   catch-unwind / batch-discard path under real thread pools.

use subsim_delta::{serve_queries, DeltaError, GraphDelta, NullSink, ServeEvent, ServeSink};
use subsim_diffusion::RrStrategy;
use subsim_graph::generators::barabasi_albert;
use subsim_graph::{Graph, WeightModel};
use subsim_index::{read_index, write_index, IndexConfig, IndexError, RrIndex};
use subsim_serve::ShardedDeltaIndex;
use subsim_testkit::{panic_on_chunk, panic_on_chunk_id, Fault, FaultyReader};

fn graph() -> Graph {
    barabasi_albert(120, 3, WeightModel::Wc, 7)
}

fn config() -> IndexConfig {
    IndexConfig::new(RrStrategy::SubsimIc)
        .seed(3)
        .chunk_size(64)
        .threads(3)
}

/// A warmed index serialized to bytes, plus its graph.
fn snapshot_bytes() -> (Graph, Vec<u8>) {
    let g = graph();
    let mut index = RrIndex::new(&g, config());
    index.warm(256).unwrap();
    let mut bytes = Vec::new();
    write_index(&index, &mut bytes).unwrap();
    (g, bytes)
}

#[test]
fn truncated_snapshots_fail_typed_at_every_prefix_length() {
    let (g, bytes) = snapshot_bytes();
    // Sweep truncation points across the whole layout: header, config,
    // pool lengths, and mid-arena. Every one must produce a typed error.
    for at in [0, 4, 7, 8, 12, 20, 29, 45, bytes.len() / 2, bytes.len() - 1] {
        let reader = FaultyReader::new(bytes.clone(), Fault::TruncateAt(at));
        let err = read_index(&g, reader).expect_err("truncated snapshot must fail");
        assert!(
            matches!(err, IndexError::Io(_) | IndexError::SnapshotMismatch { .. }),
            "truncation at {at}: unexpected error {err:?}"
        );
    }
    // The control arm: untouched bytes load and serve.
    let mut loaded = read_index(&g, FaultyReader::new(bytes, Fault::None)).unwrap();
    assert!(loaded.query(5, 0.2, 0.05).is_ok());
}

#[test]
fn corrupt_snapshot_bytes_fail_typed_not_wrong() {
    let (g, bytes) = snapshot_bytes();
    // Flip one byte in each structural region: magic, format version,
    // graph fingerprint, strategy code, and seed. All must be *detected*
    // (typed error) — a silent wrong answer is the failure mode this
    // guards against.
    for offset in [0, 9, 13, 20, 22] {
        let reader = FaultyReader::new(bytes.clone(), Fault::CorruptByte { offset, xor: 0x40 });
        let err = read_index(&g, reader)
            .expect_err(&format!("corruption at byte {offset} must be detected"));
        assert!(
            matches!(err, IndexError::SnapshotMismatch { .. } | IndexError::Io(_)),
            "corruption at {offset}: unexpected error {err:?}"
        );
    }
}

#[test]
fn mid_stream_io_error_is_typed() {
    let (g, bytes) = snapshot_bytes();
    let at = bytes.len() / 3;
    let err = read_index(&g, FaultyReader::new(bytes, Fault::ErrorAt(at))).unwrap_err();
    match err {
        IndexError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
        other => panic!("expected Io, got {other:?}"),
    }
}

#[test]
fn failed_load_leaves_the_live_index_untouched() {
    let (g, bytes) = snapshot_bytes();
    let mut live = RrIndex::new(&g, config());
    let before = live.query(5, 0.2, 0.05).unwrap().seeds;
    for fault in [
        Fault::TruncateAt(10),
        Fault::ErrorAt(40),
        Fault::CorruptByte { offset: 3, xor: 1 },
    ] {
        assert!(read_index(&g, FaultyReader::new(bytes.clone(), fault)).is_err());
    }
    assert_eq!(
        live.query(5, 0.2, 0.05).unwrap().seeds,
        before,
        "failed snapshot loads must not disturb a live index"
    );
}

#[test]
fn worker_panic_in_rr_index_is_typed_and_recoverable() {
    let g = graph();
    let mut faulted = RrIndex::new(&g, config());
    faulted.set_chunk_hook(Some(panic_on_chunk()));
    let err = faulted.query(5, 0.2, 0.05).unwrap_err();
    assert!(matches!(err, IndexError::WorkerPanic), "got {err:?}");
    // Repeated faults stay typed (workers and locks survived the first).
    assert!(matches!(
        faulted.query(5, 0.2, 0.05).unwrap_err(),
        IndexError::WorkerPanic
    ));
    faulted.set_chunk_hook(None);
    let recovered = faulted.query(5, 0.2, 0.05).unwrap();
    // Bit-identical to a twin that never faulted: the discarded partial
    // batches left no trace in the pool.
    let mut clean = RrIndex::new(&g, config());
    assert_eq!(recovered.seeds, clean.query(5, 0.2, 0.05).unwrap().seeds);
}

#[test]
fn single_chunk_fault_discards_the_whole_batch() {
    let g = graph();
    let mut index = RrIndex::new(&g, config());
    index.warm(128).unwrap();
    let before = index.pool_len();
    index.set_chunk_hook(Some(panic_on_chunk_id(3)));
    assert!(matches!(
        index.warm(512).unwrap_err(),
        IndexError::WorkerPanic
    ));
    assert_eq!(
        index.pool_len(),
        before,
        "a faulted batch must not publish partial chunks"
    );
    index.set_chunk_hook(None);
    index.warm(512).unwrap();
    let mut clean = RrIndex::new(&g, config());
    clean.warm(512).unwrap();
    assert_eq!(
        index.query(5, 0.2, 0.05).unwrap().seeds,
        clean.query(5, 0.2, 0.05).unwrap().seeds,
        "recovered pool must be bit-identical to a never-faulted twin"
    );
}

#[test]
fn worker_panic_mid_delta_apply_keeps_version_and_answers() {
    let g = graph();
    let index = ShardedDeltaIndex::new(g.clone(), config(), 1).unwrap();
    index.warm(256).unwrap();
    let before = index.query(5, 0.2, 0.05).unwrap().seeds;
    let version_before = index.version();

    let mut delta = GraphDelta::new();
    delta.push(GraphDelta::parse_line("~ 0 1 0.5").unwrap().unwrap());
    index.set_chunk_hook(Some(panic_on_chunk()));
    let err = index.apply_delta(&delta).unwrap_err();
    assert!(
        matches!(err, DeltaError::Index(IndexError::WorkerPanic)),
        "got {err:?}"
    );
    assert_eq!(
        index.version(),
        version_before,
        "graph version must not run ahead of a failed repair"
    );
    assert_eq!(
        index.query(5, 0.2, 0.05).unwrap().seeds,
        before,
        "the pre-fault snapshot keeps serving"
    );

    // Recovery: hook off, the same delta applies, and the result matches
    // a twin that never saw the fault.
    index.set_chunk_hook(None);
    index.apply_delta(&delta).unwrap();
    assert_eq!(index.version(), version_before + 1);
    let twin = ShardedDeltaIndex::new(g, config(), 1).unwrap();
    twin.warm(256).unwrap();
    twin.apply_delta(&delta).unwrap();
    assert_eq!(
        index.query(5, 0.2, 0.05).unwrap().seeds,
        twin.query(5, 0.2, 0.05).unwrap().seeds,
        "post-recovery pool must equal the never-faulted twin's"
    );
}

/// Event recorder for serving-loop assertions.
#[derive(Default)]
struct Recorder(std::sync::Mutex<Vec<ServeEvent>>);

impl ServeSink for Recorder {
    fn event(&self, event: ServeEvent) {
        self.0.lock().unwrap().push(event);
    }
}

#[test]
fn serving_survives_mid_stream_input_failure() {
    let index = ShardedDeltaIndex::new(graph(), config(), 1).unwrap();
    // One good query, then the connection dies mid-line.
    let input = b"3 0.2\ndelta ~ 0 1 0.4\n3 0.2".to_vec();
    let reader = std::io::BufReader::new(FaultyReader::new(input, Fault::ErrorAt(22)));
    let mut out = Vec::new();
    let rec = Recorder::default();
    let shutdown = serve_queries(&index, 0.05, 2, reader, &mut out, &rec).unwrap();
    assert!(!shutdown);
    let events = rec.0.into_inner().unwrap();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ServeEvent::InputError { .. })),
        "the dropped stream must surface as a typed event: {events:?}"
    );
    // The session ended, but the index is untouched: a fresh session on
    // the same index serves normally.
    let mut out2 = Vec::new();
    serve_queries(&index, 0.05, 2, &b"3 0.2\n"[..], &mut out2, &NullSink).unwrap();
    assert_eq!(
        String::from_utf8(out2).unwrap().lines().count(),
        1,
        "index must keep serving after a dropped session"
    );
}

#[test]
fn fault_storm_session_keeps_serving_and_stays_consistent() {
    // Everything at once: a malformed query, a bogus delta op, and a
    // stale pin interleaved with valid traffic. The session must produce
    // exactly the valid answers, every failure typed.
    let g = graph();
    let index = ShardedDeltaIndex::new(g.clone(), config(), 1).unwrap();
    index.warm(256).unwrap();

    let rec = Recorder::default();
    let mut out = Vec::new();
    let input = "3 0.2\n\
                 not a query\n\
                 delta nope nope\n\
                 delta ~ 0 1 0.4\n\
                 3 0.2 @0\n\
                 3 0.2 @1\n\
                 3 0.2\n";
    serve_queries(&index, 0.05, 2, input.as_bytes(), &mut out, &rec).unwrap();

    let answers: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(answers.len(), 3, "three valid queries answer");
    let events = rec.0.into_inner().unwrap();
    let failures = events
        .iter()
        .filter(|e| matches!(e, ServeEvent::LineFailed { .. }))
        .count();
    assert_eq!(failures, 3, "malformed, bogus delta, stale pin: {events:?}");
    assert_eq!(index.version(), 1);

    // Consistency: the surviving index answers exactly like a clean twin
    // that applied the same delta with no faults around it.
    let twin = ShardedDeltaIndex::new(g, config(), 1).unwrap();
    twin.warm(256).unwrap();
    let mut delta = GraphDelta::new();
    delta.push(GraphDelta::parse_line("~ 0 1 0.4").unwrap().unwrap());
    twin.apply_delta(&delta).unwrap();
    assert_eq!(
        index.query(3, 0.2, 0.05).unwrap().seeds,
        twin.query(3, 0.2, 0.05).unwrap().seeds
    );
}
