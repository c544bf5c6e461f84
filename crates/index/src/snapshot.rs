//! Versioned snapshot persistence for [`RrIndex`].
//!
//! Layout (little-endian), a header over two standard RR-collection blobs
//! (the `SUBSIMRR` format of `subsim_diffusion::serialize`):
//!
//! ```text
//! magic "SUBSIMIX" | version u32
//! graph fingerprint u64 | strategy u8 | seed u64
//! chunk_size u64 | chunks u64
//! sentinel flag u8 (v3+); if 1:
//!   from_chunk u64 | z_len u64 | z: u32 × z_len
//!   chunk_hits_r1: u64 × chunks | chunk_hits_r2: u64 × chunks
//! sketch flag u8 (v4+); if 1:
//!   SUBSIMSK block (subsim_sketch::SketchedPool canonical form)
//! r1: blob_len u64 | SUBSIMRR bytes
//! r2: blob_len u64 | SUBSIMRR bytes (0 sets when the sketch flag is 1)
//! checksum u64 (FNV-1a over every preceding byte)
//! ```
//!
//! Loading re-fingerprints the *provided* graph and refuses a snapshot
//! whose fingerprint, strategy stream, or internal set counts disagree —
//! a warmed pool is only sound against the exact graph and RNG stream
//! that produced it. The trailing checksum closes the remaining gap:
//! fields the structural checks cannot validate (the stored seed, bytes
//! inside the RR arenas) would otherwise load *silently wrong*, changing
//! the pool's identity without any error. Version 2 of the format makes
//! every single-byte corruption a typed [`IndexError::SnapshotMismatch`].
//! Version 3 adds the sentinel block: a sentinel pool's truncated chunks
//! are only certifiable *through* its set `Z`, so persisting the pool
//! without `Z` would silently change query semantics — a corrupt or
//! missing sentinel block must therefore be a typed refusal, never a
//! fallback to plain-pool answers. Version 4 adds the sketch block: a
//! sketched pool persists its per-chunk count-distinct registers instead
//! of an `R₂` arena, and a corrupt sketch block is likewise a typed
//! refusal — never a silent fallback to exact validation (which the
//! snapshot does not even contain). Version-2 and version-3 snapshots
//! still load.

use crate::error::IndexError;
use crate::fingerprint::graph_fingerprint;
use crate::index::{IndexConfig, RrIndex, SentinelState};
use crate::pool::PoolState;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use subsim_core::sentinel::SentinelSet;
use subsim_diffusion::serialize::{read_rr_collection, write_rr_collection};
use subsim_diffusion::RrStrategy;
use subsim_graph::Graph;
use subsim_sketch::SketchedPool;

const MAGIC: &[u8; 8] = b"SUBSIMIX";
const VERSION: u32 = 4;
/// Oldest version still loadable (plain pools only — the sentinel block
/// did not exist yet).
const MIN_VERSION: u32 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hashes every byte that passes through on its way to `inner`, so the
/// writer can append a checksum without buffering the whole snapshot.
struct HashingWriter<W: Write> {
    inner: W,
    hash: u64,
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash = fnv1a(self.hash, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The read-side twin: hashes every byte handed to the parser, so the
/// trailer comparison covers exactly the bytes the parser consumed.
struct HashingReader<R: Read> {
    inner: R,
    hash: u64,
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash = fnv1a(self.hash, &buf[..n]);
        Ok(n)
    }
}

fn strategy_code(s: RrStrategy) -> u8 {
    match s {
        RrStrategy::VanillaIc => 0,
        RrStrategy::SubsimIc => 1,
        RrStrategy::SubsimBucketIc => 2,
        RrStrategy::Lt => 3,
    }
}

fn strategy_from_code(code: u8) -> Option<RrStrategy> {
    match code {
        0 => Some(RrStrategy::VanillaIc),
        1 => Some(RrStrategy::SubsimIc),
        2 => Some(RrStrategy::SubsimBucketIc),
        3 => Some(RrStrategy::Lt),
        _ => None,
    }
}

fn mismatch(reason: impl Into<String>) -> IndexError {
    IndexError::SnapshotMismatch {
        reason: reason.into(),
    }
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes `index`'s pool and RNG cursor to `w`.
pub fn write_index<W: Write>(index: &RrIndex<'_>, w: W) -> Result<(), IndexError> {
    let mut w = HashingWriter {
        inner: io::BufWriter::new(w),
        hash: FNV_OFFSET,
    };
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&graph_fingerprint(index.graph()).to_le_bytes())?;
    w.write_all(&[strategy_code(index.config().strategy)])?;
    w.write_all(&index.config().seed.to_le_bytes())?;
    w.write_all(&(index.config().chunk_size as u64).to_le_bytes())?;
    w.write_all(&index.chunk_cursor().to_le_bytes())?;
    match index.sentinel_state() {
        Some(st) => {
            w.write_all(&[1u8])?;
            w.write_all(&st.from_chunk.to_le_bytes())?;
            w.write_all(&(st.set.len() as u64).to_le_bytes())?;
            for &v in st.set.nodes() {
                w.write_all(&v.to_le_bytes())?;
            }
            for hits in [&st.chunk_hits_r1, &st.chunk_hits_r2] {
                for &h in hits {
                    w.write_all(&h.to_le_bytes())?;
                }
            }
        }
        None => w.write_all(&[0u8])?,
    }
    match index.sketch_state() {
        Some(sk) => {
            w.write_all(&[1u8])?;
            sk.write_to(&mut w)?;
        }
        None => w.write_all(&[0u8])?,
    }
    // For a sketched index `validation_pool()` is the empty collection —
    // the r2 blob below carries 0 sets and the sketch block above is the
    // only persisted validation tier.
    for rr in [index.selection_pool(), index.validation_pool()] {
        let mut blob = Vec::new();
        write_rr_collection(rr, &mut blob)?;
        w.write_all(&(blob.len() as u64).to_le_bytes())?;
        w.write_all(&blob)?;
    }
    // The trailer goes through `inner` directly: the checksum covers
    // every byte before it, not itself.
    let digest = w.hash;
    w.inner.write_all(&digest.to_le_bytes())?;
    w.inner.flush()?;
    Ok(())
}

/// Reads an index previously written by [`write_index`], re-binding it to
/// `g` after verifying the fingerprint.
///
/// The restored config carries the snapshot's `strategy`, `seed`, and
/// `chunk_size` (they define the pool's identity); `threads` resets to 1
/// and `max_nodes` to unlimited — adjust via [`RrIndex::set_threads`] /
/// [`RrIndex::set_max_nodes`]. Counters restart at zero.
pub fn read_index<'g, R: Read>(g: &'g Graph, r: R) -> Result<RrIndex<'g>, IndexError> {
    let mut r = HashingReader {
        inner: io::BufReader::new(r),
        hash: FNV_OFFSET,
    };
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(mismatch("not a subsim-index snapshot"));
    }
    let version = read_u32(&mut r)?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(mismatch(format!(
            "unsupported snapshot version {version} (this build reads {MIN_VERSION}..={VERSION})"
        )));
    }
    let fingerprint = read_u64(&mut r)?;
    let expected = graph_fingerprint(g);
    if fingerprint != expected {
        return Err(mismatch(format!(
            "graph fingerprint {fingerprint:#018x} does not match the \
             provided graph ({expected:#018x}) — wrong graph or weights"
        )));
    }
    let mut code = [0u8; 1];
    r.read_exact(&mut code)?;
    let strategy = strategy_from_code(code[0])
        .ok_or_else(|| mismatch(format!("unknown RR strategy code {}", code[0])))?;
    let seed = read_u64(&mut r)?;
    let chunk_size = read_u64(&mut r)? as usize;
    if chunk_size == 0 {
        return Err(mismatch("zero chunk size"));
    }
    let chunks = read_u64(&mut r)?;
    let expected_sets = chunks
        .checked_mul(chunk_size as u64)
        .ok_or_else(|| mismatch("set count overflows"))?;

    let sentinel = if version >= 3 {
        let mut flag = [0u8; 1];
        r.read_exact(&mut flag)?;
        match flag[0] {
            0 => None,
            1 => {
                let from_chunk = read_u64(&mut r)?;
                if from_chunk > chunks {
                    return Err(mismatch(format!(
                        "sentinel boundary {from_chunk} is beyond the chunk cursor {chunks}"
                    )));
                }
                let z_len = read_u64(&mut r)?;
                if z_len == 0 || z_len > g.n() as u64 {
                    return Err(mismatch(format!(
                        "sentinel set of {z_len} nodes is impossible for {} nodes",
                        g.n()
                    )));
                }
                let mut z = Vec::with_capacity(z_len as usize);
                for _ in 0..z_len {
                    let v = read_u32(&mut r)?;
                    if v as usize >= g.n() {
                        return Err(mismatch(format!(
                            "sentinel node {v} out of range for {} nodes",
                            g.n()
                        )));
                    }
                    z.push(v);
                }
                let mut halves_hits = [Vec::new(), Vec::new()];
                for hits in &mut halves_hits {
                    // Element-wise reads (no capacity hint from the
                    // untrusted `chunks`): a corrupt cursor errors at EOF
                    // instead of a giant allocation.
                    for _ in 0..chunks {
                        hits.push(read_u64(&mut r)?);
                    }
                }
                let [chunk_hits_r1, chunk_hits_r2] = halves_hits;
                let set = SentinelSet::from_nodes(z.clone());
                if set.len() as u64 != z_len {
                    return Err(mismatch("sentinel set holds duplicate nodes"));
                }
                Some(SentinelState {
                    set,
                    from_chunk,
                    chunk_hits_r1,
                    chunk_hits_r2,
                })
            }
            other => return Err(mismatch(format!("unknown sentinel flag {other}"))),
        }
    } else {
        None
    };

    let sketch = if version >= 4 {
        let mut flag = [0u8; 1];
        r.read_exact(&mut flag)?;
        match flag[0] {
            0 => None,
            1 => {
                // The sketch block validates its own structure; any
                // refusal is a typed mismatch — a snapshot flagged as
                // sketched carries no exact R₂ to fall back to.
                let sk = SketchedPool::read_from(&mut r).map_err(|e| match e.kind() {
                    io::ErrorKind::InvalidData => mismatch(format!("sketch block: {e}")),
                    io::ErrorKind::UnexpectedEof => mismatch("truncated sketch block"),
                    _ => IndexError::from(e),
                })?;
                if sk.graph_n() != g.n() {
                    return Err(mismatch(format!(
                        "sketch is over {} nodes, graph has {}",
                        sk.graph_n(),
                        g.n()
                    )));
                }
                if sk.chunk_size() != chunk_size {
                    return Err(mismatch(format!(
                        "sketch chunk size {} disagrees with header chunk size {chunk_size}",
                        sk.chunk_size()
                    )));
                }
                if sk.num_chunks() as u64 != chunks {
                    return Err(mismatch(format!(
                        "sketch covers {} chunks, RNG cursor implies {chunks}",
                        sk.num_chunks()
                    )));
                }
                Some(sk)
            }
            other => return Err(mismatch(format!("unknown sketch flag {other}"))),
        }
    } else {
        None
    };
    if sentinel.is_some() && sketch.is_some() {
        return Err(mismatch(
            "snapshot carries both a sentinel and a sketch tier — they are mutually exclusive",
        ));
    }

    // A sketched snapshot persists validation only as registers: its r2
    // blob must hold exactly 0 sets.
    let r2_sets = if sketch.is_some() { 0 } else { expected_sets };
    let mut halves = Vec::with_capacity(2);
    for (half, want) in [("r1", expected_sets), ("r2", r2_sets)] {
        let blob_len = read_u64(&mut r)?;
        // Growing lazily via `take` + `read_to_end` means a corrupt length
        // errors after reading only what actually exists (cf. serialize.rs).
        let mut blob = Vec::new();
        r.by_ref().take(blob_len).read_to_end(&mut blob)?;
        if blob.len() as u64 != blob_len {
            return Err(mismatch(format!("truncated {half} blob")));
        }
        let rr = read_rr_collection(blob.as_slice())?;
        if rr.graph_n() != g.n() {
            return Err(mismatch(format!(
                "{half} stores sets over {} nodes, graph has {}",
                rr.graph_n(),
                g.n()
            )));
        }
        if rr.len() as u64 != want {
            return Err(mismatch(format!(
                "{half} holds {} sets, snapshot layout implies {want}",
                rr.len()
            )));
        }
        halves.push(rr);
    }
    // Everything parsed structurally; now the trailer must match the
    // hash of the bytes actually consumed. This is what catches
    // corruption in fields with no structural redundancy (the seed, a
    // node id inside an arena) before they become silent wrong answers.
    let digest = r.hash;
    let mut trailer = [0u8; 8];
    r.inner.read_exact(&mut trailer)?;
    if u64::from_le_bytes(trailer) != digest {
        return Err(mismatch("checksum mismatch — snapshot bytes are corrupt"));
    }
    let r2 = halves.pop().expect("two halves read");
    let r1 = halves.pop().expect("two halves read");

    let config = IndexConfig {
        strategy,
        seed,
        threads: 1,
        chunk_size,
        max_nodes: None,
        // Restoring `sentinels` from the persisted set keeps growth
        // truncating on the same Z; plain snapshots stay plain.
        sentinels: sentinel.as_ref().map_or(0, |st| st.set.len()),
        // `from_state` below restores the live precision.
        sketch: 0,
    };
    RrIndex::from_state(
        g,
        config,
        PoolState::single(r1, r2, sketch, chunks, sentinel),
    )
}

impl<'g> RrIndex<'g> {
    /// Writes the pool + RNG cursor to `w` ([`write_index`]).
    pub fn save<W: Write>(&self, w: W) -> Result<(), IndexError> {
        write_index(self, w)
    }

    /// Writes the snapshot to a file.
    pub fn save_to_path<P: AsRef<Path>>(&self, path: P) -> Result<(), IndexError> {
        self.save(File::create(path)?)
    }

    /// Reads a snapshot from `r`, bound to `g` ([`read_index`]).
    pub fn load<R: Read>(g: &'g Graph, r: R) -> Result<Self, IndexError> {
        read_index(g, r)
    }

    /// Reads a snapshot from a file.
    pub fn load_from_path<P: AsRef<Path>>(g: &'g Graph, path: P) -> Result<Self, IndexError> {
        Self::load(g, File::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_graph::generators::barabasi_albert;
    use subsim_graph::WeightModel;

    fn warmed_index(g: &Graph) -> RrIndex<'_> {
        let mut index = RrIndex::new(
            g,
            IndexConfig::new(RrStrategy::SubsimIc)
                .seed(9)
                .chunk_size(32),
        );
        index.warm(200).unwrap();
        index
    }

    #[test]
    fn roundtrip_preserves_pool_and_cursor() {
        let g = barabasi_albert(150, 3, WeightModel::Wc, 41);
        let index = warmed_index(&g);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let back = RrIndex::load(&g, buf.as_slice()).unwrap();
        assert_eq!(back.pool_len(), index.pool_len());
        assert_eq!(back.chunk_cursor(), index.chunk_cursor());
        assert_eq!(back.config().seed, 9);
        assert_eq!(back.config().chunk_size, 32);
        for i in 0..index.pool_len() {
            assert_eq!(back.selection_pool().get(i), index.selection_pool().get(i));
            assert_eq!(
                back.validation_pool().get(i),
                index.validation_pool().get(i)
            );
        }
    }

    #[test]
    fn loaded_index_continues_the_same_stream() {
        let g = barabasi_albert(150, 3, WeightModel::Wc, 42);
        let mut fresh = warmed_index(&g);
        let mut buf = Vec::new();
        fresh.save(&mut buf).unwrap();
        let mut loaded = RrIndex::load(&g, buf.as_slice()).unwrap();
        // Growing both must produce identical continuations.
        fresh.warm(500).unwrap();
        loaded.warm(500).unwrap();
        assert_eq!(fresh.pool_len(), loaded.pool_len());
        for i in 0..fresh.pool_len() {
            assert_eq!(
                fresh.selection_pool().get(i),
                loaded.selection_pool().get(i)
            );
        }
    }

    #[test]
    fn rejects_wrong_graph() {
        let g = barabasi_albert(150, 3, WeightModel::Wc, 43);
        let index = warmed_index(&g);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let other = barabasi_albert(150, 3, WeightModel::Wc, 44);
        let err = RrIndex::load(&other, buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, IndexError::SnapshotMismatch { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn rejects_corrupt_bytes() {
        let g = barabasi_albert(120, 3, WeightModel::Wc, 45);
        let index = warmed_index(&g);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(RrIndex::load(&g, bad.as_slice()).is_err());
        // Truncation at every quarter.
        for cut in [buf.len() / 4, buf.len() / 2, buf.len() - 3] {
            let mut bad = buf.clone();
            bad.truncate(cut);
            assert!(RrIndex::load(&g, bad.as_slice()).is_err(), "cut at {cut}");
        }
        // Corrupt strategy code (byte 20: after magic + version + fingerprint).
        let mut bad = buf.clone();
        bad[20] = 0x7f;
        assert!(RrIndex::load(&g, bad.as_slice()).is_err());
    }

    #[test]
    fn flipped_strategy_byte_never_swaps_the_model_silently() {
        // A *valid but different* strategy code with a refreshed trailer
        // parses fine — the pool bytes carry no per-set strategy tag. The
        // loaded config then claims the wrong diffusion model, which is
        // exactly what `ensure_strategy` (the guard every serving loader
        // calls against its configured strategy) must turn into a typed
        // refusal rather than a silent model swap.
        let g = barabasi_albert(120, 3, WeightModel::Wc, 46);
        let index = warmed_index(&g); // SubsimIc, code 1
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let mut flipped = buf.clone();
        flipped[20] = 3; // RrStrategy::Lt
        refresh_trailer(&mut flipped);
        let loaded = RrIndex::load(&g, flipped.as_slice()).unwrap();
        assert_eq!(loaded.config().strategy, RrStrategy::Lt);
        let err = loaded
            .ensure_strategy(RrStrategy::SubsimIc)
            .expect_err("an LT-stamped pool must not serve an IC server");
        assert!(
            matches!(err, IndexError::SnapshotMismatch { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("Lt"), "{err}");
        // The untampered snapshot passes its own guard.
        let clean = RrIndex::load(&g, buf.as_slice()).unwrap();
        clean.ensure_strategy(RrStrategy::SubsimIc).unwrap();
    }

    fn sentinel_index(g: &Graph) -> RrIndex<'_> {
        let mut index = RrIndex::new(
            g,
            IndexConfig::new(RrStrategy::SubsimIc)
                .seed(9)
                .chunk_size(32)
                .sentinels(2),
        );
        // Past the warmup prefix: the tier activates and truncated
        // chunks exist.
        index.warm(320).unwrap();
        assert!(index.sentinel_state().is_some());
        index
    }

    /// Recomputes the FNV trailer after a test poked the bytes, so the
    /// *structural* sentinel checks are exercised (not just the checksum).
    fn refresh_trailer(buf: &mut [u8]) {
        let body = buf.len() - 8;
        let digest = fnv1a(FNV_OFFSET, &buf[..body]);
        buf[body..].copy_from_slice(&digest.to_le_bytes());
    }

    /// Byte offset of the sentinel flag: magic + version + fingerprint +
    /// strategy + seed + chunk_size + chunks.
    const SENTINEL_FLAG_AT: usize = 8 + 4 + 8 + 1 + 8 + 8 + 8;
    /// Byte offset of the sketch flag when the sentinel flag is 0 (the
    /// two tiers are mutually exclusive, so this holds for every
    /// sketched snapshot).
    const SKETCH_FLAG_AT: usize = SENTINEL_FLAG_AT + 1;

    #[test]
    fn sentinel_state_round_trips_and_continues_truncating() {
        let g = barabasi_albert(150, 3, WeightModel::Wc, 47);
        let mut index = sentinel_index(&g);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let mut back = RrIndex::load(&g, buf.as_slice()).unwrap();
        assert_eq!(back.sentinel_state(), index.sentinel_state());
        assert_eq!(back.config().sentinels, 2);
        // Growth continues the same truncated stream bit for bit.
        index.warm(640).unwrap();
        back.warm(640).unwrap();
        assert_eq!(back.sentinel_state(), index.sentinel_state());
        for i in 0..index.pool_len() {
            assert_eq!(back.selection_pool().get(i), index.selection_pool().get(i));
            assert_eq!(
                back.validation_pool().get(i),
                index.validation_pool().get(i)
            );
        }
    }

    #[test]
    fn plain_snapshot_loads_without_sentinel() {
        let g = barabasi_albert(150, 3, WeightModel::Wc, 48);
        let index = warmed_index(&g);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        assert_eq!(buf[SENTINEL_FLAG_AT], 0);
        let back = RrIndex::load(&g, buf.as_slice()).unwrap();
        assert!(back.sentinel_state().is_none());
        assert_eq!(back.config().sentinels, 0);
    }

    #[test]
    fn version_2_snapshot_still_loads() {
        let g = barabasi_albert(150, 3, WeightModel::Wc, 49);
        let index = warmed_index(&g);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        // A v2 snapshot is the v4 bytes minus the (zero) sentinel and
        // sketch flags, with the version field rewound.
        let mut old = buf.clone();
        old.remove(SENTINEL_FLAG_AT); // sentinel flag
        old.remove(SENTINEL_FLAG_AT); // sketch flag (shifted down one)
        old[8..12].copy_from_slice(&2u32.to_le_bytes());
        refresh_trailer(&mut old);
        let back = RrIndex::load(&g, old.as_slice()).unwrap();
        assert!(back.sentinel_state().is_none());
        assert_eq!(back.pool_len(), index.pool_len());
    }

    #[test]
    fn version_3_snapshot_still_loads() {
        let g = barabasi_albert(150, 3, WeightModel::Wc, 49);
        let index = warmed_index(&g);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        // A v3 snapshot is the v4 bytes minus the (zero) sketch flag.
        let mut old = buf.clone();
        old.remove(SKETCH_FLAG_AT);
        old[8..12].copy_from_slice(&3u32.to_le_bytes());
        refresh_trailer(&mut old);
        let back = RrIndex::load(&g, old.as_slice()).unwrap();
        assert!(back.sketch_state().is_none());
        assert_eq!(back.pool_len(), index.pool_len());
    }

    #[test]
    fn version_error_names_the_supported_range() {
        let g = barabasi_albert(120, 3, WeightModel::Wc, 51);
        let index = warmed_index(&g);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        refresh_trailer(&mut bad);
        let err = RrIndex::load(&g, bad.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("{MIN_VERSION}..={VERSION}")),
            "version error should name the supported range: {msg}"
        );
    }

    #[test]
    fn corrupt_sentinel_block_is_a_typed_mismatch() {
        let g = barabasi_albert(150, 3, WeightModel::Wc, 50);
        let index = sentinel_index(&g);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        assert_eq!(buf[SENTINEL_FLAG_AT], 1);

        // Flipped byte inside the block: the checksum refuses it.
        let mut bad = buf.clone();
        bad[SENTINEL_FLAG_AT + 12] ^= 0x10;
        let err = RrIndex::load(&g, bad.as_slice()).unwrap_err();
        assert!(
            matches!(err, IndexError::SnapshotMismatch { .. }),
            "{err:?}"
        );

        // Structurally impossible fields fail typed even with a valid
        // checksum — never a silent fallback to a plain pool.
        let mut bad = buf.clone();
        bad[SENTINEL_FLAG_AT + 1..SENTINEL_FLAG_AT + 9].copy_from_slice(&u64::MAX.to_le_bytes()); // from_chunk
        refresh_trailer(&mut bad);
        let err = RrIndex::load(&g, bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("sentinel boundary"), "{err}");

        let mut bad = buf.clone();
        bad[SENTINEL_FLAG_AT + 9..SENTINEL_FLAG_AT + 17].copy_from_slice(&u64::MAX.to_le_bytes()); // z_len
        refresh_trailer(&mut bad);
        let err = RrIndex::load(&g, bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("sentinel set"), "{err}");

        let mut bad = buf.clone();
        bad[SENTINEL_FLAG_AT + 17..SENTINEL_FLAG_AT + 21].copy_from_slice(&u32::MAX.to_le_bytes()); // first sentinel node
        refresh_trailer(&mut bad);
        let err = RrIndex::load(&g, bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        let mut bad = buf.clone();
        bad[SENTINEL_FLAG_AT] = 7; // unknown flag
        refresh_trailer(&mut bad);
        let err = RrIndex::load(&g, bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("sentinel flag"), "{err}");
    }

    fn sketched_index(g: &Graph) -> RrIndex<'_> {
        let mut index = RrIndex::new(
            g,
            IndexConfig::new(RrStrategy::SubsimIc)
                .seed(9)
                .chunk_size(32)
                .sketch(6),
        );
        index.warm(320).unwrap();
        assert!(index.sketch_state().is_some());
        index
    }

    #[test]
    fn sketched_snapshot_round_trips_and_continues_the_stream() {
        let g = barabasi_albert(150, 3, WeightModel::Wc, 52);
        let mut index = sketched_index(&g);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        assert_eq!(buf[SENTINEL_FLAG_AT], 0);
        assert_eq!(buf[SKETCH_FLAG_AT], 1);
        let mut back = RrIndex::load(&g, buf.as_slice()).unwrap();
        assert_eq!(back.sketch_state(), index.sketch_state());
        assert_eq!(back.config().sketch, 6);
        assert_eq!(back.validation_pool().len(), 0);
        // Growth continues the same sketched stream bit for bit.
        index.warm(640).unwrap();
        back.warm(640).unwrap();
        assert_eq!(back.sketch_state(), index.sketch_state());
        assert_eq!(back.pool_len(), index.pool_len());
        for i in 0..index.pool_len() {
            assert_eq!(back.selection_pool().get(i), index.selection_pool().get(i));
        }
    }

    #[test]
    fn corrupt_sketch_block_is_a_typed_mismatch() {
        let g = barabasi_albert(150, 3, WeightModel::Wc, 53);
        let index = sketched_index(&g);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        assert_eq!(buf[SKETCH_FLAG_AT], 1);
        // Block layout after the flag: SUBSIMSK magic(8) precision(1)
        // chunk_size(8) graph_n(8) count(8) | per-chunk records.
        let block = SKETCH_FLAG_AT + 1;

        // Flipped byte inside the block: the checksum refuses it.
        let mut bad = buf.clone();
        bad[block + 40] ^= 0x10;
        let err = RrIndex::load(&g, bad.as_slice()).unwrap_err();
        assert!(
            matches!(err, IndexError::SnapshotMismatch { .. }),
            "{err:?}"
        );

        // Structurally impossible fields fail typed even with a valid
        // checksum — never a silent fallback to exact validation (the
        // snapshot holds no exact R₂ at all).
        let mut bad = buf.clone();
        bad[block + 8] = 63; // precision outside MIN..=MAX
        refresh_trailer(&mut bad);
        let err = RrIndex::load(&g, bad.as_slice()).unwrap_err();
        assert!(
            matches!(err, IndexError::SnapshotMismatch { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("precision"), "{err}");

        // A sketch whose chunk size disagrees with the header is refused.
        let mut bad = buf.clone();
        bad[block + 9..block + 17].copy_from_slice(&64u64.to_le_bytes());
        refresh_trailer(&mut bad);
        let err = RrIndex::load(&g, bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("chunk size"), "{err}");

        // Unknown flag value.
        let mut bad = buf.clone();
        bad[SKETCH_FLAG_AT] = 7;
        refresh_trailer(&mut bad);
        let err = RrIndex::load(&g, bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("sketch flag"), "{err}");

        // Truncation mid-block.
        let mut bad = buf.clone();
        bad.truncate(block + 20);
        let err = RrIndex::load(&g, bad.as_slice()).unwrap_err();
        assert!(
            matches!(err, IndexError::SnapshotMismatch { .. } | IndexError::Io(_)),
            "{err:?}"
        );
    }

    #[test]
    fn checksum_catches_structurally_valid_corruption() {
        let g = barabasi_albert(120, 3, WeightModel::Wc, 46);
        let index = warmed_index(&g);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        // Bytes 21..29 hold the stored RNG seed: no structural check can
        // reject a flipped seed bit, and before format v2 it loaded
        // silently with a different pool identity.
        let mut bad = buf.clone();
        bad[22] ^= 0x40;
        let err = RrIndex::load(&g, bad.as_slice()).unwrap_err();
        assert!(
            matches!(err, IndexError::SnapshotMismatch { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("checksum"), "{err}");
        // Same for a byte deep inside an RR arena.
        let mut bad = buf.clone();
        let mid = buf.len() - 16;
        bad[mid] ^= 0x01;
        assert!(RrIndex::load(&g, bad.as_slice()).is_err(), "arena byte");
        // A corrupt trailer itself is also a mismatch, not a pass.
        let mut bad = buf.clone();
        let last = buf.len() - 1;
        bad[last] ^= 0x01;
        assert!(RrIndex::load(&g, bad.as_slice()).is_err(), "trailer byte");
    }
}
