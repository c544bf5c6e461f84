//! The sketched validation pool: per-node count-distinct sketches over
//! global RR-set ids, organised as per-chunk sub-sketches.
//!
//! Layout invariants, all load-bearing for determinism:
//!
//! - Set ids are **global**: `chunk_id * chunk_size + offset`. A shard
//!   that owns chunk `c` inserts exactly the ids the sequential index
//!   would, so register-wise max across shards reproduces the sequential
//!   registers bit-for-bit for any shard count.
//! - A [`ChunkSketch`] is a pure function of `(chunk content, precision)`
//!   in canonical form (keys sorted, entries max-deduplicated and sorted
//!   by register index), regardless of build order. Delta repair can
//!   therefore rebuild a dirty chunk's sub-sketch in isolation and land
//!   on exactly the bytes a full rebuild would produce.
//! - Serialization emits the canonical form directly, so equal pools
//!   round-trip byte-identically (pinned by the proptest battery).

use std::io::{self, Read, Write};

use subsim_diffusion::RrCollection;
use subsim_graph::NodeId;

use crate::hll::{self, num_registers, pack_entry, unpack_entry, MAX_PRECISION, MIN_PRECISION};

/// Serialized sketch-block magic.
pub const SKETCH_MAGIC: &[u8; 8] = b"SUBSIMSK";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Count-distinct sub-sketch for one pool chunk: for every node that
/// appears in the chunk's RR sets, the HLL registers of the set ids that
/// contain it. Nodes touching few sets stay in the packed sparse form
/// (`idx << 6 | rank` entries); nodes whose register occupancy crosses
/// `m / 2` flip to a dense `m`-byte block (the break-even point, since a
/// sparse entry costs two bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkSketch {
    /// Exact-representation bytes this sub-sketch displaces
    /// (`4 * nodes + 8 * sets` for the arena slice it replaces).
    exact_bytes: u64,
    sparse_keys: Vec<NodeId>,
    /// `sparse_keys.len() + 1` offsets into `sparse_entries`.
    sparse_offsets: Vec<u32>,
    sparse_entries: Vec<u16>,
    dense_keys: Vec<NodeId>,
    /// `num_registers(p)` bytes per dense key.
    dense_regs: Vec<u8>,
}

impl ChunkSketch {
    /// Builds the canonical sub-sketch for `chunk_size` sets starting at
    /// `first_set` in `rr`, which hold global ids starting at `first_id`.
    ///
    /// The cost follows the chunk's `E` node appearances, not its distinct
    /// nodes × `2^p`: each appearance packs into one `u64`
    /// (`node << 32 | idx << 8 | rank`), one sort orders them by node,
    /// register and rank, and the last entry of each (node, register) run
    /// holds that register's max rank. That is O(E log E) time and `8E`
    /// transient bytes at every precision; only a node with more than
    /// `m / 2` occupied registers ever materializes its `m`-byte block.
    pub fn build(
        rr: &RrCollection,
        first_set: usize,
        chunk_size: usize,
        first_id: u64,
        precision: u8,
    ) -> Self {
        let m = num_registers(precision);
        let sets = first_set..first_set + chunk_size;
        let appearances = sets.clone().map(|i| rr.get(i).len()).sum();
        let mut packed: Vec<u64> = Vec::with_capacity(appearances);
        for (id, i) in (first_id..).zip(sets) {
            let (idx, rank) = hll::hash_set_id(id, precision);
            let reg = u64::from(idx) << 8 | u64::from(rank);
            packed.extend(rr.get(i).iter().map(|&v| u64::from(v) << 32 | reg));
        }
        packed.sort_unstable();
        // Keep the last, i.e. max-rank, entry of every (node, register) run.
        packed.dedup_by(|next, kept| {
            let same = *next >> 8 == *kept >> 8;
            if same {
                *kept = *next;
            }
            same
        });
        let mut out = ChunkSketch {
            exact_bytes: 4 * appearances as u64 + 8 * chunk_size as u64,
            sparse_keys: Vec::new(),
            sparse_offsets: vec![0],
            sparse_entries: Vec::new(),
            dense_keys: Vec::new(),
            dense_regs: Vec::new(),
        };
        for regs in packed.chunk_by(|a, b| a >> 32 == b >> 32) {
            let v = (regs[0] >> 32) as NodeId;
            let entries = regs.iter().map(|&e| ((e >> 8) as u16, e as u8));
            if regs.len() > m / 2 {
                out.dense_keys.push(v);
                let base = out.dense_regs.len();
                out.dense_regs.resize(base + m, 0);
                for (idx, rank) in entries {
                    out.dense_regs[base + idx as usize] = rank;
                }
            } else {
                out.sparse_keys.push(v);
                out.sparse_entries
                    .extend(entries.map(|(idx, rank)| pack_entry(idx, rank)));
                out.sparse_offsets.push(out.sparse_entries.len() as u32);
            }
        }
        out
    }

    /// Whether `v` appears anywhere in this chunk's RR sets — the same
    /// membership predicate the exact inverted index answers, which is
    /// what delta repair keys its dirty-chunk detection on.
    pub fn contains(&self, v: NodeId) -> bool {
        self.sparse_keys.binary_search(&v).is_ok() || self.dense_keys.binary_search(&v).is_ok()
    }

    /// Register-wise max of `v`'s registers into `regs` (no-op when `v`
    /// is absent from the chunk).
    pub fn merge_node_into(&self, v: NodeId, regs: &mut [u8]) {
        if let Ok(i) = self.dense_keys.binary_search(&v) {
            let m = regs.len();
            hll::merge_registers(regs, &self.dense_regs[i * m..(i + 1) * m]);
            return;
        }
        if let Ok(i) = self.sparse_keys.binary_search(&v) {
            let lo = self.sparse_offsets[i] as usize;
            let hi = self.sparse_offsets[i + 1] as usize;
            for &e in &self.sparse_entries[lo..hi] {
                let (idx, rank) = unpack_entry(e);
                let slot = &mut regs[idx as usize];
                *slot = (*slot).max(rank);
            }
        }
    }

    /// Resident heap bytes of the canonical representation.
    pub fn resident_bytes(&self) -> u64 {
        (self.sparse_keys.len() * 4
            + self.sparse_offsets.len() * 4
            + self.sparse_entries.len() * 2
            + self.dense_keys.len() * 4
            + self.dense_regs.len()) as u64
    }

    /// Exact-arena bytes this sub-sketch displaced.
    pub fn exact_bytes(&self) -> u64 {
        self.exact_bytes
    }

    fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        // Canonical order is irrelevant to callers; both halves are sorted.
        self.sparse_keys
            .iter()
            .chain(self.dense_keys.iter())
            .copied()
    }
}

/// The sketched stand-in for an exact validation pool: one
/// [`ChunkSketch`] per generated chunk, keyed by global chunk id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SketchedPool {
    precision: u8,
    chunk_size: usize,
    graph_n: usize,
    /// Sorted, strictly increasing global chunk ids.
    chunk_ids: Vec<u64>,
    chunks: Vec<ChunkSketch>,
}

impl SketchedPool {
    pub fn new(graph_n: usize, chunk_size: usize, precision: u8) -> Self {
        assert!(
            (MIN_PRECISION..=MAX_PRECISION).contains(&precision),
            "sketch precision {precision} outside {MIN_PRECISION}..={MAX_PRECISION}"
        );
        assert!(chunk_size > 0, "chunk_size must be positive");
        SketchedPool {
            precision,
            chunk_size,
            graph_n,
            chunk_ids: Vec::new(),
            chunks: Vec::new(),
        }
    }

    pub fn precision(&self) -> u8 {
        self.precision
    }

    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    pub fn graph_n(&self) -> usize {
        self.graph_n
    }

    pub fn num_chunks(&self) -> usize {
        self.chunk_ids.len()
    }

    /// Number of RR sets the sketch stands in for.
    pub fn len_sets(&self) -> usize {
        self.chunk_ids.len() * self.chunk_size
    }

    pub fn is_empty(&self) -> bool {
        self.chunk_ids.is_empty()
    }

    pub fn chunk_ids(&self) -> &[u64] {
        &self.chunk_ids
    }

    pub fn contains_chunk(&self, chunk_id: u64) -> bool {
        self.chunk_ids.binary_search(&chunk_id).is_ok()
    }

    /// Relative standard error of the union estimate at this precision.
    pub fn rel_std_error(&self) -> f64 {
        hll::rel_std_error(self.precision)
    }

    /// Absorbs freshly generated whole chunks with explicit (possibly
    /// non-contiguous) global ids, in batch order: sets
    /// `j*chunk_size..(j+1)*chunk_size` of `rr` belong to chunk `ids[j]`
    /// — the layout `try_generate_chunk_ids` produces for a shard's
    /// owned chunk list. Panics if an id is already present.
    pub fn absorb_chunk_ids(&mut self, ids: &[u64], rr: &RrCollection) {
        assert_eq!(
            rr.graph_n(),
            self.graph_n,
            "batch is over a different graph"
        );
        assert_eq!(
            rr.len(),
            ids.len() * self.chunk_size,
            "batch must hold exactly one chunk per id"
        );
        for (j, &chunk_id) in ids.iter().enumerate() {
            let sketch = self.build_chunk(chunk_id, rr, j * self.chunk_size);
            match self.chunk_ids.binary_search(&chunk_id) {
                Ok(_) => panic!("chunk {chunk_id} already sketched"),
                Err(pos) => {
                    self.chunk_ids.insert(pos, chunk_id);
                    self.chunks.insert(pos, sketch);
                }
            }
        }
    }

    /// Replaces the sub-sketch of an existing chunk with one rebuilt from
    /// `chunk_size` regenerated sets starting at `first_set` in `rr`.
    /// Panics if the chunk was never absorbed.
    pub fn replace_chunk(&mut self, chunk_id: u64, rr: &RrCollection, first_set: usize) {
        assert_eq!(
            rr.graph_n(),
            self.graph_n,
            "batch is over a different graph"
        );
        let pos = self
            .chunk_ids
            .binary_search(&chunk_id)
            .unwrap_or_else(|_| panic!("chunk {chunk_id} not sketched"));
        self.chunks[pos] = self.build_chunk(chunk_id, rr, first_set);
    }

    /// Chunk `chunk_id`'s sub-sketch, built from the `chunk_size` sets
    /// starting at `first_set` in `rr`.
    fn build_chunk(&self, chunk_id: u64, rr: &RrCollection, first_set: usize) -> ChunkSketch {
        let first_id = chunk_id * self.chunk_size as u64;
        ChunkSketch::build(rr, first_set, self.chunk_size, first_id, self.precision)
    }

    /// Global ids of chunks whose key set intersects `targets` — exactly
    /// the chunks the exact inverted index would flag dirty for a delta
    /// over those endpoints.
    pub fn dirty_chunks(&self, targets: &[NodeId]) -> Vec<u64> {
        self.chunk_ids
            .iter()
            .zip(&self.chunks)
            .filter(|(_, s)| targets.iter().any(|&v| s.contains(v)))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Merges the registers of `seeds`' union across every chunk into
    /// `regs` (resized and zeroed first). Max is order-independent, so
    /// the result is identical for any chunk/shard iteration order.
    pub fn union_into(&self, seeds: &[NodeId], regs: &mut Vec<u8>) {
        regs.clear();
        regs.resize(num_registers(self.precision), 0);
        self.merge_union_into(seeds, regs);
    }

    /// As [`union_into`](Self::union_into) but max-merging into existing
    /// register content — the sharded path folds every shard's pool into
    /// one scratch array before taking a single estimate.
    pub fn merge_union_into(&self, seeds: &[NodeId], regs: &mut [u8]) {
        assert_eq!(regs.len(), num_registers(self.precision));
        for sketch in &self.chunks {
            for &v in seeds {
                sketch.merge_node_into(v, regs);
            }
        }
    }

    /// Union cardinality estimate for `seeds` over this pool alone.
    pub fn estimate_union(&self, seeds: &[NodeId]) -> f64 {
        let mut regs = Vec::new();
        self.union_into(seeds, &mut regs);
        hll::estimate(&regs)
    }

    /// Folds `other`'s chunks into `self`. The chunk id sets must be
    /// disjoint (shards own disjoint chunks); configs must match.
    pub fn merge_from(&mut self, other: &SketchedPool) {
        assert_eq!(self.precision, other.precision, "precision mismatch");
        assert_eq!(self.chunk_size, other.chunk_size, "chunk size mismatch");
        assert_eq!(self.graph_n, other.graph_n, "graph mismatch");
        for (&id, sketch) in other.chunk_ids.iter().zip(&other.chunks) {
            match self.chunk_ids.binary_search(&id) {
                Ok(_) => panic!("chunk {id} present in both pools"),
                Err(pos) => {
                    self.chunk_ids.insert(pos, id);
                    self.chunks.insert(pos, sketch.clone());
                }
            }
        }
    }

    /// Splits by chunk ownership (`chunk_id % shards`) — the inverse of
    /// merging per-shard pools, used when loading a union snapshot into a
    /// sharded index.
    pub fn split(&self, shards: usize) -> Vec<SketchedPool> {
        assert!(shards > 0);
        let mut out: Vec<SketchedPool> = (0..shards)
            .map(|_| SketchedPool::new(self.graph_n, self.chunk_size, self.precision))
            .collect();
        for (&id, sketch) in self.chunk_ids.iter().zip(&self.chunks) {
            let s = (id % shards as u64) as usize;
            out[s].chunk_ids.push(id);
            out[s].chunks.push(sketch.clone());
        }
        out
    }

    /// Resident heap bytes across all sub-sketches (keys + offsets +
    /// entries + dense registers).
    pub fn resident_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.resident_bytes()).sum::<u64>()
            + (self.chunk_ids.len() * 8) as u64
    }

    /// Exact-arena bytes the sketch displaces (what the same sets would
    /// cost in an `RrCollection`).
    pub fn displaced_exact_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.exact_bytes()).sum()
    }

    /// Serializes the canonical form. Equal pools produce identical
    /// bytes; `read_from` inverts this exactly.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(SKETCH_MAGIC)?;
        w.write_all(&[self.precision])?;
        w.write_all(&(self.chunk_size as u64).to_le_bytes())?;
        w.write_all(&(self.graph_n as u64).to_le_bytes())?;
        w.write_all(&(self.chunk_ids.len() as u64).to_le_bytes())?;
        for (&id, c) in self.chunk_ids.iter().zip(&self.chunks) {
            w.write_all(&id.to_le_bytes())?;
            w.write_all(&c.exact_bytes.to_le_bytes())?;
            w.write_all(&(c.sparse_keys.len() as u64).to_le_bytes())?;
            w.write_all(&(c.dense_keys.len() as u64).to_le_bytes())?;
            w.write_all(&(c.sparse_entries.len() as u64).to_le_bytes())?;
            for &k in &c.sparse_keys {
                w.write_all(&k.to_le_bytes())?;
            }
            for &o in &c.sparse_offsets {
                w.write_all(&o.to_le_bytes())?;
            }
            for &e in &c.sparse_entries {
                w.write_all(&e.to_le_bytes())?;
            }
            for &k in &c.dense_keys {
                w.write_all(&k.to_le_bytes())?;
            }
            w.write_all(&c.dense_regs)?;
        }
        Ok(())
    }

    /// Deserializes and structurally validates a sketch block. Every
    /// violation is an `InvalidData` error with a reason — callers map
    /// these to typed snapshot mismatches, never to a silent fallback.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<SketchedPool> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != SKETCH_MAGIC {
            return Err(bad("bad sketch block magic"));
        }
        let precision = read_u8(r)?;
        if !(MIN_PRECISION..=MAX_PRECISION).contains(&precision) {
            return Err(bad(format!(
                "sketch precision {precision} outside {MIN_PRECISION}..={MAX_PRECISION}"
            )));
        }
        let m = num_registers(precision);
        let max_rank = 64 - precision + 1;
        let chunk_size = read_u64(r)? as usize;
        if chunk_size == 0 {
            return Err(bad("sketch chunk_size is zero"));
        }
        let graph_n = read_u64(r)? as usize;
        let count = read_u64(r)? as usize;
        let mut pool = SketchedPool::new(graph_n, chunk_size, precision);
        let mut prev_id: Option<u64> = None;
        for _ in 0..count {
            let id = read_u64(r)?;
            if prev_id.is_some_and(|p| p >= id) {
                return Err(bad("sketch chunk ids not strictly increasing"));
            }
            prev_id = Some(id);
            let exact_bytes = read_u64(r)?;
            let n_sparse = read_u64(r)? as usize;
            let n_dense = read_u64(r)? as usize;
            let n_entries = read_u64(r)? as usize;
            if n_sparse > graph_n || n_dense > graph_n {
                return Err(bad("sketch key count exceeds graph size"));
            }
            if n_entries > n_sparse * m {
                return Err(bad("sketch entry count exceeds sparse capacity"));
            }
            let sparse_keys = read_keys(r, n_sparse, graph_n)?;
            let mut sparse_offsets = Vec::with_capacity(n_sparse + 1);
            for _ in 0..=n_sparse {
                sparse_offsets.push(read_u32(r)?);
            }
            if sparse_offsets[0] != 0
                || sparse_offsets[n_sparse] as usize != n_entries
                || sparse_offsets.windows(2).any(|w| w[0] > w[1])
            {
                return Err(bad("sketch sparse offsets not monotone"));
            }
            let mut sparse_entries = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                sparse_entries.push(read_u16(r)?);
            }
            for w in sparse_offsets.windows(2) {
                let span = &sparse_entries[w[0] as usize..w[1] as usize];
                let mut prev_idx: Option<u16> = None;
                for &e in span {
                    let (idx, rank) = unpack_entry(e);
                    if idx as usize >= m || rank == 0 || rank > max_rank {
                        return Err(bad("sketch entry out of range"));
                    }
                    if prev_idx.is_some_and(|p| p >= idx) {
                        return Err(bad("sketch entries not sorted by register"));
                    }
                    prev_idx = Some(idx);
                }
            }
            let dense_keys = read_keys(r, n_dense, graph_n)?;
            let mut dense_regs = vec![0u8; n_dense * m];
            r.read_exact(&mut dense_regs)?;
            if dense_regs.iter().any(|&x| x > max_rank) {
                return Err(bad("sketch dense register out of range"));
            }
            let sketch = ChunkSketch {
                exact_bytes,
                sparse_keys,
                sparse_offsets,
                sparse_entries,
                dense_keys,
                dense_regs,
            };
            // Keys must not straddle both forms.
            if sketch
                .sparse_keys
                .iter()
                .any(|k| sketch.dense_keys.binary_search(k).is_ok())
            {
                return Err(bad("sketch key present in both sparse and dense forms"));
            }
            pool.chunk_ids.push(id);
            pool.chunks.push(sketch);
        }
        Ok(pool)
    }

    /// All distinct node keys across chunks (test/diagnostic helper).
    pub fn key_count(&self) -> usize {
        self.chunks.iter().map(|c| c.keys().count()).sum()
    }
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_keys<R: Read>(r: &mut R, count: usize, graph_n: usize) -> io::Result<Vec<NodeId>> {
    let mut keys = Vec::with_capacity(count);
    let mut prev: Option<NodeId> = None;
    for _ in 0..count {
        let k = read_u32(r)?;
        if k as usize >= graph_n {
            return Err(bad("sketch key outside graph"));
        }
        if prev.is_some_and(|p| p >= k) {
            return Err(bad("sketch keys not strictly increasing"));
        }
        prev = Some(k);
        keys.push(k);
    }
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hll::DEFAULT_PRECISION;

    /// Absorbs all of `rr` as chunks `0, 1, …` of `pool`.
    fn absorb_all(pool: &mut SketchedPool, rr: &RrCollection) {
        let ids: Vec<u64> = (0..(rr.len() / pool.chunk_size()) as u64).collect();
        pool.absorb_chunk_ids(&ids, rr);
    }

    fn pool_with(sets: &[&[NodeId]], chunk_size: usize, n: usize, p: u8) -> SketchedPool {
        let mut rr = RrCollection::new(n);
        for s in sets {
            rr.push(s);
        }
        let mut pool = SketchedPool::new(n, chunk_size, p);
        absorb_all(&mut pool, &rr);
        pool
    }

    #[test]
    fn membership_matches_chunk_content() {
        let pool = pool_with(
            &[&[1, 2, 3], &[2, 4], &[5, 6], &[6, 7]],
            2,
            16,
            DEFAULT_PRECISION,
        );
        // Chunk 0 holds sets {1,2,3},{2,4}; chunk 1 holds {5,6},{6,7}.
        assert_eq!(pool.dirty_chunks(&[2]), vec![0]);
        assert_eq!(pool.dirty_chunks(&[6]), vec![1]);
        assert_eq!(pool.dirty_chunks(&[3, 7]), vec![0, 1]);
        assert!(pool.dirty_chunks(&[15]).is_empty());
    }

    #[test]
    fn union_estimate_counts_distinct_sets() {
        // Node 0 in every set, node 1 in half: estimate(union {0}) ≈ sets.
        let n = 64usize;
        let chunk = 8usize;
        let mut rr = RrCollection::new(n);
        for i in 0..512usize {
            if i % 2 == 0 {
                rr.push(&[0, 1]);
            } else {
                rr.push(&[0, 2]);
            }
        }
        let mut pool = SketchedPool::new(n, chunk, 8);
        absorb_all(&mut pool, &rr);
        let est_all = pool.estimate_union(&[0]);
        let est_half = pool.estimate_union(&[1]);
        let sigma = pool.rel_std_error();
        assert!(
            (est_all - 512.0).abs() / 512.0 < 4.0 * sigma,
            "est_all={est_all}"
        );
        assert!(
            (est_half - 256.0).abs() / 256.0 < 4.0 * sigma,
            "est_half={est_half}"
        );
        // Union of {1, 2} covers everything node 0 does.
        let est_both = pool.estimate_union(&[1, 2]);
        assert_eq!(est_both, est_all);
    }

    #[test]
    fn merge_of_split_matches_original() {
        let n = 128usize;
        let chunk = 4usize;
        let mut rr = RrCollection::new(n);
        for i in 0..64u32 {
            rr.push(&[i % 128, (i * 7) % 128, (i * 13) % 128]);
        }
        let mut pool = SketchedPool::new(n, chunk, 6);
        absorb_all(&mut pool, &rr);
        for shards in [1usize, 2, 3, 5] {
            let parts = pool.split(shards);
            let mut merged = SketchedPool::new(n, chunk, 6);
            for part in parts.iter().rev() {
                merged.merge_from(part);
            }
            assert_eq!(merged, pool, "shards={shards}");
        }
    }

    #[test]
    fn serialization_round_trips_byte_identically() {
        let pool = pool_with(
            &[&[1, 2, 3], &[2, 4], &[5, 6], &[6, 7], &[0, 9], &[9, 10]],
            3,
            16,
            5,
        );
        let mut buf = Vec::new();
        pool.write_to(&mut buf).unwrap();
        let back = SketchedPool::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, pool);
        let mut buf2 = Vec::new();
        back.write_to(&mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn corrupt_blocks_are_typed_errors() {
        let pool = pool_with(&[&[1, 2], &[3, 4]], 2, 8, 4);
        let mut buf = Vec::new();
        pool.write_to(&mut buf).unwrap();
        // Magic flip.
        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xff;
        assert!(SketchedPool::read_from(&mut bad_magic.as_slice()).is_err());
        // Precision out of range.
        let mut bad_p = buf.clone();
        bad_p[8] = 63;
        assert!(SketchedPool::read_from(&mut bad_p.as_slice()).is_err());
        // Truncation.
        let short = &buf[..buf.len() - 1];
        assert!(SketchedPool::read_from(&mut &*short).is_err());
    }

    #[test]
    fn replace_chunk_is_pure_function_of_content() {
        let n = 32usize;
        let mut rr = RrCollection::new(n);
        for i in 0..8u32 {
            rr.push(&[i, i + 1, (i * 3) % 32]);
        }
        let mut pool = SketchedPool::new(n, 4, DEFAULT_PRECISION);
        absorb_all(&mut pool, &rr);
        let reference = pool.clone();
        // Rebuild chunk 1 from the same content laid out at offset 4.
        pool.replace_chunk(1, &rr, 4);
        assert_eq!(pool, reference);
    }

    #[test]
    fn compression_beats_exact_on_heavy_pools() {
        // Hub-heavy chunk: every set contains the same 40 hubs, so each
        // hub's sparse entries amortize over chunk_size sets.
        let n = 64usize;
        let chunk = 512usize;
        let mut rr = RrCollection::new(n);
        let hubs: Vec<NodeId> = (0..40).collect();
        for _ in 0..chunk {
            rr.push(&hubs);
        }
        let mut pool = SketchedPool::new(n, chunk, DEFAULT_PRECISION);
        absorb_all(&mut pool, &rr);
        assert!(
            pool.resident_bytes() * 4 <= pool.displaced_exact_bytes(),
            "resident={} exact={}",
            pool.resident_bytes(),
            pool.displaced_exact_bytes()
        );
    }
}
