//! Property battery for the sketch algebra: the merge operation is
//! associative, commutative, and idempotent; register-wise max over
//! independently built sketches equals the sketch of the union;
//! serialization round-trips byte-identically; and the sorted chunk
//! build writes exactly the bytes of the per-node register-array build.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use subsim_diffusion::RrCollection;
use subsim_graph::NodeId;
use subsim_sketch::hll::{self, num_registers};
use subsim_sketch::{SketchedPool, SKETCH_MAGIC};

const N: usize = 64;

/// Dense registers built from a raw list of set ids at `precision`.
fn regs_of(ids: &[u64], precision: u8) -> Vec<u8> {
    let mut regs = vec![0u8; num_registers(precision)];
    for &id in ids {
        let (idx, rank) = hll::hash_set_id(id, precision);
        let slot = &mut regs[idx as usize];
        *slot = (*slot).max(rank);
    }
    regs
}

/// A pool absorbing `sets` as whole chunks of `chunk` starting at
/// global chunk id `first_chunk`.
fn pool_of(sets: &[Vec<NodeId>], chunk: usize, first_chunk: u64, precision: u8) -> SketchedPool {
    let mut rr = RrCollection::new(N);
    for s in sets {
        rr.push(s);
    }
    // Pad the tail to a whole chunk with singleton sets.
    while !rr.len().is_multiple_of(chunk) {
        rr.push(&[0]);
    }
    let mut pool = SketchedPool::new(N, chunk, precision);
    let ids: Vec<u64> = (first_chunk..first_chunk + (rr.len() / chunk) as u64).collect();
    pool.absorb_chunk_ids(&ids, &rr);
    pool
}

/// Reference for `ChunkSketch::build`: the `write_to` bytes of a pool
/// absorbing `rr` as chunks `ids` (in batch order), built the direct way
/// — one `2^p`-byte register array per node the chunk touches, max-merged
/// set by set, then scanned into the sparse or the dense form.
fn reference_bytes(rr: &RrCollection, ids: &[u64], chunk: usize, precision: u8) -> Vec<u8> {
    let m = num_registers(precision);
    let mut out = SKETCH_MAGIC.to_vec();
    out.push(precision);
    for x in [chunk as u64, rr.graph_n() as u64, ids.len() as u64] {
        out.extend(x.to_le_bytes());
    }
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&j| ids[j]);
    for j in order {
        let mut regs: BTreeMap<NodeId, Vec<u8>> = BTreeMap::new();
        let mut nodes = 0u64;
        for off in 0..chunk {
            let (idx, rank) = hll::hash_set_id(ids[j] * chunk as u64 + off as u64, precision);
            let set = rr.get(j * chunk + off);
            nodes += set.len() as u64;
            for &v in set {
                let slot = &mut regs.entry(v).or_insert_with(|| vec![0u8; m])[idx as usize];
                *slot = (*slot).max(rank);
            }
        }
        let (mut sparse_keys, mut offsets, mut entries) = (Vec::new(), vec![0u32], Vec::new());
        let (mut dense_keys, mut dense_regs) = (Vec::new(), Vec::new());
        for (v, r) in regs {
            if r.iter().filter(|&&x| x != 0).count() > m / 2 {
                dense_keys.push(v);
                dense_regs.extend_from_slice(&r);
            } else {
                sparse_keys.push(v);
                for (idx, &rank) in r.iter().enumerate().filter(|(_, &x)| x != 0) {
                    entries.push(hll::pack_entry(idx as u16, rank));
                }
                offsets.push(entries.len() as u32);
            }
        }
        let header = [ids[j], 4 * nodes + 8 * chunk as u64];
        let counts = [sparse_keys.len(), dense_keys.len(), entries.len()];
        for x in header.into_iter().chain(counts.map(|c| c as u64)) {
            out.extend(x.to_le_bytes());
        }
        sparse_keys.iter().for_each(|k| out.extend(k.to_le_bytes()));
        offsets.iter().for_each(|o| out.extend(o.to_le_bytes()));
        entries.iter().for_each(|e| out.extend(e.to_le_bytes()));
        dense_keys.iter().for_each(|k| out.extend(k.to_le_bytes()));
        out.extend(dense_regs);
    }
    out
}

/// Whether the library's `write_to` bytes for `sets` absorbed as chunks
/// `ids` equal [`reference_bytes`].
fn matches_reference(sets: &[Vec<NodeId>], ids: &[u64], chunk: usize, precision: u8) -> bool {
    let mut rr = RrCollection::new(N);
    for s in sets {
        rr.push(s);
    }
    assert_eq!(rr.len(), ids.len() * chunk, "whole chunks only");
    let mut pool = SketchedPool::new(N, chunk, precision);
    pool.absorb_chunk_ids(ids, &rr);
    let mut got = Vec::new();
    pool.write_to(&mut got).unwrap();
    got == reference_bytes(&rr, ids, chunk, precision)
}

/// `count` sets over `0..N` drawn from `seed`: one to six random nodes
/// each, plus hub node 0 in `hub_pct` percent of them.
fn random_sets(count: usize, hub_pct: u64, seed: u64) -> Vec<Vec<NodeId>> {
    let mut state = seed;
    let mut next = |bound: u64| {
        state = hll::splitmix64_mix(state);
        state % bound
    };
    (0..count)
        .map(|_| {
            let len = 1 + next(6);
            let mut s: Vec<NodeId> = (0..len).map(|_| next(N as u64) as NodeId).collect();
            if next(100) < hub_pct {
                s.push(0);
            }
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect()
}

/// `(idx, rank)` of every set id of chunk 0 at `precision`.
fn registers(chunk: usize, precision: u8) -> Vec<(u16, u8)> {
    (0..chunk as u64)
        .map(|id| hll::hash_set_id(id, precision))
        .collect()
}

/// Filler sets for chunk 0, none touching the nodes under test (1 and 2).
fn filler(chunk: usize) -> Vec<Vec<NodeId>> {
    (0..chunk)
        .map(|off| vec![3 + (off % 60) as NodeId])
        .collect()
}

/// Two sets of one node whose ids share a register with different ranks:
/// the build must keep the larger rank, at every precision.
#[test]
fn register_collisions_keep_the_max_rank() {
    for p in 4u8..=10 {
        let chunk = 256;
        let regs = registers(chunk, p);
        let (a, b) = (0..chunk)
            .flat_map(|a| (a + 1..chunk).map(move |b| (a, b)))
            .find(|&(a, b)| regs[a].0 == regs[b].0 && regs[a].1 != regs[b].1)
            .expect("256 ids collide in some register with unequal ranks");
        let mut sets = filler(chunk);
        sets[a].push(1);
        sets[b].push(1);
        assert!(matches_reference(&sets, &[0], chunk, p), "p={p}");
    }
}

/// A hub in every set of a 32- or 64-set chunk at p = 4 fills more than
/// half of its 16 registers, so it is written in the dense form.
#[test]
fn hub_nodes_flip_dense() {
    for chunk in [32usize, 64] {
        let regs = registers(chunk, 4);
        let occupied: BTreeSet<u16> = regs.iter().map(|r| r.0).collect();
        assert!(occupied.len() > 8, "chunk={chunk}: the hub must go dense");
        let sets = random_sets(chunk, 100, chunk as u64);
        assert!(matches_reference(&sets, &[0], chunk, 4), "chunk={chunk}");
    }
}

/// Node 1 occupies exactly `m / 2` registers and stays sparse; node 2
/// occupies one more and goes dense. Repeated registers ride along, so
/// occupancy is counted in registers, not sets.
#[test]
fn exactly_half_occupancy_stays_sparse() {
    for p in 4u8..=10 {
        let m = num_registers(p);
        let chunk = 4 * m;
        let regs = registers(chunk, p);
        let mut sets = filler(chunk);
        for (node, limit) in [(1 as NodeId, m / 2), (2, m / 2 + 1)] {
            let mut seen = BTreeSet::new();
            for (off, &(idx, _)) in regs.iter().enumerate() {
                if seen.contains(&idx) || seen.len() < limit {
                    seen.insert(idx);
                    sets[off].push(node);
                }
            }
            assert_eq!(
                seen.len(),
                limit,
                "p={p}: {chunk} ids reach {limit} registers"
            );
        }
        assert!(matches_reference(&sets, &[0], chunk, p), "p={p}");
    }
}

fn arb_ids() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1_000_000, 0..200)
}

fn arb_sets() -> impl Strategy<Value = Vec<Vec<NodeId>>> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..N as u32, 1..8).prop_map(|mut s| {
            s.sort_unstable();
            s.dedup();
            s
        }),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Register merge is associative, commutative, and idempotent.
    #[test]
    fn merge_is_a_semilattice(a in arb_ids(), b in arb_ids(), c in arb_ids(), p in 4u8..=10) {
        let (ra, rb, rc) = (regs_of(&a, p), regs_of(&b, p), regs_of(&c, p));

        // (a ∪ b) ∪ c == a ∪ (b ∪ c)
        let mut left = ra.clone();
        hll::merge_registers(&mut left, &rb);
        hll::merge_registers(&mut left, &rc);
        let mut bc = rb.clone();
        hll::merge_registers(&mut bc, &rc);
        let mut right = ra.clone();
        hll::merge_registers(&mut right, &bc);
        prop_assert_eq!(&left, &right);

        // a ∪ b == b ∪ a
        let mut ab = ra.clone();
        hll::merge_registers(&mut ab, &rb);
        let mut ba = rb.clone();
        hll::merge_registers(&mut ba, &ra);
        prop_assert_eq!(&ab, &ba);

        // a ∪ a == a
        let mut aa = ra.clone();
        hll::merge_registers(&mut aa, &ra);
        prop_assert_eq!(&aa, &ra);
    }

    /// Register-wise max of independently built sketches equals the
    /// sketch built from the union of ids — hence equal cardinality
    /// estimates (the lossless-merge property shard determinism rests on).
    #[test]
    fn merge_equals_union_sketch(a in arb_ids(), b in arb_ids(), p in 4u8..=10) {
        let mut merged = regs_of(&a, p);
        hll::merge_registers(&mut merged, &regs_of(&b, p));
        let mut union_ids = a.clone();
        union_ids.extend_from_slice(&b);
        let union = regs_of(&union_ids, p);
        prop_assert_eq!(&merged, &union);
        prop_assert_eq!(hll::estimate(&merged), hll::estimate(&union));
    }

    /// Serialization of the canonical pool form round-trips
    /// byte-identically, and pool merge commutes with pool order.
    #[test]
    fn pool_serialization_round_trips(sets in arb_sets(), chunk in 1usize..6, p in 4u8..=10) {
        let pool = pool_of(&sets, chunk, 0, p);
        let mut buf = Vec::new();
        pool.write_to(&mut buf).unwrap();
        let back = SketchedPool::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(&back, &pool);
        let mut buf2 = Vec::new();
        back.write_to(&mut buf2).unwrap();
        prop_assert_eq!(buf, buf2);
    }

    /// Merging disjoint pools is order-independent and agrees with the
    /// split inverse.
    #[test]
    fn pool_merge_is_commutative(sets_a in arb_sets(), sets_b in arb_sets(), p in 4u8..=10) {
        let chunk = 4usize;
        let a = pool_of(&sets_a, chunk, 0, p);
        // Disjoint chunk ids: b starts after a's last chunk.
        let b = pool_of(&sets_b, chunk, a.num_chunks() as u64, p);
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        prop_assert_eq!(&ab, &ba);
        // Splitting and re-merging reproduces the pool for any shard count.
        for shards in [2usize, 3] {
            let parts = ab.split(shards);
            let mut re = SketchedPool::new(ab.graph_n(), chunk, p);
            for part in &parts {
                re.merge_from(part);
            }
            prop_assert_eq!(&re, &ab);
        }
    }

    /// The sorted chunk build writes the reference's bytes at every
    /// precision, over random chunk sizes, non-contiguous chunk ids in
    /// descending batch order and hubs of every weight.
    #[test]
    fn sorted_build_matches_the_reference(
        p in 4u8..=10,
        chunk in 1usize..48,
        chunks in 1u64..4,
        hub_pct in 0u64..=100,
        seed in any::<u64>(),
    ) {
        let ids: Vec<u64> = (0..chunks).rev().map(|j| 3 * j + seed % 5).collect();
        let sets = random_sets(chunk * chunks as usize, hub_pct, seed);
        prop_assert!(matches_reference(&sets, &ids, chunk, p));
    }
}
