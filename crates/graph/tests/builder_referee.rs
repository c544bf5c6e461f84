//! Referee for `GraphBuilder::build`: a property test against the
//! comparison-sort builder it replaced, kept here as test-only code.
//!
//! The reference collects `(u, v, p)` triples, stable-sorts them by
//! `(u, v)`, keeps the first of each parallel group, and counting-sorts
//! the reverse CSR. The builder under test must reproduce every CSR array
//! and every probability bit, and fail with the same error.

use proptest::prelude::*;
use subsim_graph::{Graph, GraphBuilder, GraphError, NodeId, WeightModel};

/// Every array a built graph exposes, probabilities as IEEE-754 bits.
#[derive(Debug, PartialEq)]
struct Arrays {
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
    /// Whether probabilities are stored per edge rather than per node.
    per_edge: bool,
    /// Per-node rates (WC) or per-edge probabilities, as bits.
    prob_bits: Vec<u64>,
}

fn arrays_of(g: &Graph) -> Arrays {
    let mut out_offsets = vec![0];
    let mut out_targets = Vec::new();
    for u in 0..g.n() as NodeId {
        out_targets.extend_from_slice(g.out_neighbors(u));
        out_offsets.push(out_targets.len());
    }
    let probs = g
        .per_edge_in_probs()
        .or(g.uniform_in_probs())
        .expect("one storage form");
    Arrays {
        out_offsets,
        out_targets,
        in_offsets: g.in_csr_offsets().to_vec(),
        in_sources: g.in_csr_sources().to_vec(),
        per_edge: !g.has_uniform_in_probs(),
        prob_bits: probs.iter().map(|p| p.to_bits()).collect(),
    }
}

/// One builder input, fed to both the reference and `GraphBuilder`.
#[derive(Debug, Clone)]
struct Input {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    /// Custom per-edge probabilities; `None` builds under WC.
    probs: Option<Vec<f64>>,
    undirected: bool,
    keep_self_loops: bool,
}

impl Input {
    fn build(&self) -> Result<Graph, GraphError> {
        let b = GraphBuilder::new(self.n)
            .undirected(self.undirected)
            .keep_self_loops(self.keep_self_loops)
            .weights(WeightModel::Wc);
        let b = match &self.probs {
            Some(ps) => b.weighted_edges(self.edges.iter().zip(ps).map(|(&(u, v), &p)| (u, v, p))),
            None => b.edges(self.edges.iter().copied()),
        };
        b.build()
    }
}

/// The comparison-sort builder, returning arrays instead of a `Graph`.
fn reference_build(input: &Input) -> Result<Arrays, GraphError> {
    let n = input.n;
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if let Some(probs) = &input.probs {
        if probs.len() != input.edges.len() {
            return Err(GraphError::WeightLengthMismatch {
                expected: input.edges.len(),
                got: probs.len(),
            });
        }
        for &p in probs {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(GraphError::InvalidProbability { value: p });
            }
        }
    }
    let mut triples: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for (i, &(u, v)) in input.edges.iter().enumerate() {
        if u as usize >= n {
            return Err(GraphError::NodeOutOfRange { node: u as u64, n });
        }
        if v as usize >= n {
            return Err(GraphError::NodeOutOfRange { node: v as u64, n });
        }
        if u == v && !input.keep_self_loops {
            continue;
        }
        let p = input.probs.as_ref().map_or(f64::NAN, |ps| ps[i]);
        triples.push((u, v, p));
        if input.undirected && u != v {
            triples.push((v, u, p));
        }
    }
    triples.sort_by_key(|&(u, v, _)| (u, v));
    triples.dedup_by_key(|&mut (u, v, _)| (u, v));
    let m = triples.len();

    let mut out_offsets = vec![0usize; n + 1];
    for &(u, _, _) in &triples {
        out_offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        out_offsets[i + 1] += out_offsets[i];
    }
    let out_targets: Vec<NodeId> = triples.iter().map(|&(_, v, _)| v).collect();

    let mut in_offsets = vec![0usize; n + 1];
    for &(_, v, _) in &triples {
        in_offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        in_offsets[i + 1] += in_offsets[i];
    }
    let mut cursor = in_offsets.clone();
    let mut in_sources = vec![0 as NodeId; m];
    let mut in_probs = vec![0.0f64; m];
    for &(u, v, p) in &triples {
        let slot = cursor[v as usize];
        in_sources[slot] = u;
        in_probs[slot] = p;
        cursor[v as usize] += 1;
    }

    // The old builder took custom weights one `add_weighted_edge` at a
    // time and switched to per-edge storage on the first, so a weighted
    // input without edges builds as a plain one.
    let per_edge = input.probs.as_ref().is_some_and(|ps| !ps.is_empty());
    let probs = if per_edge {
        // Each in-segment stable-sorted by descending probability.
        for v in 0..n {
            let (lo, hi) = (in_offsets[v], in_offsets[v + 1]);
            let mut zipped: Vec<(f64, NodeId)> = in_probs[lo..hi]
                .iter()
                .copied()
                .zip(in_sources[lo..hi].iter().copied())
                .collect();
            zipped.sort_by(|a, b| b.0.total_cmp(&a.0));
            for (i, (p, s)) in zipped.into_iter().enumerate() {
                in_probs[lo + i] = p;
                in_sources[lo + i] = s;
            }
        }
        in_probs
    } else {
        // WC: one rate per node, 1 / d_in.
        (0..n)
            .map(|v| match in_offsets[v + 1] - in_offsets[v] {
                0 => 0.0,
                d => 1.0 / d as f64,
            })
            .collect()
    };
    Ok(Arrays {
        out_offsets,
        out_targets,
        in_offsets,
        in_sources,
        per_edge,
        prob_bits: probs.iter().map(|p| p.to_bits()).collect(),
    })
}

fn assert_same(input: &Input) -> Result<(), TestCaseError> {
    let want = reference_build(input);
    let got = input.build();
    match (want, got) {
        (Ok(want), Ok(g)) => prop_assert_eq!(arrays_of(&g), want),
        // Same variant and the same offending value.
        (Err(want), Err(got)) => prop_assert_eq!(want.to_string(), got.to_string()),
        (want, got) => prop_assert!(false, "reference {want:?} but builder {got:?}"),
    }
    Ok(())
}

/// A small palette so parallel edges often carry different
/// probabilities, including both zeros and the endpoints of `[0, 1]`.
const PALETTE: [f64; 6] = [0.0, -0.0, 1.0, 0.5, 0.25, 0.125];

/// Out of this many endpoint draws, the last few are out of range.
const NODE_DRAWS: u32 = 2000;
/// Out of this many probability draws, the last three are invalid.
const PROB_DRAWS: usize = 400;

/// Inputs over up to `max_n` nodes: repeated pairs, self-loops, rare
/// out-of-range endpoints and (when weighted) a rare invalid
/// probability.
fn arb_input(max_n: usize, max_edges: usize) -> impl Strategy<Value = Input> {
    (
        1..=max_n,
        prop::collection::vec((0..NODE_DRAWS, 0..NODE_DRAWS, 0..PROB_DRAWS), 0..max_edges),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(n, raw, weighted, undirected, keep_self_loops)| {
            let node = |x: u32| match x.checked_sub(NODE_DRAWS - 5) {
                Some(over) => n as NodeId + over,
                None => x % n as NodeId,
            };
            let prob = |i: usize| match i.checked_sub(PROB_DRAWS - 3) {
                Some(bad) => [1.5, f64::NAN, -0.5][bad],
                None => PALETTE[i % PALETTE.len()],
            };
            Input {
                n,
                edges: raw.iter().map(|&(u, v, _)| (node(u), node(v))).collect(),
                probs: weighted.then(|| raw.iter().map(|&(_, _, i)| prob(i)).collect()),
                undirected,
                keep_self_loops,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn counting_sort_builder_matches_comparison_sort(input in arb_input(12, 80)) {
        assert_same(&input)?;
    }
}

#[test]
fn edge_cases_match_the_reference() {
    let cases = [
        // n = 1, with and without its only possible edge (a self-loop).
        (1, vec![], None),
        (1, vec![(0, 0)], None),
        (1, vec![(0, 0)], Some(vec![-0.0])),
        // Empty edge lists, weighted and not.
        (5, vec![], None),
        (5, vec![], Some(vec![])),
        // Zero nodes.
        (0, vec![], None),
        // Duplicates whose first occurrence must win.
        (3, vec![(0, 1), (0, 1), (1, 0)], Some(vec![1.0, 0.5, -0.0])),
        (3, vec![(0, 1), (0, 1)], Some(vec![-0.0, 0.0])),
        // Out-of-range endpoints: the first bad endpoint is reported.
        (3, vec![(0, 1), (2, 7), (9, 1)], None),
        (3, vec![(0, 1), (1, 4)], Some(vec![0.5, 0.5])),
    ];
    for (n, edges, probs) in cases {
        for undirected in [false, true] {
            for keep_self_loops in [false, true] {
                let input = Input {
                    n,
                    edges: edges.clone(),
                    probs: probs.clone(),
                    undirected,
                    keep_self_loops,
                };
                assert_same(&input).unwrap_or_else(|e| panic!("{input:?}: {e:?}"));
            }
        }
    }
}

/// A mixed builder (a weighted edge, then a plain one) fails the same
/// way in both.
#[test]
fn length_mismatch_matches_the_reference() {
    let got = GraphBuilder::new(3)
        .add_weighted_edge(0, 1, 0.5)
        .add_edge(1, 2)
        .build()
        .unwrap_err();
    let input = Input {
        n: 3,
        edges: vec![(0, 1), (1, 2)],
        probs: Some(vec![0.5]),
        undirected: false,
        keep_self_loops: false,
    };
    let want = reference_build(&input).unwrap_err();
    assert_eq!(want.to_string(), got.to_string());
}

/// Large inputs with hub nodes (a third of all endpoints land on eight
/// hubs, so hub buckets hold thousands of parallel edges), weighted and
/// undirected.
#[test]
#[ignore = "heavy: 100k-edge graphs (release only)"]
fn large_hub_graphs_match_the_reference() {
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let n = 20_000usize;
    for case in 0..8 {
        let mut node = || {
            let r = xorshift(&mut state);
            let range = if r.is_multiple_of(3) { 8 } else { n as u64 };
            ((r >> 8) % range) as NodeId
        };
        let edges: Vec<(NodeId, NodeId)> = (0..100_000).map(|_| (node(), node())).collect();
        let probs = (case % 2 == 0).then(|| {
            (0..edges.len())
                .map(|_| PALETTE[xorshift(&mut state) as usize % PALETTE.len()])
                .collect()
        });
        let input = Input {
            n,
            edges,
            probs,
            undirected: case % 4 < 2,
            keep_self_loops: case % 3 == 0,
        };
        assert_same(&input).unwrap();
    }
}
