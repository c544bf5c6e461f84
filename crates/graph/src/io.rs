//! Edge-list text I/O.
//!
//! The format matches the SNAP datasets the paper downloads: one
//! whitespace-separated `u v` (or `u v p`) pair per line, `#`-prefixed
//! comment lines ignored. Node ids need not be contiguous; a compaction
//! pass maps them to `0..n`.
//!
//! Files written by [`write_edge_list`] carry a `# n=<N> m=<M>` header.
//! When the reader sees that header before any edge, it switches to
//! identity-id mode: the node count is fixed to `N`, ids are taken
//! verbatim (and must be `< N`), and isolated nodes survive the round
//! trip. Without the header the legacy first-seen compaction applies.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use crate::error::GraphError;
use crate::weights::WeightModel;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Parsed edge list plus the mapping from original ids to compact ids.
#[derive(Debug, Clone)]
pub struct EdgeList {
    /// Compact node count.
    pub n: usize,
    /// Edges over compact ids.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Optional per-edge probabilities (present iff the file had a third
    /// column on every edge line).
    pub probs: Option<Vec<f64>>,
    /// `original_id[i]` is the id in the input file for compact node `i`.
    pub original_id: Vec<u64>,
}

impl EdgeList {
    /// Builds a graph from the parsed edges under `model` (ignored when
    /// the file carried explicit probabilities).
    pub fn into_graph(self, model: WeightModel) -> Result<Graph, GraphError> {
        // Self-loops present in the file are part of the graph being
        // round-tripped (delta compaction must not silently drop them).
        let mut b = GraphBuilder::new(self.n)
            .weights(model)
            .keep_self_loops(true);
        match self.probs {
            Some(probs) => {
                let edges = self.edges.into_iter().zip(probs);
                b = b.weighted_edges(edges.map(|((u, v), p)| (u, v, p)));
            }
            None => {
                b = b.edges(self.edges);
            }
        }
        b.build()
    }
}

/// Parses the writer's `# n=<N> m=<M>` header; `None` for any other
/// comment line.
fn parse_size_header(line: &str) -> Option<usize> {
    let rest = line.strip_prefix('#')?.trim();
    let mut it = rest.split_whitespace();
    let n = it.next()?.strip_prefix("n=")?.parse::<usize>().ok()?;
    it.next()?.strip_prefix("m=")?.parse::<u64>().ok()?;
    Some(n)
}

/// Reads a whitespace-separated edge list from `reader`.
pub fn read_edge_list<R: std::io::Read>(reader: R) -> Result<EdgeList, GraphError> {
    let reader = BufReader::new(reader);
    let mut id_map: HashMap<u64, NodeId> = HashMap::new();
    let mut original_id: Vec<u64> = Vec::new();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut probs: Vec<f64> = Vec::new();
    let mut saw_prob = None;
    let mut declared_n: Option<usize> = None;

    let intern = |raw: u64, original_id: &mut Vec<u64>, id_map: &mut HashMap<u64, NodeId>| {
        *id_map.entry(raw).or_insert_with(|| {
            original_id.push(raw);
            (original_id.len() - 1) as NodeId
        })
    };

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            if edges.is_empty() && declared_n.is_none() {
                declared_n = parse_size_header(line);
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> Result<u64, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: lineno + 1,
                message: format!("missing {what}"),
            })?
            .parse::<u64>()
            .map_err(|e| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        let u = parse(it.next(), "source")?;
        let v = parse(it.next(), "target")?;
        let p = it.next();
        match (saw_prob, p) {
            (None, Some(tok)) => {
                saw_prob = Some(true);
                probs.push(parse_prob(tok, lineno + 1)?);
            }
            (None, None) => saw_prob = Some(false),
            (Some(true), Some(tok)) => probs.push(parse_prob(tok, lineno + 1)?),
            (Some(true), None) | (Some(false), Some(_)) => {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    message: "inconsistent column count".into(),
                })
            }
            (Some(false), None) => {}
        }
        let (cu, cv) = match declared_n {
            // Identity-id mode: ids are already compact; range-check only.
            Some(n) => {
                for raw in [u, v] {
                    if raw >= n as u64 {
                        return Err(GraphError::Parse {
                            line: lineno + 1,
                            message: format!("node id {raw} exceeds declared n={n}"),
                        });
                    }
                }
                (u as NodeId, v as NodeId)
            }
            None => (
                intern(u, &mut original_id, &mut id_map),
                intern(v, &mut original_id, &mut id_map),
            ),
        };
        edges.push((cu, cv));
    }
    let (n, original_id) = match declared_n {
        Some(n) => (n, (0..n as u64).collect()),
        None => (original_id.len(), original_id),
    };
    Ok(EdgeList {
        n,
        edges,
        probs: if saw_prob == Some(true) {
            Some(probs)
        } else {
            None
        },
        original_id,
    })
}

fn parse_prob(tok: &str, line: usize) -> Result<f64, GraphError> {
    tok.parse::<f64>().map_err(|e| GraphError::Parse {
        line,
        message: format!("bad probability: {e}"),
    })
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<EdgeList, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes `graph` as a `u v p` edge list (compact ids).
pub fn write_edge_list<W: std::io::Write>(graph: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# n={} m={}", graph.n(), graph.m())?;
    for (u, v, p) in graph.edges() {
        writeln!(w, "{u} {v} {p}")?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::InProbs;

    #[test]
    fn parses_comments_and_blank_lines() {
        let input = "# header\n\n0 1\n1 2\n% konect style\n2 0\n";
        let el = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(el.n, 3);
        assert_eq!(el.edges.len(), 3);
        assert!(el.probs.is_none());
    }

    #[test]
    fn compacts_sparse_ids() {
        let input = "1000 42\n42 7\n";
        let el = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(el.n, 3);
        assert_eq!(el.original_id, vec![1000, 42, 7]);
        assert_eq!(el.edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn parses_probabilities() {
        let input = "0 1 0.5\n1 2 0.25\n";
        let el = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(el.probs.as_deref(), Some(&[0.5, 0.25][..]));
        let g = el.into_graph(WeightModel::Wc).unwrap();
        assert_eq!(g.in_probs(1), InProbs::PerEdge(&[0.5]));
    }

    #[test]
    fn rejects_inconsistent_columns() {
        let input = "0 1 0.5\n1 2\n";
        assert!(matches!(
            read_edge_list(input.as_bytes()).unwrap_err(),
            GraphError::Parse { line: 2, .. }
        ));
    }

    #[test]
    fn rejects_garbage() {
        let input = "0 x\n";
        assert!(matches!(
            read_edge_list(input.as_bytes()).unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
        let input = "0\n";
        assert!(read_edge_list(input.as_bytes()).is_err());
    }

    #[test]
    fn roundtrip_through_writer() {
        let g = crate::generators::erdos_renyi_gnm(30, 80, WeightModel::Wc, 11);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let el = read_edge_list(buf.as_slice()).unwrap();
        // The writer's header pins n and keeps ids verbatim, so the round
        // trip is exact: same node count, same edges, same probabilities.
        assert_eq!(el.n, g.n());
        let g2 = el.into_graph(WeightModel::Wc).unwrap();
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn roundtrip_preserves_self_loops_zero_weights_and_isolated_nodes() {
        // Node 4 is isolated, (0,0) is a self-loop, (1,2) has weight zero
        // — the shapes delta compaction must not silently drop.
        let g = GraphBuilder::new(5)
            .keep_self_loops(true)
            .add_weighted_edge(0, 0, 0.5)
            .add_weighted_edge(1, 2, 0.0)
            .add_weighted_edge(3, 1, 0.25)
            .build()
            .unwrap();
        assert_eq!(g.m(), 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let el = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(el.n, 5);
        assert_eq!(el.original_id, (0..5).collect::<Vec<u64>>());
        let g2 = el.into_graph(WeightModel::Wc).unwrap();
        assert_eq!(g2.n(), 5, "isolated node must survive");
        assert_eq!(g2.m(), 3, "self-loop and zero-weight edge must survive");
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn header_rejects_out_of_range_ids() {
        let input = "# n=3 m=1\n0 7\n";
        assert!(matches!(
            read_edge_list(input.as_bytes()).unwrap_err(),
            GraphError::Parse { line: 2, .. }
        ));
    }

    #[test]
    fn header_after_first_edge_is_ignored() {
        // A size header only switches modes before any edge is parsed;
        // later comments stay comments.
        let input = "5 6\n# n=2 m=1\n6 5\n";
        let el = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(el.n, 2);
        assert_eq!(el.original_id, vec![5, 6]);
        assert_eq!(el.edges, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn empty_input_parses_but_fails_graph_build_typed() {
        // No edges, no header: the edge list is legal (n = 0) but a graph
        // needs at least one node, and the failure must be typed.
        for input in ["", "# only a comment\n", "\n\n% konect\n"] {
            let el = read_edge_list(input.as_bytes()).unwrap();
            assert_eq!(el.n, 0, "{input:?}");
            assert_eq!(el.edges.len(), 0);
            assert!(matches!(
                el.into_graph(WeightModel::Wc).unwrap_err(),
                GraphError::EmptyGraph
            ));
        }
        // A header declaring n=0 is the same typed failure, not a panic.
        let el = read_edge_list(&b"# n=0 m=0\n"[..]).unwrap();
        assert!(matches!(
            el.into_graph(WeightModel::Wc).unwrap_err(),
            GraphError::EmptyGraph
        ));
    }

    #[test]
    fn single_isolated_node_round_trips() {
        // The smallest graph the builder accepts: one node, zero edges.
        // Only the `# n= m=` header carries it through text form.
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!((g.n(), g.m()), (1, 0));
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf.clone()).unwrap(), "# n=1 m=0\n");
        let el = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(el.n, 1);
        let g2 = el.into_graph(WeightModel::Wc).unwrap();
        assert_eq!((g2.n(), g2.m()), (1, 0));
    }

    #[test]
    fn duplicate_parallel_edges_dedup_keeping_the_first() {
        // Unweighted duplicates collapse to one edge.
        let el = read_edge_list(&b"0 1\n0 1\n1 2\n0 1\n"[..]).unwrap();
        assert_eq!(el.edges.len(), 4, "the parser keeps duplicates verbatim");
        let g = el.into_graph(WeightModel::UniformIc { p: 0.5 }).unwrap();
        assert_eq!(g.m(), 2, "the builder dedups parallel edges");
        // Weighted duplicates keep the first-listed probability.
        let el = read_edge_list(&b"0 1 0.9\n0 1 0.1\n"[..]).unwrap();
        let g = el.into_graph(WeightModel::Wc).unwrap();
        assert_eq!(g.m(), 1);
        let (_, _, p) = g.edges().next().unwrap();
        assert_eq!(p, 0.9);
    }

    #[test]
    fn crlf_edge_lists_round_trip() {
        // Files written on Windows (or fetched through a CRLF-translating
        // proxy) must parse identically to their LF twins.
        let lf = "# n=3 m=2\n0 1 0.5\n1 2 0.25\n";
        let crlf = lf.replace('\n', "\r\n");
        let a = read_edge_list(lf.as_bytes()).unwrap();
        let b = read_edge_list(crlf.as_bytes()).unwrap();
        assert_eq!(a.n, b.n);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.probs, b.probs);
        // And a headerless CRLF list, where `lines()` + trim carries it.
        let el = read_edge_list(&b"5 6\r\n6 7\r\n"[..]).unwrap();
        assert_eq!(el.edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("subsim_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let g = crate::generators::cycle_graph(6, WeightModel::Wc);
        write_edge_list(&g, std::fs::File::create(&path).unwrap()).unwrap();
        let el = read_edge_list_file(&path).unwrap();
        assert_eq!(el.edges.len(), 6);
        std::fs::remove_file(&path).ok();
    }
}
