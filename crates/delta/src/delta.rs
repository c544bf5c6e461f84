//! Batched edge mutations and their text format.

use crate::error::DeltaError;
use subsim_graph::NodeId;

/// One edge mutation.
///
/// Deltas mutate edges only — the node set is fixed when the
/// [`crate::VersionedGraph`] is built, so RR roots keep drawing from the
/// same `0..n` range and repaired pools stay on the original chunk-seed
/// stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaOp {
    /// Adds the edge `u -> v` with probability `p`; the edge must not
    /// exist in the current version.
    InsertEdge {
        /// Source endpoint.
        u: NodeId,
        /// Target endpoint.
        v: NodeId,
        /// Activation probability in `[0, 1]`.
        p: f64,
    },
    /// Removes the edge `u -> v`; the edge must exist.
    DeleteEdge {
        /// Source endpoint.
        u: NodeId,
        /// Target endpoint.
        v: NodeId,
    },
    /// Sets the probability of the existing edge `u -> v` to `p`.
    ReweightEdge {
        /// Source endpoint.
        u: NodeId,
        /// Target endpoint.
        v: NodeId,
        /// New activation probability in `[0, 1]`.
        p: f64,
    },
}

impl DeltaOp {
    /// The edge's target endpoint — the only node whose in-list (and
    /// therefore whose RR-generation randomness) the op can change.
    pub fn target(&self) -> NodeId {
        match *self {
            DeltaOp::InsertEdge { v, .. }
            | DeltaOp::DeleteEdge { v, .. }
            | DeltaOp::ReweightEdge { v, .. } => v,
        }
    }

    /// The edge's endpoints `(u, v)`.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            DeltaOp::InsertEdge { u, v, .. }
            | DeltaOp::DeleteEdge { u, v }
            | DeltaOp::ReweightEdge { u, v, .. } => (u, v),
        }
    }
}

impl std::fmt::Display for DeltaOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DeltaOp::InsertEdge { u, v, p } => write!(f, "+ {u} {v} {p}"),
            DeltaOp::DeleteEdge { u, v } => write!(f, "- {u} {v}"),
            DeltaOp::ReweightEdge { u, v, p } => write!(f, "~ {u} {v} {p}"),
        }
    }
}

/// An ordered batch of edge mutations, applied atomically by
/// [`crate::VersionedGraph::apply`] (all ops validate against the running
/// state or none commit).
///
/// Text format, one op per line (`#` comments and blank lines ignored):
///
/// ```text
/// + u v p    # insert edge u -> v with probability p
/// - u v      # delete edge u -> v
/// ~ u v p    # reweight edge u -> v to p
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    ops: Vec<DeltaOp>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Appends an edge insertion.
    pub fn insert_edge(mut self, u: NodeId, v: NodeId, p: f64) -> Self {
        self.ops.push(DeltaOp::InsertEdge { u, v, p });
        self
    }

    /// Appends an edge deletion.
    pub fn delete_edge(mut self, u: NodeId, v: NodeId) -> Self {
        self.ops.push(DeltaOp::DeleteEdge { u, v });
        self
    }

    /// Appends an edge reweight.
    pub fn reweight_edge(mut self, u: NodeId, v: NodeId, p: f64) -> Self {
        self.ops.push(DeltaOp::ReweightEdge { u, v, p });
        self
    }

    /// Appends one op.
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Sorted, deduplicated targets of all ops — the nodes whose in-lists
    /// the delta mutates. An RR set is dirty under this delta iff it
    /// contains one of these nodes (see [`crate::repair`]).
    pub fn targets(&self) -> Vec<NodeId> {
        let mut t: Vec<NodeId> = self.ops.iter().map(|op| op.target()).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Parses one op line of the text format; `Ok(None)` for blank and
    /// comment lines.
    pub fn parse_line(line: &str) -> Result<Option<DeltaOp>, DeltaError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut it = line.split_whitespace();
        let kind = it.next().expect("non-empty line has a first token");
        let mut node = |what: &str| -> Result<NodeId, DeltaError> {
            it.next()
                .ok_or_else(|| DeltaError::Parse {
                    message: format!("missing {what} in {line:?}"),
                })?
                .parse::<NodeId>()
                .map_err(|e| DeltaError::Parse {
                    message: format!("bad {what} in {line:?}: {e}"),
                })
        };
        let (u, v) = (node("source")?, node("target")?);
        let prob = |it: &mut std::str::SplitWhitespace<'_>| -> Result<f64, DeltaError> {
            it.next()
                .ok_or_else(|| DeltaError::Parse {
                    message: format!("missing probability in {line:?}"),
                })?
                .parse::<f64>()
                .map_err(|e| DeltaError::Parse {
                    message: format!("bad probability in {line:?}: {e}"),
                })
        };
        let op = match kind {
            "+" => DeltaOp::InsertEdge {
                u,
                v,
                p: prob(&mut it)?,
            },
            "-" => DeltaOp::DeleteEdge { u, v },
            "~" => DeltaOp::ReweightEdge {
                u,
                v,
                p: prob(&mut it)?,
            },
            other => {
                return Err(DeltaError::Parse {
                    message: format!("unknown op {other:?} (expected +, -, or ~)"),
                })
            }
        };
        if it.next().is_some() {
            return Err(DeltaError::Parse {
                message: format!("trailing tokens in {line:?}"),
            });
        }
        Ok(Some(op))
    }

    /// Parses the one-op delta of a serving `delta <op>` line's op text;
    /// a blank op is a parse error.
    pub fn parse_op(op: &str) -> Result<Self, DeltaError> {
        let op = Self::parse_line(op)?.ok_or(DeltaError::Parse {
            message: "empty delta line".into(),
        })?;
        Ok(GraphDelta { ops: vec![op] })
    }

    /// Parses a whole delta from the text format.
    pub fn parse(text: &str) -> Result<Self, DeltaError> {
        let mut delta = GraphDelta::new();
        for line in text.lines() {
            if let Some(op) = Self::parse_line(line)? {
                delta.push(op);
            }
        }
        Ok(delta)
    }
}

impl std::fmt::Display for GraphDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for op in &self.ops {
            writeln!(f, "{op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_orders_ops() {
        let d = GraphDelta::new()
            .insert_edge(0, 1, 0.5)
            .delete_edge(2, 3)
            .reweight_edge(4, 5, 0.25);
        assert_eq!(d.len(), 3);
        assert_eq!(d.ops()[1], DeltaOp::DeleteEdge { u: 2, v: 3 });
    }

    #[test]
    fn targets_are_sorted_and_deduped() {
        let d = GraphDelta::new()
            .insert_edge(0, 9, 0.5)
            .delete_edge(1, 2)
            .reweight_edge(7, 9, 0.1)
            .insert_edge(3, 2, 0.4);
        assert_eq!(d.targets(), vec![2, 9]);
    }

    #[test]
    fn text_format_round_trips() {
        let d = GraphDelta::new()
            .insert_edge(0, 1, 0.5)
            .delete_edge(2, 3)
            .reweight_edge(4, 5, 0.125);
        let text = d.to_string();
        let parsed = GraphDelta::parse(&text).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let d = GraphDelta::parse("# updates\n\n+ 0 1 0.5\n  # trailing\n- 1 0\n").unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "* 0 1",
            "+ 0 1",
            "+ 0 x 0.5",
            "- 1",
            "~ 0 1 huh",
            "+ 0 1 0.5 extra",
        ] {
            assert!(
                matches!(GraphDelta::parse(bad), Err(DeltaError::Parse { .. })),
                "accepted {bad:?}"
            );
        }
    }
}
