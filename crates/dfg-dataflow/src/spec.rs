//! The dataflow network specification.

use crate::op::{FilterOp, Width};

/// Index of a node within a [`NetworkSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Convert to a `usize` index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node of the network: a source or a filter invocation plus the ids of
/// its immediate inputs (§III-A: *"each filter invocation, with the names of
/// its immediate inputs, is added to a Python list"*).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterNode {
    /// The operation.
    pub op: FilterOp,
    /// Input ports, in operation order.
    pub inputs: Vec<NodeId>,
    /// Optional user-facing name from an assignment statement.
    pub name: Option<String>,
}

impl FilterNode {
    /// Construct an unnamed node.
    pub fn new(op: FilterOp, inputs: Vec<NodeId>) -> Self {
        FilterNode {
            op,
            inputs,
            name: None,
        }
    }
}

/// Validation failures for a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A node references an id that does not exist.
    DanglingInput {
        /// The referencing node.
        node: NodeId,
        /// The nonexistent input id.
        input: NodeId,
    },
    /// A node's input count does not match its operation's arity.
    ArityMismatch {
        /// The offending node.
        node: NodeId,
        /// Arity the operation requires.
        expected: usize,
        /// Inputs actually present.
        found: usize,
    },
    /// The graph contains a cycle through the given node.
    Cycle {
        /// A node on the cycle.
        node: NodeId,
    },
    /// The result id does not exist.
    BadResult {
        /// The out-of-range result id.
        result: NodeId,
    },
    /// A filter received an input of the wrong width (e.g. `decompose` of a
    /// scalar, or `sqrt` of a vector).
    WidthMismatch {
        /// The consuming node.
        node: NodeId,
        /// The offending input port.
        port: usize,
        /// Width the port requires.
        expected: Width,
        /// Width actually supplied.
        found: Width,
    },
    /// The network has no nodes.
    Empty,
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::DanglingInput { node, input } => {
                write!(f, "node {node} references nonexistent input {input}")
            }
            NetworkError::ArityMismatch {
                node,
                expected,
                found,
            } => {
                write!(f, "node {node}: expected {expected} inputs, found {found}")
            }
            NetworkError::Cycle { node } => write!(f, "cycle through node {node}"),
            NetworkError::BadResult { result } => {
                write!(f, "result id {result} does not exist")
            }
            NetworkError::WidthMismatch {
                node,
                port,
                expected,
                found,
            } => write!(
                f,
                "node {node} port {port}: expected {expected:?} input, found {found:?}"
            ),
            NetworkError::Empty => write!(f, "network has no nodes"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A complete dataflow network: nodes plus the sink (result) node.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// All nodes. Builder- and parser-produced specs list nodes in
    /// topological order, but this is *not* assumed — see
    /// [`crate::Schedule::new`].
    pub nodes: Vec<FilterNode>,
    /// The node whose value the network produces.
    pub result: NodeId,
}

impl NetworkSpec {
    /// Look up a node.
    pub fn node(&self, id: NodeId) -> &FilterNode {
        &self.nodes[id.idx()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Result width of a node.
    pub fn width(&self, id: NodeId) -> Width {
        self.node(id).op.width()
    }

    /// Iterate over `(NodeId, &FilterNode)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &FilterNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Names of the distinct problem-sized `Input` sources, in first-use
    /// order, together with the distinct small inputs.
    pub fn input_names(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                FilterOp::Input { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Validate structural invariants: ids in range, arity, widths, acyclic.
    pub fn validate(&self) -> Result<(), NetworkError> {
        if self.nodes.is_empty() {
            return Err(NetworkError::Empty);
        }
        if self.result.idx() >= self.nodes.len() {
            return Err(NetworkError::BadResult {
                result: self.result,
            });
        }
        for (id, node) in self.iter() {
            let expected = node.op.arity().0;
            if node.inputs.len() != expected {
                return Err(NetworkError::ArityMismatch {
                    node: id,
                    expected,
                    found: node.inputs.len(),
                });
            }
            for &input in &node.inputs {
                if input.idx() >= self.nodes.len() {
                    return Err(NetworkError::DanglingInput { node: id, input });
                }
            }
            self.check_widths(id, node)?;
        }
        // Cycle detection via iterative DFS coloring.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.nodes.len()];
        for start in 0..self.nodes.len() {
            if color[start] != Color::White {
                continue;
            }
            // Stack of (node, next input index to visit).
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = Color::Gray;
            while let Some(&mut (n, ref mut next)) = stack.last_mut() {
                if *next < self.nodes[n].inputs.len() {
                    let child = self.nodes[n].inputs[*next].idx();
                    *next += 1;
                    match color[child] {
                        Color::White => {
                            color[child] = Color::Gray;
                            stack.push((child, 0));
                        }
                        Color::Gray => {
                            return Err(NetworkError::Cycle {
                                node: NodeId(child as u32),
                            })
                        }
                        Color::Black => {}
                    }
                } else {
                    color[n] = Color::Black;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    fn check_widths(&self, id: NodeId, node: &FilterNode) -> Result<(), NetworkError> {
        use FilterOp::*;
        let expect = |port: usize, expected: Width| -> Result<(), NetworkError> {
            let input = node.inputs[port];
            if input.idx() >= self.nodes.len() {
                // Reported as DanglingInput by the caller's loop; skip here.
                return Ok(());
            }
            let found = self.width(input);
            if found != expected {
                return Err(NetworkError::WidthMismatch {
                    node: id,
                    port,
                    expected,
                    found,
                });
            }
            Ok(())
        };
        // The caller has checked the port count against `arity()`.
        let all = |w: Width| (0..node.inputs.len()).try_for_each(|port| expect(port, w));
        match &node.op {
            Decompose(_) | Norm3 | Dot3 | Cross3 => all(Width::Vec4),
            Grad3d => {
                expect(1, Width::Small)?;
                [0, 2, 3, 4]
                    .into_iter()
                    .try_for_each(|p| expect(p, Width::Scalar))
            }
            Bin(_) | Un(_) | Select | Compose3 => all(Width::Scalar),
            Input { .. } | Const(_) => Ok(()),
        }
    }

    /// Count nodes matching a predicate.
    pub fn count_ops(&self, pred: impl Fn(&FilterOp) -> bool) -> usize {
        self.nodes.iter().filter(|n| pred(&n.op)).count()
    }

    /// A hash of the network's structure: operations, wiring, and result
    /// node — everything that determines generated kernel code. User-facing
    /// node `name`s are excluded (they don't affect codegen), so two parses
    /// of equivalent expressions with different assignment names collide,
    /// which is exactly what a compiled-kernel cache wants. Stable within a
    /// process run; not a cross-version persistence format.
    pub fn structural_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.nodes.len().hash(&mut h);
        for node in &self.nodes {
            // `FilterOp` carries an f32 constant, so hash its debug form
            // (exact, including the float's full shortest representation).
            format!("{:?}", node.op).hash(&mut h);
            node.inputs.hash(&mut h);
        }
        self.result.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinKind, UnKind};
    use crate::NetworkBuilder;

    #[test]
    fn validate_accepts_builder_output() {
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let c = b.constant(2.0);
        let m = b.binary(BinKind::Mul, u, c);
        let spec = b.finish(m);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.len(), 3);
        assert_eq!(spec.input_names(), vec!["u"]);
    }

    #[test]
    fn validate_rejects_arity_mismatch() {
        let spec = NetworkSpec {
            nodes: vec![FilterNode::new(FilterOp::Bin(BinKind::Add), vec![])],
            result: NodeId(0),
        };
        assert!(matches!(
            spec.validate(),
            Err(NetworkError::ArityMismatch {
                expected: 2,
                found: 0,
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_dangling_input() {
        let spec = NetworkSpec {
            nodes: vec![FilterNode::new(FilterOp::Un(UnKind::Sqrt), vec![NodeId(7)])],
            result: NodeId(0),
        };
        assert!(matches!(
            spec.validate(),
            Err(NetworkError::DanglingInput { .. })
        ));
    }

    #[test]
    fn validate_rejects_cycle() {
        let spec = NetworkSpec {
            nodes: vec![
                FilterNode::new(FilterOp::Un(UnKind::Sqrt), vec![NodeId(1)]),
                FilterNode::new(FilterOp::Un(UnKind::Sqrt), vec![NodeId(0)]),
            ],
            result: NodeId(0),
        };
        assert!(matches!(spec.validate(), Err(NetworkError::Cycle { .. })));
    }

    #[test]
    fn validate_rejects_bad_result() {
        let spec = NetworkSpec {
            nodes: vec![FilterNode::new(
                FilterOp::Input {
                    name: "u".into(),
                    small: false,
                },
                vec![],
            )],
            result: NodeId(3),
        };
        assert!(matches!(
            spec.validate(),
            Err(NetworkError::BadResult { .. })
        ));
    }

    #[test]
    fn validate_rejects_empty() {
        let spec = NetworkSpec {
            nodes: vec![],
            result: NodeId(0),
        };
        assert_eq!(spec.validate(), Err(NetworkError::Empty));
    }

    #[test]
    fn validate_rejects_width_mismatch() {
        // sqrt of a gradient (Vec4) is a width error.
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let dims = b.small_input("dims");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let g = b.grad3d(u, dims, x, y, z);
        let bad = b.unary(UnKind::Sqrt, g);
        let spec = b.finish(bad);
        assert!(matches!(
            spec.validate(),
            Err(NetworkError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn structural_hash_ignores_names_not_structure() {
        let build = |c: f32, name: Option<&str>| {
            let mut b = NetworkBuilder::new();
            let u = b.input("u");
            let k = b.constant(c);
            let m = b.binary(BinKind::Mul, u, k);
            let mut spec = b.finish(m);
            spec.nodes[m.idx()].name = name.map(String::from);
            spec
        };
        let a = build(2.0, None);
        let b = build(2.0, Some("twice"));
        let c = build(3.0, None);
        assert_eq!(a.structural_hash(), b.structural_hash(), "names ignored");
        assert_ne!(a.structural_hash(), c.structural_hash(), "constants hash");
    }

    #[test]
    fn decompose_requires_vec4() {
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let d = b.unary(FilterOp::Decompose(0), u);
        let spec = b.finish(d);
        assert!(matches!(
            spec.validate(),
            Err(NetworkError::WidthMismatch { .. })
        ));
    }
}
