//! The "create and connect" network definition API (§III-B.1).
//!
//! The parser front-end uses this API to realize a user's expression; it can
//! also be driven directly by a host application, exactly as the paper's
//! Python API could.
//!
//! The builder deduplicates constants ("common constants are reduced to
//! single instances of source filters"), input sources by name, and
//! `decompose` invocations by `(input, component)` — the framework's limited
//! common-subexpression elimination. General filter invocations are *not*
//! deduplicated (no operand commutation), matching the paper's filter counts
//! in Table II.

use std::collections::HashMap;

use crate::op::FilterOp;
use crate::spec::{FilterNode, NetworkSpec, NodeId};

/// Incremental builder for a [`NetworkSpec`].
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<FilterNode>,
    inputs: HashMap<String, NodeId>,
    consts: HashMap<u32, NodeId>, // f32 bit pattern -> node
    decomposes: HashMap<(NodeId, u8), NodeId>,
}

impl NetworkBuilder {
    /// Start an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, node: FilterNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Add (or reuse) a problem-sized input field source.
    pub fn input(&mut self, name: &str) -> NodeId {
        self.input_impl(name, false)
    }

    /// Add (or reuse) a small auxiliary input source (e.g. `dims`).
    pub fn small_input(&mut self, name: &str) -> NodeId {
        self.input_impl(name, true)
    }

    fn input_impl(&mut self, name: &str, small: bool) -> NodeId {
        if let Some(&id) = self.inputs.get(name) {
            return id;
        }
        let id = self.push(FilterNode::new(
            FilterOp::Input {
                name: name.to_string(),
                small,
            },
            vec![],
        ));
        self.inputs.insert(name.to_string(), id);
        id
    }

    /// Add (or reuse) a constant source.
    pub fn constant(&mut self, value: f32) -> NodeId {
        if let Some(&id) = self.consts.get(&value.to_bits()) {
            return id;
        }
        let id = self.push(FilterNode::new(FilterOp::Const(value), vec![]));
        self.consts.insert(value.to_bits(), id);
        id
    }

    /// Add a unary filter.
    pub fn unary(&mut self, op: impl Into<FilterOp>, a: NodeId) -> NodeId {
        let op = op.into();
        debug_assert_eq!(op.arity().0, 1, "unary() with non-unary op {op}");
        self.push(FilterNode::new(op, vec![a]))
    }

    /// Add a binary filter.
    pub fn binary(&mut self, op: impl Into<FilterOp>, a: NodeId, b: NodeId) -> NodeId {
        let op = op.into();
        debug_assert_eq!(op.arity().0, 2, "binary() with non-binary op {op}");
        self.push(FilterNode::new(op, vec![a, b]))
    }

    /// Add a `select(cond, a, b)` filter.
    pub fn select(&mut self, cond: NodeId, a: NodeId, b: NodeId) -> NodeId {
        self.push(FilterNode::new(FilterOp::Select, vec![cond, a, b]))
    }

    /// Add a `vector(a, b, c)` filter packing three scalars into a vector.
    pub fn compose3(&mut self, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
        self.push(FilterNode::new(FilterOp::Compose3, vec![a, b, c]))
    }

    /// Add (or reuse) a `decompose` filter extracting component `comp`.
    pub fn decompose(&mut self, a: NodeId, comp: u8) -> NodeId {
        if let Some(&id) = self.decomposes.get(&(a, comp)) {
            return id;
        }
        let id = self.push(FilterNode::new(FilterOp::Decompose(comp), vec![a]));
        self.decomposes.insert((a, comp), id);
        id
    }

    /// Add a 3D rectilinear gradient filter.
    pub fn grad3d(
        &mut self,
        field: NodeId,
        dims: NodeId,
        x: NodeId,
        y: NodeId,
        z: NodeId,
    ) -> NodeId {
        self.push(FilterNode::new(
            FilterOp::Grad3d,
            vec![field, dims, x, y, z],
        ))
    }

    /// Attach a user-facing name (assignment statement) to a node.
    pub fn name(&mut self, id: NodeId, name: &str) {
        self.nodes[id.idx()].name = Some(name.to_string());
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finish the network, designating `result` as the sink.
    pub fn finish(self, result: NodeId) -> NetworkSpec {
        NetworkSpec {
            nodes: self.nodes,
            result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinKind, UnKind};

    #[test]
    fn inputs_are_deduplicated() {
        let mut b = NetworkBuilder::new();
        let u1 = b.input("u");
        let u2 = b.input("u");
        assert_eq!(u1, u2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn constants_are_deduplicated_by_bits() {
        let mut b = NetworkBuilder::new();
        let a = b.constant(0.5);
        let c = b.constant(0.5);
        let d = b.constant(0.25);
        assert_eq!(a, c);
        assert_ne!(a, d);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn negative_zero_is_distinct_from_zero() {
        // Bit-pattern dedup keeps -0.0 and 0.0 separate, which is safe
        // (they behave differently under division).
        let mut b = NetworkBuilder::new();
        let z = b.constant(0.0);
        let nz = b.constant(-0.0);
        assert_ne!(z, nz);
    }

    #[test]
    fn decompose_is_deduplicated_per_component() {
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let dims = b.small_input("dims");
        let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
        let g = b.grad3d(u, dims, x, y, z);
        let d0a = b.decompose(g, 0);
        let d0b = b.decompose(g, 0);
        let d1 = b.decompose(g, 1);
        assert_eq!(d0a, d0b);
        assert_ne!(d0a, d1);
    }

    #[test]
    fn general_filters_are_not_deduplicated() {
        // Limited CSE: `u*u` twice produces two mult filters.
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let m1 = b.binary(BinKind::Mul, u, u);
        let m2 = b.binary(BinKind::Mul, u, u);
        assert_ne!(m1, m2);
    }

    #[test]
    fn finish_and_name() {
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let s = b.unary(UnKind::Sqrt, u);
        b.name(s, "root_u");
        let spec = b.finish(s);
        assert_eq!(spec.result, s);
        assert_eq!(spec.node(s).name.as_deref(), Some("root_u"));
        assert!(spec.validate().is_ok());
    }
}
