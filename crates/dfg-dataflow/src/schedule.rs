//! Network initialization: topological ordering, reference counts, and
//! buffer free points (§III-B.2).

use crate::spec::{NetworkSpec, NodeId};

/// Errors raised while scheduling a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The network failed validation.
    Invalid(crate::spec::NetworkError),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Invalid(e) => write!(f, "invalid network: {e}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// An execution schedule for a network.
///
/// `order` lists the nodes *reachable from the result* in a valid
/// topological order (inputs before consumers). Unreachable nodes are
/// dropped: they would be dead code, and the lowering pass never produces
/// them for well-formed programs.
///
/// `free_after[i]` lists the nodes whose buffers become dead immediately
/// after executing `order[i]` — the reference-counting reuse described in the
/// paper. The result node is never freed.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Topological execution order over reachable nodes.
    pub order: Vec<NodeId>,
    /// Buffers that die after each step of `order`.
    pub free_after: Vec<Vec<NodeId>>,
}

impl Schedule {
    /// Build a schedule for `spec` with the network result as the only
    /// root, validating the network first.
    pub fn new(spec: &NetworkSpec) -> Result<Self, ScheduleError> {
        Self::for_roots(spec, &[spec.result])
    }

    /// Build a schedule keeping every node in `roots` live to the end
    /// (multi-output execution: several derived fields from one pass).
    ///
    /// # Panics
    /// Panics if `roots` is empty or contains an out-of-range id.
    pub fn for_roots(spec: &NetworkSpec, roots: &[NodeId]) -> Result<Self, ScheduleError> {
        assert!(!roots.is_empty(), "at least one root required");
        spec.validate().map_err(ScheduleError::Invalid)?;
        for &r in roots {
            assert!(r.idx() < spec.len(), "root {r} out of range");
        }

        let n = spec.len();
        // Reachability from the roots.
        let mut reachable = vec![false; n];
        let mut stack = roots.to_vec();
        while let Some(id) = stack.pop() {
            if reachable[id.idx()] {
                continue;
            }
            reachable[id.idx()] = true;
            stack.extend(spec.node(id).inputs.iter().copied());
        }

        // Consuming-port counts over reachable nodes (duplicate ports
        // counted, e.g. `u*u` counts `u` twice): the live reference counts
        // the free-point walk below retires.
        let mut live_refs = vec![0u32; n];
        for (id, node) in spec.iter() {
            if !reachable[id.idx()] {
                continue;
            }
            for &input in &node.inputs {
                live_refs[input.idx()] += 1;
            }
        }

        // Kahn's algorithm restricted to reachable nodes, preferring the
        // original node order (stable for parser-produced networks, whose
        // statement order the paper preserves).
        let mut remaining_inputs: Vec<usize> =
            spec.nodes.iter().map(|node| node.inputs.len()).collect();
        let mut order = Vec::with_capacity(n);
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> =
            std::collections::BinaryHeap::new();
        for (id, _) in spec.iter() {
            if reachable[id.idx()] && remaining_inputs[id.idx()] == 0 {
                ready.push(std::cmp::Reverse(id.0));
            }
        }
        // Forward adjacency: node -> consumers.
        let mut outs: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (id, node) in spec.iter() {
            if !reachable[id.idx()] {
                continue;
            }
            for &input in &node.inputs {
                outs[input.idx()].push(id);
            }
        }
        while let Some(std::cmp::Reverse(raw)) = ready.pop() {
            let id = NodeId(raw);
            order.push(id);
            // `outs` holds one entry per port edge, so decrementing once per
            // entry retires every port, including duplicates like `u*u`.
            for &consumer in &outs[id.idx()] {
                let slot = &mut remaining_inputs[consumer.idx()];
                *slot -= 1;
                if *slot == 0 {
                    ready.push(std::cmp::Reverse(consumer.0));
                }
            }
        }

        // Free points: walk the order, decrementing input refcounts. Roots
        // are pinned live to the end.
        let is_root = {
            let mut v = vec![false; n];
            for &r in roots {
                v[r.idx()] = true;
            }
            v
        };
        let mut free_after = vec![Vec::new(); order.len()];
        for (step, &id) in order.iter().enumerate() {
            // Use a local de-duplicated list of inputs to decrement per port.
            for &input in &spec.node(id).inputs {
                let r = &mut live_refs[input.idx()];
                debug_assert!(*r > 0, "refcount underflow at {input}");
                *r -= 1;
                if *r == 0 && !is_root[input.idx()] {
                    free_after[step].push(input);
                }
            }
        }
        // Dedup free lists (a node freed once even if its last two uses are
        // both ports of this step).
        for frees in &mut free_after {
            frees.sort();
            frees.dedup();
        }

        Ok(Schedule { order, free_after })
    }

    /// Number of scheduled (reachable) nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinKind, FilterOp, UnKind};
    use crate::NetworkBuilder;
    use std::collections::HashMap;

    fn velmag_spec() -> NetworkSpec {
        // v_mag = sqrt(u*u + v*v + w*w)
        let mut b = NetworkBuilder::new();
        let (u, v, w) = (b.input("u"), b.input("v"), b.input("w"));
        let m1 = b.binary(BinKind::Mul, u, u);
        let m2 = b.binary(BinKind::Mul, v, v);
        let m3 = b.binary(BinKind::Mul, w, w);
        let a1 = b.binary(BinKind::Add, m1, m2);
        let a2 = b.binary(BinKind::Add, a1, m3);
        let s = b.unary(UnKind::Sqrt, a2);
        b.finish(s)
    }

    #[test]
    fn order_respects_edges() {
        let spec = velmag_spec();
        let sched = Schedule::new(&spec).unwrap();
        let pos: HashMap<NodeId, usize> = sched
            .order
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();
        for &id in &sched.order {
            for &input in &spec.node(id).inputs {
                assert!(pos[&input] < pos[&id], "{input} must precede {id}");
            }
        }
        assert_eq!(sched.len(), spec.len());
    }

    #[test]
    fn duplicate_ports_retire_their_operand_once() {
        let spec = velmag_spec();
        let sched = Schedule::new(&spec).unwrap();
        // u feeds both ports of u*u: both references retire at that step,
        // and u is freed there exactly once.
        let u = NodeId(0);
        let step = sched
            .order
            .iter()
            .position(|&id| spec.node(id).inputs == [u, u])
            .expect("u*u is scheduled");
        assert_eq!(sched.free_after[step], vec![u]);
    }

    #[test]
    fn all_non_result_nodes_are_freed_exactly_once() {
        let spec = velmag_spec();
        let sched = Schedule::new(&spec).unwrap();
        let mut freed: Vec<NodeId> = sched.free_after.iter().flatten().copied().collect();
        freed.sort();
        let mut expected: Vec<NodeId> = sched
            .order
            .iter()
            .copied()
            .filter(|&n| n != spec.result)
            .collect();
        expected.sort();
        assert_eq!(freed, expected);
    }

    #[test]
    fn unreachable_nodes_are_dropped() {
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let _dead = b.unary(UnKind::Sqrt, u);
        let live = b.unary(UnKind::Abs, u);
        let spec = b.finish(live);
        let sched = Schedule::new(&spec).unwrap();
        assert_eq!(sched.len(), 2); // u, abs — sqrt dropped
    }

    #[test]
    fn invalid_network_is_rejected() {
        let spec = NetworkSpec {
            nodes: vec![crate::FilterNode::new(FilterOp::Bin(BinKind::Add), vec![])],
            result: NodeId(0),
        };
        assert!(matches!(
            Schedule::new(&spec),
            Err(ScheduleError::Invalid(_))
        ));
    }

    #[test]
    fn diamond_freed_after_last_use() {
        // a -> f1, a -> f2, (f1,f2) -> f3 : `a` freed only after both uses.
        let mut b = NetworkBuilder::new();
        let a = b.input("a");
        let f1 = b.unary(UnKind::Sqrt, a);
        let f2 = b.unary(UnKind::Abs, a);
        let f3 = b.binary(BinKind::Add, f1, f2);
        let spec = b.finish(f3);
        let sched = Schedule::new(&spec).unwrap();
        let pos: HashMap<NodeId, usize> = sched
            .order
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();
        let free_step = sched
            .free_after
            .iter()
            .position(|f| f.contains(&a))
            .expect("a must be freed");
        assert_eq!(free_step, pos[&f1].max(pos[&f2]));
    }
}

#[cfg(test)]
mod multi_root_tests {
    use super::*;
    use crate::op::{BinKind, UnKind};
    use crate::NetworkBuilder;

    #[test]
    fn roots_are_never_freed() {
        // m = u*u; a = m+m; b = m-m : both a and b as roots keep m live.
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let m = b.binary(BinKind::Mul, u, u);
        let add = b.binary(BinKind::Add, m, m);
        let sub = b.binary(BinKind::Sub, m, m);
        let spec = b.finish(add);
        let sched = Schedule::for_roots(&spec, &[add, sub]).unwrap();
        assert_eq!(sched.len(), 4);
        let freed: Vec<_> = sched.free_after.iter().flatten().collect();
        assert!(!freed.contains(&&add), "root add freed");
        assert!(!freed.contains(&&sub), "root sub freed");
        // m is shared but not a root: freed after its last consumer.
        assert!(freed.contains(&&m));
    }

    #[test]
    fn multi_root_reaches_all_roots() {
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let v = b.input("v");
        let a = b.unary(UnKind::Sqrt, u);
        let c = b.unary(UnKind::Abs, v);
        let spec = b.finish(a);
        // `c` unreachable from the result, but reachable as a root.
        let sched = Schedule::for_roots(&spec, &[a, c]).unwrap();
        assert_eq!(sched.len(), 4);
        let single = Schedule::new(&spec).unwrap();
        assert_eq!(single.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one root")]
    fn empty_roots_panic() {
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let spec = b.finish(u);
        let _ = Schedule::for_roots(&spec, &[]);
    }
}
