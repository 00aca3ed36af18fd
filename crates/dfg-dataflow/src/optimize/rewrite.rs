//! Algebraic rewrites, in two safety tiers.
//!
//! The **bit-exact tier** (always on at [`super::OptLevel::Default`] and
//! above) applies only identities that hold for every `f32` bit pattern
//! the untouched operand can take, signed zeros included:
//!
//! * `x * 1.0 → x`, `1.0 * x → x`, `x / 1.0 → x`
//! * `x - 0.0 → x` (but *not* `x - (-0.0)`, which is `x + 0.0`)
//! * `x + (-0.0) → x` either side (but *not* `x + 0.0`: `-0.0 + 0.0 == +0.0`)
//! * `neg(neg(x)) → x`, `abs(abs(x)) → abs(x)`
//! * `min(x,x) → x`, `max(x,x) → x` (same node on both ports)
//! * `select(c, x, x) → x`
//!
//! The **fast-math tier** ([`super::OptLevel::Fast`]) adds value-changing
//! rewrites that are exact on the reals but not on floats:
//!
//! * `sqrt(x) * sqrt(x) → x` (differs for negative x: NaN vs x)
//! * `sqrt(x*x) → abs(x)` (≤ 1 ulp for finite x)
//! * `pow(x, 2.0) → x*x`, `pow(x, 1.0) → x`
//!
//! `pow(sqrt(x), 2.0)` resolves to `x` across two pipeline iterations
//! (pow→mul, then sqrt·sqrt→x).

use std::collections::HashMap;

use crate::op::FilterOp;
use crate::schedule::{Schedule, ScheduleError};
use crate::spec::{FilterNode, NetworkSpec, NodeId};

use super::{PassOut, Rebuild};

enum Action {
    /// The node is the given (already rebuilt) node.
    Alias(NodeId),
    /// Replace the operation/inputs (keeps the node's name).
    Replace(FilterOp, Vec<NodeId>),
}

fn const_bits(nodes: &[FilterNode], id: NodeId) -> Option<u32> {
    match nodes[id.idx()].op {
        FilterOp::Const(v) => Some(v.to_bits()),
        _ => None,
    }
}

const ONE: u32 = 0x3f80_0000; // 1.0f32
const POS_ZERO: u32 = 0x0000_0000; // +0.0f32
const NEG_ZERO: u32 = 0x8000_0000; // -0.0f32
const TWO: u32 = 0x4000_0000; // 2.0f32

fn rule(nodes: &[FilterNode], op: &FilterOp, inputs: &[NodeId], fast: bool) -> Option<Action> {
    use crate::op::{BinKind::*, UnKind::*};
    use FilterOp::{Bin, Select, Un};
    let cbits = |i: usize| const_bits(nodes, inputs[i]);
    match op {
        Bin(Mul) => {
            if cbits(1) == Some(ONE) {
                return Some(Action::Alias(inputs[0]));
            }
            if cbits(0) == Some(ONE) {
                return Some(Action::Alias(inputs[1]));
            }
            if fast && inputs[0] == inputs[1] {
                // sqrt(x) * sqrt(x) → x
                if let Un(Sqrt) = nodes[inputs[0].idx()].op {
                    return Some(Action::Alias(nodes[inputs[0].idx()].inputs[0]));
                }
            }
            None
        }
        Bin(Div) if cbits(1) == Some(ONE) => Some(Action::Alias(inputs[0])),
        Bin(Sub) if cbits(1) == Some(POS_ZERO) => Some(Action::Alias(inputs[0])),
        Bin(Add) => {
            if cbits(1) == Some(NEG_ZERO) {
                return Some(Action::Alias(inputs[0]));
            }
            if cbits(0) == Some(NEG_ZERO) {
                return Some(Action::Alias(inputs[1]));
            }
            None
        }
        Un(Neg) => match nodes[inputs[0].idx()].op {
            Un(Neg) => Some(Action::Alias(nodes[inputs[0].idx()].inputs[0])),
            _ => None,
        },
        Un(Abs) => match nodes[inputs[0].idx()].op {
            Un(Abs) => Some(Action::Alias(inputs[0])),
            Bin(Mul) if fast => {
                // |x*x| → x*x: a same-node square is non-negative (and
                // (-0.0)² == +0.0), differing only in NaN sign bits.
                let m = &nodes[inputs[0].idx()];
                if m.inputs[0] == m.inputs[1] {
                    Some(Action::Alias(inputs[0]))
                } else {
                    None
                }
            }
            _ => None,
        },
        Bin(Min | Max) if inputs[0] == inputs[1] => Some(Action::Alias(inputs[0])),
        Select if inputs[1] == inputs[2] => Some(Action::Alias(inputs[1])),
        Un(Sqrt) if fast => {
            // sqrt(x*x) → |x| (≤ 1 ulp for finite x).
            let m = &nodes[inputs[0].idx()];
            match m.op {
                Bin(Mul) if m.inputs[0] == m.inputs[1] => {
                    Some(Action::Replace(Un(Abs), vec![m.inputs[0]]))
                }
                _ => None,
            }
        }
        Bin(Pow) if fast => {
            if cbits(1) == Some(ONE) {
                return Some(Action::Alias(inputs[0]));
            }
            if cbits(1) == Some(TWO) {
                return Some(Action::Replace(Bin(Mul), vec![inputs[0], inputs[0]]));
            }
            None
        }
        _ => None,
    }
}

/// One rewrite rebuild over the nodes reachable from `roots`; `fast`
/// enables the value-changing tier.
pub(crate) fn run(
    spec: &NetworkSpec,
    roots: &[NodeId],
    fast: bool,
) -> Result<PassOut, ScheduleError> {
    let sched = Schedule::for_roots(spec, roots)?;
    let mut remap: HashMap<NodeId, NodeId> = HashMap::with_capacity(sched.len());
    let mut b = Rebuild::new(sched.len());
    let mut rewritten = 0usize;

    for &old_id in &sched.order {
        let node = spec.node(old_id);
        let inputs: Vec<NodeId> = node.inputs.iter().map(|i| remap[i]).collect();
        let id = match rule(&b.nodes, &node.op, &inputs, fast) {
            Some(Action::Alias(target)) => {
                rewritten += 1;
                b.alias(node.name.as_deref(), target)
            }
            Some(Action::Replace(op, new_inputs)) => {
                rewritten += 1;
                b.push(op, new_inputs, node.name.clone())
            }
            None => b.push(node.op.clone(), inputs, node.name.clone()),
        };
        remap.insert(old_id, id);
    }

    Ok(b.finish(&remap, roots, rewritten))
}
