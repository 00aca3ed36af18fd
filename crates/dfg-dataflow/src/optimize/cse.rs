//! Global common-subexpression elimination: hash-consed value numbering
//! with commutative-operand canonicalization.

use std::collections::HashMap;

use crate::op::FilterOp;
use crate::schedule::{Schedule, ScheduleError};
use crate::spec::{NetworkSpec, NodeId};

use super::{PassOut, Rebuild};

/// Operations whose operand order does not affect the result (bit-exactly,
/// for non-NaN inputs): the table's [`crate::BinKind::commutative`] column.
pub(crate) fn is_commutative(op: &FilterOp) -> bool {
    matches!(op, FilterOp::Bin(k) if k.commutative())
}

/// Hashable identity of an operation for value numbering.
pub(crate) fn op_key(op: &FilterOp) -> String {
    match op {
        FilterOp::Input { name, small } => format!("in:{name}:{small}"),
        FilterOp::Const(v) => format!("const:{:08x}", v.to_bits()),
        FilterOp::Decompose(c) => format!("dec:{c}"),
        other => other.kernel_name(),
    }
}

/// One value-numbering rebuild over the nodes reachable from `roots`:
/// every structurally identical (up to operand order for commutative ops)
/// filter invocation appears once in the output, with commutative inputs
/// stored in canonical (sorted) order.
pub(crate) fn run(spec: &NetworkSpec, roots: &[NodeId]) -> Result<PassOut, ScheduleError> {
    let sched = Schedule::for_roots(spec, roots)?;
    let mut remap: HashMap<NodeId, NodeId> = HashMap::with_capacity(sched.len());
    let mut value_numbers: HashMap<(String, Vec<NodeId>), NodeId> = HashMap::new();
    let mut b = Rebuild::new(sched.len());
    let mut merged = 0usize;

    for &old_id in &sched.order {
        let node = spec.node(old_id);
        // Rewrite inputs through the remap (schedule order guarantees
        // producers come first).
        let mut inputs: Vec<NodeId> = node.inputs.iter().map(|i| remap[i]).collect();
        let mut key_inputs = inputs.clone();
        if is_commutative(&node.op) {
            key_inputs.sort();
        }
        let key = (op_key(&node.op), key_inputs.clone());
        let new_id = match value_numbers.get(&key) {
            Some(&existing) => {
                merged += 1;
                // Keep the first-seen name; a dropped duplicate's name
                // attaches to the survivor if the survivor is unnamed.
                b.alias(node.name.as_deref(), existing)
            }
            None => {
                if is_commutative(&node.op) {
                    inputs = key_inputs;
                }
                let id = b.push(node.op.clone(), inputs, node.name.clone());
                value_numbers.insert(key, id);
                id
            }
        };
        remap.insert(old_id, new_id);
    }

    Ok(b.finish(&remap, roots, merged))
}
