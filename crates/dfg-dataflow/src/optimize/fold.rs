//! Constant folding and dead-branch elimination.
//!
//! Filters whose inputs are all constants are evaluated at network-build
//! time, and `select` nodes with a constant condition collapse to the
//! taken branch. Folding uses [`eval_scalar`], which calls the same `eval`
//! functions of the operation table (`op.rs`) that the simulated device's
//! kernels call per element, so folded networks execute bit-identically by
//! construction.

use std::collections::HashMap;

use crate::op::{select, FilterOp};
use crate::schedule::{Schedule, ScheduleError};
use crate::spec::{NetworkSpec, NodeId};

use super::{PassOut, Rebuild};

/// Evaluate one scalar filter over constant inputs by calling the
/// arithmetic the device kernels call ([`crate::BinKind::eval`],
/// [`crate::UnKind::eval`], [`select`]). Returns `None` for sources and for
/// vector-width operations (whose inputs can never all be scalar constants
/// anyway).
pub fn eval_scalar(op: &FilterOp, args: &[f32]) -> Option<f32> {
    Some(match (op, args) {
        (FilterOp::Bin(k), &[a, b]) => k.eval(a, b),
        (FilterOp::Un(k), &[a]) => k.eval(a),
        (FilterOp::Select, &[c, a, b]) => select(c, a, b),
        _ => return None,
    })
}

/// One folding rebuild over the nodes reachable from `roots`.
pub(crate) fn run(spec: &NetworkSpec, roots: &[NodeId]) -> Result<PassOut, ScheduleError> {
    let sched = Schedule::for_roots(spec, roots)?;
    let mut remap: HashMap<NodeId, NodeId> = HashMap::with_capacity(sched.len());
    // Dedup folded constants by bit pattern, like the builder does.
    let mut consts: HashMap<u32, NodeId> = HashMap::new();
    let mut b = Rebuild::new(sched.len());
    let mut folded = 0usize;

    for &old_id in &sched.order {
        let node = spec.node(old_id);
        let inputs: Vec<NodeId> = node.inputs.iter().map(|i| remap[i]).collect();
        let const_of = |id: NodeId, b: &Rebuild| -> Option<f32> {
            match b.nodes[id.idx()].op {
                FilterOp::Const(v) => Some(v),
                _ => None,
            }
        };
        if let FilterOp::Const(v) = node.op {
            // Re-dedup constants (folds below may have minted this value).
            let id = *consts
                .entry(v.to_bits())
                .or_insert_with(|| b.push(FilterOp::Const(v), Vec::new(), None));
            let id = b.alias(node.name.as_deref(), id);
            remap.insert(old_id, id);
            continue;
        }
        // Dead-branch elimination: select with a constant condition takes
        // the chosen branch without evaluating the other.
        if matches!(node.op, FilterOp::Select) {
            if let Some(c) = const_of(inputs[0], &b) {
                let taken = select(c, inputs[1], inputs[2]);
                folded += 1;
                let id = b.alias(node.name.as_deref(), taken);
                remap.insert(old_id, id);
                continue;
            }
        }
        let args: Option<Vec<f32>> = inputs.iter().map(|&i| const_of(i, &b)).collect();
        if let Some(args) = args {
            if let Some(v) = eval_scalar(&node.op, &args) {
                folded += 1;
                let id = *consts
                    .entry(v.to_bits())
                    .or_insert_with(|| b.push(FilterOp::Const(v), Vec::new(), None));
                let id = b.alias(node.name.as_deref(), id);
                remap.insert(old_id, id);
                continue;
            }
        }
        let id = b.push(node.op.clone(), inputs, node.name.clone());
        remap.insert(old_id, id);
    }

    Ok(b.finish(&remap, roots, folded))
}
