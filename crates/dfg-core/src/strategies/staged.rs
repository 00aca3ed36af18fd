//! The *staged* execution strategy (§III-C.2).
//!
//! One kernel per filter, with intermediate results staged in device global
//! memory between kernel invocations: inputs are uploaded lazily (just
//! before their first consuming kernel), `decompose` is a device kernel
//! (*"it implements the decomposition primitive using a kernel to move
//! intermediate results on the OpenCL target device"*), constants are
//! materialized by a device fill kernel, and buffers are released the moment
//! their reference count drops to zero.

use std::collections::HashMap;

use dfg_dataflow::{FilterOp, NetworkSpec, NodeId, Schedule};
use dfg_kernels::Primitive;
use dfg_ocl::{BufferId, Context, DeviceKernel, ExecMode};

use crate::error::EngineError;
use crate::fields::{Field, FieldSet};
use crate::session::SessionState;
use crate::strategies::{lanes_for, read_buffer, upload_field};

/// Execute `roots` of `spec` with the staged strategy: the paper's serial
/// walk over [`Schedule::order`], one launch (and one event) at a time, then
/// one device-to-host read per root. Returns the derived fields in real
/// mode, `None` in model mode.
///
/// With a session, input uploads go through its generation-checked resident
/// buffers, which the free and drain passes leave on the device.
pub(crate) fn run_staged(
    spec: &NetworkSpec,
    sched: &Schedule,
    fields: &FieldSet,
    ctx: &mut Context,
    roots: &[NodeId],
    mut session: Option<&mut SessionState>,
) -> Result<Option<Vec<Field>>, EngineError> {
    let n = fields.ncells();
    let tracer = ctx.tracer().cloned();
    let mut dev: HashMap<NodeId, BufferId> = HashMap::new();

    for (step, &id) in sched.order.iter().enumerate() {
        let node = spec.node(id);
        match &node.op {
            // Uploaded lazily at first consumer.
            FilterOp::Input { .. } => {}
            op => {
                // Make every operand resident (this is where lazy input
                // uploads happen, in port order — matching memreq's staged
                // simulation exactly).
                for &input in &node.inputs {
                    if dev.contains_key(&input) {
                        continue;
                    }
                    let FilterOp::Input { name, small } = &spec.node(input).op else {
                        unreachable!("non-input operand {input} not yet resident");
                    };
                    let _upload = dfg_trace::span!(tracer, "staged.upload", port = name.as_str());
                    let buf = upload_field(fields, ctx, name, *small, session.as_deref_mut())?;
                    dev.insert(input, buf);
                }
                let prim = Primitive::from_filter_op(op).expect("compute op or const");
                let out = ctx.create_buffer(lanes_for(op.width(), n))?;
                let inputs: Vec<BufferId> = node.inputs.iter().map(|i| dev[i]).collect();
                {
                    let _kernel = dfg_trace::span!(tracer, "staged.kernel", kernel = prim.name());
                    ctx.launch(&prim, &inputs, out, n)?;
                }
                dev.insert(id, out);
            }
        }
        // Reference counting: release buffers whose last consumer ran
        // (session-resident inputs stay on the device).
        for dead in &sched.free_after[step] {
            if let Some(buf) = dev.remove(dead) {
                if !session.as_deref().is_some_and(|s| s.is_resident(buf)) {
                    ctx.release(buf)?;
                }
            }
        }
    }

    // One device-to-host read per root.
    let mut out = (ctx.mode() == ExecMode::Real).then(Vec::new);
    let _download = dfg_trace::span!(tracer, "staged.download", roots = roots.len());
    for &root in roots {
        let result_buf = match dev.get(&root) {
            Some(&buf) => buf,
            None => {
                // Degenerate network: the root is a bare input never
                // consumed by a kernel. Upload it so the device-to-host
                // protocol holds.
                let FilterOp::Input { name, small } = &spec.node(root).op else {
                    unreachable!("non-input root must have been computed")
                };
                let buf = upload_field(fields, ctx, name, *small, session.as_deref_mut())?;
                dev.insert(root, buf);
                buf
            }
        };
        let width = spec.width(root);
        let data = read_buffer(ctx, result_buf, lanes_for(width, n))?;
        if let (Some(fields_out), Some(data)) = (out.as_mut(), data) {
            fields_out.push(Field {
                width,
                ncells: n,
                data,
            });
        }
    }
    // Drain the device (session-resident inputs stay for the next cycle).
    for (_, buf) in dev {
        if !session.as_deref().is_some_and(|s| s.is_resident(buf)) {
            ctx.release(buf)?;
        }
    }
    Ok(out)
}
