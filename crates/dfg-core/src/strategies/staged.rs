//! The *staged* execution strategy (§III-C.2).
//!
//! One kernel per filter, with intermediate results staged in device global
//! memory between kernel invocations: inputs are uploaded lazily (just
//! before their first consuming kernel), `decompose` is a device kernel
//! (*"it implements the decomposition primitive using a kernel to move
//! intermediate results on the OpenCL target device"*), constants are
//! materialized by a device fill kernel, and buffers are released the moment
//! their reference count drops to zero. An element-wise kernel whose operand
//! dies with it computes into that operand's storage, and a `decompose`
//! launch's output is a view of the plane it would copy
//! ([`Context::launch_then_release`]): a `Vec4` buffer is planar in storage
//! (see `dfg_kernels::primitives`), and a root of that width is interleaved
//! into the host's `float4` cells by its one download. The modeled buffers,
//! bytes and events are the paper's either way.

use std::collections::HashMap;

use dfg_dataflow::{FilterOp, NetworkSpec, NodeId, Schedule, Width};
use dfg_kernels::Primitive;
use dfg_ocl::{BufferId, Context, DeviceKernel, ExecMode, Placement};

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
                // Reference counting: the launch releases the buffers whose
                // last consumer it is (session-resident inputs stay on the
                // device), and may compute in place over one of them.
                let dying: Vec<BufferId> = sched.free_after[step]
                    .iter()
                    .filter_map(|dead| dev.remove(dead))
                    .filter(|&buf| !session.as_deref().is_some_and(|s| s.is_resident(buf)))
                    .collect();
                let kernel = dfg_trace::span!(tracer, "staged.kernel", kernel = prim.name());
                let placement = ctx.launch_then_release(&prim, &inputs, out, n, &dying)?;
                let kernel = kernel.meta("in_place", placement == Placement::InPlace);
                drop(kernel.meta("view", placement == Placement::View));
                dev.insert(id, out);
            }
        }
    }

    // One device-to-host read per root. The last read of a computed root
    // releases its buffer, which may hand the storage to the host; a root
    // read again later, a bare input and a session resident are copied and
    // left to the drain below.
    let mut out = (ctx.mode() == ExecMode::Real).then(Vec::new);
    let download = dfg_trace::span!(tracer, "staged.download", roots = roots.len());
    let mut handed_over = 0;
    for (i, &root) in roots.iter().enumerate() {
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
        let computed = !matches!(spec.node(root).op, FilterOp::Input { .. });
        let last = computed && !roots[i + 1..].contains(&root);
        let width = spec.width(root);
        let planes = if width == Width::Vec4 { 4 } else { 1 };
        let (data, moved) = read_buffer(ctx, result_buf, lanes_for(width, n), planes, last)?;
        if last {
            dev.remove(&root);
        }
        handed_over += moved;
        if let (Some(fields_out), Some(data)) = (out.as_mut(), data) {
            fields_out.push(Field {
                width,
                ncells: n,
                data,
            });
        }
    }
    let _download = download.meta("handed_over", handed_over);
    // Drain the device (session-resident inputs stay for the next cycle).
    for (_, buf) in dev {
        if !session.as_deref().is_some_and(|s| s.is_resident(buf)) {
            ctx.release(buf)?;
        }
    }
    Ok(out)
}
