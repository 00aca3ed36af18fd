//! The *roundtrip* execution strategy (§III-C.1).
//!
//! One kernel per filter; **every kernel input port** is uploaded from host
//! memory and every kernel output is downloaded back, so the device never
//! holds more than one kernel's working set. Decompose runs on the host
//! (array slicing), and constants are materialized as problem-sized host
//! arrays uploaded per consuming port — both behaviours are required to
//! reproduce the paper's Table II transfer counts and Figure 6 memory
//! curves. A `Vec4` value stays in the primitives' planar layout on the
//! host too, so a decompose is one plane; a `Vec4` root is interleaved into
//! `float4` cells once, at the end.

use std::collections::HashMap;

use dfg_dataflow::{FilterOp, NetworkSpec, NodeId, Schedule, Width};
use dfg_kernels::Primitive;
use dfg_ocl::{interleave, Context, DeviceKernel, ExecMode, HostEnd, QueueId, SharedArray};

use crate::error::EngineError;
use crate::fields::{Field, FieldSet};
use crate::session::SessionState;
use crate::strategies::{check_field, lanes_for, read_buffer};

/// A host-resident intermediate value: the host's own field array, or one
/// computed here (kernel download, host decompose, constant fill) and
/// wrapped without a copy — either way a shared array its per-port uploads
/// adopt; `None` when only its shape is tracked (model mode, virtual
/// fields). A one-shot download is the output buffer's own storage, so a
/// filter's result reaches the next filter's device buffer without a copy.
type HostVal = Option<SharedArray>;

/// Execute `roots` of `spec` with the roundtrip strategy, extracting the
/// result fields from the host-value map (the schedule must pin `roots`
/// live). Returns the derived fields in real mode, `None` in model mode.
///
/// With a session, ports fed by source `Input` nodes use its
/// generation-checked resident buffers instead of the paper's
/// upload-per-port protocol (the whole point of a persistent session is to
/// not re-transfer unchanged inputs); intermediates, constants, and
/// decompose results still roundtrip through the host.
pub(crate) fn run_roundtrip(
    spec: &NetworkSpec,
    sched: &Schedule,
    fields: &FieldSet,
    ctx: &mut Context,
    roots: &[NodeId],
    mut session: Option<&mut SessionState>,
) -> Result<Option<Vec<Field>>, EngineError> {
    let real = ctx.mode() == ExecMode::Real;
    let n = fields.ncells();
    let tracer = ctx.tracer().cloned();
    let mut host: HashMap<NodeId, HostVal> = HashMap::new();

    for (step, &id) in sched.order.iter().enumerate() {
        let node = spec.node(id);
        match &node.op {
            FilterOp::Input { name, small } => {
                let fv = check_field(fields, name, *small, ctx.mode())?;
                host.insert(id, fv.data.clone());
            }
            FilterOp::Const(v) => {
                // Materialized as a problem-sized host array; uploaded once
                // per consuming port below.
                host.insert(id, real.then(|| vec![*v; n].into()));
            }
            FilterOp::Decompose(comp) => {
                // Host-side slicing: no device kernel under roundtrip.
                let val = real.then(|| {
                    let src = host
                        .get(&node.inputs[0])
                        .and_then(Option::as_ref)
                        .expect("scheduled operand present in real mode");
                    src[*comp as usize * n..][..n].to_vec().into()
                });
                host.insert(id, val);
            }
            op => {
                let prim = Primitive::from_filter_op(op).expect("compute op");
                let _step = dfg_trace::span!(tracer, "roundtrip.filter", kernel = prim.name(),);
                // Upload one device buffer per input port (duplicate ports
                // transfer twice — Table II's Dev-W counts).
                let mut port_bufs = Vec::with_capacity(node.inputs.len());
                let mut created: Vec<dfg_ocl::BufferId> = Vec::new();
                {
                    let _upload =
                        dfg_trace::span!(tracer, "roundtrip.upload", ports = node.inputs.len(),);
                    for &input in &node.inputs {
                        // Session: source fields live on the device across
                        // cycles; no per-port upload for them.
                        if session.is_some() {
                            if let FilterOp::Input { name, small } = &spec.node(input).op {
                                let state = session.as_deref_mut().expect("checked");
                                let buf = state.bind_input(ctx, fields, name, *small)?;
                                port_bufs.push(buf);
                                continue;
                            }
                        }
                        let lanes = lanes_for(host_width(spec, input), n);
                        let buf = ctx.create_buffer(lanes)?;
                        let data = host.get(&input).and_then(Option::as_ref);
                        let src = HostEnd::or_absent(data, lanes);
                        ctx.enqueue_write_q(QueueId::DEFAULT, buf, src, &[])?;
                        created.push(buf);
                        port_bufs.push(buf);
                    }
                }
                let out_lanes = lanes_for(op.width(), n);
                let out = ctx.create_buffer(out_lanes)?;
                {
                    let _kernel = dfg_trace::span!(tracer, "roundtrip.kernel");
                    ctx.launch(&prim, &port_bufs, out, n)?;
                }
                // The device is drained after every filter (each created
                // buffer released exactly once, the output by its download,
                // whose storage becomes the host value without a copy).
                for buf in created {
                    ctx.release(buf)?;
                }
                let download = dfg_trace::span!(tracer, "roundtrip.download");
                let (val, handed_over) = read_buffer(ctx, out, out_lanes, 1, true)?;
                drop(download.meta("handed_over", handed_over));
                host.insert(id, val.map(SharedArray::from));
            }
        }
        // Reference-counted host reuse: drop dead intermediates.
        for dead in &sched.free_after[step] {
            host.remove(dead);
        }
    }

    if !real {
        return Ok(None);
    }
    let mut out = Vec::with_capacity(roots.len());
    for (i, &root) in roots.iter().enumerate() {
        // The last request for a root takes its array out of the map, so a
        // computed root moves into its field instead of being copied.
        let val = if roots[i + 1..].contains(&root) {
            host.get(&root).cloned()
        } else {
            host.remove(&root)
        };
        let val = val.expect("root pinned by schedule").expect("real mode");
        let width = spec.width(root);
        out.push(Field {
            width,
            ncells: n,
            data: match width {
                Width::Vec4 => interleave(&val, 4),
                _ => val.into_vec(),
            },
        });
    }
    Ok(Some(out))
}

/// Width of the host value a node holds (what a roundtrip upload of that
/// node's value transfers).
fn host_width(spec: &NetworkSpec, id: NodeId) -> Width {
    match &spec.node(id).op {
        FilterOp::Decompose(_) | FilterOp::Const(_) => Width::Scalar,
        op => op.width(),
    }
}
