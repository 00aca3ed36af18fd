//! The *roundtrip* execution strategy (§III-C.1).
//!
//! One kernel per filter; **every kernel input port** is uploaded from host
//! memory and every kernel output is downloaded back, so the device never
//! holds more than one kernel's working set. Decompose runs on the host
//! (array slicing), and constants are materialized as problem-sized host
//! arrays uploaded per consuming port — both behaviours are required to
//! reproduce the paper's Table II transfer counts and Figure 6 memory
//! curves.

use std::collections::HashMap;

use dfg_dataflow::{FilterOp, NetworkSpec, NodeId, Schedule, Width};
use dfg_kernels::Primitive;
use dfg_ocl::{Context, DeviceKernel, ExecMode};

use crate::error::EngineError;
use crate::fields::{Field, FieldSet};
use crate::session::SessionState;
use crate::strategies::{check_field, lanes_for};

/// A host-resident intermediate value.
enum HostVal<'a> {
    /// Borrowed directly from the host's field set.
    Slice(&'a [f32]),
    /// Computed (kernel download, host decompose, or constant fill).
    Owned(Vec<f32>),
    /// Model mode: shape tracked, no data.
    Virtual,
}

impl HostVal<'_> {
    fn as_slice(&self) -> Option<&[f32]> {
        match self {
            HostVal::Slice(s) => Some(s),
            HostVal::Owned(v) => Some(v),
            HostVal::Virtual => None,
        }
    }
}

/// Execute `roots` of `spec` with the roundtrip strategy, extracting the
/// result fields from the host-value map (the schedule must pin `roots`
/// live). Returns the derived fields in real mode, `None` in model mode.
///
/// `dedup_uploads` enables the D1 ablation: upload each distinct kernel
/// input once rather than once per port (the paper transfers per port).
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
    dedup_uploads: bool,
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
                let val = match &fv.data {
                    Some(d) => HostVal::Slice(d),
                    None => HostVal::Virtual,
                };
                host.insert(id, val);
            }
            FilterOp::Const(v) => {
                // Materialized as a problem-sized host array; uploaded once
                // per consuming port below.
                let val = if real {
                    HostVal::Owned(vec![*v; n])
                } else {
                    HostVal::Virtual
                };
                host.insert(id, val);
            }
            FilterOp::Decompose(comp) => {
                // Host-side slicing: no device kernel under roundtrip.
                let val = if real {
                    let src = host
                        .get(&node.inputs[0])
                        .and_then(HostVal::as_slice)
                        .expect("scheduled operand present in real mode");
                    let comp = *comp as usize;
                    HostVal::Owned((0..n).map(|i| src[4 * i + comp]).collect())
                } else {
                    HostVal::Virtual
                };
                host.insert(id, val);
            }
            op => {
                let prim = Primitive::from_filter_op(op).expect("compute op");
                let _step = dfg_trace::span!(tracer, "roundtrip.filter", kernel = prim.name(),);
                // Upload one device buffer per input port (duplicate ports
                // transfer twice — Table II's Dev-W counts). Under the D1
                // ablation, ports sharing a source share one upload.
                let mut port_bufs = Vec::with_capacity(node.inputs.len());
                let mut created: Vec<dfg_ocl::BufferId> = Vec::new();
                let mut uploaded: HashMap<NodeId, dfg_ocl::BufferId> = HashMap::new();
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
                        if dedup_uploads {
                            if let Some(&buf) = uploaded.get(&input) {
                                port_bufs.push(buf);
                                continue;
                            }
                        }
                        let w = host_width(spec, input);
                        let buf = ctx.create_buffer(lanes_for(w, n))?;
                        if real {
                            let data = host
                                .get(&input)
                                .and_then(HostVal::as_slice)
                                .expect("scheduled operand present in real mode");
                            ctx.enqueue_write(buf, data)?;
                        } else {
                            ctx.enqueue_write_virtual(buf)?;
                        }
                        uploaded.insert(input, buf);
                        created.push(buf);
                        port_bufs.push(buf);
                    }
                }
                let out = ctx.create_buffer(lanes_for(op.width(), n))?;
                {
                    let _kernel = dfg_trace::span!(tracer, "roundtrip.kernel");
                    ctx.launch(&prim, &port_bufs, out, n)?;
                }
                let val = {
                    let _download = dfg_trace::span!(tracer, "roundtrip.download");
                    if real {
                        HostVal::Owned(ctx.enqueue_read(out)?)
                    } else {
                        ctx.enqueue_read_virtual(out)?;
                        HostVal::Virtual
                    }
                };
                host.insert(id, val);
                // The device is drained after every filter (each created
                // buffer released exactly once).
                for buf in created {
                    ctx.release(buf)?;
                }
                ctx.release(out)?;
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
    for &root in roots {
        let data = match host.get(&root).expect("root pinned by schedule") {
            HostVal::Owned(v) => v.clone(),
            HostVal::Slice(s) => s.to_vec(),
            HostVal::Virtual => unreachable!("real mode"),
        };
        out.push(Field {
            width: spec.width(root),
            ncells: n,
            data,
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
