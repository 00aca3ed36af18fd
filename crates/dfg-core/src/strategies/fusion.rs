//! The *fusion* execution strategy (§III-C.3).
//!
//! The dynamic kernel generator (`dfg_kernels::fuse`) compiles the whole
//! network into one kernel; each distinct input field is uploaded once, a
//! single kernel launch computes the derived field with intermediates in
//! registers, and one download returns the result.

use dfg_dataflow::{NetworkSpec, NodeId};
use dfg_ocl::Context;

use crate::error::EngineError;
use crate::fields::{Field, FieldSet};
use crate::session::SessionState;
use crate::strategies::{fused_kernel, read_buffer, upload_field};

/// Execute `roots` of `spec` with the fusion strategy: one generated kernel
/// computes every root, writing one plane per root into a single output
/// buffer, and the single download is split into fields by plane — for one
/// root the downloaded buffer *is* the field, and without a session its
/// storage is handed over rather than copied. Returns the derived fields in
/// real mode, `None` in model mode, plus the generated kernel source.
///
/// With a session, codegen is served from its kernel cache and input
/// uploads go through its generation-checked resident buffers, which are
/// *not* released here; with `None` every buffer is created and drained by
/// this call.
pub(crate) fn run_fusion(
    spec: &NetworkSpec,
    fields: &FieldSet,
    ctx: &mut Context,
    roots: &[NodeId],
    mut session: Option<&mut SessionState>,
    label: &str,
) -> Result<(Option<Vec<Field>>, String), EngineError> {
    let n = fields.ncells();
    let tracer = ctx.tracer().cloned();
    let (kernel, source) = fused_kernel(spec, roots, ctx, session.as_deref_mut(), label, false)?;
    let program = &kernel.program;

    let mut bufs = Vec::with_capacity(program.inputs.len());
    // Buffers this call created and must release (with a session, resident
    // inputs are owned by the session and stay on the device).
    let mut owned = Vec::new();
    {
        let _upload = dfg_trace::span!(tracer, "fusion.upload", inputs = program.inputs.len());
        for slot in &program.inputs {
            let buf = upload_field(fields, ctx, &slot.name, slot.small, session.as_deref_mut())?;
            if session.is_none() {
                owned.push(buf);
            }
            bufs.push(buf);
        }
    }
    let lanes_per_elem = program.lanes_per_elem;
    let out = ctx.create_buffer(lanes_per_elem * n)?;
    {
        let _kernel = dfg_trace::span!(tracer, "fusion.kernel", label = label);
        ctx.launch(&kernel, &bufs, out, n)?;
    }

    for buf in owned {
        ctx.release(buf)?;
    }
    let download = dfg_trace::span!(tracer, "fusion.download");
    let (planes, handed_over) = read_buffer(ctx, out, lanes_per_elem * n, 1, true)?;
    let _download = download.meta("handed_over", handed_over);
    let fields_out = planes.map(|mut planes| {
        // Planes sit in root order, so peeling them off the tail leaves the
        // first root holding the downloaded allocation itself. Shrinking it
        // also drops a handed-over buffer's guard lanes from its capacity;
        // glibc shrinks in place, and `qcrit_128`'s peak RSS read 8 MiB
        // lower with the shrink than without (docs/PERFORMANCE.md).
        let mut fields: Vec<Field> = program
            .outputs
            .iter()
            .rev()
            .map(|o| {
                let mut data = match o.lane_offset * n {
                    0 => std::mem::take(&mut planes),
                    at => planes.split_off(at),
                };
                data.shrink_to_fit();
                Field {
                    width: o.width,
                    ncells: n,
                    data,
                }
            })
            .collect();
        fields.reverse();
        fields
    });
    Ok((fields_out, source))
}
