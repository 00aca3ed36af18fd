//! The *streamed fusion* execution strategy — the paper's §VI future work
//! ("we plan to investigate the runtime performance of our execution
//! strategies in a streaming context"), implemented as a **double-buffered
//! slab pipeline**.
//!
//! The mesh is processed in z-slabs. Each slab is uploaded with a one-cell
//! halo (so the gradient stencil sees its neighbours), computed with the
//! *same* fused kernel the fusion strategy generates, and its interior is
//! downloaded — bounding device memory by the slab size instead of the grid
//! size. Results are bit-identical to single-pass fusion: interior cells
//! use the same central differences, and the global boundary slabs use the
//! same one-sided differences.
//!
//! The pipeline has one shape. Slabs are the largest the budget allows, and
//! the device holds two ring slots of slab buffers when the budget fits two
//! ghosted slabs and the grid needs more than one slab (otherwise one).
//! Three in-order command queues — one per stage — let the H2D upload of
//! slab *n+1* overlap the kernel of slab *n*, which overlaps the D2H
//! download of slab *n−1*. Cross-queue [`EventToken`] dependencies express
//! exactly the hazards the ring has:
//!
//! * a slab's kernel waits for its uploads and for the previous download
//!   out of the same ring slot's output buffer (WAR on the output);
//! * a slab's uploads wait for the kernel that last read the same ring
//!   slot's input buffers (WAR on the inputs);
//! * a slab's download waits for its kernel (RAW).
//!
//! All virtual-clock arithmetic happens serially at enqueue time, so Model
//! and Real mode produce bit-identical clocks regardless of
//! `DFG_NUM_THREADS`. A faulted operation fails the whole run; the recovery
//! ladder retries it like any other level.
//!
//! Host-side allocation discipline (the dgen-rs zero-copy rule: generate
//! into the destination, never into a temp `Vec`): big-field slabs upload
//! directly from windows of the caller's field storage, the per-slab dims
//! header is three floats on the stack, and downloads land directly in the
//! final output allocation via ranged reads — the steady-state loop performs
//! no per-slab heap allocation.
//!
//! Each slab issues the same three calls — write, launch, ranged read — in
//! both modes; what differs is whether the [`HostEnd`] handed to a transfer
//! has memory behind it.

use dfg_dataflow::{NetworkSpec, Width};
use dfg_kernels::Dims3;
use dfg_ocl::{Context, EventToken, ExecMode, HostEnd};

use crate::error::EngineError;
use crate::fields::{Field, FieldSet};
use crate::session::SessionState;
use crate::strategies::{check_field, fused_kernel};

/// Execute `spec` by streaming z-slabs through the fused kernel, keeping
/// peak device memory at or below `device_budget_bytes`.
///
/// The grid shape comes from the program's `dims` input when a gradient is
/// present; purely elementwise programs are streamed as flat chunks.
/// Returns the derived field (real mode) and the generated kernel source;
/// the slab count and ring depth are on the `stream.pipeline` span.
///
/// With a session, codegen/compile is served from its kernel cache, and the
/// ring's device buffers come from (and return to) the context's pool, so
/// successive cycles reuse the same slab storage.
pub(crate) fn run_streamed(
    spec: &NetworkSpec,
    fields: &FieldSet,
    ctx: &mut Context,
    session: Option<&mut SessionState>,
    label: &str,
    device_budget_bytes: u64,
) -> Result<(Option<Field>, String), EngineError> {
    let real = ctx.mode() == ExecMode::Real;
    let n = fields.ncells();
    let tracer = ctx.tracer().cloned();
    let (kernel, source) = fused_kernel(spec, &[spec.result], ctx, session, label, true)?;
    let program = &kernel.program;

    // Bytes per mesh cell resident on the device: each input slot plus the
    // output, in f32 lanes.
    let mut lanes_per_cell: u64 = match program.output_width {
        Width::Vec4 => 4,
        _ => 1,
    };
    let mut needs_dims = false;
    let mut small_inputs: u64 = 0;
    for slot in &program.inputs {
        if slot.small {
            needs_dims = true;
            small_inputs += 1;
        } else {
            lanes_per_cell += 1;
        }
    }
    let bytes_per_cell = 4 * lanes_per_cell;
    // Fixed per-ring-slot overhead: each small input holds a 3-lane header.
    let small_bytes_per_slot = 4 * 3 * small_inputs;

    // Grid shape: [nx, ny, nz] from the dims field when the program uses a
    // gradient; otherwise stream the flat array as [n, 1, 1]-shaped rows.
    let (dims3, halo) = if needs_dims {
        let fv = check_field(fields, "dims", true, ctx.mode())?;
        let data = fv.data.as_ref().ok_or_else(|| EngineError::ModeMismatch {
            detail: "streaming a gradient program needs a concrete `dims` buffer \
                     even in model mode"
                .into(),
        })?;
        (Dims3::from_buffer(data), 1usize)
    } else {
        // Elementwise programs have no stencil: stream flat chunks by
        // treating every cell as its own z-layer.
        (
            Dims3 {
                nx: 1,
                ny: 1,
                nz: n,
            },
            0usize,
        )
    };
    let plane = dims3.nx * dims3.ny; // cells per z-layer
    let nz = dims3.nz;
    let layer_bytes = plane as u64 * bytes_per_cell;

    // Slab sizing: the most interior layers per slab such that `slots`
    // ghosted slabs (and their dims headers) fit the budget at once. Two
    // slots when that leaves at least one layer and the grid needs more than
    // one slab; otherwise a single slot takes the whole budget.
    let interior_fitting = |slots: u64| {
        let slot_budget = (device_budget_bytes / slots).saturating_sub(small_bytes_per_slot);
        ((slot_budget / layer_bytes.max(1)) as usize).saturating_sub(2 * halo)
    };
    let (depth, interior_layers) = match interior_fitting(2) {
        k if k > 0 && k < nz => (2, k),
        _ => (1, interior_fitting(1)),
    };
    if interior_layers == 0 {
        return Err(EngineError::Ocl(dfg_ocl::OclError::OutOfMemory {
            requested: (1 + 2 * halo) as u64 * layer_bytes + small_bytes_per_slot,
            in_use: 0,
            capacity: device_budget_bytes,
        }));
    }
    let slabs = nz.div_ceil(interior_layers);
    let max_ghosted_layers = (interior_layers + 2 * halo).min(nz);
    let max_slab_cells = plane * max_ghosted_layers;

    let out_lanes_per_cell = match program.output_width {
        Width::Vec4 => 4usize,
        _ => 1,
    };
    let mut out_data = real.then(|| vec![0.0f32; n * out_lanes_per_cell]);

    // Hoist per-input validation and host views out of the slab loop.
    struct InputPlan<'a> {
        small: bool,
        data: Option<&'a [f32]>,
    }
    let mut inputs: Vec<InputPlan<'_>> = Vec::with_capacity(program.inputs.len());
    for slot in &program.inputs {
        let fv = check_field(fields, &slot.name, slot.small, ctx.mode())?;
        inputs.push(InputPlan {
            small: slot.small,
            data: fv.data.as_deref(),
        });
    }

    let pipeline_span = dfg_trace::span!(
        tracer,
        "stream.pipeline",
        depth = depth,
        slabs = slabs,
        interior_layers = interior_layers,
        budget_bytes = device_budget_bytes,
    );
    pipeline_span.virt_start(ctx.clock_seconds());

    // Three in-order queues, one per pipeline stage.
    let queues = ctx.acquire_queues(3);
    let (q_h2d, q_kexe, q_d2h) = (queues[0], queues[1], queues[2]);

    // The device slab ring: `depth` slot-sets of (input buffers + output
    // buffer), each sized for the largest ghosted slab, allocated once and
    // reused for every slab (with pooling on, across session cycles too).
    let mut ring_inputs: Vec<Vec<dfg_ocl::BufferId>> = Vec::with_capacity(depth);
    let mut ring_out: Vec<dfg_ocl::BufferId> = Vec::with_capacity(depth);
    let mut created: Vec<dfg_ocl::BufferId> = Vec::new();
    let mut alloc_err: Option<EngineError> = None;
    'alloc: for _ in 0..depth {
        let mut bufs = Vec::with_capacity(inputs.len());
        for input in &inputs {
            let lanes = if input.small { 3 } else { max_slab_cells };
            match ctx.create_buffer(lanes) {
                Ok(id) => {
                    created.push(id);
                    bufs.push(id);
                }
                Err(e) => {
                    alloc_err = Some(e.into());
                    break 'alloc;
                }
            }
        }
        match ctx.create_buffer(max_slab_cells * out_lanes_per_cell) {
            Ok(id) => {
                created.push(id);
                ring_out.push(id);
            }
            Err(e) => {
                alloc_err = Some(e.into());
                break 'alloc;
            }
        }
        ring_inputs.push(bufs);
    }
    if let Some(e) = alloc_err {
        // Park what was created so a retried/fallback attempt can reuse it;
        // the context is left exactly as the caller handed it over.
        for id in created {
            let _ = ctx.release(id);
        }
        return Err(e);
    }

    // Per-ring-slot hazard tokens.
    let mut last_kernel: Vec<Option<EventToken>> = vec![None; depth];
    let mut last_download: Vec<Option<EventToken>> = vec![None; depth];

    let run = (|| -> Result<(), EngineError> {
        for slab in 0..slabs {
            let z0 = slab * interior_layers;
            let z1 = (z0 + interior_layers).min(nz);
            let gz0 = z0.saturating_sub(halo);
            let gz1 = (z1 + halo).min(nz);
            let slab_cells = plane * (gz1 - gz0);
            let slot = slab % depth;
            let slab_span = dfg_trace::span!(
                tracer,
                "stream.slab",
                slab = slab,
                slot = slot,
                z0 = z0,
                z1 = z1,
                cells = slab_cells,
                bytes = slab_cells as u64 * bytes_per_cell,
            );

            // WAR: this slot's input buffers are still being read by the
            // kernel issued `depth` slabs ago.
            let upload_deps = last_kernel[slot].as_slice();

            let mut first_start: Option<f64> = None;
            let mut kernel_deps: Vec<EventToken> = Vec::with_capacity(inputs.len() + 1);
            // The per-slab dims header lives on the stack: the write copies
            // (or accounts) it at enqueue time, so nothing outlives the slab.
            let header = [dims3.nx as f32, dims3.ny as f32, (gz1 - gz0) as f32];
            for (input, &buf) in inputs.iter().zip(&ring_inputs[slot]) {
                let src = if input.small {
                    HostEnd::from(&header[..])
                } else {
                    let window = input.data.map(|d| &d[plane * gz0..plane * gz1]);
                    HostEnd::or_absent(window, slab_cells)
                };
                let tok = ctx.enqueue_write_q(q_h2d, buf, src, upload_deps)?;
                first_start.get_or_insert(tok.virt_start());
                kernel_deps.push(tok);
            }

            // WAR: this slot's output buffer is still draining to the host
            // from `depth` slabs ago.
            if let Some(t) = last_download[slot] {
                kernel_deps.push(t);
            }
            let k_tok = ctx.launch_q(
                q_kexe,
                &kernel,
                &ring_inputs[slot],
                ring_out[slot],
                slab_cells,
                &kernel_deps,
            )?;
            last_kernel[slot] = Some(k_tok);

            // RAW: download the interior layers [z0, z1) straight into the
            // output field's final storage — a ranged read, no temp Vec.
            let src_off = (z0 - gz0) * plane * out_lanes_per_cell;
            let len = (z1 - z0) * plane * out_lanes_per_cell;
            let dst_off = z0 * plane * out_lanes_per_cell;
            let window = out_data.as_mut().map(|dst| &mut dst[dst_off..][..len]);
            let dst = HostEnd::or_absent(window, len);
            let d_tok = ctx.enqueue_read_range_q(q_d2h, ring_out[slot], src_off, dst, &[k_tok])?;
            last_download[slot] = Some(d_tok);

            slab_span.virt_start(first_start.unwrap_or(k_tok.virt_start()));
            slab_span.virt_end(d_tok.virt_end());
        }
        Ok(())
    })();

    // Release the ring whether the pipeline completed or not: on success
    // the buffers park in the pool for the next cycle; on failure the
    // recovery driver's rollback sees a clean context either way.
    for bufs in &ring_inputs {
        for &buf in bufs {
            ctx.release(buf)?;
        }
    }
    for &buf in &ring_out {
        ctx.release(buf)?;
    }
    pipeline_span.virt_end(ctx.clock_seconds());
    drop(pipeline_span.meta("queues", 3usize));
    run?;

    let field = out_data.map(|data| Field {
        width: spec.width(spec.result),
        ncells: n,
        data,
    });
    Ok((field, source))
}
