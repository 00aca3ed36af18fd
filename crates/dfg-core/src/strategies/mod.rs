//! The execution strategies of §III-C, plus the streamed extension.
//!
//! Each executor drives the *same* dataflow schedule and the *same*
//! primitive kernel library through a different data-movement protocol:
//!
//! | strategy  | kernels                     | intermediates     | transfers |
//! |-----------|-----------------------------|-------------------|-----------|
//! | roundtrip | one per filter              | host memory       | per-port upload, per-kernel download |
//! | staged    | one per filter (+decompose, +const fill) | device global memory (ref-counted) | inputs once, result once |
//! | fusion    | one fused kernel            | device registers  | inputs once, result once |
//! | streamed  | the fused kernel, per z-slab | device registers | ghosted slabs in, interiors out |
//!
//! There is one function per strategy, and one caller: the recovery
//! driver's `execute_level`. Every function computes a list of `roots`
//! (single-output is the one-root case) and takes an optional
//! [`SessionState`]: with `None` the run is one-shot — every buffer it
//! creates it releases, and the event stream is exactly the paper's
//! protocol; with a session, source fields bind to generation-checked
//! resident buffers that outlive the call and fused codegen is served from
//! the session's kernel cache.
//!
//! No executor picks a device call by [`ExecMode`]: uploads go through
//! [`write_field`] (or the queued write) with whatever bytes the host has,
//! whole-buffer downloads through [`read_buffer`] — whose last read of a
//! buffer also releases it, so that the buffer's storage can become the
//! host's field instead of being copied — and a model run is the
//! same sequence on a context without storage. What an executor may still
//! ask is whether *host* data exists, for host-side compute that has no
//! model counterpart (roundtrip's constant fill and decompose slicing,
//! fusion's split of the download into one field per root).
//!
//! The executors' buffer allocation orders intentionally mirror
//! `dfg_dataflow::memreq`'s analytical simulation so that measured
//! high-water marks and predicted requirements agree exactly.

mod fusion;
mod roundtrip;
mod staged;
mod streamed;

pub(crate) use fusion::run_fusion;
pub(crate) use roundtrip::run_roundtrip;
pub(crate) use staged::run_staged;
pub(crate) use streamed::run_streamed;

use dfg_dataflow::{NetworkSpec, NodeId, Width};
use dfg_kernels::{fuse_roots, Dims3, FusedKernel};
use dfg_ocl::{interleave, BufferId, Context, ExecMode, HostEnd, QueueId};

use crate::error::EngineError;
use crate::fields::{FieldSet, FieldValue};
use crate::session::{program_key, CachedProgram, SessionState};

/// Lanes a buffer of `width` occupies for `ncells` elements.
pub(crate) fn lanes_for(width: Width, ncells: usize) -> usize {
    match width {
        Width::Scalar => ncells,
        Width::Vec4 => 4 * ncells,
        Width::Small => 3,
    }
}

/// Validate that a host field exists, has the declared width, and (in real
/// mode) carries data of the right length. A small field is the `dims`
/// operand of a `grad3d` — the only port of that width — and every kernel
/// decodes its grid from it, so its data must also describe exactly the
/// cells the field set holds: the stencil would otherwise divide by, or
/// index past, what is there.
pub(crate) fn check_field<'a>(
    fields: &'a FieldSet,
    name: &str,
    expect_small: bool,
    mode: ExecMode,
) -> Result<&'a FieldValue, EngineError> {
    let fv = fields.get(name).ok_or_else(|| EngineError::MissingField {
        name: name.to_string(),
    })?;
    let is_small = fv.width == Width::Small;
    if is_small != expect_small {
        return Err(EngineError::ModeMismatch {
            detail: format!(
                "field `{name}` width {:?} does not match its use ({})",
                fv.width,
                if expect_small {
                    "small"
                } else {
                    "problem-sized"
                }
            ),
        });
    }
    match (&fv.data, mode) {
        (None, ExecMode::Real) => Err(EngineError::ModeMismatch {
            detail: format!("field `{name}` is virtual but the engine is in real mode"),
        }),
        (Some(data), _) => {
            let expected = if expect_small { 3 } else { fields.ncells() };
            if data.len() != expected {
                return Err(EngineError::FieldSize {
                    name: name.to_string(),
                    expected,
                    found: data.len(),
                });
            }
            if expect_small {
                let d = Dims3::from_buffer(data);
                let found = d.nx.saturating_mul(d.ny).saturating_mul(d.nz);
                if d.nx.min(d.ny).min(d.nz) == 0 || found != fields.ncells() {
                    return Err(EngineError::FieldSize {
                        name: name.to_string(),
                        expected: fields.ncells(),
                        found,
                    });
                }
            }
            Ok(fv)
        }
        (None, ExecMode::Model) => Ok(fv),
    }
}

/// Write a validated host field into `buf`, which holds `lanes` lanes. A
/// real context adopts the field's shared array (no lane is copied; see
/// [`Context::enqueue_write_q`]), and the same transfer is accounted when
/// neither the context nor the field has bytes.
pub(crate) fn write_field(
    ctx: &mut Context,
    buf: BufferId,
    fv: &FieldValue,
    lanes: usize,
) -> Result<(), EngineError> {
    let src = HostEnd::or_absent(fv.data.as_ref(), lanes);
    ctx.enqueue_write_q(QueueId::DEFAULT, buf, src, &[])?;
    Ok(())
}

/// Download the whole of `buf` (`lanes` lanes, as `planes` planes): its
/// contents from a real context, cell by cell (see [`interleave`]), `None` —
/// the same transfer, accounted — from a model one; beside them, the lanes
/// whose storage went to the host without a copy.
///
/// The `last` read of a buffer also releases it
/// ([`Context::read_and_release`]), which may hand the buffer's storage over
/// instead of copying it; any other read copies, and the buffer stays live.
pub(crate) fn read_buffer(
    ctx: &mut Context,
    buf: BufferId,
    lanes: usize,
    planes: usize,
    last: bool,
) -> Result<(Option<Vec<f32>>, usize), EngineError> {
    if last {
        let copied = ctx.host_bytes_copied();
        let data = ctx.read_and_release(buf, planes)?;
        let handed_over = match &data {
            Some(data) if ctx.host_bytes_copied() == copied => data.len(),
            _ => 0,
        };
        return Ok((data, handed_over));
    }
    let data = match ctx.mode() {
        ExecMode::Real => {
            let data = ctx.enqueue_read(buf)?;
            Some(if planes == 1 {
                data
            } else {
                interleave(&data, planes)
            })
        }
        ExecMode::Model => {
            ctx.enqueue_read_range_q(QueueId::DEFAULT, buf, 0, HostEnd::absent(lanes), &[])?;
            None
        }
    };
    Ok((data, 0))
}

/// Put one named input field on the device: through the session's
/// generation-checked resident buffers when present (the session owns the
/// buffer), otherwise as a one-shot create + write the caller must release.
pub(crate) fn upload_field(
    fields: &FieldSet,
    ctx: &mut Context,
    name: &str,
    small: bool,
    session: Option<&mut SessionState>,
) -> Result<BufferId, EngineError> {
    match session {
        Some(state) => state.bind_input(ctx, fields, name, small),
        None => {
            let fv = check_field(fields, name, small, ctx.mode())?;
            let lanes = lanes_for(fv.width, fields.ncells());
            let buf = ctx.create_buffer(lanes)?;
            write_field(ctx, buf, fv, lanes)?;
            Ok(buf)
        }
    }
}

/// Generate (and account the compile of) the fused kernel computing
/// `roots`, or fetch it from the session's kernel cache. Returns the kernel
/// and its OpenCL-style source; `streamed` selects the slab variant's name
/// and cache slot.
pub(crate) fn fused_kernel(
    spec: &NetworkSpec,
    roots: &[NodeId],
    ctx: &mut Context,
    session: Option<&mut SessionState>,
    label: &str,
    streamed: bool,
) -> Result<(FusedKernel, String), EngineError> {
    let tracer = ctx.tracer().cloned();
    let (kernel_label, stage) = if streamed {
        (format!("{label}_streamed"), "streamed.codegen")
    } else {
        (label.to_string(), "fusion.codegen")
    };
    let mut cache = session.map(|state| (program_key(spec, roots, streamed), state));
    if let Some((key, state)) = &mut cache {
        if let Some(hit) = state.programs.get(key) {
            let out = (hit.kernel.relabeled(&kernel_label), hit.source.clone());
            state.stats.codegen_cached += 1;
            drop(dfg_trace::span!(tracer, "codegen.cached", label = label));
            return Ok(out);
        }
    }
    let kernel_name = format!("fused_{kernel_label}");
    let program = {
        let _codegen = dfg_trace::span!(tracer, stage, label = label);
        let program = fuse_roots(spec, roots)?;
        ctx.record_compile(&kernel_name)?;
        program
    };
    let source = program.generated_source(&kernel_name);
    let kernel = FusedKernel::new(program, &kernel_label);
    if let Some((key, state)) = cache {
        state.stats.codegen_compiles += 1;
        state.programs.insert(
            key,
            CachedProgram {
                kernel: kernel.clone(),
                source: source.clone(),
            },
        );
    }
    Ok((kernel, source))
}
