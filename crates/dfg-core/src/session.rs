//! Persistent execution sessions for the in-situ hot loop (§V).
//!
//! An in-situ host calls the framework with the same expression, the same
//! mesh, and mostly-the-same fields every simulation cycle. A [`Session`]
//! amortizes everything that does not change across cycles:
//!
//! - **one device context for the whole session** — with buffer pooling
//!   enabled ([`dfg_ocl::Context::set_pooling`]), so transient buffers
//!   (fusion outputs, staged intermediates) reuse their backing storage
//!   instead of re-allocating and re-zeroing each cycle;
//! - **resident source fields with generation-based dirty tracking** — the
//!   session keeps a device copy of every input it has uploaded, tagged
//!   with the [`crate::FieldValue::generation`] it was uploaded at, and
//!   re-uploads only fields whose generation changed. Static mesh
//!   coordinates upload exactly once per session;
//! - **a compiled-kernel cache** — fused (and streamed) codegen output is
//!   keyed by [`dfg_dataflow::NetworkSpec::structural_hash`], so dynamic
//!   code generation and `record_compile` happen once per distinct network,
//!   not once per cycle.
//!
//! Profiles are still per-cycle: each [`Session::run`] resets the
//! context's event log and virtual clock first, so a cycle's
//! [`ExecReport`] covers that cycle alone (with the high-water mark
//! re-seeded from the resident bytes). Trace spans are likewise scoped per
//! cycle, and cached work is tagged with `upload.skipped` /
//! `codegen.cached` spans so `dfgc profile` shows the amortization.
//!
//! One-shot and session derives share one execution core
//! (`Engine::execute` → the recovery driver → one function per strategy).
//! A session passes its pooled context and its cross-cycle state; one-shot
//! [`Engine::run`] passes no session state and a fresh, unpooled context
//! per run, preserving the paper's Table II counts and Figure 5/6 model
//! numbers exactly.

use std::borrow::BorrowMut;
use std::collections::HashMap;

use dfg_dataflow::{NetworkSpec, NodeId, Strategy};
use dfg_kernels::FusedKernel;
use dfg_ocl::{BufferId, Context};
use dfg_trace::span;

use crate::engine::{named, Engine, ExecReport};
use crate::error::EngineError;
use crate::fields::{Field, FieldSet};
use crate::request::Request;
use crate::strategies::{check_field, lanes_for, write_field};

/// A device-resident copy of one host input field.
pub(crate) struct Resident {
    pub buf: BufferId,
    /// Generation of the host field at upload time.
    pub generation: u64,
    pub lanes: usize,
}

/// A cached fusion codegen result: the kernel, lowered once — a hit runs
/// its step list under the request's label — and its generated source.
pub(crate) struct CachedProgram {
    pub kernel: FusedKernel,
    pub source: String,
}

/// Counters a session accumulates; see [`Session::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Completed `run` cycles.
    pub cycles: u64,
    /// Host→device uploads of input fields actually performed.
    pub uploads: u64,
    /// Uploads skipped because the resident copy was current.
    pub uploads_skipped: u64,
    /// Fusion codegen + compile runs (kernel-cache misses).
    pub codegen_compiles: u64,
    /// Kernel-cache hits.
    pub codegen_cached: u64,
    /// Kernel launches the optimizer pipeline eliminated, summed over
    /// cycles: each cycle saves `OptStats::filters_eliminated` launches
    /// relative to running the unoptimized network.
    pub opt_saved_kernels: u64,
    /// Residents found corrupted by pre-skip verification and healed in
    /// place by re-uploading from the host copy (see
    /// `EngineOptions::verify`; always 0 with verification off).
    pub integrity_healed: u64,
}

/// Cross-cycle state threaded through the strategy executors.
#[derive(Default)]
pub(crate) struct SessionState {
    pub resident: HashMap<String, Resident>,
    pub programs: HashMap<u64, CachedProgram>,
    pub stats: SessionStats,
    /// Cancellation handle for the in-flight request, polled by the
    /// recovery driver between ladder rungs and retries. Installed (and
    /// cleared) per request by the serving layer.
    pub cancel: Option<crate::cancel::CancelToken>,
}

impl SessionState {
    /// Bytes held by resident field copies (stay allocated between cycles).
    pub fn resident_bytes(&self) -> u64 {
        self.resident.values().map(|r| r.lanes as u64 * 4).sum()
    }

    /// Whether `buf` is a resident input (and must not be released by an
    /// executor's drain pass).
    pub fn is_resident(&self, buf: BufferId) -> bool {
        self.resident.values().any(|r| r.buf == buf)
    }

    /// Bind host field `name` to its device-resident buffer, uploading only
    /// when the field's generation changed since the last upload (or on
    /// first use). Emits an `upload.skipped` span on a clean hit.
    pub fn bind_input(
        &mut self,
        ctx: &mut Context,
        fields: &FieldSet,
        name: &str,
        small: bool,
    ) -> Result<BufferId, EngineError> {
        let fv = check_field(fields, name, small, ctx.mode())?;
        let lanes = lanes_for(fv.width, fields.ncells());
        let tracer = ctx.tracer().cloned();
        if let Some(r) = self.resident.get(name) {
            if r.lanes == lanes {
                let buf = r.buf;
                if r.generation == fv.generation() {
                    // Before trusting the resident enough to skip its
                    // re-upload, revalidate it (a no-op under
                    // `VerifyPolicy::Off`). A corrupted resident is healed
                    // in place: fall through to the re-upload path, which
                    // overwrites the bad bits and relearns the checksum.
                    match ctx.verify_buffer(buf) {
                        Ok(()) => {
                            self.stats.uploads_skipped += 1;
                            drop(span!(tracer, "upload.skipped", field = name));
                            return Ok(buf);
                        }
                        Err(e) if e.is_integrity() => {
                            self.stats.integrity_healed += 1;
                            let kind = match &e {
                                dfg_ocl::OclError::IntegrityViolation { kind, .. } => kind.name(),
                                _ => "unknown",
                            };
                            drop(span!(
                                tracer,
                                "recover.integrity",
                                field = name,
                                kind = kind,
                                healed = "reupload",
                            ));
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                write_field(ctx, buf, fv, lanes)?;
                self.stats.uploads += 1;
                self.resident.get_mut(name).expect("present").generation = fv.generation();
                return Ok(buf);
            }
            // Lane count changed (mesh resize): drop the stale copy.
            let stale = self.resident.remove(name).expect("present");
            ctx.release(stale.buf)?;
        }
        let buf = ctx.create_buffer(lanes)?;
        write_field(ctx, buf, fv, lanes)?;
        self.stats.uploads += 1;
        self.resident.insert(
            name.to_string(),
            Resident {
                buf,
                generation: fv.generation(),
                lanes,
            },
        );
        Ok(buf)
    }
}

/// Cache key for a fused program: the network's structure plus the roots
/// it was fused for (and whether the streamed variant generated it).
pub(crate) fn program_key(spec: &NetworkSpec, roots: &[NodeId], streamed: bool) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    spec.structural_hash().hash(&mut h);
    roots.hash(&mut h);
    streamed.hash(&mut h);
    h.finish()
}

/// A long-lived execution context for in-situ loops; create one with
/// [`Engine::session`] and drive it every cycle with [`Session::run`].
///
/// ```
/// use dfg_core::{Engine, FieldSet, Request, Strategy};
/// use dfg_ocl::DeviceProfile;
///
/// let mut engine = Engine::new(DeviceProfile::intel_x5660());
/// let mut session = engine.session();
/// let mut fields = FieldSet::new(8);
/// fields.insert_scalar("u", vec![3.0; 8]).unwrap();
///
/// let request = Request::source("mag = sqrt(u*u)", Strategy::Fusion);
/// for cycle in 0..3 {
///     if cycle > 0 {
///         fields.update_scalar("u", &vec![cycle as f32; 8]).unwrap();
///     }
///     let (out, _report) = session.run(&request, &fields).unwrap();
///     assert_eq!(out.len(), 1);
/// }
/// let stats = session.stats().clone();
/// assert_eq!(stats.cycles, 3);
/// assert_eq!(stats.codegen_compiles, 1, "codegen once, cached after");
/// ```
///
/// A session is generic over how it holds its engine: `Session<&mut
/// Engine>` (the default of [`Engine::session`]) borrows a host-owned
/// engine for the life of the session, while `Session<Engine>` — an
/// *owned* session, from [`Engine::into_session`] — carries the engine
/// with it and can be stored in long-lived registries such as
/// [`crate::SessionRegistry`], the substrate of the multi-tenant
/// `dfg-serve` server.
pub struct Session<E: BorrowMut<Engine> = Engine> {
    engine: E,
    pub(crate) ctx: Context,
    pub(crate) state: SessionState,
}

impl Engine {
    /// Open a persistent session: one pooled device context plus resident
    /// fields and a compiled-kernel cache, amortized across every
    /// [`Session::run`] until the session is dropped (or [`Session::end`]
    /// releases its buffers explicitly).
    pub fn session(&mut self) -> Session<&mut Engine> {
        let mut ctx = self.traced_context();
        ctx.set_pooling(true);
        Session {
            engine: self,
            ctx,
            state: SessionState::default(),
        }
    }

    /// Like [`Engine::session`], but the session takes ownership of the
    /// engine — no borrow ties it to the caller's stack frame, so it can be
    /// stored (per tenant, per connection, …) for as long as the host
    /// wants.
    ///
    /// ```
    /// use dfg_core::{Engine, FieldSet, Request, Session, Strategy};
    /// use dfg_ocl::DeviceProfile;
    ///
    /// let engine = Engine::new(DeviceProfile::intel_x5660());
    /// let mut session: Session = engine.into_session(); // owns the engine
    /// let mut fields = FieldSet::new(8);
    /// fields.insert_scalar("u", vec![4.0; 8]).unwrap();
    /// let request = Request::source("r = sqrt(u)", Strategy::Fusion);
    /// let (out, _report) = session.run(&request, &fields).unwrap();
    /// assert_eq!(out[0].data, vec![2.0; 8]);
    /// ```
    pub fn into_session(self) -> Session {
        let mut ctx = self.traced_context();
        ctx.set_pooling(true);
        Session {
            engine: self,
            ctx,
            state: SessionState::default(),
        }
    }
}

impl<E: BorrowMut<Engine>> Session<E> {
    /// Run one cycle: the same contract as [`Engine::run`], but uploads,
    /// codegen and buffer allocations are amortized across cycles, and the
    /// report covers this cycle only.
    pub fn run(
        &mut self,
        request: &Request,
        fields: &FieldSet,
    ) -> Result<(Vec<Field>, ExecReport), EngineError> {
        let engine = self.engine.borrow_mut();
        let mark = engine.trace_mark();
        // Per-cycle profile: clear events, rewind the virtual clock, and
        // re-seed the high-water mark from the resident bytes.
        self.ctx.reset_profile();
        let root = span!(
            engine.tracer().cloned(),
            "derive",
            strategy = request.exec.name(),
            session = true,
            cycle = self.state.stats.cycles,
        );
        let lowered = engine.lower(request.program)?;
        let (fields_out, mut report) = engine.execute(
            &lowered.spec,
            &lowered.roots,
            fields,
            request.exec,
            &mut self.ctx,
            Some(&mut self.state),
        )?;
        self.state.stats.cycles += 1;
        self.state.stats.opt_saved_kernels += lowered.saved as u64;
        drop(root);
        report.trace = engine.snapshot_since(mark);
        Ok((fields_out, report))
    }

    /// Forward of [`Session::run`] kept for the frozen benchmark package:
    /// `source`'s named `outputs` as `(name, field)` pairs.
    pub fn derive_many(
        &mut self,
        source: &str,
        outputs: &[&str],
        fields: &FieldSet,
        strategy: Strategy,
    ) -> Result<(Vec<(String, Field)>, ExecReport), EngineError> {
        named(
            outputs,
            self.run(&Request::outputs(source, outputs, strategy), fields),
        )
    }

    /// Install (or clear, with `None`) the cancellation token polled during
    /// this session's derivations: before every execution attempt — the
    /// first, and each recovery-ladder rung or retry after it. A fired token aborts the run with
    /// [`EngineError::Cancelled`]; rollback leaves the session leak-free.
    pub fn set_cancel(&mut self, token: Option<crate::CancelToken>) {
        self.state.cancel = token;
    }

    /// Counters accumulated so far (uploads skipped, cache hits, …).
    pub fn stats(&self) -> &SessionStats {
        &self.state.stats
    }

    /// Allocations served by the context's buffer pool so far.
    pub fn pool_hits(&self) -> u64 {
        self.ctx.pool_hits()
    }

    /// Bytes currently parked in the context's buffer pool awaiting reuse.
    pub fn pooled_bytes(&self) -> u64 {
        self.ctx.pooled_bytes()
    }

    /// Bytes held by device-resident input fields between cycles.
    pub fn resident_bytes(&self) -> u64 {
        self.state.resident_bytes()
    }

    /// The session's device context (profiling/diagnostic access).
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Mutable access to the session's device context — a hook for
    /// integrity tests that corrupt or reconfigure storage directly.
    #[doc(hidden)]
    pub fn context_mut(&mut self) -> &mut Context {
        &mut self.ctx
    }

    /// Close the session: release every resident buffer and return the
    /// final stats. (Dropping the session frees everything too; `end` is
    /// for hosts that want the counters and leak-checking.)
    pub fn end(mut self) -> SessionStats {
        for (_, r) in self.state.resident.drain() {
            let _ = self.ctx.release(r.buf);
        }
        assert_eq!(self.ctx.in_use_bytes(), 0, "session leaked buffers");
        self.state.stats
    }
}
