//! Resilient execution: retry with backoff, and a strategy fallback chain.
//!
//! The paper's Figure 7 has a gray "GPU failed" series — when the staged
//! working set exceeds the M2050's memory the run simply dies. This module
//! gives the engine a recovery story instead:
//!
//! * **transient faults** (injected transfer/launch failures that succeed
//!   when re-issued) are retried up to [`RecoveryPolicy::max_retries`]
//!   times, with exponential backoff accounted on the device's *virtual
//!   clock* (never the wall clock, so recovery behavior is deterministic
//!   and identical in [`dfg_ocl::ExecMode::Model`] and `Real` modes);
//! * **persistent faults** (out-of-memory, compile failures) trigger a
//!   fallback chain Fusion → Staged → Streamed (slabbed) → Roundtrip →
//!   CPU fusion, re-planned through `dfg_dataflow::memreq`'s exact memory
//!   estimates so hopeless candidates are skipped without being attempted;
//! * **every attempt is leak-free**: the context's allocations are marked
//!   before each attempt and rolled back after a failure
//!   ([`dfg_ocl::Context::rollback`]), session-resident bindings created by
//!   the failed attempt are pruned, and the buffer pool is trimmed before a
//!   post-OOM fallback so parked slots never cause an avoidable failure.
//!
//! Because the simulated device executes kernel bodies identically on every
//! profile (profiles shape the virtual clock and capacity, not the
//! arithmetic), a run that falls back — even to the CPU profile — produces
//! output bytes bit-identical to a fault-free run of the level it completed
//! at. Each retry emits a `recover.retry` span and each level switch a
//! `recover.fallback` span, with the triggering fault as metadata.

use dfg_dataflow::{memreq_units, NetworkSpec, NodeId, Schedule, Strategy};
use dfg_ocl::{Context, DeviceKind, DeviceProfile, OclError, ProfileReport};
use dfg_trace::{span, Tracer};

use crate::engine::EngineOptions;
use crate::error::EngineError;
use crate::fields::{Field, FieldSet};
use crate::request::Exec;
use crate::session::SessionState;
use crate::strategies::{run_fusion, run_roundtrip, run_staged, run_streamed};

/// How the engine responds to device failures; part of
/// [`EngineOptions`](crate::EngineOptions). The default policy is disabled
/// (fail fast, exactly the pre-recovery behavior).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries per execution level for *transient* faults (0 = never retry).
    pub max_retries: u32,
    /// Initial retry backoff in virtual microseconds, doubled per retry
    /// within a level. Accounted on the device's virtual clock.
    pub backoff_us: u64,
    /// Whether persistent faults walk the strategy fallback chain.
    pub fallback: bool,
}

impl RecoveryPolicy {
    /// No retries, no fallback: failures surface immediately.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            backoff_us: 0,
            fallback: false,
        }
    }

    /// A production-shaped policy: 3 retries starting at 100 µs virtual
    /// backoff, with the full fallback chain.
    pub fn resilient() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_us: 100,
            fallback: true,
        }
    }

    /// Whether the policy does anything at all.
    pub fn enabled(&self) -> bool {
        self.max_retries > 0 || self.fallback
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::disabled()
    }
}

/// One rung of the fallback ladder: a way of executing the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecLevel {
    /// Single fused kernel on the engine's device.
    Fusion,
    /// Staged execution (device-resident intermediates).
    Staged,
    /// Streamed (z-slabbed) fusion bounded by the device budget.
    Streamed,
    /// Roundtrip execution (host-resident intermediates).
    Roundtrip,
    /// Fused execution on the host CPU profile — the terminal fallback;
    /// bit-identical output, CPU-speed virtual clock.
    CpuFusion,
}

impl ExecLevel {
    /// Name used in reports, trace spans, and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            ExecLevel::Fusion => "fusion",
            ExecLevel::Staged => "staged",
            ExecLevel::Streamed => "streamed",
            ExecLevel::Roundtrip => "roundtrip",
            ExecLevel::CpuFusion => "cpu.fusion",
        }
    }

    /// The single-pass strategy whose `memreq` estimate gates this level
    /// (`None` for streamed, whose footprint is budget-bound by design).
    fn planned_strategy(&self) -> Option<Strategy> {
        match self {
            ExecLevel::Fusion | ExecLevel::CpuFusion => Some(Strategy::Fusion),
            ExecLevel::Staged => Some(Strategy::Staged),
            ExecLevel::Roundtrip => Some(Strategy::Roundtrip),
            ExecLevel::Streamed => None,
        }
    }
}

impl std::fmt::Display for ExecLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened to one attempt (or considered candidate) during recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The attempt completed; its output is the run's result.
    Succeeded,
    /// A transient fault; the level was retried after virtual backoff.
    Retried {
        /// Virtual seconds waited before the retry.
        backoff_seconds: f64,
    },
    /// A persistent fault (or exhausted retries); recovery moved to the
    /// next level of the fallback chain.
    FellBack,
    /// The planner's memory estimate says this level cannot fit, so it was
    /// skipped without being attempted.
    Skipped {
        /// Predicted peak bytes for the level.
        required_bytes: u64,
        /// Capacity of the device the level would run on.
        capacity_bytes: u64,
    },
    /// The final failure: no retries or fallback levels remained.
    Exhausted,
}

/// One entry in [`RecoveryReport::attempts`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// The execution level attempted (or skipped).
    pub level: ExecLevel,
    /// What happened.
    pub outcome: AttemptOutcome,
    /// The triggering error, rendered, when the outcome is a failure.
    pub error: Option<String>,
}

/// The recovery story of one derivation, attached to
/// [`ExecReport::recovery`](crate::ExecReport) on success and to
/// [`EngineError::Exhausted`] on failure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// Every attempt, retry, skip, and fallback, in order.
    pub attempts: Vec<AttemptRecord>,
    /// Transient-fault retries performed.
    pub retries: u32,
    /// Fallback transitions taken.
    pub fallbacks: u32,
    /// Total virtual seconds spent backing off.
    pub backoff_seconds: f64,
    /// Tainted buffers (detected integrity violations) invalidated so a
    /// retry re-uploads or re-derives clean data.
    pub integrity_healed: u64,
    /// The level that finally produced the output (`None` on failure).
    pub completed: Option<ExecLevel>,
    /// Whether the run completed on a *different* level than requested —
    /// the output is still exact, but the performance envelope is not the
    /// one asked for.
    pub degraded: bool,
}

impl RecoveryReport {
    /// Whether recovery actually did anything (retried, fell back, or
    /// skipped a candidate) — a clean first-attempt success reports `None`
    /// rather than an empty record.
    fn engaged(&self) -> bool {
        self.retries > 0
            || self.fallbacks > 0
            || self.integrity_healed > 0
            || self.attempts.len() > 1
    }

    /// Fold another report into this one — used by callers that aggregate
    /// several derivations into a single attempt log, e.g. a distributed
    /// rank merging its per-block reports. Attempt records are appended in
    /// order, counters are summed, `degraded` is sticky, and `completed`
    /// takes the other report's level (the most recent completion).
    pub fn absorb(&mut self, other: &RecoveryReport) {
        self.attempts.extend(other.attempts.iter().cloned());
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        self.backoff_seconds += other.backoff_seconds;
        self.integrity_healed += other.integrity_healed;
        if other.completed.is_some() {
            self.completed = other.completed;
        }
        self.degraded |= other.degraded;
    }
}

/// Engine state the driver needs, split out so the session (which holds
/// `&mut Engine`) can call it alongside its own context and state.
pub(crate) struct RecoveryCtx<'a> {
    pub options: &'a EngineOptions,
    pub tracer: Option<Tracer>,
    pub device: &'a DeviceProfile,
}

/// What one successful execution produced, before the engine packages it
/// into an [`ExecReport`](crate::ExecReport).
pub(crate) struct RunOut {
    /// One field per root, in root order (`None` in model mode).
    pub fields_out: Option<Vec<Field>>,
    pub generated_source: Option<String>,
    /// Profile of the context the winning attempt ran on: the caller's, or
    /// the CPU fallback context's when the run completed there.
    pub profile: ProfileReport,
    /// Populated iff recovery engaged (at least one retry/fallback/skip).
    pub recovery: Option<RecoveryReport>,
}

/// Build the ladder: the requested level first, then (when fallback is on)
/// the remaining chain Fusion → Staged → Streamed → Roundtrip → CPU
/// fusion. Streamed only computes the network's natural result, so it is
/// dropped for multi-output requests; the CPU rung is dropped when the
/// engine already targets a CPU profile.
fn ladder(
    requested: ExecLevel,
    policy: &RecoveryPolicy,
    multi: bool,
    device: &DeviceProfile,
) -> Vec<ExecLevel> {
    let mut levels = vec![requested];
    if policy.fallback {
        for level in [
            ExecLevel::Fusion,
            ExecLevel::Staged,
            ExecLevel::Streamed,
            ExecLevel::Roundtrip,
            ExecLevel::CpuFusion,
        ] {
            if level == requested {
                continue;
            }
            if level == ExecLevel::Streamed && multi {
                continue;
            }
            if level == ExecLevel::CpuFusion && device.kind == DeviceKind::Cpu {
                continue;
            }
            levels.push(level);
        }
    }
    levels
}

/// What one attempt returns: the output fields (absent in model mode) and
/// the generated fused source when the level produced one.
type AttemptOutput = (Option<Vec<Field>>, Option<String>);

/// Execute one level on the given context. Session state flows through for
/// device levels; the CPU fallback always runs one-shot (its buffers live
/// on a different context than the session's residents).
#[allow(clippy::too_many_arguments)]
fn execute_level(
    level: ExecLevel,
    rc: &RecoveryCtx<'_>,
    spec: &NetworkSpec,
    sched: &Schedule,
    fields: &FieldSet,
    roots: &[NodeId],
    label: &str,
    streamed_budget: u64,
    ctx: &mut Context,
    session: Option<&mut SessionState>,
) -> Result<AttemptOutput, EngineError> {
    match level {
        ExecLevel::Roundtrip => run_roundtrip(
            spec,
            sched,
            fields,
            ctx,
            roots,
            session,
            rc.options.roundtrip_dedup_uploads,
        )
        .map(|f| (f, None)),
        ExecLevel::Staged => {
            run_staged(spec, sched, fields, ctx, roots, session).map(|f| (f, None))
        }
        ExecLevel::Fusion | ExecLevel::CpuFusion => {
            run_fusion(spec, fields, ctx, roots, session, label).map(|(f, src)| (f, Some(src)))
        }
        ExecLevel::Streamed => run_streamed(spec, fields, ctx, session, label, streamed_budget)
            .map(|(f, src)| (f.map(|x| vec![x]), Some(src))),
    }
}

/// Snapshot the session's resident bindings so entries created by a failed
/// attempt can be pruned after rollback.
fn resident_snapshot(
    session: &Option<&mut SessionState>,
) -> Option<std::collections::HashMap<String, dfg_ocl::BufferId>> {
    session
        .as_ref()
        .map(|s| s.resident.iter().map(|(k, r)| (k.clone(), r.buf)).collect())
}

/// Cancellation point: surface [`EngineError::Cancelled`] when the
/// session's token (if any) has fired. Checked between ladder rungs and
/// between retries, so an orphaned or expired request stops at the next
/// attempt boundary instead of walking the whole ladder.
fn check_cancel(session: &Option<&mut SessionState>) -> Result<(), EngineError> {
    if let Some(tok) = session.as_ref().and_then(|s| s.cancel.as_ref()) {
        tok.check()?;
    }
    Ok(())
}

/// Roll the context back to `mark` and drop session-resident entries whose
/// buffers no longer exist (created — or replaced — during the failed
/// attempt).
fn restore(
    ctx: &mut Context,
    mark: &dfg_ocl::AllocMark,
    session: &mut Option<&mut SessionState>,
    snapshot: &Option<std::collections::HashMap<String, dfg_ocl::BufferId>>,
) {
    ctx.rollback(mark);
    if let (Some(state), Some(snap)) = (session.as_deref_mut(), snapshot) {
        state
            .resident
            .retain(|name, r| snap.get(name) == Some(&r.buf));
    }
}

/// The execution driver — the one path every derive takes, one-shot or
/// session: run the requested plan, retrying transient faults with
/// virtual-clock backoff and walking the fallback ladder on persistent
/// ones. Non-environmental errors (missing fields, schedule bugs) on the
/// requested level propagate untouched.
///
/// A disabled [`RecoveryPolicy`] is the same walk with nothing to do: a
/// ladder of one rung and no retries, so a clean run reports
/// `recovery: None` and a failure surfaces as the raw error — after the
/// same rollback, so a failed attempt never leaks device bytes into a
/// session.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_with_recovery(
    rc: RecoveryCtx<'_>,
    spec: &NetworkSpec,
    sched: &Schedule,
    fields: &FieldSet,
    roots: &[NodeId],
    requested: Exec,
    ctx: &mut Context,
    mut session: Option<&mut SessionState>,
) -> Result<RunOut, EngineError> {
    let policy = rc.options.recovery;
    let multi = !(roots.len() == 1 && roots[0] == spec.result);
    let levels = ladder(requested.level(), &policy, multi, rc.device);
    let streamed_budget = match requested {
        Exec::Streamed(Some(budget)) => budget,
        _ => rc.device.global_mem_bytes,
    };
    let label = if roots.len() == 1 {
        spec.node(roots[0])
            .name
            .clone()
            .unwrap_or_else(|| "expr".to_string())
    } else {
        "multi".to_string()
    };
    let ncells = fields.ncells() as u64;
    let cpu_profile = DeviceProfile::intel_x5660();

    let mut report = RecoveryReport::default();
    let mut last_err: Option<EngineError> = None;
    let mut cpu_ctx: Option<Context> = None;

    for (li, &level) in levels.iter().enumerate() {
        let is_requested = li == 0;
        let capacity = if level == ExecLevel::CpuFusion {
            cpu_profile.global_mem_bytes
        } else {
            rc.device.global_mem_bytes
        };
        if !is_requested {
            // Re-plan before attempting: skip candidates the exact memory
            // model already rules out.
            if let Some(strategy) = level.planned_strategy() {
                let required = memreq_units(spec, strategy)?.bytes(ncells);
                if required > capacity {
                    report.attempts.push(AttemptRecord {
                        level,
                        outcome: AttemptOutcome::Skipped {
                            required_bytes: required,
                            capacity_bytes: capacity,
                        },
                        error: None,
                    });
                    continue;
                }
            }
            report.fallbacks += 1;
            drop(
                span!(rc.tracer, "recover.fallback", to = level.name())
                    .meta("from", levels[li - 1].name())
                    .meta(
                        "error",
                        last_err.as_ref().map(|e| e.to_string()).unwrap_or_default(),
                    ),
            );
        }

        // The CPU rung runs on its own context (different profile); it
        // inherits the tracer and — deliberately — the same fault plan.
        let exec_ctx: &mut Context = if level == ExecLevel::CpuFusion {
            cpu_ctx.get_or_insert_with(|| {
                let mut c = Context::new(cpu_profile.clone(), ctx.mode());
                if let Some(t) = &rc.tracer {
                    c.set_tracer(t.clone());
                }
                if let Some(plan) = ctx.fault_plan() {
                    c.set_fault_plan(plan.clone());
                }
                c.set_verify(ctx.verify_policy());
                c
            })
        } else {
            &mut *ctx
        };

        let mut backoff = policy.backoff_us as f64 * 1e-6;
        let mut retries_left = policy.max_retries;
        loop {
            // Cancellation point: a fired token aborts before the next
            // attempt. Raw (unwrapped) so callers see `Cancelled`, not
            // `Exhausted` — nothing about the workload failed.
            check_cancel(&session)?;
            let mark = exec_ctx.alloc_mark();
            let snap = if level == ExecLevel::CpuFusion {
                None
            } else {
                resident_snapshot(&session)
            };
            let mut exec_span = span!(
                rc.tracer,
                &format!("execute.{}", level.name()),
                ncells = fields.ncells(),
            );
            if level == ExecLevel::Streamed {
                exec_span = exec_span.meta("budget_bytes", streamed_budget);
            }
            exec_span.virt_start(exec_ctx.clock_seconds());
            let attempt_session = if level == ExecLevel::CpuFusion {
                None
            } else {
                session.as_deref_mut()
            };
            let result = execute_level(
                level,
                &rc,
                spec,
                sched,
                fields,
                roots,
                &label,
                streamed_budget,
                exec_ctx,
                attempt_session,
            );
            exec_span.virt_end(exec_ctx.clock_seconds());
            drop(exec_span);
            match result {
                Ok((fields_out, generated_source)) => {
                    report.completed = Some(level);
                    report.degraded = !is_requested;
                    report.attempts.push(AttemptRecord {
                        level,
                        outcome: AttemptOutcome::Succeeded,
                        error: None,
                    });
                    return Ok(RunOut {
                        fields_out,
                        generated_source,
                        profile: exec_ctx.report(),
                        recovery: report.engaged().then_some(report),
                    });
                }
                Err(e) => {
                    if level == ExecLevel::CpuFusion {
                        exec_ctx.rollback(&mark);
                    } else {
                        restore(exec_ctx, &mark, &mut session, &snap);
                    }
                    // A detected integrity violation names one tainted
                    // buffer. If that buffer is a session resident it
                    // predates the mark, so rollback left it (and its
                    // corrupt bits) alive — a plain retry would fail the
                    // same verification forever. Invalidate it so the
                    // retry re-uploads clean data. (With the policy disabled
                    // there is no retry: the resident stays, and the next
                    // cycle's `bind_input` revalidates and heals it.)
                    if let EngineError::Ocl(OclError::IntegrityViolation { kind, buffer, .. }) = &e
                    {
                        if let Some(state) = session.as_deref_mut().filter(|_| policy.enabled()) {
                            let tainted: Vec<String> = state
                                .resident
                                .iter()
                                .filter(|(_, r)| r.buf.index() == *buffer)
                                .map(|(name, _)| name.clone())
                                .collect();
                            for name in tainted {
                                if let Some(r) = state.resident.remove(&name) {
                                    let _ = exec_ctx.release(r.buf);
                                    report.integrity_healed += 1;
                                    drop(span!(
                                        rc.tracer,
                                        "recover.integrity",
                                        field = name,
                                        kind = kind.name(),
                                        healed = "invalidate",
                                    ));
                                }
                            }
                        }
                    }
                    let transient = matches!(&e, EngineError::Ocl(o) if o.is_transient());
                    let environmental = matches!(&e, EngineError::Ocl(o) if o.is_environmental());
                    if transient && retries_left > 0 {
                        report.retries += 1;
                        report.backoff_seconds += backoff;
                        report.attempts.push(AttemptRecord {
                            level,
                            outcome: AttemptOutcome::Retried {
                                backoff_seconds: backoff,
                            },
                            error: Some(e.to_string()),
                        });
                        // Backoff on the virtual clock: deterministic, and
                        // identical in model and real modes.
                        let retry_span = span!(
                            rc.tracer,
                            "recover.retry",
                            level = level.name(),
                            remaining = retries_left,
                        );
                        retry_span.virt_start(exec_ctx.clock_seconds());
                        exec_ctx.advance_clock(backoff);
                        retry_span.virt_end(exec_ctx.clock_seconds());
                        drop(retry_span.meta("error", e.to_string()));
                        backoff *= 2.0;
                        retries_left -= 1;
                        continue;
                    }
                    // Fall back on persistent (or retry-exhausted)
                    // environmental faults; once recovery is past the
                    // requested level, any failure moves the chain along
                    // (a fallback rung may be inapplicable, e.g. streamed
                    // without a `dims` field).
                    let may_fall_back = policy.fallback
                        && li + 1 < levels.len()
                        && (environmental || transient || !is_requested);
                    if may_fall_back {
                        if matches!(&e, EngineError::Ocl(OclError::OutOfMemory { .. })) {
                            // Parked pool slots must never cause the next
                            // attempt's OOM.
                            exec_ctx.trim_pool();
                        }
                        report.attempts.push(AttemptRecord {
                            level,
                            outcome: AttemptOutcome::FellBack,
                            error: Some(e.to_string()),
                        });
                        last_err = Some(e);
                        break;
                    }
                    report.attempts.push(AttemptRecord {
                        level,
                        outcome: AttemptOutcome::Exhausted,
                        error: Some(e.to_string()),
                    });
                    return Err(if report.engaged() {
                        EngineError::Exhausted {
                            recovery: Box::new(report),
                            last: Box::new(e),
                        }
                    } else {
                        e
                    });
                }
            }
        }
    }

    // Every level failed or was skipped.
    let last = last_err.expect("ladder is never empty; a failure was recorded");
    Err(if report.engaged() {
        EngineError::Exhausted {
            recovery: Box::new(report),
            last: Box::new(last),
        }
    } else {
        last
    })
}
