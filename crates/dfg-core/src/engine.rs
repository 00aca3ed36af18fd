//! The engine: the host interface of Figure 1.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use dfg_dataflow::{FilterOp, NetworkSpec, NodeId, OptLevel, OptStats, Schedule, Strategy, Width};
use dfg_expr::compile;
use dfg_ocl::{Context, DeviceProfile, ExecMode, ProfileReport};
use dfg_trace::{span, Trace, Tracer};

use crate::error::EngineError;
use crate::fields::{Field, FieldSet};
use crate::recovery::{run_with_recovery, RecoveryCtx, RecoveryPolicy, RecoveryReport};
use crate::request::{Exec, Program, Request};
use crate::session::SessionState;
use crate::strategies::{check_field, lanes_for, read_buffer, upload_field};
use crate::workloads::Workload;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Real execution or model-only accounting.
    pub mode: ExecMode,
    /// Optimizer pipeline level applied after lowering (see
    /// `dfg_dataflow::optimize`): `Off` reproduces the paper's limited-CSE
    /// networks exactly (the default — Table II's counts depend on it),
    /// `Cse` adds hash-consed global CSE (the DESIGN.md D2 ablation against
    /// the paper's *limited* CSE), `Default` adds constant folding
    /// and bit-exact identity rewrites, and `Fast` adds value-changing
    /// rewrites like `sqrt(x)^2 → x`. Every level through `Default`
    /// produces bit-identical outputs; `Fast` may differ by ~1 ulp.
    pub optimize: OptLevel,
    /// Response to device failures: retry budget for transient faults and
    /// whether persistent ones walk the strategy fallback chain (see
    /// `docs/ROBUSTNESS.md`). Disabled by default — failures surface
    /// immediately, exactly the paper's behavior.
    pub recovery: RecoveryPolicy,
    /// Silent-corruption verification level (see `docs/ROBUSTNESS.md`,
    /// "Silent data corruption"): `Off` (the default) is the pre-integrity
    /// behavior bit-for-bit; `Residents` checksums host uploads and
    /// revalidates session residents before their re-upload is skipped;
    /// `Full` additionally revalidates every kernel input at launch and
    /// every download. Detected violations are transient — with recovery
    /// enabled they are healed by invalidating the tainted buffer and
    /// re-running. Verification is host-side only: virtual clocks are
    /// bit-identical at every level.
    pub verify: dfg_ocl::VerifyPolicy,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            mode: ExecMode::Real,
            optimize: OptLevel::Off,
            recovery: RecoveryPolicy::disabled(),
            verify: dfg_ocl::VerifyPolicy::Off,
        }
    }
}

/// Everything one execution returns to the host.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// The derived field of [`Engine::run_reference`] and the benchmark's
    /// forwards (`None` in model mode; `run` returns fields beside it).
    pub field: Option<Field>,
    /// Categorized device events, modeled times and the allocation
    /// high-water mark.
    pub profile: ProfileReport,
    /// Host wall-clock duration of the execution.
    pub wall: Duration,
    /// The generated OpenCL-style kernel source (fusion strategy only).
    pub generated_source: Option<String>,
    /// Span tree recorded during the run, when a tracer is attached with
    /// [`Engine::set_tracer`]. Scoped to this run: spans recorded by
    /// earlier runs on the same engine are not included (the tracer itself
    /// still accumulates everything, so `tracer().snapshot()` exports the
    /// whole session).
    pub trace: Option<Trace>,
    /// What recovery did, when it engaged (retries, fallbacks, or skipped
    /// candidates). `None` for clean first-attempt runs and when the
    /// recovery policy is disabled.
    pub recovery: Option<RecoveryReport>,
    /// Integrity verifications performed and violations detected on the
    /// primary device context during this run (cumulative counters
    /// snapshot; both zero when `EngineOptions::verify` is `Off`).
    pub integrity: dfg_ocl::IntegrityStats,
}

impl ExecReport {
    /// Total modeled device runtime in seconds (transfers + kernels), the
    /// quantity of the paper's Figure 5.
    pub fn device_seconds(&self) -> f64 {
        self.profile.device_seconds()
    }

    /// Peak device memory in bytes, the quantity of the paper's Figure 6.
    pub fn high_water_bytes(&self) -> u64 {
        self.profile.high_water_bytes
    }

    /// Table II row: `(Dev-W, Dev-R, K-Exe)`.
    pub fn table2_row(&self) -> (usize, usize, usize) {
        self.profile.table2_row()
    }
}

/// A lowered, optimized program: what the compile cache holds.
///
/// The optimizer may merge named duplicate bindings (e.g. the
/// Q-criterion's `s_3 = s_1`), so output names are resolved *before*
/// optimization and carried here as a name → node map onto the optimized
/// network — named-output lookups survive CSE.
#[derive(Debug, Clone)]
pub(crate) struct CompiledProgram {
    /// The (possibly optimized) network; `spec.result` is the program's
    /// final binding.
    pub spec: NetworkSpec,
    /// Last binding of each program name, remapped into `spec`.
    pub outputs: std::collections::HashMap<String, NodeId>,
    /// What the optimizer did (level, nodes/filters before and after).
    pub opt: OptStats,
}

/// What `run` returns: one field per root, in request order (none in
/// model mode), and the report.
type Derived = (Vec<Field>, ExecReport);

/// A natural-result forward's report: its one field moves into
/// [`ExecReport::field`].
fn natural(derived: Result<Derived, EngineError>) -> Result<ExecReport, EngineError> {
    derived.map(|(mut fields, mut report)| {
        report.field = fields.pop();
        report
    })
}

/// A named-outputs forward's `(name, field)` pairs, in request order.
pub(crate) fn named(
    outputs: &[&str],
    derived: Result<Derived, EngineError>,
) -> Result<(Vec<(String, Field)>, ExecReport), EngineError> {
    derived.map(|(fields, report)| {
        let names = outputs.iter().map(|n| n.to_string());
        (names.zip(fields).collect(), report)
    })
}

/// A request's network and roots: a source compiled (cached) with its
/// outputs resolved, or a lowered network as given.
pub(crate) struct Lowered<'a> {
    pub spec: Cow<'a, NetworkSpec>,
    pub roots: Cow<'a, [NodeId]>,
    /// Filters the optimizer eliminated (none for a network run as given).
    pub saved: usize,
}

/// The derived-field generation engine a host application embeds.
///
/// Each execution runs on a fresh simulated device context, so failed runs
/// (e.g. GPU out-of-memory) leave no residue and profiles are per-run.
pub struct Engine {
    profile: DeviceProfile,
    options: EngineOptions,
    /// Compiled-network cache keyed by source text: an in-situ host calls
    /// `run` with the same expression every time step, and parsing +
    /// lowering + optimization need only happen once (the paper's VisIt
    /// host likewise constructs the pipeline once and re-executes it).
    spec_cache: std::collections::HashMap<String, CompiledProgram>,
    compiles: usize,
    /// When set, every run records a span tree (and the per-run device
    /// context emits child spans for its events).
    tracer: Option<Tracer>,
    /// When set, every run's device context gets a clone of this fault
    /// plan — the plan's counters are shared, so "fail N times then
    /// succeed" rules span retries. Test/chaos harness entry point.
    fault_plan: Option<dfg_ocl::FaultPlan>,
}

impl Engine {
    /// Engine for a device, executing for real.
    pub fn new(profile: DeviceProfile) -> Self {
        Self::with_options(profile, EngineOptions::default())
    }

    /// Engine with explicit options (e.g. model mode for paper-scale runs).
    pub fn with_options(profile: DeviceProfile, options: EngineOptions) -> Self {
        Engine {
            profile,
            options,
            spec_cache: std::collections::HashMap::new(),
            compiles: 0,
            tracer: None,
            fault_plan: None,
        }
    }

    /// Attach a tracer: subsequent runs record parse/plan/execute spans
    /// with nested device events, and their [`ExecReport::trace`] is
    /// populated.
    ///
    /// ```
    /// use dfg_core::{Engine, FieldSet, Request, Strategy};
    /// use dfg_ocl::DeviceProfile;
    /// use dfg_trace::Tracer;
    ///
    /// let mut engine = Engine::new(DeviceProfile::intel_x5660());
    /// engine.set_tracer(Tracer::new());
    ///
    /// let mut fields = FieldSet::new(8);
    /// fields.insert_scalar("u", vec![3.0; 8]);
    /// let request = Request::source("mag = sqrt(u*u)", Strategy::Fusion);
    /// let (out, report) = engine.run(&request, &fields).unwrap();
    ///
    /// assert_eq!(out[0].data, vec![3.0; 8]);
    /// let trace = report.trace.expect("tracer attached");
    /// let names: Vec<&str> =
    ///     trace.spans().iter().map(|s| s.name.as_str()).collect();
    /// assert!(names.contains(&"parse"));
    /// assert!(names.contains(&"execute.fusion"));
    /// assert!(names.contains(&"ocl.kernel"));
    /// ```
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    pub(crate) fn traced_context(&self) -> Context {
        let mut ctx = Context::new(self.profile.clone(), self.options.mode);
        if let Some(tracer) = &self.tracer {
            ctx.set_tracer(tracer.clone());
        }
        if let Some(plan) = &self.fault_plan {
            ctx.set_fault_plan(plan.clone());
        }
        ctx.set_verify(self.options.verify);
        ctx
    }

    /// Install a fault-injection plan: every subsequent run's device
    /// context receives a clone (sharing the plan's counters, so rules
    /// like "fail twice then succeed" hold across recovery retries).
    pub fn set_fault_plan(&mut self, plan: dfg_ocl::FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&dfg_ocl::FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Current span count — the scope mark a run's report snapshots from.
    pub(crate) fn trace_mark(&self) -> usize {
        self.tracer.as_ref().map_or(0, Tracer::span_count)
    }

    pub(crate) fn snapshot_since(&self, mark: usize) -> Option<Trace> {
        self.tracer.as_ref().map(|t| t.snapshot_since(mark))
    }

    /// Mutable access to the engine's options, for adjusting run-to-run
    /// knobs (optimization level, recovery, verification) after
    /// construction. Takes effect on the next derivation; compiled-program
    /// caches are keyed independently and stay valid.
    pub fn options_mut(&mut self) -> &mut EngineOptions {
        &mut self.options
    }

    /// How many distinct programs this engine has compiled (cache misses);
    /// repeated runs of identical source text compile once.
    pub fn compile_count(&self) -> usize {
        self.compiles
    }

    pub(crate) fn compile_cached(&mut self, source: &str) -> Result<CompiledProgram, EngineError> {
        if let Some(prog) = self.spec_cache.get(source) {
            let _parse = span!(self.tracer, "parse", cached = true);
            return Ok(prog.clone());
        }
        let _parse = span!(self.tracer, "parse", cached = false);
        let raw = compile(source)?;
        let prog = self.optimize_program(&raw)?;
        self.compiles += 1;
        self.spec_cache.insert(source.to_string(), prog.clone());
        Ok(prog)
    }

    /// Run the optimizer pipeline over a freshly lowered network at the
    /// engine's level, pinning the program result *and* every
    /// named binding as roots so multi-output requests stay servable.
    fn optimize_program(&self, raw: &NetworkSpec) -> Result<CompiledProgram, EngineError> {
        let level = self.options.optimize;
        // Last binding per name, in first-appearance order (shadowing
        // rebinds: the last node carrying a name is the live binding).
        let mut names: Vec<(String, NodeId)> = Vec::new();
        for (id, node) in raw.iter() {
            if let Some(name) = &node.name {
                match names.iter_mut().find(|(n, _)| n == name) {
                    Some(entry) => entry.1 = id,
                    None => names.push((name.clone(), id)),
                }
            }
        }
        let mut roots = Vec::with_capacity(1 + names.len());
        roots.push(raw.result);
        roots.extend(names.iter().map(|&(_, id)| id));
        let out = dfg_dataflow::optimize_traced(raw, &roots, level, self.tracer.as_ref())?;
        let outputs = names
            .iter()
            .zip(&out.roots[1..])
            .map(|((name, _), &id)| (name.clone(), id))
            .collect();
        Ok(CompiledProgram {
            spec: out.spec,
            outputs,
            opt: out.stats,
        })
    }

    /// Optimizer statistics for a previously compiled source, if cached.
    pub fn opt_stats(&self, source: &str) -> Option<OptStats> {
        self.spec_cache.get(source).map(|p| p.opt)
    }

    /// The device profile.
    pub fn device(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.options.mode
    }

    /// Run one derive: compile `request`'s program (cached) or take its
    /// lowered network as given, and execute it on its executor over a
    /// fresh, unpooled device context with no session state — so a failed
    /// run (e.g. GPU out-of-memory) leaves no residue. Returns one field per
    /// root, in request order (none in model mode), and the report.
    ///
    /// Whether it succeeded or not, the run must hand every device byte
    /// back: a leak panics, in every build.
    pub fn run(&mut self, request: &Request, fields: &FieldSet) -> Result<Derived, EngineError> {
        let mark = self.trace_mark();
        let strategy = request.exec.name();
        let root = match request.program {
            Program::Outputs(_, names) => span!(
                self.tracer,
                "derive_many",
                strategy = strategy,
                outputs = names.len(),
            ),
            _ => span!(self.tracer, "derive", strategy = strategy),
        };
        let lowered = self.lower(request.program)?;
        let mut ctx = self.traced_context();
        let result = self.execute(
            &lowered.spec,
            &lowered.roots,
            fields,
            request.exec,
            &mut ctx,
            None,
        );
        assert_eq!(ctx.in_use_bytes(), 0, "a one-shot leaked device buffers");
        let (fields_out, mut report) = result?;
        // Close the root span so the snapshot carries its full duration.
        drop(root);
        report.trace = self.snapshot_since(mark);
        Ok((fields_out, report))
    }

    /// The network and roots `program` runs: a source is compiled (cached)
    /// and its outputs resolved; a lowered network runs as given.
    pub(crate) fn lower<'a>(&mut self, program: Program<'a>) -> Result<Lowered<'a>, EngineError> {
        let (source, names) = match program {
            Program::Source(source) => (source, None),
            Program::Outputs(source, names) => (source, Some(names)),
            Program::Network(spec, roots) => {
                return Ok(Lowered {
                    spec: Cow::Borrowed(spec),
                    roots: Cow::Borrowed(roots),
                    saved: 0,
                })
            }
        };
        let prog = self.compile_cached(source)?;
        // The compile step resolved the *last* node carrying each name
        // (shadowing rebinds) through the optimizer (merged duplicates
        // point at their shared survivor).
        let root = |name: &&str| prog.outputs.get(*name).copied();
        let missing = |name: &&str| EngineError::NoSuchOutput {
            name: name.to_string(),
        };
        let roots = match names {
            None => vec![prog.spec.result],
            Some(names) => (names.iter())
                .map(|name| root(name).ok_or_else(|| missing(name)))
                .collect::<Result<_, _>>()?,
        };
        Ok(Lowered {
            spec: Cow::Owned(prog.spec),
            roots: Cow::Owned(roots),
            saved: prog.opt.filters_eliminated(),
        })
    }

    /// Forward of [`Engine::run`] kept for the frozen benchmark package:
    /// `source`'s natural result, in [`ExecReport::field`].
    pub fn derive(
        &mut self,
        source: &str,
        fields: &FieldSet,
        strategy: Strategy,
    ) -> Result<ExecReport, EngineError> {
        natural(self.run(&Request::source(source, strategy), fields))
    }

    /// Forward of [`Engine::run`] kept for the frozen benchmark package:
    /// `source`'s natural result streamed under `device_budget_bytes`, in
    /// [`ExecReport::field`].
    pub fn derive_streamed(
        &mut self,
        source: &str,
        fields: &FieldSet,
        device_budget_bytes: Option<u64>,
    ) -> Result<ExecReport, EngineError> {
        let request = Request::source(source, Exec::Streamed(device_budget_bytes));
        natural(self.run(&request, fields))
    }

    /// Forward of [`Engine::run`] kept for the frozen benchmark package:
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

    /// The one execution core, shared by the one-shot and the session
    /// `run`: plan `roots`, then hand them to the recovery driver (the only
    /// caller of the strategy executors) on `ctx`. A one-shot passes a
    /// fresh context and no session state; a session passes its pooled
    /// context and cross-cycle state. Returns one field per root (none in
    /// model mode) and the report, whose `trace` the caller fills in.
    pub(crate) fn execute(
        &self,
        spec: &NetworkSpec,
        roots: &[NodeId],
        fields: &FieldSet,
        exec: Exec,
        ctx: &mut Context,
        mut session: Option<&mut SessionState>,
    ) -> Result<Derived, EngineError> {
        if matches!(exec, Exec::Streamed(_)) && roots != [spec.result] {
            return Err(EngineError::StreamedRoots);
        }
        let sched = {
            let _plan = span!(self.tracer, "plan", nodes = spec.iter().count());
            Schedule::for_roots(spec, roots)?
        };
        // Every source field is validated before the device is touched, so
        // a field set the kernels cannot run on (a `dims` that disagrees
        // with the grid, say) costs no buffer and records no event.
        for &id in &sched.order {
            if let FilterOp::Input { name, small } = &spec.node(id).op {
                check_field(fields, name, *small, ctx.mode())?;
            }
        }
        let t0 = Instant::now();
        let out = run_with_recovery(
            RecoveryCtx {
                options: &self.options,
                tracer: self.tracer.clone(),
                device: &self.profile,
            },
            spec,
            &sched,
            fields,
            roots,
            exec,
            ctx,
            session.as_deref_mut(),
        )?;
        let wall = t0.elapsed();
        assert_eq!(
            ctx.in_use_bytes(),
            session.map_or(0, |s| s.resident_bytes()),
            "executor leaked device buffers beyond the session's resident fields"
        );
        let report = ExecReport {
            field: None,
            profile: out.profile,
            wall,
            generated_source: out.generated_source,
            trace: None,
            recovery: out.recovery,
            integrity: ctx.integrity_stats(),
        };
        Ok((out.fields_out.unwrap_or_default(), report))
    }

    /// Execute a hand-written reference kernel for one of the paper's
    /// workloads, with the same buffer protocol as the fusion strategy.
    pub fn run_reference(
        &mut self,
        workload: Workload,
        fields: &FieldSet,
    ) -> Result<ExecReport, EngineError> {
        let mark = self.trace_mark();
        let mut ctx = self.traced_context();
        let n = fields.ncells();
        let kernel = workload.reference_kernel();
        let exec_span = span!(self.tracer, "execute.reference", ncells = n);
        exec_span.virt_start(ctx.clock_seconds());
        let t0 = Instant::now();
        let mut bufs = Vec::new();
        for name in workload.reference_input_names() {
            bufs.push(upload_field(fields, &mut ctx, name, *name == "dims", None)?);
        }
        let out_lanes = lanes_for(Width::Scalar, n);
        let out = ctx.create_buffer(out_lanes)?;
        ctx.launch(kernel.as_ref(), &bufs, out, n)?;
        for buf in bufs {
            ctx.release(buf)?;
        }
        let download = span!(self.tracer, "reference.download");
        let (data, handed_over) = read_buffer(&mut ctx, out, out_lanes, 1, true)?;
        drop(download.meta("handed_over", handed_over));
        let field = data.map(|data| Field {
            width: Width::Scalar,
            ncells: n,
            data,
        });
        let wall = t0.elapsed();
        assert_eq!(
            ctx.in_use_bytes(),
            0,
            "reference kernel leaked device buffers"
        );
        exec_span.virt_end(ctx.clock_seconds());
        drop(exec_span);
        Ok(ExecReport {
            field,
            profile: ctx.report(),
            wall,
            generated_source: None,
            trace: self.snapshot_since(mark),
            recovery: None,
            integrity: ctx.integrity_stats(),
        })
    }
}
