//! Resilient-execution tests: exhaustive fault sweeps over every injection
//! point of every strategy, asserting that recovery either completes with
//! output bytes *bit-identical* to a fault-free run of the level it
//! completed at, or surfaces a typed error with a populated recovery
//! record — and that the device context is leak-free either way.

use proptest::prelude::*;

use dfg_core::{
    AttemptOutcome, Engine, EngineError, EngineOptions, ExecLevel, FieldSet, RecoveryPolicy,
    Strategy, Workload,
};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, ExecMode, FaultKind, FaultPlan};

const DIMS: [usize; 3] = [6, 5, 4];

fn rt_fields() -> FieldSet {
    let mesh = RectilinearMesh::unit_cube(DIMS);
    FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default())
}

fn virtual_fields() -> FieldSet {
    let mut fs = FieldSet::new(DIMS[0] * DIMS[1] * DIMS[2]);
    for name in ["u", "v", "w", "x", "y", "z"] {
        fs.insert_virtual_scalar(name);
    }
    fs.insert_virtual_small("dims");
    fs
}

fn resilient_options() -> EngineOptions {
    EngineOptions {
        recovery: RecoveryPolicy::resilient(),
        ..Default::default()
    }
}

fn resilient_cpu_engine() -> Engine {
    Engine::with_options(DeviceProfile::intel_x5660(), resilient_options())
}

/// The four execution modes the sweep covers. Streamed is not a
/// [`Strategy`] variant; it goes through `derive_streamed`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Exec {
    Strategy(Strategy),
    Streamed,
}

const EXECS: [Exec; 4] = [
    Exec::Strategy(Strategy::Roundtrip),
    Exec::Strategy(Strategy::Staged),
    Exec::Strategy(Strategy::Fusion),
    Exec::Streamed,
];

impl Exec {
    fn exec_level(self) -> ExecLevel {
        match self {
            Exec::Strategy(Strategy::Roundtrip) => ExecLevel::Roundtrip,
            Exec::Strategy(Strategy::Staged) => ExecLevel::Staged,
            Exec::Strategy(Strategy::Fusion) => ExecLevel::Fusion,
            Exec::Streamed => ExecLevel::Streamed,
        }
    }
}

/// Fault-free output bits of every execution level, the comparison target
/// for recovered runs: whatever level recovery completed at, the bytes
/// must equal that level's clean run.
struct LevelBits {
    fusion: Vec<u32>,
    staged: Vec<u32>,
    roundtrip: Vec<u32>,
    streamed: Vec<u32>,
}

impl LevelBits {
    fn collect(source: &str, fields: &FieldSet) -> LevelBits {
        let mut engine = Engine::new(DeviceProfile::intel_x5660());
        let bits = |report: dfg_core::ExecReport| -> Vec<u32> {
            report
                .field
                .expect("real mode")
                .data
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        LevelBits {
            fusion: bits(engine.derive(source, fields, Strategy::Fusion).unwrap()),
            staged: bits(engine.derive(source, fields, Strategy::Staged).unwrap()),
            roundtrip: bits(engine.derive(source, fields, Strategy::Roundtrip).unwrap()),
            streamed: bits(engine.derive_streamed(source, fields, None).unwrap()),
        }
    }

    fn for_level(&self, level: ExecLevel) -> &[u32] {
        match level {
            // The CPU fallback runs the same generated fused kernel on the
            // same host arithmetic, so its bits match single-pass fusion.
            ExecLevel::Fusion | ExecLevel::CpuFusion => &self.fusion,
            ExecLevel::Staged => &self.staged,
            ExecLevel::Roundtrip => &self.roundtrip,
            ExecLevel::Streamed => &self.streamed,
        }
    }
}

fn run_exec(
    engine: &mut Engine,
    exec: Exec,
    source: &str,
    fields: &FieldSet,
) -> Result<dfg_core::ExecReport, EngineError> {
    match exec {
        Exec::Strategy(s) => engine.derive(source, fields, s),
        Exec::Streamed => engine.derive_streamed(source, fields, None),
    }
}

/// Count how many device operations of each kind a clean run of `exec`
/// performs, by installing an empty (rule-less) plan that only counts.
/// Session runs count separately: resident inputs and pooling change the
/// operation sequence.
fn clean_op_counts(
    exec: Exec,
    source: &str,
    fields: &FieldSet,
    session: bool,
) -> Vec<(FaultKind, u64)> {
    let mut engine = resilient_cpu_engine();
    let plan = FaultPlan::with_seed(1);
    engine.set_fault_plan(plan.clone());
    if session {
        let mut sess = engine.session();
        match exec {
            Exec::Strategy(s) => sess.derive(source, fields, s).map(|_| ()),
            Exec::Streamed => sess.derive_streamed(source, fields, None).map(|_| ()),
        }
        .expect("clean session run succeeds");
    } else {
        run_exec(&mut engine, exec, source, fields).expect("clean run succeeds");
    }
    [
        FaultKind::Alloc,
        FaultKind::Transfer,
        FaultKind::Launch,
        FaultKind::Compile,
    ]
    .into_iter()
    .map(|k| (k, plan.ops_seen(k)))
    .collect()
}

/// The core invariant, checked for one injected fault: the run either
/// recovers with bits identical to the fault-free run of the level it
/// completed at, or fails with a populated recovery record.
fn check_one_injection(
    exec: Exec,
    kind: FaultKind,
    index: u64,
    source: &str,
    fields: &FieldSet,
    bits: &LevelBits,
    session: bool,
) {
    let label = format!(
        "{exec:?}/{kind}@{index}{}",
        if session { " (session)" } else { "" }
    );
    let mut engine = resilient_cpu_engine();
    let plan = FaultPlan::with_seed(1);
    plan.fail_nth_from_now(kind, index, 1);
    engine.set_fault_plan(plan.clone());
    let result = if session {
        let mut sess = engine.session();
        let result = match exec {
            Exec::Strategy(s) => sess.derive(source, fields, s),
            Exec::Streamed => sess.derive_streamed(source, fields, None),
        };
        assert_eq!(
            sess.context().in_use_bytes(),
            sess.resident_bytes(),
            "{label}: session context must hold exactly the resident fields"
        );
        result
    } else {
        run_exec(&mut engine, exec, source, fields)
    };
    assert_eq!(plan.faults_fired(kind), 1, "{label}: the fault must fire");
    match result {
        Ok(report) => {
            let recovery = report
                .recovery
                .expect("a fired fault means recovery engaged");
            let completed = recovery.completed.expect("successful run names its level");
            assert_eq!(
                completed == exec.exec_level(),
                !recovery.degraded,
                "{label}: degraded iff completed on a different level"
            );
            let got: Vec<u32> = report
                .field
                .expect("real mode returns data")
                .data
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                got,
                bits.for_level(completed),
                "{label}: recovered output must be bit-identical to a \
                 fault-free {} run",
                completed
            );
        }
        Err(e) => {
            // Only acceptable with a populated recovery story.
            let recovery = e
                .recovery()
                .unwrap_or_else(|| panic!("{label}: bare error {e}"));
            assert!(
                !recovery.attempts.is_empty(),
                "{label}: exhausted error must list attempts"
            );
            assert!(recovery.completed.is_none());
        }
    }
}

/// Exhaustive sweep: inject one fault at *every* operation index of every
/// kind, for all four execution modes, one-shot and session. Every
/// injected fault must either be recovered bit-identically or produce a
/// typed, fully-described failure.
#[test]
fn every_injection_point_recovers_or_reports() {
    let source = Workload::VorticityMagnitude.source();
    let fields = rt_fields();
    let bits = LevelBits::collect(source, &fields);
    for exec in EXECS {
        for session in [false, true] {
            for (kind, count) in clean_op_counts(exec, source, &fields, session) {
                for index in 1..=count {
                    check_one_injection(exec, kind, index, source, &fields, &bits, session);
                }
            }
        }
    }
}

#[test]
fn transient_fault_is_retried_on_the_requested_level() {
    let fields = rt_fields();
    let mut engine = resilient_cpu_engine();
    engine.set_tracer(dfg_trace::Tracer::new());
    let plan = FaultPlan::with_seed(1);
    // Second transfer fails twice, then succeeds: two retries, no fallback.
    plan.fail_nth_from_now(FaultKind::Transfer, 2, 2);
    engine.set_fault_plan(plan);
    let report = engine
        .derive(
            Workload::VelocityMagnitude.source(),
            &fields,
            Strategy::Fusion,
        )
        .expect("transient faults are retried away");
    let recovery = report.recovery.as_ref().expect("recovery engaged");
    assert_eq!(recovery.retries, 2);
    assert_eq!(recovery.fallbacks, 0);
    assert_eq!(recovery.completed, Some(ExecLevel::Fusion));
    assert!(!recovery.degraded);
    assert!(recovery.backoff_seconds > 0.0, "backoff is accounted");
    let retried = recovery
        .attempts
        .iter()
        .filter(|a| matches!(a.outcome, AttemptOutcome::Retried { .. }))
        .count();
    assert_eq!(retried, 2);
    // The trace shows the story: one execute.fusion span per attempt and
    // one recover.retry span per retry, with the backoff on its virtual
    // extent and the fault in its metadata.
    let trace = report.trace.as_ref().expect("tracer attached");
    let count = |name: &str| trace.spans().iter().filter(|s| s.name == name).count();
    assert_eq!(count("execute.fusion"), 3);
    assert_eq!(count("recover.retry"), 2);
    let retry = trace
        .spans()
        .iter()
        .find(|s| s.name == "recover.retry")
        .unwrap();
    let error = retry
        .meta
        .iter()
        .find_map(|(k, v)| match (k.as_str(), v) {
            ("error", dfg_trace::MetaValue::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .expect("retry span carries the fault");
    assert!(error.contains("transfer"));
    assert!(retry.virt_end.unwrap() > retry.virt_start.unwrap());
}

#[test]
fn persistent_alloc_fault_falls_back_and_stays_bit_exact() {
    let source = Workload::QCriterion.source();
    let fields = rt_fields();
    let bits = LevelBits::collect(source, &fields);
    let mut engine = resilient_cpu_engine();
    let plan = FaultPlan::with_seed(1);
    plan.fail_nth_from_now(FaultKind::Alloc, 1, 1);
    engine.set_fault_plan(plan);
    let report = engine
        .derive(source, &fields, Strategy::Fusion)
        .expect("fallback chain completes");
    let recovery = report.recovery.expect("recovery engaged");
    assert!(recovery.degraded, "completed on a non-requested level");
    assert!(recovery.fallbacks >= 1);
    let completed = recovery.completed.expect("completed");
    assert_ne!(completed, ExecLevel::Fusion);
    let got: Vec<u32> = report
        .field
        .unwrap()
        .data
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(got, bits.for_level(completed));
}

#[test]
fn fault_free_runs_with_recovery_enabled_are_untouched() {
    // The recovery driver's clean path must be observationally identical to
    // the plain executors: same bits, same device events, same clock, no
    // recovery record.
    let fields = rt_fields();
    for workload in Workload::ALL {
        for strategy in Strategy::ALL {
            let mut plain = Engine::new(DeviceProfile::intel_x5660());
            let mut resilient = resilient_cpu_engine();
            let a = plain.derive(workload.source(), &fields, strategy).unwrap();
            let b = resilient
                .derive(workload.source(), &fields, strategy)
                .unwrap();
            assert!(b.recovery.is_none(), "clean run reports no recovery");
            assert_eq!(
                a.field.as_ref().unwrap().data,
                b.field.as_ref().unwrap().data,
                "{workload}/{strategy}"
            );
            assert_eq!(a.profile.events.len(), b.profile.events.len());
            assert_eq!(a.profile.high_water_bytes, b.profile.high_water_bytes);
            assert_eq!(a.device_seconds(), b.device_seconds());
            assert_eq!(a.table2_row(), b.table2_row());
        }
    }
}

#[test]
fn model_and_real_mode_recover_identically() {
    // Recovery must not break model/real parity: identical fault plans
    // produce identical event streams, clocks (including backoff), and
    // recovery records in both modes.
    let source = Workload::VorticityMagnitude.source();
    let run = |mode: ExecMode| {
        let mut engine = Engine::with_options(
            DeviceProfile::intel_x5660(),
            EngineOptions {
                mode,
                recovery: RecoveryPolicy::resilient(),
                ..Default::default()
            },
        );
        let plan = FaultPlan::with_seed(7);
        plan.fail_nth_from_now(FaultKind::Transfer, 3, 2);
        plan.fail_nth_from_now(FaultKind::Alloc, 5, 1);
        engine.set_fault_plan(plan);
        let fields = match mode {
            ExecMode::Real => rt_fields(),
            ExecMode::Model => virtual_fields(),
        };
        engine
            .derive(source, &fields, Strategy::Staged)
            .expect("recovers in both modes")
    };
    let real = run(ExecMode::Real);
    let model = run(ExecMode::Model);
    assert_eq!(real.recovery, model.recovery, "same recovery story");
    assert_eq!(real.profile.events.len(), model.profile.events.len());
    assert_eq!(
        real.profile.high_water_bytes,
        model.profile.high_water_bytes
    );
    assert_eq!(
        real.device_seconds(),
        model.device_seconds(),
        "virtual clocks agree bit-for-bit (backoff included)"
    );
    assert!(real.field.is_some() && model.field.is_none());
}

#[test]
fn tiny_device_skips_hopeless_levels_and_lands_on_the_cpu() {
    // A GPU whose memory cannot hold even one ghosted z-layer of a
    // gradient workload: the requested fusion genuinely runs out of
    // memory, the planner's estimates skip staged and roundtrip without
    // attempting them, streamed cannot slab within the budget, and the CPU
    // rung completes — bit-identical to fusion.
    let source = Workload::VorticityMagnitude.source();
    let fields = rt_fields();
    let bits = LevelBits::collect(source, &fields);
    let mut profile = DeviceProfile::nvidia_m2050();
    profile.global_mem_bytes = 64;
    let mut engine = Engine::with_options(profile, resilient_options());
    let report = engine
        .derive(source, &fields, Strategy::Fusion)
        .expect("the CPU fallback always fits");
    let recovery = report.recovery.expect("recovery engaged");
    assert_eq!(recovery.completed, Some(ExecLevel::CpuFusion));
    assert!(recovery.degraded);
    let skipped = recovery
        .attempts
        .iter()
        .filter(|a| matches!(a.outcome, AttemptOutcome::Skipped { .. }))
        .count();
    assert!(skipped >= 2, "staged and roundtrip are skipped by estimate");
    for attempt in &recovery.attempts {
        if let AttemptOutcome::Skipped {
            required_bytes,
            capacity_bytes,
        } = attempt.outcome
        {
            assert!(required_bytes > capacity_bytes);
            assert_eq!(capacity_bytes, 64);
        }
    }
    let got: Vec<u32> = report
        .field
        .unwrap()
        .data
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(got, bits.fusion, "CPU fallback is bit-identical to fusion");
    assert!(
        report.profile.high_water_bytes > 64,
        "the profile is the CPU context's, not the starved GPU's"
    );
}

#[test]
fn disabled_recovery_surfaces_raw_typed_errors() {
    let fields = rt_fields();
    let mut engine = Engine::new(DeviceProfile::intel_x5660());
    let plan = FaultPlan::with_seed(1);
    plan.fail_nth_from_now(FaultKind::Compile, 1, 1);
    engine.set_fault_plan(plan);
    let err = engine
        .derive(
            Workload::VelocityMagnitude.source(),
            &fields,
            Strategy::Fusion,
        )
        .expect_err("no recovery: the compile fault surfaces");
    assert!(
        matches!(
            &err,
            EngineError::Ocl(dfg_ocl::OclError::CompileFailed { .. })
        ),
        "raw typed error, not Exhausted: {err}"
    );
    assert!(err.recovery().is_none());
    // source() chains to the device error.
    let source = std::error::Error::source(&err).expect("chained");
    assert!(source.to_string().contains("compilation"));
}

#[test]
fn exhaustion_reports_every_attempt_and_keeps_the_session_clean() {
    // Rate-1.0 alloc faults kill every level of the chain. The error must
    // be Exhausted with the full attempt list, and the session context must
    // still hold exactly its resident bytes afterwards.
    let fields = rt_fields();
    let mut engine = resilient_cpu_engine();
    let plan = FaultPlan::with_seed(3);
    plan.fail_at_rate(FaultKind::Alloc, 1.0);
    engine.set_fault_plan(plan);
    let mut sess = engine.session();
    let err = sess
        .derive(
            Workload::VelocityMagnitude.source(),
            &fields,
            Strategy::Fusion,
        )
        .expect_err("every level's first allocation fails");
    let recovery = err.recovery().expect("exhausted carries the story");
    assert!(recovery.completed.is_none());
    assert!(recovery.fallbacks >= 1, "the chain was walked");
    assert!(err.is_out_of_memory(), "the final failure is OOM-shaped");
    assert_eq!(
        sess.context().in_use_bytes(),
        sess.resident_bytes(),
        "failed attempts leak nothing"
    );
    assert_eq!(sess.end().cycles, 0);
}

#[test]
fn session_recovers_across_cycles_and_keeps_amortization() {
    // Cycle 1 hits a transient launch fault and retries; later cycles are
    // clean. Resident uploads and the kernel cache must keep amortizing
    // (the failed attempt must not poison session state), and every
    // cycle's output must stay bit-identical to the one-shot run.
    let source = Workload::VorticityMagnitude.source();
    let fields = rt_fields();
    let expected = {
        let mut engine = Engine::new(DeviceProfile::intel_x5660());
        engine
            .derive(source, &fields, Strategy::Fusion)
            .unwrap()
            .field
            .unwrap()
            .data
    };
    let mut engine = resilient_cpu_engine();
    let plan = FaultPlan::with_seed(1);
    plan.fail_nth_from_now(FaultKind::Launch, 1, 1);
    engine.set_fault_plan(plan);
    let mut sess = engine.session();
    for cycle in 0..3 {
        let report = sess.derive(source, &fields, Strategy::Fusion).unwrap();
        let field = report.field.expect("real mode");
        assert_eq!(field.data, expected, "cycle {cycle}");
        if cycle == 0 {
            let recovery = report.recovery.expect("cycle 0 retried");
            assert_eq!(recovery.retries, 1);
            assert_eq!(recovery.completed, Some(ExecLevel::Fusion));
        } else {
            assert!(report.recovery.is_none(), "cycle {cycle} is clean");
        }
    }
    let stats = sess.end();
    assert_eq!(stats.cycles, 3);
    assert_eq!(stats.codegen_compiles, 1, "kernel cache still amortizes");
    assert!(
        stats.uploads_skipped > 0,
        "resident fields still skip uploads"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random single-fault injections across all kinds, indices, and
    /// strategies uphold the sweep invariant (the exhaustive test pins the
    /// small grid; this probes random positions with random seeds).
    #[test]
    fn random_injections_recover_or_report(
        kind_idx in 0usize..4,
        index in 1u64..40,
        exec_idx in 0usize..4,
        seed in 1u64..1_000_000,
        session_idx in 0usize..2,
    ) {
        let session = session_idx == 1;
        let kind = [
            FaultKind::Alloc,
            FaultKind::Transfer,
            FaultKind::Launch,
            FaultKind::Compile,
        ][kind_idx];
        let exec = EXECS[exec_idx];
        let source = Workload::VelocityMagnitude.source();
        let fields = rt_fields();
        let bits = LevelBits::collect(source, &fields);
        let mut engine = resilient_cpu_engine();
        let plan = FaultPlan::with_seed(seed);
        plan.fail_nth_from_now(kind, index, 1);
        engine.set_fault_plan(plan.clone());
        let result = if session {
            let mut sess = engine.session();
            let r = match exec {
                Exec::Strategy(s) => sess.derive(source, &fields, s),
                Exec::Streamed => sess.derive_streamed(source, &fields, None),
            };
            prop_assert_eq!(sess.context().in_use_bytes(), sess.resident_bytes());
            r
        } else {
            run_exec(&mut engine, exec, source, &fields)
        };
        match result {
            Ok(report) => {
                let got: Vec<u32> = report
                    .field
                    .expect("real mode")
                    .data
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let completed = match &report.recovery {
                    Some(r) => r.completed.expect("successful run names its level"),
                    None => {
                        // Index beyond the run's op count: nothing fired.
                        prop_assert_eq!(plan.faults_fired(kind), 0);
                        exec.exec_level()
                    }
                };
                prop_assert_eq!(got, bits.for_level(completed).to_vec());
            }
            Err(e) => {
                prop_assert!(
                    e.recovery().is_some(),
                    "errors after injection carry a recovery record: {}", e
                );
            }
        }
    }
}
