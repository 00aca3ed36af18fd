//! Resilient-execution tests: exhaustive fault sweeps over every injection
//! point of every strategy, asserting that recovery either completes with
//! output bytes *bit-identical* to a fault-free run of the level it
//! completed at, or surfaces a typed error with a populated recovery
//! record — and that the device context is leak-free either way.

use proptest::prelude::*;

use dfg_core::{AttemptOutcome, EngineError, ExecLevel, RecoveryPolicy, Strategy, Workload};
use dfg_ocl::{DeviceProfile, ExecMode, FaultKind, FaultPlan};

#[path = "../src/tests/harness.rs"]
mod harness;
use harness::{spec_one_shot as network_one_shot, Config, Exec, Inputs, Levels, Program, EXECS};

const DIMS: [usize; 3] = [6, 5, 4];

/// `exec` under the resilient policy with `faults`: a one-shot, or one
/// session cycle.
fn resilient(exec: Exec, faults: &FaultPlan, session: bool) -> Config {
    Config {
        session: session.then_some(1),
        recovery: RecoveryPolicy::resilient(),
        faults: Some(faults.clone()),
        ..Config::new(exec)
    }
}

/// Count how many device operations of each kind a clean run of `exec`
/// performs, by installing an empty (rule-less) plan that only counts.
/// Session runs count separately: resident inputs and pooling change the
/// operation sequence.
fn clean_op_counts(
    exec: Exec,
    source: &str,
    inputs: &Inputs,
    session: bool,
) -> Vec<(FaultKind, u64)> {
    let plan = FaultPlan::with_seed(1);
    let outcome = harness::run(
        &resilient(exec, &plan, session),
        Program::Source(source),
        inputs,
    );
    outcome.last("clean run");
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
/// completed at (`harness::matches_clean_level`), or fails with a populated
/// recovery record; either way it leaks nothing (`harness::run`).
fn check_one_injection(
    exec: Exec,
    kind: FaultKind,
    index: u64,
    source: &str,
    inputs: &Inputs,
    levels: &Levels,
    session: bool,
) {
    let label = format!(
        "{exec:?}/{kind}@{index}{}",
        if session { " (session)" } else { "" }
    );
    let plan = FaultPlan::with_seed(1);
    plan.fail_nth_from_now(kind, index, 1);
    let mut outcome = harness::run(
        &resilient(exec, &plan, session),
        Program::Source(source),
        inputs,
    );
    assert_eq!(plan.faults_fired(kind), 1, "{label}: the fault must fire");
    match outcome.runs.pop().expect("one run") {
        Ok(run) => {
            assert!(
                run.report.recovery.is_some(),
                "{label}: a fired fault means recovery engaged"
            );
            harness::matches_clean_level(&run, exec, levels, &label);
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
    let inputs = Inputs::rt(DIMS);
    let levels = Levels::clean(source, &inputs);
    for exec in EXECS {
        for session in [false, true] {
            for (kind, count) in clean_op_counts(exec, source, &inputs, session) {
                for index in 1..=count {
                    check_one_injection(exec, kind, index, source, &inputs, &levels, session);
                }
            }
        }
    }
}

#[test]
fn transient_fault_is_retried_on_the_requested_level() {
    let plan = FaultPlan::with_seed(1);
    // Second transfer fails twice, then succeeds: two retries, no fallback.
    plan.fail_nth_from_now(FaultKind::Transfer, 2, 2);
    let config = Config {
        traced: true,
        ..resilient(Exec::Fusion, &plan, false)
    };
    let program = Program::Source(Workload::VelocityMagnitude.source());
    let outcome = harness::run(&config, program, &Inputs::rt(DIMS));
    let report = &outcome.last("transient faults are retried away").report;
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
    let inputs = Inputs::rt(DIMS);
    let plan = FaultPlan::with_seed(1);
    plan.fail_nth_from_now(FaultKind::Alloc, 1, 1);
    let config = resilient(Exec::Fusion, &plan, false);
    let outcome = harness::run(&config, Program::Source(source), &inputs);
    let run = outcome.last("fallback chain completes");
    let recovery = run.report.recovery.as_ref().expect("recovery engaged");
    assert!(recovery.degraded, "completed on a non-requested level");
    assert!(recovery.fallbacks >= 1);
    let levels = Levels::clean(source, &inputs);
    let completed = harness::matches_clean_level(run, Exec::Fusion, &levels, "alloc fault");
    assert_ne!(completed, ExecLevel::Fusion);
}

/// The recovery driver's clean path is observationally identical to the
/// plain executors: same bits, same device events and clock, no recovery
/// record.
#[test]
fn fault_free_runs_with_recovery_enabled_are_untouched() {
    let inputs = Inputs::rt(DIMS);
    for workload in Workload::ALL {
        for strategy in Strategy::ALL {
            let what = format!("{workload}/{strategy}");
            let program = Program::Source(workload.source());
            let plain = harness::run(&Config::new(strategy), program, &inputs);
            let config = Config {
                recovery: RecoveryPolicy::resilient(),
                ..Config::new(strategy)
            };
            let resilient = harness::run(&config, program, &inputs);
            let (a, b) = (plain.last(&what), resilient.last(&what));
            assert!(b.report.recovery.is_none(), "clean run reports no recovery");
            harness::same_bits(&a.fields, &b.fields, &what);
            harness::same_events(&a.report, &b.report, &what);
        }
    }
}

/// Recovery does not break Model == Real: identical fault plans produce
/// identical event streams, clocks (backoff included) and recovery records
/// in both modes.
#[test]
fn model_and_real_mode_recover_identically() {
    let source = Workload::VorticityMagnitude.source();
    let run = |mode: ExecMode| {
        let plan = FaultPlan::with_seed(7);
        plan.fail_nth_from_now(FaultKind::Transfer, 3, 2);
        plan.fail_nth_from_now(FaultKind::Alloc, 5, 1);
        let config = Config {
            mode,
            ..resilient(Exec::Staged, &plan, false)
        };
        harness::run(&config, Program::Source(source), &Inputs::rt(DIMS))
    };
    let (real, model) = (run(ExecMode::Real), run(ExecMode::Model));
    harness::model_matches_real(&real, &model, "recovered staged");
    let recovery = |outcome: &harness::Outcome| outcome.last("recovers").report.recovery.clone();
    assert_eq!(recovery(&real), recovery(&model), "same recovery story");
    assert!(recovery(&real).is_some());
}

#[test]
fn tiny_device_skips_hopeless_levels_and_lands_on_the_cpu() {
    // A GPU whose memory cannot hold even one ghosted z-layer of a
    // gradient workload: the requested fusion genuinely runs out of
    // memory, the planner's estimates skip staged and roundtrip without
    // attempting them, streamed cannot slab within the budget, and the CPU
    // rung completes — bit-identical to fusion.
    let source = Workload::VorticityMagnitude.source();
    let inputs = Inputs::rt(DIMS);
    let mut device = DeviceProfile::nvidia_m2050();
    device.global_mem_bytes = 64;
    let config = Config {
        device,
        recovery: RecoveryPolicy::resilient(),
        ..Config::new(Exec::Fusion)
    };
    let outcome = harness::run(&config, Program::Source(source), &inputs);
    let run = outcome.last("the CPU fallback always fits");
    let recovery = run.report.recovery.as_ref().expect("recovery engaged");
    assert_eq!(recovery.completed, Some(ExecLevel::CpuFusion));
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
    let levels = Levels::clean(source, &inputs);
    harness::matches_clean_level(run, Exec::Fusion, &levels, "CPU fallback");
    assert!(
        run.report.profile.high_water_bytes > 64,
        "the profile is the CPU context's, not the starved GPU's"
    );
}

#[test]
fn disabled_recovery_surfaces_raw_typed_errors() {
    let plan = FaultPlan::with_seed(1);
    plan.fail_nth_from_now(FaultKind::Compile, 1, 1);
    let config = Config {
        faults: Some(plan),
        ..Config::new(Exec::Fusion)
    };
    let program = Program::Source(Workload::VelocityMagnitude.source());
    let mut outcome = harness::run(&config, program, &Inputs::rt(DIMS));
    let err = outcome
        .runs
        .pop()
        .expect("one run")
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
    // still hold exactly its resident bytes afterwards (`harness::run`).
    let plan = FaultPlan::with_seed(3);
    plan.fail_at_rate(FaultKind::Alloc, 1.0);
    let config = resilient(Exec::Fusion, &plan, true);
    let program = Program::Source(Workload::VelocityMagnitude.source());
    let mut outcome = harness::run(&config, program, &Inputs::rt(DIMS));
    let err = outcome
        .runs
        .pop()
        .expect("one cycle")
        .expect_err("every level's first allocation fails");
    let recovery = err.recovery().expect("exhausted carries the story");
    assert!(recovery.completed.is_none());
    assert!(recovery.fallbacks >= 1, "the chain was walked");
    assert!(err.is_out_of_memory(), "the final failure is OOM-shaped");
    assert_eq!(outcome.stats.expect("a session").cycles, 0);
}

#[test]
fn session_recovers_across_cycles_and_keeps_amortization() {
    // Cycle 1 hits a transient launch fault and retries; later cycles are
    // clean. Resident uploads and the kernel cache must keep amortizing
    // (the failed attempt must not poison session state), and every
    // cycle's output must stay bit-identical to the one-shot run.
    let program = Program::Source(Workload::VorticityMagnitude.source());
    let inputs = Inputs::rt(DIMS);
    let expected = harness::run(&Config::new(Exec::Fusion), program, &inputs);
    let plan = FaultPlan::with_seed(1);
    plan.fail_nth_from_now(FaultKind::Launch, 1, 1);
    let config = Config {
        session: Some(3),
        ..resilient(Exec::Fusion, &plan, true)
    };
    let outcome = harness::run(&config, program, &inputs);
    for (cycle, run) in outcome.ok("session").into_iter().enumerate() {
        let what = format!("cycle {cycle}");
        harness::same_bits(&expected.last("one-shot").fields, &run.fields, &what);
        if cycle == 0 {
            let recovery = run.report.recovery.as_ref().expect("cycle 0 retried");
            assert_eq!(recovery.retries, 1);
            assert_eq!(recovery.completed, Some(ExecLevel::Fusion));
        } else {
            assert!(run.report.recovery.is_none(), "{what} is clean");
        }
    }
    let stats = outcome.stats.expect("a session");
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
        let kind = [
            FaultKind::Alloc,
            FaultKind::Transfer,
            FaultKind::Launch,
            FaultKind::Compile,
        ][kind_idx];
        let exec = EXECS[exec_idx];
        let source = Workload::VelocityMagnitude.source();
        let inputs = Inputs::rt(DIMS);
        let levels = Levels::clean(source, &inputs);
        let plan = FaultPlan::with_seed(seed);
        plan.fail_nth_from_now(kind, index, 1);
        let config = resilient(exec, &plan, session_idx == 1);
        let mut outcome = harness::run(&config, Program::Source(source), &inputs);
        match outcome.runs.pop().expect("one run") {
            Ok(run) => {
                if run.report.recovery.is_none() {
                    // Index beyond the run's op count: nothing fired.
                    prop_assert_eq!(plan.faults_fired(kind), 0);
                }
                harness::matches_clean_level(&run, exec, &levels, "random injection");
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
