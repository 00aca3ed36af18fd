//! End-to-end silent-corruption tests: seeded `mem_flip` and `stale_slot`
//! injections at every opportunity of every execution mode must be
//! *detected* by the verification layer, *healed* by the recovery ladder,
//! and leave outputs bit-identical to a fault-free run — while
//! `VerifyPolicy::Off` stays bit- and clock-identical to the verified
//! runs, because all checksum work is host-side.

use dfg_core::{RecoveryPolicy, Request, Strategy, Workload};
use dfg_ocl::{FaultKind, FaultPlan, VerifyPolicy};

#[path = "../src/tests/harness.rs"]
mod harness;
use harness::{Config, Exec, Holder, Inputs, Levels, Program, Run, EXECS};

const DIMS: [usize; 3] = [6, 5, 4];

/// `exec` with recovery under `verify`, with `faults` installed when given.
fn verified(exec: Exec, verify: VerifyPolicy, faults: Option<&FaultPlan>) -> Config {
    Config {
        recovery: RecoveryPolicy::resilient(),
        verify,
        faults: faults.cloned(),
        ..Config::new(exec)
    }
}

/// Count the `mem_flip` draw opportunities (one per kernel launch) of a
/// clean run, by installing a rule-less plan that only counts.
fn clean_flip_ops(exec: Exec, source: &str, inputs: &Inputs, session: bool) -> u64 {
    let plan = FaultPlan::with_seed(1);
    let config = Config {
        holder: Holder::session_if(session, 1),
        ..verified(exec, VerifyPolicy::Full, Some(&plan))
    };
    harness::run(&config, Program::Source(source), inputs).last("clean run");
    plan.ops_seen(FaultKind::MemFlip)
}

/// Exhaustive `mem_flip` sweep: flip one seeded bit before *every* kernel
/// launch of every execution mode, one-shot and session, under
/// `VerifyPolicy::Full` with recovery enabled. Every detected flip must be
/// healed with output bits identical to the fault-free run of the level
/// the run completed at.
#[test]
fn every_mem_flip_is_detected_healed_and_bit_exact() {
    let source = Workload::VorticityMagnitude.source();
    let inputs = Inputs::rt(DIMS);
    let levels = Levels::clean(source, &inputs);
    let (mut total_checks, mut total_violations) = (0u64, 0u64);
    for exec in EXECS {
        for session in [false, true] {
            let count = clean_flip_ops(exec, source, &inputs, session);
            assert!(count > 0, "{exec:?}: a run must launch kernels");
            for index in 1..=count {
                let label = format!(
                    "{exec:?}/mem_flip@{index}{}",
                    if session { " (session)" } else { "" }
                );
                let plan = FaultPlan::with_seed(1);
                plan.fail_nth_from_now(FaultKind::MemFlip, index, 1);
                let config = Config {
                    holder: Holder::session_if(session, 1),
                    ..verified(exec, VerifyPolicy::Full, Some(&plan))
                };
                let outcome = harness::run(&config, Program::Source(source), &inputs);
                let run = outcome.last(&format!("{label}: must heal"));
                assert_eq!(plan.faults_fired(FaultKind::MemFlip), 1, "{label}: fired");
                let report = &run.report;
                total_checks += report.integrity.checks;
                total_violations += report.integrity.violations;
                if report.integrity.violations > 0 {
                    let recovery = report
                        .recovery
                        .as_ref()
                        .unwrap_or_else(|| panic!("{label}: a detected flip engages recovery"));
                    assert!(
                        recovery.retries > 0
                            || recovery.fallbacks > 0
                            || recovery.integrity_healed > 0,
                        "{label}: recovery record populated"
                    );
                }
                harness::matches_clean_level(run, exec, &levels, &label);
            }
        }
    }
    assert!(
        total_violations > 0,
        "the sweep must detect at least one corruption"
    );
    // Pinned: hashing an adopted array only when its lanes become the
    // device's own removes no check and misses no flip (DESIGN.md D7).
    assert_eq!(
        (total_checks, total_violations),
        (5180, 64),
        "checks, violations"
    );
}

/// A stale pool hand-out (a recycled slot with the previous owner's bits
/// still in it) at every pooled-reuse opportunity of a two-cycle `strategy`
/// session: every run must complete bit-identical to the clean run of the
/// level it completed at. Returns the draws, and the checks and violations
/// summed over the sweep.
fn stale_slot_sweep(strategy: Strategy) -> (u64, u64, u64) {
    let program = Program::Source(Workload::VorticityMagnitude.source());
    let inputs = Inputs::rt(DIMS);
    let levels = Levels::clean(Workload::VorticityMagnitude.source(), &inputs);
    let two_cycles = |plan: &FaultPlan| Config {
        holder: Holder::Session(2),
        ..verified(strategy.into(), VerifyPolicy::Full, Some(plan))
    };

    // Count pooled hand-outs across two cycles with a rule-less plan.
    let count = {
        let plan = FaultPlan::with_seed(1);
        let outcome = harness::run(&two_cycles(&plan), program, &inputs);
        let hits = outcome.last("clean session").pool_hits;
        assert!(hits > 0, "two cycles must reuse pooled slots");
        plan.ops_seen(FaultKind::StaleSlot)
    };
    assert!(count > 0, "stale-slot draws happen at pooled reuse");

    let (mut total_checks, mut total_violations) = (0u64, 0u64);
    for index in 1..=count {
        let label = format!("{strategy}/stale_slot@{index}");
        let plan = FaultPlan::with_seed(1);
        plan.fail_nth_from_now(FaultKind::StaleSlot, index, 1);
        let outcome = harness::run(&two_cycles(&plan), program, &inputs);
        assert_eq!(plan.faults_fired(FaultKind::StaleSlot), 1, "{label}: fired");
        for (cycle, run) in outcome
            .ok(&format!("{label}: must heal"))
            .into_iter()
            .enumerate()
        {
            total_checks += run.report.integrity.checks;
            total_violations += run.report.integrity.violations;
            let what = format!("{label}: cycle {}", cycle + 1);
            harness::matches_clean_level(run, strategy.into(), &levels, &what);
        }
    }
    (count, total_checks, total_violations)
}

/// A roundtrip session hands every download's storage to the host and
/// adopts every upload, so each of its slots parks bare (DESIGN.md D10):
/// there is no stale storage to leak, and every draw is inert. A staged
/// session's intermediates park with their storage; there a stale hand-out
/// is caught by the allocator self-check, quarantined, and healed by the
/// recovery ladder.
#[test]
fn every_stale_slot_handout_is_quarantined_and_bit_exact() {
    let roundtrip = stale_slot_sweep(Strategy::Roundtrip);
    assert_eq!(
        roundtrip,
        (54, 13068, 0),
        "roundtrip slots park bare: every draw is inert"
    );
    let staged = stale_slot_sweep(Strategy::Staged);
    assert_eq!(staged, (28, 4904, 7), "draws, checks, violations");
    assert!(
        roundtrip.2 + staged.2 > 0,
        "the sweep must detect at least one stale hand-out"
    );
}

/// With no faults injected, verification is free of observable effects:
/// `Off`, `Residents` and `Full` produce bit-identical outputs,
/// bit-identical virtual clocks, and identical device-operation counts —
/// the checksum pass is host-side only — one-shot and in every cycle of a
/// session. `Off` performs zero checks; a session checks its residents
/// under `Residents` and strictly more under `Full`, never with a
/// violation.
#[test]
fn verification_off_is_bit_and_clock_identical_to_full() {
    let program = Program::Source(Workload::QCriterion.source());
    let inputs = Inputs::rt(DIMS);
    let mut checks = Vec::new();
    for exec in EXECS {
        for holder in [Holder::OneShot, Holder::Session(3)] {
            let what = format!("{exec:?} {holder:?}");
            let run = |verify| -> Vec<Run> {
                let config = Config {
                    holder,
                    ..verified(exec, verify, None)
                };
                let outcome = harness::run(&config, program, &inputs);
                outcome.ok(&what).into_iter().cloned().collect()
            };
            let off = run(VerifyPolicy::Off);
            let mut totals = Vec::new();
            for verify in [VerifyPolicy::Residents, VerifyPolicy::Full] {
                let on = run(verify);
                for (a, b) in off.iter().zip(&on) {
                    harness::same_bits(&a.fields, &b.fields, &what);
                    harness::same_events(&a.report, &b.report, &what);
                    assert_eq!(b.report.integrity.violations, 0, "{what}: clean run");
                }
                // A context's counters cover its whole life: the last
                // cycle's are the session's.
                totals.push(on.last().expect("a run").report.integrity.checks);
            }
            let off = &off.last().expect("a run").report.integrity;
            assert_eq!(
                (off.checks, off.violations),
                (0, 0),
                "{what}: Off never checks"
            );
            if holder != Holder::OneShot {
                assert!(0 < totals[0] && totals[0] < totals[1], "{what}: {totals:?}");
            } else {
                checks.push(totals[1]);
            }
        }
    }
    // Pinned: an adopted array's check is counted whether or not its lanes
    // are hashed (DESIGN.md D7).
    assert_eq!(
        checks,
        [180, 133, 8, 8],
        "one-shot checks per execution mode"
    );
}

/// `VerifyPolicy::Residents` heals a resident corrupted *between* uses: a
/// `mem_flip` lands on a resident input during cycle 1 (undetected — the
/// Residents level does not revalidate launch inputs), and cycle 2's bind
/// revalidates the resident before trusting it, re-uploads clean bits in
/// place, and records the heal — so cycle 2 is bit-identical to a clean
/// run without the recovery ladder ever engaging.
#[test]
fn residents_policy_heals_a_corrupted_resident_between_cycles() {
    let source = Workload::VelocityMagnitude.source();
    let inputs = Inputs::rt(DIMS);
    let clean = Config {
        holder: Holder::Session(2),
        ..verified(Exec::Fusion, VerifyPolicy::Off, None)
    };
    let clean = harness::run(&clean, Program::Source(source), &inputs);

    let mut eng = verified(Exec::Fusion, VerifyPolicy::Residents, None).engine();
    eng.set_tracer(dfg_trace::Tracer::new());
    let plan = FaultPlan::with_seed(1);
    plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
    eng.set_fault_plan(plan.clone());
    let mut sess = eng.session();
    let request = Request::source(source, Strategy::Fusion);
    sess.run(&request, &inputs.real).unwrap();
    assert_eq!(plan.faults_fired(FaultKind::MemFlip), 1, "flip fired");
    assert_eq!(sess.stats().integrity_healed, 0, "not yet revalidated");

    let (healed, r2) = sess.run(&request, &inputs.real).unwrap();
    assert!(
        sess.stats().integrity_healed >= 1,
        "cycle 2 heals the corrupted resident at bind time"
    );
    assert!(
        r2.recovery.is_none(),
        "an in-place re-upload needs no recovery ladder"
    );
    harness::same_bits(
        &clean.last("clean").fields,
        &healed,
        "cycle 2 is bit-identical to clean",
    );
    let trace = r2.trace.as_ref().expect("tracer attached");
    assert!(
        trace.spans().iter().any(|s| s.name == "recover.integrity"),
        "the heal is traced"
    );
}

/// Pool poisoning (`0xDEADBEEF` fill on release) must not change any
/// observable output: recycled slots are zeroed before reuse, so a pooled
/// two-cycle session computes bit-identical results with poisoning on.
#[test]
fn pool_poison_keeps_pooled_session_bit_identical() {
    let source = Workload::QCriterion.source();
    let fields = Inputs::rt(DIMS).real;
    let run = |poison: bool| {
        let mut eng = verified(Exec::Roundtrip, VerifyPolicy::Full, None).engine();
        let mut sess = eng.session();
        sess.context_mut().debug_set_poison(poison);
        let request = Request::source(source, Strategy::Roundtrip);
        let mut cycle = || sess.run(&request, &fields).unwrap().0;
        let cycles: Vec<_> = [cycle(), cycle()].into_iter().flatten().collect();
        (cycles, sess.pool_hits())
    };
    let (clean, _) = run(false);
    let (poisoned, hits) = run(true);
    assert!(hits > 0, "the session must actually recycle slots");
    harness::same_bits(&clean, &poisoned, "cycles 1 and 2 unchanged by poisoning");
}
