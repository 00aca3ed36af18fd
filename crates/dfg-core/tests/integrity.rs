//! End-to-end silent-corruption tests: seeded `mem_flip` and `stale_slot`
//! injections at every opportunity of every execution mode must be
//! *detected* by the verification layer, *healed* by the recovery ladder,
//! and leave outputs bit-identical to a fault-free run — while
//! `VerifyPolicy::Off` stays bit- and clock-identical to the verified
//! runs, because all checksum work is host-side.

use dfg_core::{Engine, EngineOptions, ExecLevel, FieldSet, RecoveryPolicy, Strategy, Workload};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, FaultKind, FaultPlan, VerifyPolicy};

const DIMS: [usize; 3] = [6, 5, 4];

fn rt_fields() -> FieldSet {
    let mesh = RectilinearMesh::unit_cube(DIMS);
    FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default())
}

fn options(verify: VerifyPolicy) -> EngineOptions {
    EngineOptions {
        recovery: RecoveryPolicy::resilient(),
        verify,
        ..Default::default()
    }
}

fn engine(verify: VerifyPolicy) -> Engine {
    Engine::with_options(DeviceProfile::intel_x5660(), options(verify))
}

fn bits_of(report: &dfg_core::ExecReport) -> Vec<u32> {
    report
        .field
        .as_ref()
        .expect("real mode")
        .data
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// The four execution modes the sweep covers.
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

/// Fault-free output bits of every execution level: whatever level a
/// healed run completed at, its bytes must equal that level's clean run.
struct LevelBits {
    fusion: Vec<u32>,
    staged: Vec<u32>,
    roundtrip: Vec<u32>,
    streamed: Vec<u32>,
}

impl LevelBits {
    fn collect(source: &str, fields: &FieldSet) -> LevelBits {
        let mut engine = Engine::new(DeviceProfile::intel_x5660());
        LevelBits {
            fusion: bits_of(&engine.derive(source, fields, Strategy::Fusion).unwrap()),
            staged: bits_of(&engine.derive(source, fields, Strategy::Staged).unwrap()),
            roundtrip: bits_of(&engine.derive(source, fields, Strategy::Roundtrip).unwrap()),
            streamed: bits_of(&engine.derive_streamed(source, fields, None).unwrap()),
        }
    }

    fn for_level(&self, level: ExecLevel) -> &[u32] {
        match level {
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
) -> Result<dfg_core::ExecReport, dfg_core::EngineError> {
    match exec {
        Exec::Strategy(s) => engine.derive(source, fields, s),
        Exec::Streamed => engine.derive_streamed(source, fields, None),
    }
}

/// Count the `mem_flip` draw opportunities (one per kernel launch) of a
/// clean run, by installing a rule-less plan that only counts.
fn clean_flip_ops(exec: Exec, source: &str, fields: &FieldSet, session: bool) -> u64 {
    let mut engine = engine(VerifyPolicy::Full);
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
    let fields = rt_fields();
    let bits = LevelBits::collect(source, &fields);
    let (mut total_checks, mut total_violations) = (0u64, 0u64);
    for exec in EXECS {
        for session in [false, true] {
            let count = clean_flip_ops(exec, source, &fields, session);
            assert!(count > 0, "{exec:?}: a run must launch kernels");
            for index in 1..=count {
                let label = format!(
                    "{exec:?}/mem_flip@{index}{}",
                    if session { " (session)" } else { "" }
                );
                let mut eng = engine(VerifyPolicy::Full);
                let plan = FaultPlan::with_seed(1);
                plan.fail_nth_from_now(FaultKind::MemFlip, index, 1);
                eng.set_fault_plan(plan.clone());
                let report = if session {
                    let mut sess = eng.session();
                    let r = match exec {
                        Exec::Strategy(s) => sess.derive(source, &fields, s),
                        Exec::Streamed => sess.derive_streamed(source, &fields, None),
                    };
                    r.unwrap_or_else(|e| panic!("{label}: must heal, got {e}"))
                } else {
                    run_exec(&mut eng, exec, source, &fields)
                        .unwrap_or_else(|e| panic!("{label}: must heal, got {e}"))
                };
                assert_eq!(plan.faults_fired(FaultKind::MemFlip), 1, "{label}: fired");
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
                let completed = report
                    .recovery
                    .as_ref()
                    .and_then(|r| r.completed)
                    .unwrap_or_else(|| exec.exec_level());
                assert_eq!(
                    bits_of(&report),
                    bits.for_level(completed),
                    "{label}: healed output must be bit-identical to a \
                     fault-free {completed} run"
                );
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
    let source = Workload::VorticityMagnitude.source();
    let fields = rt_fields();
    let bits = LevelBits::collect(source, &fields);

    // Count pooled hand-outs across two cycles with a rule-less plan.
    let count = {
        let mut eng = engine(VerifyPolicy::Full);
        let plan = FaultPlan::with_seed(1);
        eng.set_fault_plan(plan.clone());
        let mut sess = eng.session();
        sess.derive(source, &fields, strategy).unwrap();
        sess.derive(source, &fields, strategy).unwrap();
        assert!(sess.pool_hits() > 0, "two cycles must reuse pooled slots");
        plan.ops_seen(FaultKind::StaleSlot)
    };
    assert!(count > 0, "stale-slot draws happen at pooled reuse");

    let (mut total_checks, mut total_violations) = (0u64, 0u64);
    for index in 1..=count {
        let label = format!("{strategy}/stale_slot@{index}");
        let mut eng = engine(VerifyPolicy::Full);
        let plan = FaultPlan::with_seed(1);
        plan.fail_nth_from_now(FaultKind::StaleSlot, index, 1);
        eng.set_fault_plan(plan.clone());
        let mut sess = eng.session();
        let r1 = sess
            .derive(source, &fields, strategy)
            .unwrap_or_else(|e| panic!("{label}: cycle 1 must heal, got {e}"));
        let r2 = sess
            .derive(source, &fields, strategy)
            .unwrap_or_else(|e| panic!("{label}: cycle 2 must heal, got {e}"));
        assert_eq!(plan.faults_fired(FaultKind::StaleSlot), 1, "{label}: fired");
        total_checks += r1.integrity.checks + r2.integrity.checks;
        total_violations += r1.integrity.violations + r2.integrity.violations;
        for (cycle, report) in [(1, &r1), (2, &r2)] {
            let completed = report
                .recovery
                .as_ref()
                .and_then(|r| r.completed)
                .unwrap_or_else(|| Exec::Strategy(strategy).exec_level());
            assert_eq!(
                bits_of(report),
                bits.for_level(completed),
                "{label}: cycle {cycle} must stay bit-identical"
            );
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
/// `Off` and `Full` produce bit-identical outputs, bit-identical virtual
/// clocks, and identical device-operation counts — the checksum pass is
/// host-side only. `Off` performs zero checks; `Full` checks without a
/// single violation.
#[test]
fn verification_off_is_bit_and_clock_identical_to_full() {
    let source = Workload::QCriterion.source();
    let fields = rt_fields();
    let mut checks = Vec::new();
    for exec in EXECS {
        let mut off = engine(VerifyPolicy::Off);
        let mut full = engine(VerifyPolicy::Full);
        let a = run_exec(&mut off, exec, source, &fields).unwrap();
        let b = run_exec(&mut full, exec, source, &fields).unwrap();
        assert_eq!(bits_of(&a), bits_of(&b), "{exec:?}: output bits");
        assert_eq!(
            a.device_seconds().to_bits(),
            b.device_seconds().to_bits(),
            "{exec:?}: virtual clock"
        );
        assert_eq!(a.table2_row(), b.table2_row(), "{exec:?}: device ops");
        assert_eq!(
            a.high_water_bytes(),
            b.high_water_bytes(),
            "{exec:?}: allocation high water"
        );
        assert_eq!(a.integrity.checks, 0, "{exec:?}: Off never checks");
        assert_eq!(a.integrity.violations, 0);
        assert!(b.integrity.checks > 0, "{exec:?}: Full checks");
        assert_eq!(b.integrity.violations, 0, "{exec:?}: clean run");
        checks.push(b.integrity.checks);
    }
    // Pinned: an adopted array's check is counted whether or not its lanes
    // are hashed (DESIGN.md D7).
    assert_eq!(checks, [180, 133, 8, 8], "checks per execution mode");
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
    let fields = rt_fields();
    let clean = {
        let mut eng = engine(VerifyPolicy::Off);
        let mut sess = eng.session();
        sess.derive(source, &fields, Strategy::Fusion).unwrap();
        bits_of(&sess.derive(source, &fields, Strategy::Fusion).unwrap())
    };

    let mut eng = engine(VerifyPolicy::Residents);
    eng.set_tracer(dfg_trace::Tracer::new());
    let plan = FaultPlan::with_seed(1);
    plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
    eng.set_fault_plan(plan.clone());
    let mut sess = eng.session();
    sess.derive(source, &fields, Strategy::Fusion).unwrap();
    assert_eq!(plan.faults_fired(FaultKind::MemFlip), 1, "flip fired");
    assert_eq!(sess.stats().integrity_healed, 0, "not yet revalidated");

    let r2 = sess.derive(source, &fields, Strategy::Fusion).unwrap();
    assert!(
        sess.stats().integrity_healed >= 1,
        "cycle 2 heals the corrupted resident at bind time"
    );
    assert!(
        r2.recovery.is_none(),
        "an in-place re-upload needs no recovery ladder"
    );
    assert_eq!(bits_of(&r2), clean, "cycle 2 is bit-identical to clean");
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
    let fields = rt_fields();
    let run = |poison: bool| -> (Vec<u32>, Vec<u32>, u64) {
        let mut eng = engine(VerifyPolicy::Full);
        let mut sess = eng.session();
        sess.context_mut().debug_set_poison(poison);
        let r1 = sess.derive(source, &fields, Strategy::Roundtrip).unwrap();
        let r2 = sess.derive(source, &fields, Strategy::Roundtrip).unwrap();
        let hits = sess.pool_hits();
        (bits_of(&r1), bits_of(&r2), hits)
    };
    let (c1, c2, _) = run(false);
    let (p1, p2, hits) = run(true);
    assert!(hits > 0, "the session must actually recycle slots");
    assert_eq!(c1, p1, "cycle 1 bits unchanged by poisoning");
    assert_eq!(c2, p2, "cycle 2 bits unchanged by poisoning");
}
