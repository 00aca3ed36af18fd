//! Bit-parity and determinism tests for the double-buffered streaming
//! pipeline.
//!
//! The contract under test: the slab pipeline is a pure performance
//! transform. At every device budget — the whole grid in one slab, several
//! slabs through two ring slots, several slabs through one — in either
//! execution mode, one-shot or across session cycles, and across a
//! mid-pipeline transient fault, the derived field is bit-identical to
//! single-pass fusion and peak device memory stays within the budget. The
//! virtual clock is a pure function of the issue order, so Model and Real
//! mode agree on every event bit regardless of `DFG_NUM_THREADS`.
//!
//! The CI streaming leg runs this suite under both `DFG_NUM_THREADS`
//! regimes.

use dfg_core::{EngineError, RecoveryPolicy, Workload};
use dfg_ocl::{DeviceProfile, ExecMode, FaultKind, FaultPlan, OclError};

#[path = "../src/tests/harness.rs"]
mod harness;
use harness::{spec_one_shot as network_one_shot, Config, Exec, Inputs, Outcome, Program, Run};

const DIMS: [usize; 3] = [12, 10, 16];
/// Device bytes of one z-layer for the gradient workloads: six inputs
/// (u, v, w, x, y, z) plus the output, 4 B each, per 12·10 cells.
const LAYER: u64 = 7 * 4 * 12 * 10;
/// The `dims` header every ring slot holds: three f32.
const HEADER: u64 = 3 * 4;
/// The two workloads with a gradient stencil (slabs carry halo layers).
const WORKLOADS: [Workload; 2] = [Workload::VorticityMagnitude, Workload::QCriterion];

/// One device budget and the pipeline shape it must produce.
struct Case {
    label: &'static str,
    budget: Option<u64>,
    slabs: u64,
    depth: u64,
}

const CASES: [Case; 3] = [
    // The device's capacity holds the whole grid: one slab, one slot.
    Case {
        label: "one slab",
        budget: None,
        slabs: 1,
        depth: 1,
    },
    // Two slots of 6 interior + 2 halo layers: ⌈16 / 6⌉ slabs.
    Case {
        label: "several slabs",
        budget: Some(2 * (8 * LAYER + HEADER)),
        slabs: 3,
        depth: 2,
    },
    // Room for one 4-layer ghosted slab but not for two 3-layer ones:
    // 2 interior layers per slab, all through a single slot.
    Case {
        label: "single slot",
        budget: Some(4 * LAYER + HEADER),
        slabs: 8,
        depth: 1,
    },
];

/// `workload` streamed at `budget` in `mode`, traced: a one-shot, or a
/// session of three cycles.
fn streamed(mode: ExecMode, workload: Workload, budget: Option<u64>, session: bool) -> Outcome {
    let config = Config {
        session: session.then_some(3),
        mode,
        traced: true,
        ..Config::new(Exec::Streamed(budget))
    };
    harness::run(
        &config,
        Program::Source(workload.source()),
        &Inputs::rt(DIMS),
    )
}

fn fused(workload: Workload) -> Vec<dfg_core::Field> {
    let program = Program::Source(workload.source());
    let outcome = harness::run(&Config::new(Exec::Fusion), program, &Inputs::rt(DIMS));
    outcome.last("fusion").fields.clone()
}

/// The `stream.pipeline` span's (slabs, depth) of a traced streamed run.
fn pipeline_shape(run: &Run) -> (Option<u64>, Option<u64>) {
    let trace = run.report.trace.as_ref().expect("tracer attached");
    let pipeline = trace
        .spans()
        .iter()
        .find(|s| s.name == "stream.pipeline")
        .expect("stream.pipeline span");
    (pipeline.meta_u64("slabs"), pipeline.meta_u64("depth"))
}

/// A Real-mode streamed run is under `budget` (the device capacity when
/// `None`) and bit-identical to `fused`.
fn assert_streamed_matches(label: &str, run: &Run, budget: Option<u64>, fused: &[dfg_core::Field]) {
    let budget = budget.unwrap_or(DeviceProfile::intel_x5660().global_mem_bytes);
    let peak = run.report.high_water_bytes();
    assert!(peak <= budget, "{label}: peak {peak} over budget {budget}");
    harness::same_bits(fused, &run.fields, label);
}

/// Real mode, one-shot, at every budget — one slot or two ring slots —
/// and every gradient workload: bit-identical to single-pass fusion, under
/// the budget, and shaped as the budget dictates (the `stream.pipeline`
/// span's slabs and depth).
#[test]
fn overlapped_bits_match_fusion_at_every_depth() {
    for workload in WORKLOADS {
        let fused = fused(workload);
        for case in &CASES {
            let outcome = streamed(ExecMode::Real, workload, case.budget, false);
            let run = outcome.last("one-shot streamed");
            let label = format!("{workload} {}", case.label);
            assert_eq!(
                pipeline_shape(run),
                (Some(case.slabs), Some(case.depth)),
                "{label}: (slabs, depth)"
            );
            assert_streamed_matches(&label, run, case.budget, &fused);
        }
    }
}

/// Session path: codegen cached across cycles, ring buffers pooled — still
/// bit-identical to fusion and under the budget at every budget, on every
/// cycle.
#[test]
fn session_streamed_bits_match_fusion_at_every_depth() {
    for workload in WORKLOADS {
        let fused = fused(workload);
        for case in &CASES {
            let outcome = streamed(ExecMode::Real, workload, case.budget, true);
            for (cycle, run) in outcome.ok("streamed session").into_iter().enumerate() {
                let label = format!("session {workload} {} cycle {cycle}", case.label);
                assert_streamed_matches(&label, run, case.budget, &fused);
            }
        }
    }
}

/// A budget with room for two ring slots does not waste the second when
/// the whole grid fits in one slab: the pipeline degenerates to one slab
/// through one slot, still bit-identical to fusion.
#[test]
fn depth_shrinks_to_slab_count() {
    let workload = Workload::VorticityMagnitude;
    let outcome = streamed(ExecMode::Real, workload, None, false);
    let run = outcome.last("streamed");
    assert_eq!(pipeline_shape(run), (Some(1), Some(1)), "(slabs, depth)");
    assert_streamed_matches("one slab", run, None, &fused(workload));
}

/// Model mode and Real mode must produce bitwise-identical virtual clocks,
/// event kinds, queues and byte counts for the multi-queue pipeline at
/// every budget, one-shot and on every session cycle — the paper-scale
/// model runs are trustworthy because they are the same schedule
/// arithmetic as a real execution.
#[test]
fn model_and_real_clocks_agree_bitwise() {
    for workload in WORKLOADS {
        for case in &CASES {
            for session in [false, true] {
                let real = streamed(ExecMode::Real, workload, case.budget, session);
                let model = streamed(ExecMode::Model, workload, case.budget, session);
                let what = format!("{workload} {} session={session}", case.label);
                harness::model_matches_real(&real, &model, &what);
            }
        }
    }
}

/// The multi-queue clock is computed serially at enqueue time, so repeated
/// runs are bitwise reproducible — under any `DFG_NUM_THREADS` the CI
/// matrix sets for this process.
#[test]
fn clocks_are_reproducible_run_to_run() {
    for case in &CASES {
        for session in [false, true] {
            let a = streamed(ExecMode::Model, Workload::QCriterion, case.budget, session);
            let b = streamed(ExecMode::Model, Workload::QCriterion, case.budget, session);
            for (run, (x, y)) in a.ok("a").iter().zip(b.ok("b")).enumerate() {
                let what = format!("{} session={session} run {run}", case.label);
                harness::same_events(&x.report, &y.report, &what);
            }
        }
    }
}

/// Overlap actually overlaps: with two ring slots and one interior layer
/// per slab (sixteen slabs, so the pipeline reaches steady state), the
/// makespan drops below the serial baseline, the summed device seconds.
#[test]
fn double_buffering_hides_transfer_behind_compute() {
    let budget = Some(2 * (3 * LAYER + HEADER));
    let outcome = streamed(ExecMode::Model, Workload::QCriterion, budget, false);
    let p = &outcome.last("model streamed").report.profile;
    assert_eq!(
        p.count(dfg_ocl::EventKind::KernelExec),
        16,
        "one layer per slab"
    );
    assert!(
        p.makespan_seconds() < p.device_seconds(),
        "makespan {} not below serial {}",
        p.makespan_seconds(),
        p.device_seconds()
    );
    assert!(p.overlap_hidden_seconds() > 0.0);
}

/// A transient transfer fault in the middle of the pipeline fails the
/// attempt; the recovery ladder retries the streamed level, and the output
/// stays bit-identical to the fault-free run.
#[test]
fn transient_fault_mid_pipeline_recovers_bit_exact() {
    let program = Program::Source(Workload::QCriterion.source());
    let inputs = Inputs::rt(DIMS);
    for case in CASES.iter().filter(|c| c.slabs > 1) {
        let label = case.label;
        let clean = streamed(ExecMode::Real, Workload::QCriterion, case.budget, false);
        // Fault the 6th upcoming transfer: the ring is allocated and the
        // H2D queue has uploads in flight when it fires.
        let plan = FaultPlan::with_seed(1);
        plan.fail_nth_from_now(FaultKind::Transfer, 5, 1);
        let config = Config {
            recovery: RecoveryPolicy::resilient(),
            faults: Some(plan.clone()),
            ..Config::new(Exec::Streamed(case.budget))
        };
        let faulted = harness::run(&config, program, &inputs);
        let run = faulted.last("fault is recovered");
        assert_eq!(
            plan.faults_fired(FaultKind::Transfer),
            1,
            "{label}: the fault must fire"
        );
        let recovery = run
            .report
            .recovery
            .as_ref()
            .expect("a recovered fault produces a recovery record");
        assert!(recovery.retries >= 1, "{label}: the ladder must retry");
        assert_eq!(recovery.fallbacks, 0, "{label}: no fallback needed");
        let clean = &clean.last("clean streamed").fields;
        harness::same_bits(clean, &run.fields, &format!("faulted {label}"));
    }
}

/// The smallest slab set is one interior layer, two halo layers and the
/// `dims` header. A budget seven bytes short of it fails, and the error
/// names a request larger than the capacity; the exact size streams.
#[test]
fn out_of_memory_error_counts_the_dims_header() {
    let minimal = 3 * LAYER + HEADER;
    let mut short = streamed(
        ExecMode::Real,
        Workload::QCriterion,
        Some(3 * LAYER + 5),
        false,
    );
    let err = short
        .runs
        .pop()
        .expect("one run")
        .expect_err("a budget below one slab set must fail");
    match err {
        EngineError::Ocl(OclError::OutOfMemory {
            requested,
            capacity,
            ..
        }) => {
            assert_eq!(requested, minimal);
            assert_eq!(capacity, 3 * LAYER + 5);
            assert!(
                requested > capacity,
                "{requested} B requested of {capacity} B"
            );
        }
        other => panic!("expected out-of-memory, got {other}"),
    }
    let exact = streamed(ExecMode::Real, Workload::QCriterion, Some(minimal), false);
    assert!(
        exact
            .last("the minimal slab set streams")
            .report
            .high_water_bytes()
            <= minimal
    );
}
