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

use dfg_core::{
    Engine, EngineError, EngineOptions, ExecReport, FieldSet, RecoveryPolicy, Strategy, Workload,
};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, ExecMode, FaultKind, FaultPlan, OclError};
use dfg_trace::Tracer;

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

fn rt_fields() -> FieldSet {
    let mesh = RectilinearMesh::unit_cube(DIMS);
    FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default())
}

fn model_fields() -> FieldSet {
    let mut fields = FieldSet::virtual_rt(DIMS);
    fields.insert_small("dims", vec![DIMS[0] as f32, DIMS[1] as f32, DIMS[2] as f32]);
    fields
}

fn engine_in(mode: ExecMode) -> Engine {
    Engine::with_options(
        DeviceProfile::intel_x5660(),
        EngineOptions {
            mode,
            ..Default::default()
        },
    )
}

/// Every streamed report of `workload` at `budget` in `mode`: a traced
/// one-shot run, then three cycles of one session.
fn streamed_runs(mode: ExecMode, workload: Workload, budget: Option<u64>) -> Vec<ExecReport> {
    let fields = match mode {
        ExecMode::Real => rt_fields(),
        ExecMode::Model => model_fields(),
    };
    let src = workload.source();
    let mut engine = engine_in(mode);
    engine.set_tracer(Tracer::new());
    let mut runs = vec![engine
        .derive_streamed(src, &fields, budget)
        .expect("one-shot streamed")];
    let mut session = engine.session();
    for _ in 0..3 {
        runs.push(
            session
                .derive_streamed(src, &fields, budget)
                .expect("session streamed"),
        );
    }
    runs
}

fn assert_bits_equal(label: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: bit divergence at cell {i}: {x} vs {y}"
        );
    }
}

fn assert_same_events(label: &str, a: &ExecReport, b: &ExecReport) {
    let (ae, be) = (&a.profile.events, &b.profile.events);
    assert_eq!(ae.len(), be.len(), "{label}: event count");
    for (i, (x, y)) in ae.iter().zip(be).enumerate() {
        assert_eq!(x.kind, y.kind, "{label} event {i}: kind");
        assert_eq!(x.queue, y.queue, "{label} event {i}: queue");
        assert_eq!(x.bytes, y.bytes, "{label} event {i}: bytes");
        assert_eq!(
            x.t_start.to_bits(),
            y.t_start.to_bits(),
            "{label} event {i}: t_start {} vs {}",
            x.t_start,
            y.t_start
        );
        assert_eq!(
            x.t_end.to_bits(),
            y.t_end.to_bits(),
            "{label} event {i}: t_end {} vs {}",
            x.t_end,
            y.t_end
        );
    }
    assert_eq!(
        a.profile.makespan_seconds().to_bits(),
        b.profile.makespan_seconds().to_bits(),
        "{label}: makespan"
    );
}

fn fused(workload: Workload, fields: &FieldSet) -> Vec<f32> {
    Engine::new(DeviceProfile::intel_x5660())
        .derive(workload.source(), fields, Strategy::Fusion)
        .expect("fusion")
        .field
        .expect("real mode")
        .data
}

/// The `stream.pipeline` span's (slabs, depth) of a traced streamed run.
fn pipeline_shape(report: &ExecReport) -> (Option<u64>, Option<u64>) {
    let trace = report.trace.as_ref().expect("tracer attached");
    let pipeline = trace
        .spans()
        .iter()
        .find(|s| s.name == "stream.pipeline")
        .expect("stream.pipeline span");
    (pipeline.meta_u64("slabs"), pipeline.meta_u64("depth"))
}

/// A Real-mode streamed report is under `budget` (the device capacity when
/// `None`) and bit-identical to `fused`.
fn assert_streamed_matches(label: &str, report: &ExecReport, budget: Option<u64>, fused: &[f32]) {
    let budget = budget.unwrap_or(DeviceProfile::intel_x5660().global_mem_bytes);
    assert!(
        report.high_water_bytes() <= budget,
        "{label}: peak {} over budget {budget}",
        report.high_water_bytes()
    );
    let streamed = report.field.as_ref().expect("real mode");
    assert_bits_equal(label, fused, &streamed.data);
}

/// Real mode, one-shot, at every budget — one slot or two ring slots —
/// and every gradient workload: bit-identical to single-pass fusion, under
/// the budget, and shaped as the budget dictates (the `stream.pipeline`
/// span's slabs and depth).
#[test]
fn overlapped_bits_match_fusion_at_every_depth() {
    let fields = rt_fields();
    for workload in WORKLOADS {
        let fused = fused(workload, &fields);
        for case in &CASES {
            let mut engine = engine_in(ExecMode::Real);
            engine.set_tracer(Tracer::new());
            let report = engine
                .derive_streamed(workload.source(), &fields, case.budget)
                .expect("one-shot streamed");
            let label = format!("{workload} {}", case.label);
            assert_eq!(
                pipeline_shape(&report),
                (Some(case.slabs), Some(case.depth)),
                "{label}: (slabs, depth)"
            );
            assert_streamed_matches(&label, &report, case.budget, &fused);
        }
    }
}

/// Session path: codegen cached across cycles, ring buffers pooled — still
/// bit-identical to fusion and under the budget at every budget, on every
/// cycle.
#[test]
fn session_streamed_bits_match_fusion_at_every_depth() {
    let fields = rt_fields();
    for workload in WORKLOADS {
        let fused = fused(workload, &fields);
        for case in &CASES {
            let mut engine = engine_in(ExecMode::Real);
            let mut session = engine.session();
            for cycle in 0..3 {
                let report = session
                    .derive_streamed(workload.source(), &fields, case.budget)
                    .expect("streamed session cycle");
                let label = format!("session {workload} {} cycle {cycle}", case.label);
                assert_streamed_matches(&label, &report, case.budget, &fused);
            }
        }
    }
}

/// A budget with room for two ring slots does not waste the second when
/// the whole grid fits in one slab: the pipeline degenerates to one slab
/// through one slot, still bit-identical to fusion.
#[test]
fn depth_shrinks_to_slab_count() {
    let fields = rt_fields();
    let workload = Workload::VorticityMagnitude;
    let mut engine = engine_in(ExecMode::Real);
    engine.set_tracer(Tracer::new());
    let report = engine
        .derive_streamed(workload.source(), &fields, None)
        .expect("streamed");
    assert_eq!(
        pipeline_shape(&report),
        (Some(1), Some(1)),
        "(slabs, depth)"
    );
    assert_streamed_matches("one slab", &report, None, &fused(workload, &fields));
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
            let real = streamed_runs(ExecMode::Real, workload, case.budget);
            let model = streamed_runs(ExecMode::Model, workload, case.budget);
            for (run, (r, m)) in real.iter().zip(&model).enumerate() {
                assert_same_events(&format!("{workload} {} run {run}", case.label), r, m);
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
        let a = streamed_runs(ExecMode::Model, Workload::QCriterion, case.budget);
        let b = streamed_runs(ExecMode::Model, Workload::QCriterion, case.budget);
        for (run, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_same_events(&format!("{} run {run}", case.label), x, y);
        }
    }
}

/// Overlap actually overlaps: with two ring slots and one interior layer
/// per slab (sixteen slabs, so the pipeline reaches steady state), the
/// makespan drops below the serial baseline, the summed device seconds.
#[test]
fn double_buffering_hides_transfer_behind_compute() {
    let report = engine_in(ExecMode::Model)
        .derive_streamed(
            Workload::QCriterion.source(),
            &model_fields(),
            Some(2 * (3 * LAYER + HEADER)),
        )
        .expect("model streamed");
    let p = &report.profile;
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
    let fields = rt_fields();
    for case in CASES.iter().filter(|c| c.slabs > 1) {
        let clean = engine_in(ExecMode::Real)
            .derive_streamed(Workload::QCriterion.source(), &fields, case.budget)
            .expect("clean streamed")
            .field
            .expect("real mode");
        // Fault the 6th upcoming transfer: the ring is allocated and the
        // H2D queue has uploads in flight when it fires.
        let mut engine = Engine::with_options(
            DeviceProfile::intel_x5660(),
            EngineOptions {
                recovery: RecoveryPolicy::resilient(),
                ..Default::default()
            },
        );
        let plan = FaultPlan::with_seed(1);
        plan.fail_nth_from_now(FaultKind::Transfer, 5, 1);
        engine.set_fault_plan(plan.clone());
        let report = engine
            .derive_streamed(Workload::QCriterion.source(), &fields, case.budget)
            .expect("fault is recovered");
        let label = case.label;
        assert_eq!(
            plan.faults_fired(FaultKind::Transfer),
            1,
            "{label}: the fault must fire"
        );
        let recovery = report
            .recovery
            .as_ref()
            .expect("a recovered fault produces a recovery record");
        assert!(recovery.retries >= 1, "{label}: the ladder must retry");
        assert_eq!(recovery.fallbacks, 0, "{label}: no fallback needed");
        assert_bits_equal(
            &format!("faulted {label}"),
            &clean.data,
            &report.field.expect("real mode").data,
        );
    }
}

/// The smallest slab set is one interior layer, two halo layers and the
/// `dims` header. A budget seven bytes short of it fails, and the error
/// names a request larger than the capacity; the exact size streams.
#[test]
fn out_of_memory_error_counts_the_dims_header() {
    let fields = rt_fields();
    let src = Workload::QCriterion.source();
    let minimal = 3 * LAYER + HEADER;
    let err = engine_in(ExecMode::Real)
        .derive_streamed(src, &fields, Some(3 * LAYER + 5))
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
    let report = engine_in(ExecMode::Real)
        .derive_streamed(src, &fields, Some(minimal))
        .expect("the minimal slab set streams");
    assert!(report.high_water_bytes() <= minimal);
}
