//! Automatic strategy/device selection.
//!
//! §V-D of the paper: *"This result highlights the benefit of being able to
//! select from multiple execution strategies and target devices with
//! different hardware architectures."* The paper leaves the selection to
//! the user; this module automates it: given a network, a grid size and a
//! set of candidate devices, [`plan`] predicts each feasible combination's
//! device memory (via `dfg_dataflow::memreq`, which the executors match
//! byte-for-byte) and modeled runtime (via a dry model-mode run), and ranks
//! them.

use dfg_dataflow::{memreq_units, NetworkSpec, OptLevel, Strategy};
use dfg_ocl::{DeviceProfile, ExecMode};
use dfg_trace::{span, Tracer};

use crate::engine::{Engine, EngineOptions};
use crate::error::EngineError;
use crate::fields::FieldSet;
use crate::request::{Exec, Request};

/// One feasible (device, executor) choice with its predicted cost.
#[derive(Debug, Clone)]
pub struct PlanOption {
    /// Candidate device (index into the `devices` slice passed to [`plan`]).
    pub device_index: usize,
    /// Device name, for reports.
    pub device_name: String,
    /// The executor: one of the paper's strategies, or [`Exec::Streamed`]
    /// under the device's capacity (the §VI streaming strategy), which is
    /// only offered when no single-pass strategy fits the device.
    pub exec: Exec,
    /// Predicted peak device memory in bytes.
    pub peak_bytes: u64,
    /// Predicted device runtime in seconds (transfers + kernels).
    pub seconds: f64,
}

/// The ranked outcome of planning.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Feasible options, fastest first.
    pub feasible: Vec<PlanOption>,
    /// Options rejected for exceeding device memory: `(device_index,
    /// strategy, required_bytes)`.
    pub rejected: Vec<(usize, Strategy, u64)>,
}

impl Plan {
    /// The fastest feasible option, if any.
    pub fn best(&self) -> Option<&PlanOption> {
        self.feasible.first()
    }
}

/// Rank all (device, strategy) combinations for executing `spec` over
/// meshes of `ncells` cells.
///
/// The runtime prediction of a single-pass strategy runs the real executor
/// in model mode against a virtual field set, so it reflects the exact
/// event stream that combination would issue. The streamed candidate is a
/// closed-form approximation instead: fusion's modeled time on an unbounded
/// copy of the device × (1 + 0.02 · slabs), with the slab count from
/// fusion's footprint over the capacity.
///
/// ```
/// use dfg_ocl::DeviceProfile;
///
/// let spec = dfg_expr::compile(dfg_core::workloads::Q_CRITERION).unwrap();
/// let devices = [DeviceProfile::intel_x5660(), DeviceProfile::nvidia_m2050()];
/// let plan = dfg_core::plan(&spec, 9_437_184, &devices).unwrap();
/// let best = plan.best().unwrap();
/// assert_eq!(best.exec, dfg_core::Exec::Fusion);
/// assert!(best.device_name.contains("M2050"));
/// ```
pub fn plan(
    spec: &NetworkSpec,
    ncells: u64,
    devices: &[DeviceProfile],
) -> Result<Plan, EngineError> {
    plan_traced(spec, ncells, devices, None)
}

/// [`plan`] over the *optimized* network: runs the optimizer pipeline at
/// `level` first, so memory estimates and dry runs see what an engine with
/// `EngineOptions { optimize: level, .. }` would actually execute. At
/// [`OptLevel::Off`] this is identical to [`plan`].
pub fn plan_opt(
    spec: &NetworkSpec,
    ncells: u64,
    devices: &[DeviceProfile],
    level: OptLevel,
    tracer: Option<&Tracer>,
) -> Result<Plan, EngineError> {
    let opt = dfg_dataflow::optimize_traced(spec, &[spec.result], level, tracer)?;
    plan_traced(&opt.spec, ncells, devices, tracer)
}

/// [`plan`], recording the ranking as spans: one `plan.rank` span with one
/// `plan.candidate` child per feasible (device, strategy) pair, each
/// carrying the predicted runtime and peak memory as metadata.
pub fn plan_traced(
    spec: &NetworkSpec,
    ncells: u64,
    devices: &[DeviceProfile],
    tracer: Option<&Tracer>,
) -> Result<Plan, EngineError> {
    let _rank = span!(
        tracer,
        "plan.rank",
        ncells = ncells,
        devices = devices.len()
    );
    let roots = [spec.result];
    // Virtual fields named after the network's inputs.
    let mut fields = FieldSet::new(ncells as usize);
    for (_, node) in spec.iter() {
        if let dfg_dataflow::FilterOp::Input { name, small } = &node.op {
            if *small {
                fields.insert_virtual_small(name);
            } else {
                fields.insert_virtual_scalar(name);
            }
        }
    }

    let mut feasible = Vec::new();
    let mut rejected = Vec::new();
    for (device_index, profile) in devices.iter().enumerate() {
        let mut device_has_single_pass = false;
        for strategy in Strategy::ALL {
            let required = memreq_units(spec, strategy)?.bytes(ncells);
            if required > profile.global_mem_bytes {
                rejected.push((device_index, strategy, required));
                continue;
            }
            device_has_single_pass = true;
            let mut engine = Engine::with_options(
                profile.clone(),
                EngineOptions {
                    mode: ExecMode::Model,
                    ..Default::default()
                },
            );
            let (_, report) = engine.run(&Request::network(spec, &roots, strategy), &fields)?;
            debug_assert_eq!(report.high_water_bytes(), required);
            drop(
                span!(tracer, "plan.candidate", strategy = strategy.name())
                    .meta("device", profile.name.as_str())
                    .meta("peak_bytes", required)
                    .meta("seconds", report.device_seconds()),
            );
            feasible.push(PlanOption {
                device_index,
                device_name: profile.name.clone(),
                exec: strategy.into(),
                peak_bytes: required,
                seconds: report.device_seconds(),
            });
        }
        // §VI streaming fallback: offered when nothing single-pass fits,
        // and the memory footprint (not register residency) is what blocks
        // fusion. Gradient programs need a concrete dims shape to predict
        // slab counts, which a pure (spec, ncells) plan lacks; the flat
        // elementwise estimate is exact for stencil-free programs and a
        // lower bound otherwise.
        if !device_has_single_pass {
            // Per-cell device bytes under streaming ≈ fusion's per-cell
            // footprint; slabs bound the peak at the device capacity.
            let fusion_bytes = memreq_units(spec, Strategy::Fusion)?.bytes(ncells);
            let slabs = fusion_bytes.div_ceil(profile.global_mem_bytes).max(2);
            // Model a streamed run as fusion's traffic plus halo overhead
            // per extra slab (~2 layers of every input per slab boundary —
            // small; approximate with 2 % per slab).
            let mut engine = Engine::with_options(
                DeviceProfile {
                    global_mem_bytes: u64::MAX,
                    ..profile.clone()
                },
                EngineOptions {
                    mode: ExecMode::Model,
                    ..Default::default()
                },
            );
            let request = Request::network(spec, &roots, Strategy::Fusion);
            let (_, report) = engine.run(&request, &fields)?;
            drop(
                span!(tracer, "plan.candidate", strategy = "streamed")
                    .meta("device", profile.name.as_str())
                    .meta("slabs", slabs),
            );
            feasible.push(PlanOption {
                device_index,
                device_name: profile.name.clone(),
                exec: Exec::Streamed(None),
                peak_bytes: profile.global_mem_bytes,
                seconds: report.device_seconds() * (1.0 + 0.02 * slabs as f64),
            });
        }
    }
    feasible.sort_by(|a, b| a.seconds.total_cmp(&b.seconds));
    Ok(Plan { feasible, rejected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use dfg_expr::compile;

    fn devices() -> Vec<DeviceProfile> {
        vec![DeviceProfile::intel_x5660(), DeviceProfile::nvidia_m2050()]
    }

    #[test]
    fn small_grids_prefer_gpu_fusion() {
        let spec = compile(Workload::QCriterion.source()).unwrap();
        let plan = plan(&spec, 9_437_184, &devices()).unwrap();
        let best = plan.best().expect("feasible options exist");
        assert_eq!(best.exec, Exec::Fusion);
        assert_eq!(best.device_index, 1, "GPU should win when everything fits");
        assert!(plan.rejected.is_empty());
        // Ranking is sorted.
        for pair in plan.feasible.windows(2) {
            assert!(pair[0].seconds <= pair[1].seconds);
        }
    }

    #[test]
    fn staged_rejected_on_gpu_for_big_grids() {
        // The §V-D scenario: GPU staged infeasible, CPU staged still beats
        // GPU roundtrip, GPU fusion best of all.
        let spec = compile(Workload::QCriterion.source()).unwrap();
        let n = 75_497_472; // 192 x 192 x 2048
        let plan = plan(&spec, n, &devices()).unwrap();
        assert!(
            plan.rejected
                .iter()
                .any(|&(dev, st, _)| dev == 1 && st == Strategy::Staged),
            "GPU staged must be memory-rejected"
        );
        let best = plan.best().unwrap();
        assert_eq!((best.device_index, best.exec), (1, Exec::Fusion));
        let pos = |dev: usize, st: Strategy| {
            plan.feasible
                .iter()
                .position(|o| o.device_index == dev && o.exec == st.into())
                .expect("present")
        };
        assert!(
            pos(0, Strategy::Staged) < pos(1, Strategy::Roundtrip),
            "CPU staged should outrank GPU roundtrip, as in the paper"
        );
    }

    #[test]
    fn tiny_device_falls_back_to_streaming() {
        let mut tiny = DeviceProfile::nvidia_m2050();
        tiny.global_mem_bytes = 1 << 20; // 1 MiB
        let spec = compile(Workload::VelocityMagnitude.source()).unwrap();
        let plan = plan(&spec, 1_000_000, &[tiny]).unwrap();
        // All three single-pass strategies rejected…
        assert_eq!(plan.rejected.len(), 3);
        // …but the streamed fallback is offered and respects the capacity.
        let best = plan.best().expect("streamed fallback present");
        assert_eq!(best.exec, Exec::Streamed(None));
        assert_eq!(best.peak_bytes, 1 << 20);
    }

    #[test]
    fn largest_grid_gets_streamed_option_on_gpu() {
        // 192x192x3072 Q-criterion: every single-pass strategy fails on the
        // M2050 (Figure 5's gray points); planning offers streamed fusion.
        let spec = compile(Workload::QCriterion.source()).unwrap();
        let plan = plan(&spec, 113_246_208, &devices()).unwrap();
        let gpu_stream = plan
            .feasible
            .iter()
            .find(|o| o.device_index == 1 && o.exec == Exec::Streamed(None))
            .expect("streamed GPU option");
        // It should still beat CPU fusion (GPU bandwidth dominates the
        // small halo overhead).
        let cpu_fusion = plan
            .feasible
            .iter()
            .find(|o| o.device_index == 0 && o.exec == Exec::Fusion)
            .expect("CPU fusion fits in 96 GB");
        assert!(gpu_stream.seconds < cpu_fusion.seconds);
    }

    #[test]
    fn plan_predictions_match_execution() {
        let spec = compile(Workload::VorticityMagnitude.source()).unwrap();
        let n = 9_437_184u64;
        let plan = plan(&spec, n, &devices()).unwrap();
        // Re-run the best option and confirm the prediction was exact.
        let best = plan.best().unwrap().clone();
        let mut engine = Engine::with_options(
            devices()[best.device_index].clone(),
            EngineOptions {
                mode: ExecMode::Model,
                ..Default::default()
            },
        );
        let fields = crate::FieldSet::virtual_rt([192, 192, 256]);
        let roots = [spec.result];
        let request = Request::network(&spec, &roots, best.exec);
        let (_, report) = engine.run(&request, &fields).unwrap();
        assert_eq!(report.high_water_bytes(), best.peak_bytes);
        assert!((report.device_seconds() - best.seconds).abs() < 1e-12);
    }
}
