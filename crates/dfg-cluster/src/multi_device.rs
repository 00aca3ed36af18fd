//! Single-node multi-device execution — the paper's §VI future work
//! (*"we plan to explore new execution strategies, including strategies
//! that use multiple target devices on a single node"*), implemented.
//!
//! One `derive` call is split across several devices on the same node: the
//! mesh is sliced into z-slabs (one per device), each device receives its
//! slab **plus a one-cell halo** sliced directly from the host arrays (on a
//! single node the halo needs no message passing — host memory is shared),
//! the devices run concurrently on their own threads, and the interiors are
//! concatenated back. Results are bit-identical to a single-device run.

use dfg_core::{
    Engine, EngineError, EngineOptions, Field, FieldSet, RecoveryPolicy, RecoveryReport, Request,
    Strategy,
};
use dfg_dataflow::Width;
use dfg_ocl::{DeviceProfile, ExecMode, FaultPlan, ProfileReport};

use crate::runner::{panic_reason, ClusterError};

/// Per-run knobs for [`run_multi_device_with`]: device-level recovery and
/// fault injection.
#[derive(Debug, Clone)]
pub struct MultiDeviceOptions {
    /// Recovery policy installed on every device's engine. Each device
    /// retries transient faults and walks the strategy fallback chain
    /// independently — one flaky device degrades its own slab only.
    pub recovery: RecoveryPolicy,
    /// Fault specs installed on specific devices: `(device index, spec)`
    /// pairs parsed by [`dfg_ocl::FaultPlan::parse`]. Devices without an
    /// entry run fault-free.
    pub fault_specs: Vec<(usize, String)>,
}

impl Default for MultiDeviceOptions {
    fn default() -> Self {
        MultiDeviceOptions {
            recovery: RecoveryPolicy::disabled(),
            fault_specs: Vec::new(),
        }
    }
}

/// Result of a multi-device run.
#[derive(Debug, Clone)]
pub struct MultiDeviceResult {
    /// The assembled derived field over the full mesh.
    pub field: Field,
    /// Per-device profiles, in device order.
    pub device_profiles: Vec<ProfileReport>,
    /// Modeled makespan: the slowest device's runtime.
    pub makespan_seconds: f64,
    /// Devices that completed their slab on a fallback strategy rather
    /// than the requested one (sorted). Empty when nothing degraded.
    pub degraded_devices: Vec<usize>,
    /// Per-device recovery attempt logs, in device order (empty reports
    /// for devices whose engines never engaged recovery).
    pub device_recovery: Vec<RecoveryReport>,
}

/// Derive `source` over a `dims` mesh using every device in `devices`
/// concurrently (z-slab decomposition with one-cell halos).
///
/// `fields` must carry real data (this is an execution strategy, not a
/// model). Fields must be scalar; the small `dims` entry is synthesized per
/// slab.
pub fn run_multi_device(
    source: &str,
    fields: &FieldSet,
    dims: [usize; 3],
    devices: &[DeviceProfile],
    strategy: Strategy,
) -> Result<MultiDeviceResult, ClusterError> {
    run_multi_device_with(
        source,
        fields,
        dims,
        devices,
        strategy,
        &MultiDeviceOptions::default(),
    )
}

/// [`run_multi_device`] with per-device recovery and fault injection.
///
/// A fault on one device engages that device's recovery ladder (retry the
/// level, then fall down the strategy chain) without disturbing its
/// siblings; unrecovered faults surface as a device-tagged
/// [`ClusterError::Engine`]. Device-thread panics are caught and reported
/// as typed errors instead of poisoning the join.
pub fn run_multi_device_with(
    source: &str,
    fields: &FieldSet,
    dims: [usize; 3],
    devices: &[DeviceProfile],
    strategy: Strategy,
    opts: &MultiDeviceOptions,
) -> Result<MultiDeviceResult, ClusterError> {
    let ndev = devices.len();
    if ndev == 0 {
        return Err(ClusterError::Config("no devices".into()));
    }
    let n = dims[0] * dims[1] * dims[2];
    if fields.ncells() != n {
        return Err(ClusterError::Config(format!(
            "fields hold {} cells, dims say {n}",
            fields.ncells()
        )));
    }
    let nz = dims[2];
    if ndev > nz {
        return Err(ClusterError::Config(format!(
            "{ndev} devices for only {nz} z-layers"
        )));
    }
    let plane = dims[0] * dims[1];

    // Parse per-device fault specs up front so a bad spec is a config
    // error, not a mid-run surprise.
    let mut plans: Vec<Option<FaultPlan>> = vec![None; ndev];
    for (d, spec) in &opts.fault_specs {
        if *d >= ndev {
            return Err(ClusterError::Config(format!(
                "fault spec targets device {d}, but only {ndev} devices are configured"
            )));
        }
        plans[*d] = Some(
            FaultPlan::parse(spec)
                .map_err(|e| ClusterError::Config(format!("bad fault spec: {e}")))?,
        );
    }

    // Slab extents: near-equal z ranges.
    let base = nz / ndev;
    let rem = nz % ndev;
    let mut slabs = Vec::with_capacity(ndev);
    let mut z0 = 0usize;
    for d in 0..ndev {
        let len = base + usize::from(d < rem);
        slabs.push((z0, z0 + len));
        z0 += len;
    }

    // The field names the expression needs (besides mesh-provided dims).
    let spec = dfg_expr::compile(source)
        .map_err(|e| ClusterError::Config(format!("bad expression: {e}")))?;
    let mut names: Vec<String> = spec
        .input_names()
        .into_iter()
        .filter(|n| *n != "dims")
        .map(str::to_string)
        .collect();
    names.sort();
    names.dedup();

    type DeviceOut = (usize, Field, ProfileReport, Option<RecoveryReport>);
    let outputs: Vec<Result<DeviceOut, ClusterError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .iter()
            .enumerate()
            .map(|(d, profile)| {
                let (z0, z1) = slabs[d];
                let names = &names;
                let profile = profile.clone();
                let plan = plans[d].clone();
                let recovery = opts.recovery;
                scope.spawn(move || {
                    let gz0 = z0.saturating_sub(1);
                    let gz1 = (z1 + 1).min(nz);
                    let slab_cells = plane * (gz1 - gz0);
                    let mut slab_fields = FieldSet::new(slab_cells);
                    for name in names {
                        let fv = fields.get(name).ok_or_else(|| {
                            ClusterError::Config(format!("missing field `{name}`"))
                        })?;
                        let data = fv.data.as_ref().ok_or_else(|| {
                            ClusterError::Config("multi-device execution needs real data".into())
                        })?;
                        slab_fields
                            .insert_scalar(name, data[plane * gz0..plane * gz1].to_vec())
                            .map_err(|_| {
                                ClusterError::Config(format!(
                                    "field `{name}` is not a problem-sized scalar"
                                ))
                            })?;
                    }
                    slab_fields.insert_small(
                        "dims",
                        vec![dims[0] as f32, dims[1] as f32, (gz1 - gz0) as f32],
                    );
                    let mut engine = Engine::with_options(
                        profile,
                        EngineOptions {
                            mode: ExecMode::Real,
                            recovery,
                            ..Default::default()
                        },
                    );
                    if let Some(plan) = plan {
                        engine.set_fault_plan(plan);
                    }
                    let (mut out, report) = engine
                        .run(&Request::source(source, strategy), &slab_fields)
                        .map_err(|source: EngineError| ClusterError::Engine { rank: d, source })?;
                    let out = out.pop().expect("real mode");
                    // Extract the interior layers [z0, z1).
                    let lanes = match out.width {
                        Width::Vec4 => 4,
                        _ => 1,
                    };
                    let start = (z0 - gz0) * plane * lanes;
                    let len = (z1 - z0) * plane * lanes;
                    let interior = Field {
                        width: out.width,
                        ncells: (z1 - z0) * plane,
                        data: out.data[start..start + len].to_vec(),
                    };
                    Ok((d, interior, report.profile, report.recovery))
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(d, h)| {
                h.join().unwrap_or_else(|payload| {
                    Err(ClusterError::Config(format!(
                        "device {d} thread panicked: {}",
                        panic_reason(payload.as_ref())
                    )))
                })
            })
            .collect()
    });

    // Assemble in z order.
    let mut parts: Vec<Option<(Field, ProfileReport, Option<RecoveryReport>)>> =
        (0..ndev).map(|_| None).collect();
    for out in outputs {
        let (d, field, profile, recovery) = out?;
        parts[d] = Some((field, profile, recovery));
    }
    let mut device_profiles = Vec::with_capacity(ndev);
    let mut device_recovery = Vec::with_capacity(ndev);
    let mut degraded_devices = Vec::new();
    let mut data = Vec::with_capacity(n);
    let mut width = Width::Scalar;
    for (d, part) in parts.into_iter().flatten().enumerate() {
        width = part.0.width;
        data.extend_from_slice(&part.0.data);
        device_profiles.push(part.1);
        let report = part.2.unwrap_or_default();
        if report.degraded {
            degraded_devices.push(d);
        }
        device_recovery.push(report);
    }
    let makespan = device_profiles
        .iter()
        .map(ProfileReport::device_seconds)
        .fold(0.0f64, f64::max);
    Ok(MultiDeviceResult {
        field: Field {
            width,
            ncells: n,
            data,
        },
        device_profiles,
        makespan_seconds: makespan,
        degraded_devices,
        device_recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfg_core::Workload;
    use dfg_mesh::{RectilinearMesh, RtWorkload};

    fn prepare(dims: [usize; 3]) -> (FieldSet, Field) {
        let mesh = RectilinearMesh::unit_cube(dims);
        let fields = FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default());
        let mut engine = Engine::new(DeviceProfile::nvidia_m2050());
        let single = engine
            .run(
                &Request::source(Workload::QCriterion.source(), Strategy::Fusion),
                &fields,
            )
            .unwrap()
            .0
            .remove(0);
        (fields, single)
    }

    #[test]
    fn two_devices_bit_identical_to_one() {
        let dims = [10usize, 9, 12];
        let (fields, single) = prepare(dims);
        let devices = vec![DeviceProfile::nvidia_m2050(); 2];
        let result = run_multi_device(
            Workload::QCriterion.source(),
            &fields,
            dims,
            &devices,
            Strategy::Fusion,
        )
        .unwrap();
        assert_eq!(result.device_profiles.len(), 2);
        assert_eq!(result.field.data.len(), single.data.len());
        for i in 0..single.data.len() {
            assert_eq!(
                result.field.data[i].to_bits(),
                single.data[i].to_bits(),
                "cell {i}"
            );
        }
    }

    #[test]
    fn three_uneven_devices_still_exact() {
        let dims = [6usize, 5, 11]; // 11 layers across 3 devices: 4+4+3
        let (fields, single) = prepare(dims);
        let devices = vec![DeviceProfile::nvidia_m2050(); 3];
        let result = run_multi_device(
            Workload::QCriterion.source(),
            &fields,
            dims,
            &devices,
            Strategy::Fusion,
        )
        .unwrap();
        assert_eq!(
            result
                .field
                .data
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            single.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn splitting_reduces_per_device_footprint_and_makespan() {
        let dims = [8usize, 8, 16];
        let (fields, _) = prepare(dims);
        let one = run_multi_device(
            Workload::QCriterion.source(),
            &fields,
            dims,
            &[DeviceProfile::nvidia_m2050()],
            Strategy::Fusion,
        )
        .unwrap();
        let two = run_multi_device(
            Workload::QCriterion.source(),
            &fields,
            dims,
            &vec![DeviceProfile::nvidia_m2050(); 2],
            Strategy::Fusion,
        )
        .unwrap();
        assert!(two.makespan_seconds < one.makespan_seconds);
        let peak1 = one.device_profiles[0].high_water_bytes;
        let peak2 = two.device_profiles[0].high_water_bytes;
        assert!(
            peak2 < peak1,
            "per-device memory must shrink: {peak1} -> {peak2}"
        );
    }

    #[test]
    fn works_with_all_strategies() {
        let dims = [6usize, 6, 8];
        let (fields, single) = prepare(dims);
        for strategy in Strategy::ALL {
            let result = run_multi_device(
                Workload::QCriterion.source(),
                &fields,
                dims,
                &vec![DeviceProfile::intel_x5660(); 2],
                strategy,
            )
            .unwrap();
            for i in 0..single.data.len() {
                let delta = (result.field.data[i] - single.data[i]).abs();
                assert!(
                    delta <= 1e-5 * single.data[i].abs().max(1.0),
                    "{strategy} at {i}"
                );
            }
        }
    }

    /// A transient transfer fault on ONE device engages that device's
    /// recovery ladder (a retry on the requested level) while its siblings
    /// run clean — and the assembled field stays bit-identical.
    #[test]
    fn fault_on_one_device_recovers_without_disturbing_siblings() {
        let dims = [8usize, 7, 12];
        let (fields, single) = prepare(dims);
        let devices = vec![DeviceProfile::nvidia_m2050(); 3];
        let result = run_multi_device_with(
            Workload::QCriterion.source(),
            &fields,
            dims,
            &devices,
            Strategy::Fusion,
            &MultiDeviceOptions {
                recovery: RecoveryPolicy::resilient(),
                fault_specs: vec![(1, "transfer@2".into())],
            },
        )
        .unwrap();
        // Device 1 retried; nobody degraded; siblings never engaged
        // recovery at all.
        assert!(result.device_recovery[1].retries > 0);
        assert!(result.degraded_devices.is_empty());
        assert_eq!(result.device_recovery[0].retries, 0);
        assert_eq!(result.device_recovery[2].retries, 0);
        for i in 0..single.data.len() {
            assert_eq!(
                result.field.data[i].to_bits(),
                single.data[i].to_bits(),
                "cell {i}"
            );
        }
    }

    /// A persistent allocation fault on ONE device walks it down the
    /// fallback chain (degraded), siblings stay on the requested strategy,
    /// and the output is still bit-identical to a clean single-device run.
    #[test]
    fn persistent_fault_degrades_only_the_faulty_device() {
        let dims = [6usize, 6, 9];
        let (fields, single) = prepare(dims);
        let devices = vec![DeviceProfile::nvidia_m2050(); 3];
        let result = run_multi_device_with(
            Workload::QCriterion.source(),
            &fields,
            dims,
            &devices,
            Strategy::Fusion,
            &MultiDeviceOptions {
                recovery: RecoveryPolicy::resilient(),
                fault_specs: vec![(2, "alloc@1x2".into())],
            },
        )
        .unwrap();
        assert_eq!(result.degraded_devices, vec![2]);
        assert!(result.device_recovery[2].fallbacks > 0);
        assert!(result.device_recovery[0].fallbacks == 0);
        assert!(result.device_recovery[1].fallbacks == 0);
        for i in 0..single.data.len() {
            assert_eq!(
                result.field.data[i].to_bits(),
                single.data[i].to_bits(),
                "cell {i}"
            );
        }
    }

    /// Without recovery, the faulty device's error surfaces device-tagged;
    /// a spec naming a device that does not exist is a config error.
    #[test]
    fn unrecovered_device_fault_is_device_tagged() {
        let dims = [6usize, 6, 8];
        let (fields, _) = prepare(dims);
        let devices = vec![DeviceProfile::nvidia_m2050(); 2];
        let err = run_multi_device_with(
            Workload::QCriterion.source(),
            &fields,
            dims,
            &devices,
            Strategy::Fusion,
            &MultiDeviceOptions {
                recovery: RecoveryPolicy::disabled(),
                fault_specs: vec![(1, "compile@1".into())],
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, ClusterError::Engine { rank: 1, .. }),
            "got {err}"
        );
        let err = run_multi_device_with(
            Workload::QCriterion.source(),
            &fields,
            dims,
            &devices,
            Strategy::Fusion,
            &MultiDeviceOptions {
                recovery: RecoveryPolicy::disabled(),
                fault_specs: vec![(7, "compile@1".into())],
            },
        )
        .unwrap_err();
        assert!(matches!(&err, ClusterError::Config(_)), "got {err}");
    }

    #[test]
    fn config_errors() {
        let dims = [4usize, 4, 2];
        let (fields, _) = prepare(dims);
        assert!(matches!(
            run_multi_device("r = u", &fields, dims, &[], Strategy::Fusion),
            Err(ClusterError::Config(_))
        ));
        let many = vec![DeviceProfile::nvidia_m2050(); 5];
        assert!(matches!(
            run_multi_device("r = u", &fields, dims, &many, Strategy::Fusion),
            Err(ClusterError::Config(_))
        ));
        let wrong_dims = [4usize, 4, 3];
        assert!(matches!(
            run_multi_device("r = u", &fields, wrong_dims, &many[..1], Strategy::Fusion),
            Err(ClusterError::Config(_))
        ));
    }
}
