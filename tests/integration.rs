//! Cross-crate integration tests: the full pipeline from expression text to
//! derived field, exercised through the `dfg` facade exactly as a host
//! application would use it.

use dfg::cluster::{run_distributed, Cluster, DistOptions};
use dfg::core::{EngineOptions, FieldSet, Workload};
use dfg::ocl::{EventKind, ExecMode};
use dfg::prelude::*;

fn rt_fields(dims: [usize; 3]) -> (RectilinearMesh, FieldSet) {
    let mesh = RectilinearMesh::unit_cube(dims);
    let fields = FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default());
    (mesh, fields)
}

#[test]
fn facade_end_to_end_all_workloads_all_strategies() {
    let (_, fields) = rt_fields([10, 9, 8]);
    let mut engine = Engine::new(DeviceProfile::intel_x5660());
    for workload in Workload::ALL {
        let mut outputs = Vec::new();
        for strategy in Strategy::ALL {
            let (mut out, report) = engine
                .run(&Request::source(workload.source(), strategy), &fields)
                .unwrap_or_else(|e| panic!("{workload}/{strategy}: {e}"));
            assert_eq!(report.table2_row(), workload.paper_table2(strategy));
            outputs.push(out.remove(0).data);
        }
        let reference = engine.run_reference(workload, &fields).expect("reference");
        let ref_data = reference.field.expect("real mode").data;
        let scale = ref_data.iter().fold(1e-6f32, |a, &x| a.max(x.abs()));
        for (i, out) in outputs.iter().enumerate() {
            for c in 0..out.len() {
                assert!(
                    (out[c] - ref_data[c]).abs() <= 1e-4 * scale,
                    "{workload} strategy #{i} vs reference at {c}"
                );
            }
        }
    }
}

#[test]
fn oom_cascade_matches_paper_discussion() {
    // §V-D: cases exist where staged fails on the GPU while the CPU (or a
    // leaner strategy) succeeds — the motivation for strategy flexibility.
    let grid = [192usize, 192, 1024];
    let fields = FieldSet::virtual_rt(grid);
    let mut gpu = Engine::with_options(
        DeviceProfile::nvidia_m2050(),
        EngineOptions {
            mode: ExecMode::Model,
            ..Default::default()
        },
    );
    let mut cpu = Engine::with_options(
        DeviceProfile::intel_x5660(),
        EngineOptions {
            mode: ExecMode::Model,
            ..Default::default()
        },
    );
    let src = Workload::QCriterion.source();
    // GPU staged: fails on memory.
    assert!(gpu
        .run(&Request::source(src, Strategy::Staged), &fields)
        .unwrap_err()
        .is_out_of_memory());
    // GPU fusion: fits and is fast.
    let (_, gpu_fusion) = gpu
        .run(&Request::source(src, Strategy::Fusion), &fields)
        .expect("fusion fits");
    // CPU staged: always completes.
    let (_, cpu_staged) = cpu
        .run(&Request::source(src, Strategy::Staged), &fields)
        .expect("CPU staged");
    // GPU roundtrip also completes (smallest device footprint).
    let (_, gpu_rt) = gpu
        .run(&Request::source(src, Strategy::Roundtrip), &fields)
        .expect("GPU roundtrip");
    // The paper's observed ordering: CPU staged beats GPU roundtrip.
    assert!(
        cpu_staged.device_seconds() < gpu_rt.device_seconds(),
        "CPU staged {} should beat GPU roundtrip {}",
        cpu_staged.device_seconds(),
        gpu_rt.device_seconds()
    );
    // And GPU fusion beats both.
    assert!(gpu_fusion.device_seconds() < cpu_staged.device_seconds());
}

#[test]
fn profile_event_labels_are_meaningful() {
    let (_, fields) = rt_fields([6, 6, 6]);
    let mut engine = Engine::new(DeviceProfile::intel_x5660());
    let (_, report) = engine
        .run(
            &Request::source(Workload::VorticityMagnitude.source(), Strategy::Staged),
            &fields,
        )
        .expect("staged run");
    let kernel_labels: Vec<&str> = report
        .profile
        .events
        .iter()
        .filter(|e| e.kind == EventKind::KernelExec)
        .map(|e| e.label.as_str())
        .collect();
    assert!(kernel_labels.contains(&"grad3d"));
    assert!(kernel_labels.iter().any(|l| l.starts_with("decompose_s")));
    assert!(kernel_labels.contains(&"sqrt"));
    // Fusion events carry the compile record.
    let (_, report) = engine
        .run(
            &Request::source(Workload::VorticityMagnitude.source(), Strategy::Fusion),
            &fields,
        )
        .expect("fusion run");
    assert_eq!(report.profile.count(EventKind::KernelCompile), 1);
}

#[test]
fn distributed_pipeline_renders() {
    let global = RectilinearMesh::unit_cube([24, 24, 24]);
    let result = run_distributed(
        &global,
        [2, 2, 2],
        &RtWorkload::paper_default(),
        &Cluster {
            nodes: 2,
            devices_per_node: 2,
            profile: DeviceProfile::nvidia_m2050(),
        },
        &DistOptions {
            workload: Workload::QCriterion,
            strategy: Strategy::Fusion,
            mode: ExecMode::Real,
            ..Default::default()
        },
    )
    .expect("distributed run");
    let field = result.field.expect("real mode");
    let img = dfg::cluster::render::render_slice(&field, [24, 24, 24], 2, 12);
    assert_eq!((img.width, img.height), (24, 24));
    assert_eq!(img.pixels.len(), 3 * 24 * 24);
    // The Q-criterion changes sign, so the rendering uses the full
    // diverging map: both blue-ish and red-ish pixels appear.
    let has_blue = img.pixels.chunks(3).any(|p| p[2] > p[0].saturating_add(30));
    let has_red = img.pixels.chunks(3).any(|p| p[0] > p[2].saturating_add(30));
    assert!(has_blue && has_red, "diverging colormap not exercised");
}

#[test]
fn network_builder_api_direct_use() {
    // §III-B.1: the network definition API "can also be used directly from
    // Python, by a user or by a host application" — here, directly from
    // Rust, bypassing the parser.
    use dfg::dataflow::{BinKind, NetworkBuilder, UnKind};
    let mut b = NetworkBuilder::new();
    let u = b.input("u");
    let v = b.input("v");
    let uu = b.binary(BinKind::Mul, u, u);
    let vv = b.binary(BinKind::Mul, v, v);
    let sum = b.binary(BinKind::Add, uu, vv);
    let mag = b.unary(UnKind::Sqrt, sum);
    b.name(mag, "speed2d");
    let spec = b.finish(mag);

    let mut fields = FieldSet::new(4);
    fields
        .insert_scalar("u", vec![3.0, 0.0, 1.0, -3.0])
        .unwrap();
    fields
        .insert_scalar("v", vec![4.0, 2.0, 1.0, -4.0])
        .unwrap();
    let mut engine = Engine::new(DeviceProfile::intel_x5660());
    let out = engine
        .run(
            &Request::network(&spec, &[spec.result], Strategy::Fusion),
            &fields,
        )
        .expect("builder-made network runs")
        .0
        .remove(0);
    let s = out.as_scalar().expect("scalar");
    assert!((s[0] - 5.0).abs() < 1e-6);
    assert!((s[3] - 5.0).abs() < 1e-6);
}

#[test]
fn expression_errors_surface_cleanly() {
    let (_, fields) = rt_fields([4, 4, 4]);
    let mut engine = Engine::new(DeviceProfile::intel_x5660());
    // Syntax error.
    let err = engine
        .run(&Request::source("v = sqrt(u", Strategy::Fusion), &fields)
        .unwrap_err();
    assert!(err.to_string().contains("expected"), "{err}");
    // Unknown function.
    let err = engine
        .run(
            &Request::source("v = laplacian(u)", Strategy::Fusion),
            &fields,
        )
        .unwrap_err();
    assert!(err.to_string().contains("unknown function"), "{err}");
    // Known function, wrong arity (curl is a compound sugar function).
    let err = engine
        .run(&Request::source("v = curl(u)", Strategy::Fusion), &fields)
        .unwrap_err();
    assert!(err.to_string().contains("takes 7 argument"), "{err}");
    // Width misuse.
    let err = engine
        .run(
            &Request::source("v = sqrt(grad3d(u, dims, x, y, z))", Strategy::Fusion),
            &fields,
        )
        .unwrap_err();
    assert!(err.to_string().contains("invalid network"), "{err}");
}

#[test]
fn vector_valued_results_are_returned_as_vec4() {
    // A program whose final value is a gradient: the host gets a Vec4 field.
    let (mesh, fields) = rt_fields([6, 5, 4]);
    let mut engine = Engine::new(DeviceProfile::intel_x5660());
    for strategy in Strategy::ALL {
        let out = engine
            .run(
                &Request::source("g = grad3d(u, dims, x, y, z)", strategy),
                &fields,
            )
            .unwrap_or_else(|e| panic!("{strategy}: {e}"))
            .0
            .remove(0);
        assert_eq!(out.data.len(), 4 * mesh.ncells());
        let dx = out.component(0).expect("vec4 component");
        assert_eq!(dx.len(), mesh.ncells());
        assert!(out.as_scalar().is_none());
    }
}
